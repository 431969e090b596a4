//! The campaign farm: a multi-tenant service wrapper around the
//! deterministic campaign simulator.
//!
//! The paper runs MuMMI as one campaign per allocation; the obvious next
//! operational shape — and ROADMAP item 2 — is a long-running *service*
//! that accepts campaign submissions from several tenants, runs them
//! concurrently on a shared worker pool, streams progress back live, and
//! supports pause → checkpoint → resume plus mid-flight rescaling using
//! the same `WmCheckpoint` machinery the batch binaries use.
//!
//! The layering, bottom-up:
//!
//! - [`admission`] — the pure fair-share pick (fewest running legs, then
//!   fewest consumed node-hours, then FIFO);
//! - [`FarmCore`] — every farm decision as a plain state machine: the
//!   campaign registry, event logs, worker slots, pause/resume/rescale
//!   and the chaos [`chaos::WorkerKillPlan`] hook, with no lock, thread,
//!   socket or clock;
//! - [`Farm`] — the thread shell: the core behind one lock, the worker
//!   pool, and the condition variables that wake workers and waiters;
//! - [`proto`] — the strict JSON wire protocol;
//! - [`FarmServer`] / [`FarmClient`] — JSON-lines-over-TCP transport
//!   (std networking; the workspace carries no async runtime, and the
//!   farm does not need one — its concurrency budget is the worker pool).
//!
//! The contract that makes the service trustworthy: a campaign run
//! through the farm produces a **byte-identical same-seed trace** to the
//! batch path. The shell adds wall-clock concurrency around legs, never
//! inside them (see [`farm`] module docs for the full determinism
//! boundary), and the integration tests pin that equality over the wire.

pub mod admission;
pub mod client;
pub mod core;
pub mod farm;
pub mod proto;
pub mod server;

pub use crate::core::{CampaignStatus, Claim, EntryState, FarmCore, FarmEvent, FarmStats, Leg};
pub use client::FarmClient;
pub use farm::Farm;
pub use proto::{Request, SubmitSpec};
pub use server::FarmServer;
