//! Deterministic chaos engineering for the campaign simulator.
//!
//! The paper's robustness claim is that MuMMI "can be restored completely
//! after any such crash without much loss of data" (§4.4) while surviving
//! node failures, I/O faults, and job loss across a months-long campaign.
//! This crate turns that claim into a testable contract:
//!
//! * [`FaultPlan`] — a seeded schedule of typed faults ([`FaultKind`])
//!   stamped at virtual times; the seed and shape are the reproduction
//!   recipe. The same plan applied to the same campaign seed must produce
//!   a byte-identical trace; fault injection is part of the determinism
//!   contract, not an exception to it.
//! * [`RunLedger`] — campaign-level accounting collected across every
//!   workflow-manager incarnation of a run. [`RunLedger::check`] asserts
//!   that no job is lost or double-counted: scheduler totals conserve,
//!   tracker totals conserve, and the two sides reconcile exactly.
//! * [`MonotonicWatch`] — a counter watchdog that flags any lifetime
//!   counter observed to decrease (restore bugs show up as counters
//!   rewinding).
//!
//! The four fault types map to the paper's §4.4 failure modes:
//!
//! | fault              | paper failure mode                               |
//! |--------------------|--------------------------------------------------|
//! | [`FaultKind::NodeFail`]   | hardware node failure, drained by Flux    |
//! | [`FaultKind::StoreFaults`]| file-system outages / I/O degradation     |
//! | [`FaultKind::JobHang`]    | hung simulations caught by WM timeouts    |
//! | [`FaultKind::WmCrash`]    | workflow-manager crash → restore from     |
//! |                           | checkpoint                                |

//!
//! Service-level chaos adds a fifth mode: [`WorkerKillPlan`] schedules
//! worker-thread deaths in the campaign farm on its logical progress
//! clock (completed legs), exercising checkpoint recovery across workers.
//! With the datastore promoted to a real server, [`StoreChaosPlan`]
//! points the fault windows at the genuine articles — TCP connections
//! severed between request and ack, and write-ahead logs with torn
//! tails — instead of in-process injected store errors.

mod invariants;
mod kill;
mod netfault;
mod plan;

pub use invariants::{MonotonicWatch, RunLedger};
pub use kill::{WorkerKill, WorkerKillPlan};
pub use netfault::{StoreChaosPlan, WalTruncation};
pub use plan::{FaultEvent, FaultKind, FaultPlan, PlanShape};
