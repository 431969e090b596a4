//! The Summit campaign simulator.
//!
//! §5 of the paper evaluates MuMMI through a three-month campaign on
//! Summit: several runs at 100–4000 nodes (Table 1), tens of thousands of
//! CG/AA simulations (Figure 3), per-scale simulation performance
//! (Figure 4), resource occupancy (Figure 5), job-scheduling history
//! (Figure 6), and feedback timing (Figure 8). This crate reruns that
//! campaign in virtual time over the real coordination stack:
//!
//! - [`perf`] — the per-scale performance models, calibrated to the
//!   paper's numbers (continuum ∽0.96 ms/day at 3600 cores; CG ∽1.04
//!   µs/day/GPU at ∽140 K particles, including the ddcMD-MPI slowdown
//!   episode; AA ∽13.98 ns/day at ∽1.575 M atoms);
//! - [`Campaign`] — a multi-run campaign with checkpoint/restart across
//!   allocations of different sizes, driving a [`mummi_core::WorkflowManager`]
//!   over a [`sched::SchedEngine`] with the Summit resource graph;
//! - [`feedback_model`] — the AA→CG feedback timing model behind Figure 8
//!   (2 s/frame external calls over a worker pool, iterations every ~10
//!   minutes);
//! - [`PersistentCampaign`] — the paper's §6 "Next Leap", implemented: a
//!   campaign that hops across variable-sized allocations on different
//!   clusters through its checkpoints.

pub mod control;
pub mod driver;
pub mod failures;
pub mod feedback_model;
pub mod perf;
mod persistent;
mod run;
pub mod sweep;

pub use control::{ceil_hour, RunControl};
pub use driver::{advance_clock, next_horizon, Horizon, WakeSource};
pub use failures::FailureProcess;
pub use feedback_model::{FeedbackTimingModel, Iteration};
pub use perf::{AaPerf, CgPerf, ContinuumPerf};
pub use persistent::{AllocationOffer, ClusterUsage, PersistentCampaign};
pub use run::{Campaign, CampaignConfig, ConfigError, RunReport, StoreBackend};
pub use sweep::{run_table_runs, run_table_runs_serial, SweepResult, SweepRun};
