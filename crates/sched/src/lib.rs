//! A Flux-like single-user workload manager in virtual time.
//!
//! MuMMI runs Flux inside a batch allocation as an "isolated HPC system"
//! with throughput-oriented policies: "first come, first served with no
//! backfilling" queuing and "low resource ID first" matching (§4.3). The
//! 4000-node run exposed that the queue manager (Q) and resource matcher
//! (R) "communicate synchronously": Q spends its time ingesting submissions
//! instead of forwarding work, so placement happens "in large chunks
//! followed by large periods of inactivity" (Figure 6). The fixes — an
//! asynchronous Q↔R path and a greedy first-match policy — produced a 670×
//! matcher improvement in Flux's emulator (§5.2).
//!
//! [`SchedEngine`] models exactly that pipeline in virtual time:
//!
//! - submissions land in Q's **inbox**, each costing [`Costs::submit`] of
//!   service time (script write, RPC, validation);
//! - ingested jobs wait in a strict **FCFS queue** — if the head does not
//!   fit, nothing behind it is tried (no backfilling);
//! - R matches the head against the [`resources::ResourceGraph`], paying
//!   [`Costs::per_node_visit`] for every node the policy inspects;
//! - under [`Coupling::Synchronous`], Q and R share one service timeline
//!   and Q's inbox preempts R; under [`Coupling::Asynchronous`] they run
//!   concurrently.
//!
//! [`Throttle`] reproduces MuMMI's deliberate submission throttling
//! (~100 jobs/min) and [`Launcher`] is the Maestro-like facade the
//! workflow manager talks to, keeping it agnostic to the backend.

//! ```
//! use resources::{JobShape, MachineSpec, MatchPolicy, ResourceGraph};
//! use sched::{Costs, Coupling, JobClass, JobSpec, Launcher, SchedEngine};
//! use simcore::{SimDuration, SimTime};
//!
//! let graph = ResourceGraph::new(MachineSpec::summit_allocation(2));
//! let mut flux = SchedEngine::new(
//!     graph, MatchPolicy::FirstMatch, Coupling::Asynchronous, Costs::free());
//! flux.submit(
//!     JobSpec::new(JobClass::CgSim, JobShape::sim_standard(), SimDuration::from_hours(1)),
//!     SimTime::ZERO,
//! );
//! let events = flux.poll(SimTime::from_secs(1));
//! assert!(matches!(events[0], sched::JobEvent::Placed { .. }));
//! assert_eq!(flux.gpu_usage().0, 1); // one GPU, not a whole node
//! ```

mod engine;
mod job;
mod launcher;
mod policy;
mod replay;
mod throttle;

pub use engine::{ClassWait, Costs, Coupling, SchedEngine, SchedStats};
pub use job::{JobClass, JobEvent, JobId, JobOutcome, JobSpec, JobState, TrackedState};
pub use launcher::Launcher;
pub use policy::SchedPolicy;
pub use replay::{SchedEvent, SchedLog};
pub use throttle::Throttle;
