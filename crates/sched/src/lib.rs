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
//! (~100 jobs/min). The paper's WM reaches Flux through Maestro, "a
//! consistent API to schedule and monitor jobs" (§4.3); with one backend
//! here, that API is [`SchedEngine`]'s public submit, cancel, advance and
//! query calls. A trait comes back when a second backend exists.
//! [`SchedEngine::set_recording`] keeps the §4.4 history file: the
//! submissions, which `workload::TraceFile` writes as CSV and replays.

//! ```
//! use resources::{JobShape, MachineSpec, MatchPolicy, ResourceGraph};
//! use sched::{Costs, Coupling, JobClass, JobSpec, SchedEngine};
//! use simcore::{SimDuration, SimTime};
//!
//! let graph = ResourceGraph::new(MachineSpec::summit_allocation(2));
//! let mut flux = SchedEngine::new(
//!     graph, MatchPolicy::FirstMatch, Coupling::Asynchronous, Costs::free());
//! flux.submit(
//!     JobSpec::new(JobClass::CgSim, JobShape::sim_standard(), SimDuration::from_hours(1)),
//!     SimTime::ZERO,
//! );
//! let events = flux.advance(SimTime::from_secs(1));
//! assert!(matches!(events[0], sched::JobEvent::Placed { .. }));
//! assert_eq!(flux.graph().gpu_usage().0, 1); // one GPU, not a whole node
//! ```

mod engine;
mod job;
mod policy;
mod throttle;

pub use engine::{ClassWait, Costs, Coupling, SchedEngine, SchedStats};
pub use job::{JobClass, JobEvent, JobId, JobOutcome, JobSpec, JobState, TrackedState};
pub use policy::SchedPolicy;
pub use throttle::Throttle;
