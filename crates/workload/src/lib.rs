//! Workload sources: who submits jobs, decoupled from how they schedule.
//!
//! The paper's campaign is one workload — the WM-driven three-scale
//! stream, throttled to ~100 jobs/min (§4.3). Demonstrating that the
//! coordination results are properties of the *design* rather than of
//! that single workload requires driving the same scheduler with other
//! job streams: recorded traces replayed exactly (the §4.4 history-file
//! discipline, and the alibaba-trace shape cluster simulators use), and
//! seeded synthetic adversarial mixes (wide jobs starving narrow ones,
//! bursty arrivals, heterogeneous shapes).
//!
//! [`WorkloadSource`] is the cadence-invariant pull interface — the same
//! shape as the campaign's `FailureProcess`: random draws are consumed
//! only when an arrival is *realised*, so two drivers polling on
//! different cadences (or jumping event-driven) observe the identical
//! job stream. Implementations here:
//!
//! - [`TraceReplayer`] — replays a [`TraceFile`] (CSV records, buildable
//!   from the submissions a recording [`sched::SchedEngine`] logged —
//!   the one file form and the one replay of a scheduler history);
//! - [`PaperMix`] — the paper's continuum + throttled-sims mix, scaled
//!   to the target allocation;
//! - [`WideStarvesNarrow`], [`BurstyPoisson`], [`HeteroShapes`] — the
//!   adversarial generators, each on its own seed.
//!
//! [`WorkloadSpec`] is the cloneable wire/CLI-level description
//! (`"paper-mix"`, `"trace:<path>"`, …) that configs carry; sources are
//! built from it at run start.

mod spec;
mod synth;
mod trace;

use simcore::SimTime;

pub use spec::WorkloadSpec;
pub use synth::{BurstyPoisson, HeteroShapes, PaperMix, WideStarvesNarrow};
pub use trace::{TraceError, TraceFile, TraceReplayer};

/// One job arrival: when it is submitted and what is submitted.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadJob {
    /// Submission time.
    pub at: SimTime,
    /// The submitted spec.
    pub spec: sched::JobSpec,
}

/// A pull-based stream of job arrivals in non-decreasing time order.
///
/// The cadence-invariance contract: the realised `(at, spec)` sequence
/// depends only on the source's construction (seed, trace), never on
/// how often [`WorkloadSource::pop_due`] is called or with what `now`
/// values. Implementations pre-draw exactly one arrival and consume
/// further randomness only when it is popped.
pub trait WorkloadSource {
    /// The next arrival's time, or `None` when the source is exhausted.
    /// Event-driven drivers fold this into their next-event minimum.
    fn next_at(&self) -> Option<SimTime>;

    /// Pops the next arrival if it is due at or before `now`. Loop until
    /// `None` to drain everything due.
    fn pop_due(&mut self, now: SimTime) -> Option<WorkloadJob>;

    /// Drains the entire remaining stream (benchmarks and tests).
    fn drain_all(&mut self) -> Vec<WorkloadJob> {
        let mut out = Vec::new();
        while let Some(job) = self.pop_due(SimTime::MAX) {
            out.push(job);
        }
        out
    }
}
