//! Scheduler history: a submission log that replays exactly.
//!
//! §4.4: "key components (ML and job scheduling) also maintain elaborate
//! history files that may be replayed exactly, if necessary." The engine
//! is deterministic given a submission sequence, so replaying the log into
//! a fresh engine reproduces every placement and completion bit-for-bit —
//! the post-mortem debugging tool the paper leaned on at scale.

use simcore::SimTime;

use crate::engine::SchedEngine;
use crate::job::{JobId, JobSpec};

/// One logged scheduler mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedEvent {
    /// A submission with its full spec.
    Submit {
        /// Submission time.
        at: SimTime,
        /// The submitted spec.
        spec: JobSpec,
    },
    /// A cancellation.
    Cancel {
        /// Which job (ids are deterministic: assigned in submit order).
        id: JobId,
    },
    /// A node failure.
    FailNode {
        /// When it failed.
        at: SimTime,
        /// Which node.
        node: u32,
    },
}

/// An append-only, in-memory scheduler log that replays exactly.
///
/// Its file form is the job-log CSV:
/// `workload::TraceFile::from_sched_log(..).to_csv()` writes the
/// submissions (what a campaign's `RunReport::job_log` holds) and
/// `TraceFile::parse` reads them back. Cancels and node failures are
/// out-of-band control and stay in memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedLog {
    events: Vec<SchedEvent>,
}

impl SchedLog {
    /// An empty log.
    pub fn new() -> SchedLog {
        SchedLog::default()
    }

    /// Records a submission.
    pub fn record_submit(&mut self, at: SimTime, spec: &JobSpec) {
        self.events.push(SchedEvent::Submit {
            at,
            spec: spec.clone(),
        });
    }

    /// Records a cancellation.
    pub fn record_cancel(&mut self, id: JobId) {
        self.events.push(SchedEvent::Cancel { id });
    }

    /// Records a node failure.
    pub fn record_fail_node(&mut self, at: SimTime, node: u32) {
        self.events.push(SchedEvent::FailNode { at, node });
    }

    /// The logged events in order.
    pub fn events(&self) -> &[SchedEvent] {
        &self.events
    }

    /// Number of logged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays the log into a fresh engine, then drains it to `horizon`.
    /// Returns the engine in its final state.
    pub fn replay(&self, mut engine: SchedEngine, horizon: SimTime) -> SchedEngine {
        for ev in &self.events {
            match ev {
                SchedEvent::Submit { at, spec } => {
                    engine.submit(spec.clone(), *at);
                }
                SchedEvent::Cancel { id } => {
                    // Cancels must observe the same intermediate state the
                    // original run saw; advancing to "now" is the caller's
                    // responsibility in live runs. For replay, cancels are
                    // applied in log order, which matches because ids are
                    // assigned in submit order.
                    engine.cancel(*id);
                }
                SchedEvent::FailNode { at, node } => {
                    engine.advance(*at);
                    engine.fail_node(*node, *at);
                }
            }
        }
        engine.advance(horizon);
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Costs, Coupling};
    use crate::job::JobClass;
    use resources::{JobShape, MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};
    use simcore::SimDuration;

    fn fresh_engine() -> SchedEngine {
        SchedEngine::new(
            ResourceGraph::new(MachineSpec::custom("t", 3, NodeSpec::summit())),
            MatchPolicy::FirstMatch,
            Coupling::Synchronous,
            Costs::summit_campaign(),
        )
    }

    fn scripted_log() -> SchedLog {
        let mut log = SchedLog::new();
        for i in 0..20u64 {
            log.record_submit(
                SimTime::from_secs(i * 30),
                &JobSpec::new(
                    if i % 3 == 0 {
                        JobClass::AaSim
                    } else {
                        JobClass::CgSim
                    },
                    JobShape::sim_standard(),
                    SimDuration::from_mins(10 + i),
                ),
            );
        }
        log.record_cancel(JobId(4));
        log.record_fail_node(SimTime::from_mins(15), 1);
        log.record_submit(
            SimTime::from_mins(16),
            &JobSpec::new(
                JobClass::CgSetup,
                JobShape::setup(),
                SimDuration::from_mins(5),
            )
            .failing(),
        );
        log
    }

    #[test]
    fn replay_reproduces_engine_state_exactly() {
        let log = scripted_log();
        let horizon = SimTime::from_hours(2);
        let a = log.replay(fresh_engine(), horizon);
        let b = log.replay(fresh_engine(), horizon);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.totals(), b.totals());
        assert_eq!(a.graph().gpu_usage(), b.graph().gpu_usage());
        for i in 0..21 {
            assert_eq!(a.state(JobId(i)), b.state(JobId(i)), "job {i}");
        }
        // The log actually did something interesting.
        assert!(a.stats().placed > 10);
        assert!(a.stats().canceled >= 1);
        assert!(a.stats().failed >= 1);
    }
}
