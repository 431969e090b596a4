//! Property-based invariants of the scheduling engine.

use proptest::prelude::*;
use resources::{JobShape, MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};
use sched::{Costs, Coupling, JobClass, JobEvent, JobSpec, JobState, SchedEngine};
use simcore::{SimDuration, SimTime};

#[derive(Debug, Clone)]
enum Op {
    Submit { runtime_mins: u64, failing: bool },
    Cancel { idx: usize },
    Advance { mins: u64 },
    FailNode { node: u32 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..120, any::<bool>()).prop_map(|(runtime_mins, failing)| Op::Submit {
            runtime_mins,
            failing
        }),
        (0usize..64).prop_map(|idx| Op::Cancel { idx }),
        (1u64..240).prop_map(|mins| Op::Advance { mins }),
        (0u32..3).prop_map(|node| Op::FailNode { node }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Under any interleaving of submissions, cancels, advances, and node
    /// failures:
    /// - every job is Placed at most once and Finished at most once;
    /// - terminal states are consistent with the events;
    /// - resource usage returns to zero once everything is terminal;
    /// - the stats counters balance.
    fn engine_is_consistent_under_chaos(
        ops in prop::collection::vec(arb_op(), 1..80),
        coupling in prop_oneof![Just(Coupling::Synchronous), Just(Coupling::Asynchronous)],
    ) {
        let mut engine = SchedEngine::new(
            ResourceGraph::new(MachineSpec::custom("p", 3, NodeSpec::summit())),
            MatchPolicy::FirstMatch,
            coupling,
            Costs::free(),
        );
        let mut now = SimTime::ZERO;
        let mut jobs = Vec::new();
        let mut placed_count = std::collections::HashMap::new();
        let mut finished_count = std::collections::HashMap::new();

        for op in &ops {
            match op {
                Op::Submit { runtime_mins, failing } => {
                    let mut spec = JobSpec::new(
                        JobClass::CgSim,
                        JobShape::sim_standard(),
                        SimDuration::from_mins(*runtime_mins),
                    );
                    if *failing {
                        spec = spec.failing();
                    }
                    jobs.push(engine.submit(spec, now));
                }
                Op::Cancel { idx } => {
                    if !jobs.is_empty() {
                        engine.cancel(jobs[idx % jobs.len()]);
                    }
                }
                Op::Advance { mins } => {
                    now += SimDuration::from_mins(*mins);
                    for ev in engine.advance(now) {
                        match ev {
                            JobEvent::Placed { id, .. } => {
                                *placed_count.entry(id).or_insert(0u32) += 1;
                            }
                            JobEvent::Finished { id, .. } => {
                                *finished_count.entry(id).or_insert(0u32) += 1;
                            }
                        }
                    }
                }
                Op::FailNode { node } => {
                    engine.fail_node(*node, now);
                    engine.undrain(*node);
                }
            }
        }

        // Drain everything to terminality.
        now += SimDuration::from_hours(100);
        for ev in engine.advance(now) {
            match ev {
                JobEvent::Placed { id, .. } => {
                    *placed_count.entry(id).or_insert(0) += 1;
                }
                JobEvent::Finished { id, .. } => {
                    *finished_count.entry(id).or_insert(0) += 1;
                }
            }
        }

        for (&id, &n) in &placed_count {
            prop_assert!(n <= 1, "{id} placed {n} times");
        }
        for (&id, &n) in &finished_count {
            prop_assert!(n <= 1, "{id} finished {n} times");
        }
        // Every submitted job reached a terminal state (nothing queued can
        // remain: the machine is empty and the head retries each poll).
        for &id in &jobs {
            let st = engine.state(id).expect("job known");
            prop_assert!(st.is_terminal(), "{id} stuck in {st:?}");
        }
        prop_assert_eq!(engine.graph().gpu_usage().0, 0);
        prop_assert_eq!(engine.graph().cpu_usage().0, 0);
        prop_assert_eq!(engine.totals(), (0, 0));

        let stats = engine.stats();
        prop_assert_eq!(stats.submitted as usize, jobs.len());
        prop_assert_eq!(
            stats.completed + stats.failed + stats.canceled,
            jobs.len() as u64
        );
        // Finished events match non-canceled terminal jobs that ran.
        let terminal_by_event: u64 = finished_count.values().map(|&v| v as u64).sum();
        prop_assert!(terminal_by_event <= stats.completed + stats.failed);
    }

    /// Jobs complete no earlier than submission + runtime.
    fn completion_respects_runtime(
        runtimes in prop::collection::vec(1u64..200, 1..12),
    ) {
        let mut engine = SchedEngine::new(
            ResourceGraph::new(MachineSpec::custom("p", 2, NodeSpec::summit())),
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        );
        let mut expect = std::collections::HashMap::new();
        for (i, &mins) in runtimes.iter().enumerate() {
            let at = SimTime::from_mins(i as u64);
            let id = engine.submit(
                JobSpec::new(
                    JobClass::CgSim,
                    JobShape::sim_standard(),
                    SimDuration::from_mins(mins),
                ),
                at,
            );
            expect.insert(id, at + SimDuration::from_mins(mins));
        }
        let events = engine.advance(SimTime::from_hours(1000));
        for ev in events {
            if let JobEvent::Finished { id, at, .. } = ev {
                prop_assert!(
                    at >= expect[&id],
                    "{id} finished at {at} before earliest {}",
                    expect[&id]
                );
                prop_assert_eq!(engine.state(id), Some(JobState::Completed));
            }
        }
    }
}
