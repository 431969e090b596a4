//! Property tests for the wakeup-source contract behind the event loop.
//!
//! The safe-horizon advance (the minimum of the wakeup sources, fed to
//! [`campaign::advance_clock`]) is only correct if every wakeup source
//! honors two rules once its due work is drained at `now`:
//!
//! 1. **never stale** — the reported wakeup is strictly after `now`
//!    (or absent); at `SimTime`'s 1 µs resolution this is what makes the
//!    legacy `.max(now + 1µs)` clamp unreachable and lets the forced-
//!    advance counter stay at zero;
//! 2. **monotone** — with no intervening state change, advancing `now`
//!    never moves the reported wakeup backwards, so a horizon computed
//!    at a barrier stays a valid lower bound for the next one.
//!
//! One property per accessor: `SchedEngine::next_wakeup` (the view the
//! WM folds into its own), `JobTracker::earliest_timeout`,
//! `WorkflowManager::next_wakeup`, and `FailureProcess::next_at`.

use campaign::FailureProcess;
use datastore::KvDataStore;
use mummi_core::{app3, JobTracker, TrackerConfig, WmConfig, WmEvent};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resources::{JobShape, MachineSpec, MatchPolicy, ResourceGraph};
use sched::{Costs, Coupling, JobClass, JobSpec, SchedEngine};
use simcore::{SimDuration, SimTime};

fn small_engine(nodes: u32) -> SchedEngine {
    SchedEngine::new(
        ResourceGraph::new(MachineSpec::summit_allocation(nodes)),
        MatchPolicy::FirstMatch,
        Coupling::Asynchronous,
        Costs::summit_campaign(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The attrition process: after draining everything due at `t`, the
    /// next arrival is strictly in the future, and the whole arrival
    /// history is nondecreasing in time.
    #[test]
    fn failure_process_next_at_is_strictly_future_and_monotone(
        seed in any::<u64>(),
        per_day in 0.5f64..50.0,
        nodes in 4u32..64,
        steps in prop::collection::vec(1u64..600, 1..40),
    ) {
        let mut failures = FailureProcess::new(seed, per_day, nodes);
        let mut t = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        let mut last_next = SimTime::ZERO;
        for mins in steps {
            t += SimDuration::from_mins(mins);
            while let Some((at, node)) = failures.pop_due(t) {
                prop_assert!(at <= t, "future arrival {at} popped at {t}");
                prop_assert!(at >= last_arrival, "history ran backwards");
                prop_assert!(node < nodes);
                last_arrival = at;
            }
            let next = failures.next_at();
            prop_assert!(next > t, "stale wakeup {next} at t={t}");
            prop_assert!(next >= last_next, "wakeup moved backwards");
            last_next = next;
        }
    }

    /// The scheduler: after `advance(now)` has drained all work, the
    /// engine either is idle or reports a wakeup strictly after `now` —
    /// the view the WM folds into its own.
    #[test]
    fn sched_engine_next_wakeup_is_strictly_future(
        runtimes in prop::collection::vec(1u64..300, 1..24),
        steps in prop::collection::vec(1u64..240, 1..24),
    ) {
        let mut engine = small_engine(2);
        let mut now = SimTime::ZERO;
        let mut pending: Vec<u64> = runtimes.clone();
        for mins in steps {
            // Keep a trickle of submissions so the queue stays busy.
            if let Some(mins) = pending.pop() {
                engine.submit(
                    JobSpec::new(
                        JobClass::CgSim,
                        JobShape::sim_standard(),
                        SimDuration::from_mins(mins),
                    ),
                    now,
                );
            }
            now += SimDuration::from_mins(mins);
            let _ = engine.advance(now);
            if let Some(wakeup) = engine.next_wakeup() {
                prop_assert!(wakeup > now, "stale engine wakeup {wakeup} at {now}");
            }
        }
    }

    /// The hang watchdog: after `expire_overdue(now)` every remaining
    /// deadline is at or after `now` (expiry uses a strict comparison, so
    /// a deadline exactly at `now` is legitimately not yet overdue), and
    /// the reported deadline never moves backwards while time advances
    /// over a fixed placement set.
    #[test]
    fn job_tracker_earliest_timeout_never_reports_expirable_deadlines(
        runtimes in prop::collection::vec(5u64..120, 1..16),
        grace in 1.1f64..3.0,
        steps in prop::collection::vec(1u64..90, 1..24),
    ) {
        let mut engine = small_engine(2);
        let mut tracker = JobTracker::new(TrackerConfig {
            timeout_grace: grace,
            ..TrackerConfig::new(
                JobClass::CgSim,
                JobShape::sim_standard(),
                SimDuration::from_mins(30),
            )
        });
        let mut rng = StdRng::seed_from_u64(7);
        let mut now = SimTime::ZERO;
        for &mins in &runtimes {
            tracker.submit(
                &mut engine,
                format!("cg-{mins}").into(),
                now,
                Some(SimDuration::from_mins(mins)),
                &mut rng,
            );
        }
        for mins in steps {
            now += SimDuration::from_mins(mins);
            for ev in engine.advance(now) {
                let _ = tracker.on_event(&mut engine, &ev, &mut rng);
            }
            let _ = tracker.expire_overdue(&mut engine, now, &mut rng);
            if let Some(deadline) = tracker.earliest_timeout() {
                prop_assert!(
                    deadline >= now,
                    "deadline {deadline} still expirable at {now}"
                );
            }
        }
    }

    /// The workflow manager: after a full tick at `t`, the folded wakeup
    /// (scheduler, cadences, watchdog deadlines) is strictly after `t`,
    /// and for a fixed post-tick state it is monotone in `now`.
    #[test]
    fn wm_next_wakeup_is_strictly_future_and_monotone_in_now(
        seed in any::<u64>(),
        steps in prop::collection::vec(1u64..90, 1..24),
        probes in prop::collection::vec(1u64..600, 4),
    ) {
        let cfg = WmConfig {
            cg_ready_buffer: 8,
            aa_ready_buffer: 4,
            job_timeout_grace: 1.5,
            record_history: false,
            seed,
            ..WmConfig::default()
        };
        let mut wm = app3::build_three_scale_wm(cfg, small_engine(4), 14);
        let mut store = KvDataStore::new(20);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events: Vec<WmEvent> = Vec::new();
        let mut t = SimTime::ZERO;
        for (i, mins) in steps.into_iter().enumerate() {
            // Feed candidates so setups, sims, and deadlines all exist.
            let mut points = (0..6)
                .map(|j| {
                    let encoded: Vec<f64> =
                        (0..app3::PATCH_LATENT_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    app3::state_tagged_point(
                        &format!("cg-{i:04}-{j}"),
                        rng.gen_range(0..app3::PATCH_QUEUES),
                        encoded,
                    )
                })
                .collect();
            wm.add_patch_candidates_from(&mut points);
            wm.tick_into(t, &mut store, &mut events);
            let wakeup = wm.next_wakeup(t);
            prop_assert!(wakeup > t, "stale WM wakeup {wakeup} at {t}");
            // Fixed state, advancing probe clock: never moves backwards.
            let mut probe_t = t;
            let mut last = wakeup;
            for &p in &probes {
                probe_t += SimDuration::from_mins(p);
                let w = wm.next_wakeup(probe_t);
                prop_assert!(w > probe_t);
                prop_assert!(w >= last, "WM wakeup moved backwards: {last} -> {w}");
                last = w;
            }
            t += SimDuration::from_mins(mins);
        }
    }
}
