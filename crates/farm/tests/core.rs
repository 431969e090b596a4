//! The farm's decisions, driven without a wall clock: one thread feeds
//! [`FarmCore`] its inputs and runs each claimed leg in-process, in an
//! order the test chooses. No sleeps, no host time, no retries — an input
//! that must land mid-leg (a kill, a rescale, a shutdown) rides the leg's
//! first-placement observer, exactly where the threaded shell delivers
//! it.

mod common;

use std::sync::{Arc, Mutex, MutexGuard};

use chaos::{WorkerKill, WorkerKillPlan};
use common::{assert_first_placement_shape, cfg, event_kind};
use farm::{Claim, FarmCore, FarmEvent, Leg, SubmitSpec};
use proptest::prelude::*;
use trace::Json;

/// A single-threaded stand-in for the shell. The core sits behind a
/// mutex only so a leg's observer can reach it; nothing else holds it
/// while a leg runs.
struct Harness {
    core: Arc<Mutex<FarmCore>>,
    /// Live workers without a leg, lowest id first.
    idle: Vec<usize>,
    /// Claimed, not yet settled, in claim order.
    in_flight: Vec<Leg>,
}

impl Harness {
    fn new(workers: usize, plan: WorkerKillPlan) -> Harness {
        let mut core = FarmCore::new(workers, plan);
        let idle = core.drain_spawns();
        Harness {
            core: Arc::new(Mutex::new(core)),
            idle,
            in_flight: Vec::new(),
        }
    }

    fn core(&self) -> MutexGuard<'_, FarmCore> {
        self.core.lock().unwrap()
    }

    fn submit(&self, tenant: &str, seed: u64, schedule: &[(u32, u64)]) -> u64 {
        self.core()
            .submit(SubmitSpec {
                tenant: tenant.to_string(),
                cfg: cfg(seed),
                schedule: schedule.to_vec(),
                trace: false,
                pause_at_hours: None,
            })
            .expect("submit")
    }

    /// Every idle worker claims what it can, lowest id first.
    fn claim_all(&mut self) {
        let mut core = self.core.lock().unwrap();
        let mut still_idle = Vec::new();
        for worker in std::mem::take(&mut self.idle) {
            match core.claim(worker) {
                Claim::Run(leg) => self.in_flight.push(*leg),
                Claim::Wait => still_idle.push(worker),
                Claim::Exit => {}
            }
        }
        self.idle = still_idle;
    }

    /// Runs the in-flight leg at `i` and settles it. If the leg is the
    /// campaign's first to place a job, the core logs `first_placement`
    /// from inside the leg and `then` runs right after, with the
    /// campaign id and worker.
    fn finish(&mut self, i: usize, then: impl FnOnce(&mut FarmCore, u64, usize) + Send + 'static) {
        let mut leg = self.in_flight.remove(i);
        if leg.announce {
            let (core, id, worker) = (Arc::clone(&self.core), leg.id, leg.worker);
            leg.control.on_first_placement(move |at, placed| {
                let mut core = core.lock().unwrap();
                core.first_placement(id, at, placed);
                then(&mut core, id, worker);
            });
        }
        let report = leg.run();
        let worker = leg.worker;
        let mut core = self.core();
        core.settle(leg, report);
        let mut idle = core.drain_spawns();
        drop(core);
        idle.push(worker); // dropped by its next claim if it was killed
        self.idle.extend(idle);
        self.idle.sort_unstable();
    }

    /// Claims and finishes legs in claim order until nothing runs.
    fn drain(&mut self) {
        self.claim_all();
        while !self.in_flight.is_empty() {
            self.finish(0, |_, _, _| {});
            self.claim_all();
        }
    }

    fn events(&self, id: u64) -> Vec<Json> {
        let (events, _) = self.core().events_since(id, 0).expect("campaign exists");
        events.iter().map(FarmEvent::to_value).collect()
    }

    fn kinds(&self, id: u64) -> Vec<String> {
        self.events(id)
            .iter()
            .map(|e| event_kind(e).to_string())
            .collect()
    }
}

/// The first placement of `cfg(9)` on 10 nodes lands in hour 2 of a
/// leg (about 1.42 h in): a request it triggers meets a 2-hour leg's own
/// end.
fn assert_in_last_hour_of_two(h: &Harness, id: u64) {
    let events = h.events(id);
    let fp = events
        .iter()
        .find(|e| event_kind(e) == "first_placement")
        .expect("first_placement logged");
    let at = fp.get("at_virt_s").and_then(Json::as_f64).unwrap();
    assert!((3600.0..7200.0).contains(&at), "first placement at {at} s");
}

#[test]
fn a_kill_after_first_placement_discards_the_leg_and_recovers_once() {
    let mut h = Harness::new(1, WorkerKillPlan::empty());
    let id = h.submit("d", 9, &[(10, 4)]);
    h.claim_all();
    h.finish(0, |core, _, worker| core.kill_worker(worker).expect("kill"));
    h.drain();

    let s = h.core().status(id).unwrap();
    assert!(s.terminal());
    assert_eq!(s.recoveries, 1, "the kill forced a checkpoint recovery");
    assert_eq!(s.legs_done, 1);
    assert!(s.ledger_ok, "post-recovery books must reconcile");
    assert_eq!(
        h.kinds(id),
        [
            "queued",
            "leg.start",
            "first_placement",
            "worker.killed",
            "leg.start",
            "leg.done",
            "completed"
        ],
        "the recovered leg does not announce a second first placement"
    );
    assert_first_placement_shape(&h.events(id));
    let stats = h.core().stats();
    assert_eq!((stats.kills_fired, stats.kills_mid_leg), (1, 1));
    assert_eq!(stats.workers_spawned, 2, "the kill spawned a replacement");
}

#[test]
fn a_late_tenants_first_leg_goes_to_the_next_free_worker() {
    let mut h = Harness::new(2, WorkerKillPlan::empty());
    let early: Vec<u64> = (0..3).map(|i| h.submit("early", i, &[(5, 1)])).collect();
    h.claim_all();
    assert_eq!(h.in_flight.len(), 2, "both workers busy with early legs");
    let late = h.submit("late", 7, &[(5, 1)]);
    h.finish(0, |_, _, _| {});
    h.claim_all();
    let next: Vec<u64> = h.in_flight.iter().map(|leg| leg.id).collect();
    assert_eq!(next, [early[1], late], "late jumps early's third campaign");
    h.drain();
    assert_eq!(h.core().stats().completed, 4);
}

#[test]
fn a_rescale_in_a_legs_last_hour_applies_at_the_leg_boundary() {
    let mut h = Harness::new(1, WorkerKillPlan::empty());
    let id = h.submit("r", 9, &[(10, 2), (10, 2)]);
    h.claim_all();
    h.finish(0, |core, id, _| core.rescale(id, 32).expect("rescale"));
    assert_in_last_hour_of_two(&h, id);
    h.drain();

    let events = h.events(id);
    let rescaled: Vec<&Json> = events
        .iter()
        .filter(|e| event_kind(e) == "rescaled")
        .collect();
    let &[r] = &rescaled[..] else {
        panic!("one rescaled event, got {rescaled:?}");
    };
    assert_eq!(r.get("at_leg_boundary"), Some(&Json::Bool(true)));
    assert_eq!(r.get("nodes").and_then(Json::as_f64), Some(32.0));
    let s = h.core().status(id).unwrap();
    assert_eq!(s.node_hours, 10 * 2 + 32 * 2, "the second leg ran at 32");
    assert!(s.ledger_ok);
}

#[test]
fn a_kill_due_during_a_shutdown_drain_is_not_counted() {
    let plan = WorkerKillPlan {
        seed: 0,
        kills: vec![WorkerKill {
            after_legs: 1,
            worker: 0,
        }],
    };
    let mut h = Harness::new(1, plan);
    let id = h.submit("s", 9, &[(10, 2), (10, 2)]);
    h.claim_all();
    h.finish(0, |core, _, _| assert!(core.shutdown()));
    assert_in_last_hour_of_two(&h, id);
    h.claim_all();
    assert!(h.in_flight.is_empty() && h.idle.is_empty(), "drained");

    let stats = h.core().stats();
    assert_eq!(stats.legs_completed, 1, "the kill came due");
    assert_eq!(
        (stats.kills_fired, stats.kills_mid_leg, stats.kills_idle),
        (0, 0, 0),
        "a kill that lands nowhere is not fired"
    );
    assert_eq!(h.core().status(id).unwrap().remaining, [(10, 2)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seeded kill plan, any leg-completion order: every campaign
    /// completes its schedule once, with reconciled books, one recovery
    /// per mid-leg kill, and every kill accounted for.
    fn kill_plans_conserve_the_ledger_in_any_completion_order(
        plan_seed in 0u64..1_000,
        workers in 1usize..4,
        order in prop::collection::vec(0usize..64, 24),
    ) {
        let plan = WorkerKillPlan::generate(plan_seed, workers, 6, 2);
        let mut h = Harness::new(workers, plan.clone());
        let ids: Vec<u64> = ["a", "b", "c"]
            .iter()
            .zip(1u64..)
            .map(|(tenant, seed)| h.submit(tenant, seed, &[(10, 2), (10, 2)]))
            .collect();
        h.claim_all();
        for step in 0.. {
            if h.in_flight.is_empty() {
                break;
            }
            let pick = order[step % order.len()] % h.in_flight.len();
            h.finish(pick, |_, _, _| {});
            h.claim_all();
        }

        for id in &ids {
            let s = h.core().status(*id).unwrap();
            prop_assert!(s.terminal(), "campaign {} stalled: {:?}", id, s.state);
            prop_assert_eq!(s.legs_done, 2);
            prop_assert!(s.ledger_ok, "campaign {} kept a non-reconciling leg", id);
            let completed = h.kinds(*id).iter().filter(|k| *k == "completed").count();
            prop_assert_eq!(completed, 1);
            assert_first_placement_shape(&h.events(*id));
        }
        let stats = h.core().stats();
        prop_assert_eq!(stats.kills_fired, plan.kills.len() as u64, "every kill landed");
        prop_assert_eq!(stats.kills_mid_leg + stats.kills_idle, stats.kills_fired);
        prop_assert_eq!(stats.recoveries, stats.kills_mid_leg);
        prop_assert_eq!(stats.workers_spawned, workers as u64 + stats.kills_fired);
    }
}
