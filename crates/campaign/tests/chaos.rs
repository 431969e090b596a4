//! The chaos harness at campaign level: seeded fault plans driven through
//! whole allocations, with three contracts checked after every run —
//!
//! 1. **Reconciled accounting**: no job is lost or double-counted; the
//!    trackers' books and the scheduler's books balance to the unit
//!    ([`chaos::RunLedger::check`]).
//! 2. **Determinism under faults**: the same plan on the same seed replays
//!    to a byte-identical JSONL trace.
//! 3. **Crash–restore equivalence**: a run that survives a WM crash point
//!    stays within exact-or-declared tolerance of the unfaulted run.
//!
//! Regression tests here pin the *minimal* fault plan that reproduced a
//! recovery bug, so a reintroduction names its own recipe.

use campaign::{Campaign, CampaignConfig, RunReport};
use chaos::{FaultEvent, FaultKind, FaultPlan};
use resources::MatchPolicy;
use sched::{Coupling, JobClass};
use simcore::{SimDuration, SimTime};
use trace::Tracer;

/// The small-but-busy configuration every chaos test drives: short CG
/// targets so sims turn over, and the timeout watchdog armed.
fn chaos_cfg(plan: FaultPlan) -> CampaignConfig {
    CampaignConfig {
        patches_per_snapshot: 6,
        frames_per_sim_per_min: 0.05,
        cg_target_us: 0.2,
        aa_target_ns: (5.0, 8.0),
        queue_cap: 500,
        policy: MatchPolicy::FirstMatch,
        coupling: Coupling::Asynchronous,
        submit_rate_per_min: 600,
        job_timeout_grace: 1.5,
        fault_plan: Some(plan),
        seed: 20201214,
        ..CampaignConfig::default()
    }
}

#[test]
fn smoke_plan_reconciles_and_reruns_byte_identical() {
    // One fault of each of the four types inside a 12 h allocation.
    let plan = FaultPlan::smoke(9, SimDuration::from_hours(12), 20);
    let run = || {
        let mut c = Campaign::new(chaos_cfg(plan.clone()));
        c.set_tracer(Tracer::enabled());
        let r = c.execute_run(20, 12);
        (c.tracer().to_jsonl(), r)
    };
    let (trace_a, ra) = run();

    let violations = ra.ledger.check();
    assert!(
        violations.is_empty(),
        "books do not balance: {violations:?}"
    );
    assert_eq!(ra.wm_crashes, 1, "the crash point must fire");
    assert!(ra.nodes_failed >= 1, "the node failure must fire");
    assert_eq!(ra.jobs_hung, 1, "the hang must catch a running CG sim");
    assert!(
        ra.store_faults_injected > 0,
        "the read-fault window must see feedback traffic"
    );
    assert!(
        ra.ledger.lost_in_crash > 0,
        "a mid-run crash strands the live jobs"
    );
    assert!(
        ra.sims_completed > 0,
        "the campaign keeps completing work through all four faults"
    );

    let (trace_b, rb) = run();
    assert_eq!(trace_a, trace_b, "same-plan rerun must be byte-identical");
    assert_eq!(ra.ledger, rb.ledger);
}

#[test]
fn hung_job_is_canceled_resubmitted_and_books_reconcile() {
    // Minimal reproducing plan for the watchdog path: one CG hang, no
    // other faults, attrition off.
    let plan = FaultPlan {
        seed: 0,
        events: vec![FaultEvent {
            at: SimTime::from_hours(2),
            kind: FaultKind::JobHang {
                class: JobClass::CgSim,
            },
        }],
    };
    let mut cfg = chaos_cfg(plan);
    cfg.node_failures_per_day = 0.0;
    let mut c = Campaign::new(cfg);
    let r = c.execute_run(10, 12);
    assert_eq!(r.jobs_hung, 1);
    assert!(
        r.jobs_timed_out >= 1,
        "the watchdog must cancel the hung job: {r:?}"
    );
    assert_eq!(
        r.ledger.canceled, r.ledger.t_timed_out,
        "every cancel is a tracker timeout and vice versa"
    );
    let violations = r.ledger.check();
    assert!(
        violations.is_empty(),
        "books do not balance: {violations:?}"
    );
}

#[test]
fn duplicate_node_failure_in_plan_is_counted_once() {
    // Minimal reproducing plan for the double-fail bug: the same node
    // killed twice at the same instant. The second report must be a
    // no-op — one drain, one trace event, one counter increment.
    let plan = FaultPlan {
        seed: 0,
        events: vec![
            FaultEvent {
                at: SimTime::from_hours(1),
                kind: FaultKind::NodeFail { node: 3 },
            },
            FaultEvent {
                at: SimTime::from_hours(1),
                kind: FaultKind::NodeFail { node: 3 },
            },
        ],
    };
    let mut cfg = chaos_cfg(plan);
    cfg.node_failures_per_day = 0.0;
    let mut c = Campaign::new(cfg);
    c.set_tracer(Tracer::enabled());
    let r = c.execute_run(10, 6);
    assert_eq!(r.nodes_failed, 1, "a drained node cannot fail again");
    let violations = r.ledger.check();
    assert!(
        violations.is_empty(),
        "books do not balance: {violations:?}"
    );
    let snap = c.tracer().metrics_snapshot();
    let failures = snap
        .counters
        .iter()
        .find(|(name, _)| name == "sched.node_failures")
        .map(|&(_, v)| v);
    assert_eq!(failures, Some(1), "the failure counter must not double");
}

#[test]
fn crash_restore_stays_within_declared_tolerance_of_unfaulted_run() {
    // Minimal reproducing plan for checkpoint coverage bugs: a single
    // crash point mid-run, every other fault source disabled.
    let run_with = |plan: FaultPlan| -> (RunReport, (u64, u64, u64), f64) {
        let mut cfg = chaos_cfg(plan);
        cfg.node_failures_per_day = 0.0;
        cfg.job_failure_prob = 0.0;
        let mut c = Campaign::new(cfg);
        let r = c.execute_run(20, 12);
        let cg_sum: f64 = c.cg_lengths().iter().sum();
        (r, c.data_counts(), cg_sum)
    };
    let crash_plan = FaultPlan {
        seed: 0,
        events: vec![FaultEvent {
            at: SimTime::from_hours(6),
            kind: FaultKind::WmCrash,
        }],
    };
    let (base, base_counts, base_cg) = run_with(FaultPlan::empty());
    let (faulted, f_counts, f_cg) = run_with(crash_plan);

    assert_eq!(faulted.wm_crashes, 1);
    assert!(faulted.ledger.lost_in_crash > 0);
    let violations = faulted.ledger.check();
    assert!(
        violations.is_empty(),
        "books do not balance: {violations:?}"
    );

    // Exact: the time-driven driver series are independent of WM state.
    assert_eq!(base_counts.0, f_counts.0, "snapshot count must be exact");
    assert_eq!(base_counts.1, f_counts.1, "patch count must be exact");

    // Declared tolerances for the WM-coupled figure series: the restored
    // WM draws fresh random decisions, so the series differ, but the
    // campaign must end up in the same statistical place.
    let rel = |a: f64, b: f64| (a - b).abs() / a.max(1e-9);
    assert!(
        rel(base.sims_completed as f64, faulted.sims_completed as f64) < 0.25,
        "sims completed diverged: {} vs {}",
        base.sims_completed,
        faulted.sims_completed
    );
    assert!(
        (base.gpu_mean_occupancy - faulted.gpu_mean_occupancy).abs() < 10.0,
        "mean GPU occupancy diverged: {:.1} vs {:.1}",
        base.gpu_mean_occupancy,
        faulted.gpu_mean_occupancy
    );
    assert!(
        rel(base_cg, f_cg) < 0.25,
        "accumulated CG trajectory diverged: {base_cg:.2} vs {f_cg:.2}"
    );
}

#[test]
fn campaign_continues_across_a_faulted_allocation() {
    // A faulted leg must hand a usable checkpoint to the next leg; the
    // same plan fires again on the second allocation.
    let plan = FaultPlan::smoke(5, SimDuration::from_hours(8), 10);
    let mut c = Campaign::new(chaos_cfg(plan));
    let r1 = c.execute_run(10, 8);
    let v1 = r1.ledger.check();
    assert!(v1.is_empty(), "leg 1 books: {v1:?}");
    let sum1: f64 = c.cg_lengths().iter().sum();
    let r2 = c.execute_run(10, 8);
    let v2 = r2.ledger.check();
    assert!(v2.is_empty(), "leg 2 books: {v2:?}");
    let sum2: f64 = c.cg_lengths().iter().sum();
    assert!(
        sum2 > sum1,
        "trajectory accumulates across faulted legs: {sum1} -> {sum2}"
    );
}
