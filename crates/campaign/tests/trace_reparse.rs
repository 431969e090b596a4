//! The JSONL trace reads back as the events that were emitted.
//!
//! `trace::derive::events_from_jsonl` is how a written trace is read
//! (the Figure 5/6 series are re-derived through it, and a trace diff
//! would compare two files through it). `trace`'s own `reader_props`
//! round-trips arbitrary events; this suite checks the real emitters'
//! lines, typed arguments included. One traced campaign that crosses
//! every emitter family — a cooperative pause, the chaos smoke plan
//! (node kill, store-fault window, job hang, WM crash), the hang
//! watchdog, job failures, node attrition, a bursty background workload
//! and the loopback store — must re-parse event for event.

use campaign::{Campaign, CampaignConfig, RunControl, StoreBackend};
use chaos::{FaultEvent, FaultKind, FaultPlan};
use resources::{MachineSpec, MatchPolicy};
use sched::{Coupling, JobClass};
use simcore::{SimDuration, SimTime};
use trace::derive::events_from_jsonl;
use trace::Tracer;
use workload::WorkloadSpec;

#[test]
fn every_emitted_event_reparses_identically() {
    // The smoke plan's own hang dies with the WM crash that follows it,
    // so a second hang after the crash gives the watchdog a job to
    // reclaim.
    let mut plan = FaultPlan::smoke(9, SimDuration::from_hours(2), 20);
    plan.events.push(FaultEvent {
        at: SimTime::from_mins(90),
        kind: FaultKind::JobHang {
            class: JobClass::CgSim,
        },
    });
    let mut c = Campaign::new(CampaignConfig {
        patches_per_snapshot: 6,
        frames_per_sim_per_min: 0.05,
        cg_target_us: 0.2,
        aa_target_ns: (5.0, 8.0),
        queue_cap: 500,
        policy: MatchPolicy::FirstMatch,
        coupling: Coupling::Asynchronous,
        submit_rate_per_min: 600,
        job_timeout_grace: 1.5,
        job_failure_prob: 0.05,
        node_failures_per_day: 8.0,
        workload: Some(WorkloadSpec::Bursty),
        fault_plan: Some(plan),
        store_backend: StoreBackend::Loopback,
        ..CampaignConfig::default()
    });
    c.set_tracer(Tracer::enabled());
    let control = RunControl::new();
    control.schedule_pause_at(SimTime::from_hours(11));
    let r = c.execute_run_controlled_on(MachineSpec::summit_allocation(20), 12, &control);
    assert_eq!(r.paused_at, Some(SimTime::from_hours(11)));
    assert_eq!(r.wm_crashes, 1, "the smoke plan's crash point must fire");
    assert!(r.jobs_timed_out > 0, "the watchdog must fire");
    assert!(
        r.ledger.background_submitted > 0,
        "the workload must submit"
    );

    let emitted = c.tracer().events();
    let reparsed = events_from_jsonl(&c.tracer().to_jsonl());
    assert_eq!(reparsed.len(), emitted.len(), "event count changed");
    for (i, (got, want)) in reparsed.iter().zip(&emitted).enumerate() {
        assert_eq!(got, want, "event {i} re-parsed differently");
    }
}
