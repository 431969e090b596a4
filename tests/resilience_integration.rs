//! Resilience: node failures, job failures, store faults, and
//! checkpoint/restart — §4.4 "Resilience to System Failures".

use mummi::core::{ns, CgToContinuumFeedback, FeedbackManager, WmCheckpoint, WmConfig, WmEvent};
use mummi::datastore::faults::Op;
use mummi::datastore::{DataStore, FaultWindow, KvDataStore, ScheduledFaultStore};
use mummi::dynim::{
    BinnedConfig, BinnedSampler, ExactNn, FarthestPointSampler, FpsConfig, HdPoint,
};
use mummi::resources::{JobShape, MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};
use mummi::sched::{Costs, Coupling, JobClass, JobEvent, JobSpec, Launcher, SchedEngine};
use mummi::simcore::{SimDuration, SimTime};

fn engine(nodes: u32) -> SchedEngine {
    SchedEngine::new(
        ResourceGraph::new(MachineSpec::custom("t", nodes, NodeSpec::summit())),
        MatchPolicy::FirstMatch,
        Coupling::Asynchronous,
        Costs::free(),
    )
}

#[test]
fn drained_node_keeps_running_jobs_but_takes_no_new_work() {
    let mut e = engine(2);
    // Fill node 0 with six sims.
    let mut first_node_jobs = Vec::new();
    for _ in 0..6 {
        first_node_jobs.push(e.submit(
            JobSpec::new(
                JobClass::CgSim,
                JobShape::sim_standard(),
                SimDuration::from_mins(30),
            ),
            SimTime::ZERO,
        ));
    }
    e.advance(SimTime::from_secs(1));
    assert_eq!(e.graph().gpu_usage().0, 6);

    // Node 0 fails: drain it (Flux's response); running jobs continue.
    e.graph_mut().drain(0);
    for _ in 0..6 {
        e.submit(
            JobSpec::new(
                JobClass::CgSim,
                JobShape::sim_standard(),
                SimDuration::from_mins(30),
            ),
            SimTime::from_secs(2),
        );
    }
    e.advance(SimTime::from_secs(3));
    // New jobs all landed on node 1, the old ones still run.
    assert_eq!(e.graph().gpu_usage().0, 12);
    for id in &first_node_jobs {
        assert_eq!(e.state(*id), Some(mummi::sched::JobState::Running));
    }
    // With both nodes saturated and node 0 drained, nothing more places.
    let extra = e.submit(
        JobSpec::new(
            JobClass::CgSim,
            JobShape::sim_standard(),
            SimDuration::from_mins(30),
        ),
        SimTime::from_secs(4),
    );
    e.advance(SimTime::from_secs(5));
    assert_eq!(e.state(extra), Some(mummi::sched::JobState::Queued));
}

#[test]
fn feedback_retries_through_injected_store_faults() {
    // "if reading/writing fails" → armored retries at the workflow level:
    // a fault-injected store fails every 4th read, and the feedback loop
    // simply retries the iteration until the namespace drains.
    let inner = KvDataStore::new(4);
    let mut store = ScheduledFaultStore::new(inner, vec![FaultWindow::always(Op::Read, 4)]);
    for i in 0..12 {
        let frame = mummi::cg::analysis::CgFrame {
            id: format!("s:f{i}"),
            time: i as f64,
            encoding: [0.5; 3],
            rdfs: vec![vec![1.0; 8]],
        };
        store
            .write(ns::RDF_NEW, &frame.id, &frame.encode())
            .expect("writes are not injected");
    }
    let mut fb = CgToContinuumFeedback::new(1);
    let mut attempts = 0;
    while store.count(ns::RDF_NEW).expect("count") > 0 {
        attempts += 1;
        // An iteration may fail mid-way; already-processed frames stay
        // moved out (per-frame tagging), so progress is monotonic.
        let _ = fb.iterate(&mut store);
        assert!(attempts < 50, "feedback must make progress");
    }
    assert!(store.injected() > 0, "faults actually fired");
    assert_eq!(fb.total_processed(), 12);
    assert_eq!(store.inner_mut().count(ns::RDF_DONE).expect("count"), 12);
}

#[test]
fn wm_survives_checkpoint_restart_mid_campaign() {
    let build = || {
        let launcher = engine(1);
        mummi::core::WorkflowManager::new(
            WmConfig::test_scale(),
            launcher,
            vec![
                Box::new(FarthestPointSampler::new(
                    FpsConfig { cap: 0 },
                    ExactNn::new(),
                )),
                Box::new(BinnedSampler::new(BinnedConfig::cg_frames())),
            ],
            2,
        )
    };
    let points: Vec<HdPoint> = (0..40)
        .map(|i| HdPoint::new(format!("p{i}"), vec![i as f64 * 0.37 % 5.0, 0.5]))
        .collect();

    // First incarnation runs half the campaign, then "crashes".
    let mut wm1 = build();
    wm1.add_patch_candidates_from(&mut points.clone());
    let mut store = KvDataStore::new(4);
    let poll = WmConfig::test_scale().poll_interval;
    let mut t = SimTime::ZERO;
    while t <= SimTime::from_hours(1) {
        wm1.tick(t, &mut store);
        t += poll;
    }
    let ckpt_text = wm1.checkpoint().to_text();
    let stats_before = wm1.stats();
    drop(wm1);

    // Restart: restore the checkpoint into a fresh WM (fresh allocation).
    let parsed = WmCheckpoint::from_text(&ckpt_text).expect("checkpoint parses");
    let mut wm2 = build();
    wm2.restore(&parsed);
    assert_eq!(wm2.stats(), stats_before, "counters survive restart");
    // Selector state (queued candidates and selected set) is rebuilt from
    // the replayed history — no re-ingestion needed.
    assert_eq!(
        wm2.patch_candidates(),
        (40 - stats_before.cg_selected) as usize,
        "unselected candidates reappear after replay"
    );
    let mut t2 = SimTime::ZERO;
    let mut started_after_restart = 0;
    while t2 <= SimTime::from_hours(1) {
        for ev in wm2.tick(t2, &mut store) {
            if matches!(ev, WmEvent::SimStarted { stage: 0, .. }) {
                started_after_restart += 1;
            }
        }
        t2 += poll;
    }
    assert!(
        started_after_restart > 0,
        "the restarted WM continues the campaign"
    );
    assert!(wm2.stats().cg_sims_started > stats_before.cg_sims_started);
}

#[test]
fn failed_jobs_are_replayed_to_completion() {
    // High failure rate: every job may fail; the trackers resubmit and the
    // workflow still converges to completed simulations.
    let mut cfg = WmConfig::test_scale();
    cfg.job_failure_prob = 0.4;
    cfg.cg_sim_runtime = SimDuration::from_mins(5);
    cfg.cg_setup_runtime = SimDuration::from_mins(2);
    let launcher = engine(1);
    let mut wm = mummi::core::WorkflowManager::new(
        cfg.clone(),
        launcher,
        vec![
            Box::new(FarthestPointSampler::new(
                FpsConfig { cap: 0 },
                ExactNn::new(),
            )),
            Box::new(BinnedSampler::new(BinnedConfig::cg_frames())),
        ],
        2,
    );
    wm.add_patch_candidates_from(
        &mut (0..30)
            .map(|i| HdPoint::new(format!("p{i}"), vec![i as f64, 1.0]))
            .collect(),
    );
    let mut store = KvDataStore::new(4);
    let mut t = SimTime::ZERO;
    let mut resubmissions = 0;
    while t <= SimTime::from_hours(4) {
        for ev in wm.tick(t, &mut store) {
            if matches!(ev, WmEvent::JobResubmitted { .. }) {
                resubmissions += 1;
            }
        }
        t += cfg.poll_interval;
    }
    assert!(resubmissions > 3, "failures were injected: {resubmissions}");
    assert!(
        wm.stats().cg_sims_completed > 3,
        "campaign converges despite failures: {:?}",
        wm.stats()
    );
}

#[test]
fn sched_events_are_exactly_once_across_polls() {
    let mut e = engine(1);
    let id = e.submit(
        JobSpec::new(
            JobClass::CgSim,
            JobShape::sim_standard(),
            SimDuration::from_mins(10),
        ),
        SimTime::ZERO,
    );
    let mut placed = 0;
    let mut finished = 0;
    let mut t = SimTime::ZERO;
    for _ in 0..100 {
        for ev in e.poll(t) {
            match ev {
                JobEvent::Placed { id: j, .. } if j == id => placed += 1,
                JobEvent::Finished { id: j, .. } if j == id => finished += 1,
                _ => {}
            }
        }
        t += SimDuration::from_mins(1);
    }
    assert_eq!((placed, finished), (1, 1));
}
