//! Cross-commit pins for the bare workflow manager, on the paths the
//! campaign's `trace_pins` never reach: giving up on a payload, AA-stage
//! resubmits, and a timeout that ends in abandonment. One WM on 2 Summit
//! nodes at [`WmConfig::test_scale`] with 30 % job failures, one resubmit
//! per payload, the hang watchdog at 1.5× and one hung job per simulation
//! class, fed by both candidate streams and by the frames finished
//! simulations leave for feedback. Pinned: the trace (event count, JSONL
//! digest), the counters, the tracker totals, the checkpoint digest and
//! the `WmEvent` stream. The golden predates the WM's stage table;
//! [`render`] is the only code here that names `WmEvent` variants.
//!
//! Regenerate only after an intentional behaviour change:
//! `UPDATE_GOLDENS=1 cargo test -p mummi-core --test wm_pins`.

use std::fmt::Write as _;

use aa::ss::{AaFrame, SsClass};
use cg::analysis::CgFrame;
use datastore::{DataStore, KvDataStore};
use dynim::HdPoint;
use mummi_core::{app3, ns, WmConfig, WmEvent};
use resources::{MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};
use sched::{Costs, Coupling, JobClass, SchedEngine};
use simcore::SimTime;
use trace::Tracer;

/// FNV-1a, 64-bit: a fixed, dependency-free digest.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One event as `(kind, stage, payload)`: the stage is `0` (CG) or `1`
/// (AA) for stage events and the job class for resubmits and
/// abandonments; feedback reports carry a digest of their parameters.
fn render(ev: &WmEvent) -> (&'static str, String, String) {
    let params = |p: &dyn std::fmt::Debug| format!("{:016x}", fnv1a64(format!("{p:?}").as_bytes()));
    match ev {
        WmEvent::SetupDone { stage, payload } => {
            ("setup_done", stage.to_string(), payload.to_string())
        }
        WmEvent::SimStarted { stage, sim_id, .. } => {
            ("sim_started", stage.to_string(), sim_id.to_string())
        }
        WmEvent::SimFinished { stage, sim_id } => {
            ("sim_finished", stage.to_string(), sim_id.to_string())
        }
        WmEvent::JobResubmitted { class, payload } => {
            ("resubmitted", class.label().into(), payload.to_string())
        }
        WmEvent::JobAbandoned { class, payload } => {
            ("abandoned", class.label().into(), payload.to_string())
        }
        WmEvent::CouplingUpdated(p) => ("coupling_updated", "-".into(), params(p)),
        WmEvent::CgParamsUpdated(p) => ("cg_params_updated", "-".into(), params(p)),
    }
}

/// Drives the WM for six virtual hours and renders the pin file; returns
/// it with the rendered event lines.
fn render_pins() -> (String, Vec<String>) {
    let tracer = Tracer::enabled();
    let mut launcher = SchedEngine::new(
        ResourceGraph::new(MachineSpec::custom("pins", 2, NodeSpec::summit())),
        MatchPolicy::FirstMatch,
        Coupling::Asynchronous,
        Costs::free(),
    );
    launcher.set_tracer(tracer.clone());
    let cfg = WmConfig {
        job_failure_prob: 0.3,
        max_resubmits: 1,
        job_timeout_grace: 1.5,
        ..WmConfig::test_scale()
    };
    let poll = cfg.poll_interval;
    let mut wm = app3::build_three_scale_wm(cfg, launcher, 2);
    wm.set_tracer(tracer.clone());
    let mut store = KvDataStore::new(4);

    let mut lines = Vec::new();
    let mut events = Vec::new();
    // One hang per simulation class, on the first job running past the
    // given minute. The AA hang lands on a resubmitted job, so its
    // timeout spends the last of the budget and ends in abandonment.
    let mut hangs = vec![(JobClass::CgSim, 30), (JobClass::AaSim, 60)];
    for tick in 0..=720u64 {
        let t = SimTime::ZERO + poll * tick;
        // The patch stream: a batch of 8 state-tagged patches every 20 min.
        if tick.is_multiple_of(40) {
            let mut batch: Vec<HdPoint> = (tick / 5..tick / 5 + 8)
                .map(|i| {
                    let z = (0..app3::PATCH_LATENT_DIM)
                        .map(|d| (i as f64 * 0.31 + d as f64 * 0.17) % 7.0)
                        .collect();
                    app3::state_tagged_point(&format!("p{i}"), i as usize % app3::PATCH_QUEUES, z)
                })
                .collect();
            wm.add_patch_candidates_from(&mut batch);
        }
        wm.tick_into(t, &mut store, &mut (), &mut events);
        for ev in events.drain(..) {
            let (kind, stage, sim) = render(&ev);
            let k = sim.len();
            match (kind, stage.as_str()) {
                // The frame stream: three candidates per started CG sim.
                ("sim_started", "0") => {
                    let mut frames: Vec<HdPoint> = (0..3)
                        .map(|i| {
                            let v = (k * 7 + i * 3) as f64 % 11.0 / 11.0;
                            HdPoint::new(format!("{sim}:f{i}"), vec![v, 1.0 - v, i as f64 / 3.0])
                        })
                        .collect();
                    wm.add_frame_candidates_from(&mut frames);
                }
                ("sim_finished", "0") => {
                    let v = (k % 5) as f64 * 0.2;
                    let f = CgFrame {
                        id: format!("{sim}:rdf"),
                        time: 1.0,
                        encoding: [v, 0.5, 1.0 - v],
                        rdfs: vec![vec![1.0 + v; 10], vec![0.5; 10]],
                    };
                    store.write(ns::RDF_NEW, &f.id, &f.encode()).expect("write");
                }
                ("sim_finished", "1") => {
                    let ss = [SsClass::Helix, SsClass::Sheet, SsClass::Coil];
                    let f = AaFrame {
                        id: format!("{sim}:ss"),
                        time: 1.0,
                        ss: (0..12).map(|i| ss[(i + k) % 3]).collect(),
                    };
                    store.write(ns::SS_NEW, &f.id, &f.encode()).expect("write");
                }
                _ => {}
            }
            lines.push(format!("{kind} {stage} {sim}"));
        }
        hangs.retain(|&(class, mins)| {
            t < SimTime::from_mins(mins) || wm.launcher_mut().hang_running(class, t).is_none()
        });
    }
    assert!(hangs.is_empty(), "both sim classes must hang to pin it");

    let jsonl = tracer.to_jsonl();
    let abandoning_timeout = |l: &&str| l.contains("\"wm.timeout\"") && !l.contains("\"attempt\"");
    assert!(
        jsonl.lines().any(|l| abandoning_timeout(&l)),
        "no timeout ended in abandonment"
    );
    let ckpt = wm.checkpoint().to_text();
    let mut out =
        String::from("# workflow-manager pins (see crates/mummi-core/tests/wm_pins.rs)\n");
    let _ = writeln!(out, "events={}", tracer.event_count());
    let _ = writeln!(out, "jsonl_fnv1a64={:016x}", fnv1a64(jsonl.as_bytes()));
    let _ = writeln!(out, "stats={:?}", wm.stats());
    let _ = writeln!(out, "totals={:?}", wm.tracker_totals());
    let _ = writeln!(out, "checkpoint_fnv1a64={:016x}", fnv1a64(ckpt.as_bytes()));
    let _ = writeln!(out, "wm_events={}", lines.len());
    for line in &lines {
        let _ = writeln!(out, "{line}");
    }
    (out, lines)
}

#[test]
fn workflow_manager_matches_the_committed_pins() {
    let (got, lines) = render_pins();
    let seen = |prefix: &str| lines.iter().any(|l| l.starts_with(prefix));
    assert!(seen("abandoned "), "no payload was abandoned");
    assert!(seen("resubmitted aa-"), "no AA-stage job was resubmitted");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/wm_pins.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(path, &got).expect("write wm pins");
        return;
    }
    let want = std::fs::read_to_string(path).expect("committed wm pins");
    assert_eq!(
        got, want,
        "wm pins moved; if intentional, regenerate with UPDATE_GOLDENS=1"
    );
}
