//! Cross-commit trace pins for the campaign event loop.
//!
//! Five scenarios — a busy allocation, hardware attrition, the chaos
//! smoke plan with its WM crash point, a two-leg checkpoint chain, and a
//! hung job the tracker's watchdog has to cancel — each pinned by trace event count, a 64-bit digest of the full JSONL
//! trace, the exact report counters and the ledger. The committed file
//! under `tests/goldens/` was generated at the commit *before* the loop
//! body was restructured, so a pass means the loop still emits the bytes
//! it emitted then; any change that moves one trace byte shows up here.
//!
//! A second pin covers the inputs of Figures 3 and 4: after a two-leg
//! chain with a WM crash point in each leg and a paused first leg, the
//! bit patterns of the CG/AA/continuum perf samples and the achieved
//! CG/AA trajectory lengths, in `tests/goldens/fig34_pins.txt`. The trace
//! digest does not cover these series: the runtime model draws them and
//! the sims map holds them, and neither is traced.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p campaign --test trace_pins
//! git diff crates/campaign/tests/goldens/   # review, then commit
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use campaign::{Campaign, CampaignConfig, RunControl, RunReport};
use chaos::{FaultEvent, FaultKind, FaultPlan};
use resources::{MachineSpec, MatchPolicy};
use sched::{Coupling, JobClass};
use simcore::{SimDuration, SimTime};
use trace::Tracer;

fn busy_cfg() -> CampaignConfig {
    CampaignConfig {
        patches_per_snapshot: 6,
        frames_per_sim_per_min: 0.05,
        cg_target_us: 0.5,
        aa_target_ns: (5.0, 8.0),
        queue_cap: 500,
        policy: MatchPolicy::FirstMatch,
        coupling: Coupling::Asynchronous,
        submit_rate_per_min: 600,
        ..CampaignConfig::default()
    }
}

/// FNV-1a, 64-bit: a fixed, dependency-free digest (std's `DefaultHasher`
/// promises no stability across toolchains).
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The report fields pinned exactly (everything except the figure
/// timelines, which the trace digest covers).
fn report_key(r: &RunReport) -> String {
    format!(
        "placed={} completed={} peak={} nodes_failed={} jobs_crashed={} wm_crashes={} \
         jobs_hung={} store_faults={} store_delayed={} timed_out={} abandoned={} \
         iterations={} forced={} load_time_us={:?} ledger={:?}",
        r.placed,
        r.sims_completed,
        r.peak_gpu_jobs,
        r.nodes_failed,
        r.jobs_crashed,
        r.wm_crashes,
        r.jobs_hung,
        r.store_faults_injected,
        r.store_ops_delayed,
        r.jobs_timed_out,
        r.jobs_abandoned,
        r.driver_iterations,
        r.forced_advances,
        r.load_time.map(|t| t.as_micros()),
        r.ledger,
    )
}

/// Runs `legs` (nodes, hours) allocations as one traced campaign and
/// renders the scenario's pin block.
fn pin(name: &str, cfg: CampaignConfig, legs: &[(u32, u64)]) -> (String, Vec<RunReport>) {
    let mut c = Campaign::new(cfg);
    c.set_tracer(Tracer::enabled());
    let reports: Vec<RunReport> = legs.iter().map(|&(n, h)| c.execute_run(n, h)).collect();
    let jsonl = c.tracer().to_jsonl();
    let mut out = String::new();
    let _ = writeln!(out, "[{name}]");
    let _ = writeln!(out, "events={}", c.tracer().event_count());
    let _ = writeln!(out, "jsonl_fnv1a64={:016x}", fnv1a64(jsonl.as_bytes()));
    let _ = writeln!(out, "data_counts={:?}", c.data_counts());
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(out, "leg{}: {}", i + 1, report_key(r));
    }
    (out, reports)
}

fn render_pins() -> String {
    let mut out = String::from("# campaign trace pins (see crates/campaign/tests/trace_pins.rs)\n");

    let (busy, r) = pin("busy", busy_cfg(), &[(20, 12)]);
    assert_eq!(r[0].forced_advances, 0, "healthy run forced the clock");
    out.push_str(&busy);

    let (attrition, r) = pin(
        "attrition",
        CampaignConfig {
            node_failures_per_day: 8.0,
            ..busy_cfg()
        },
        &[(20, 12)],
    );
    assert!(r[0].nodes_failed > 0, "attrition must fire to pin it");
    out.push_str(&attrition);

    // The full chaos smoke plan: a node kill, a store-fault window, a
    // job hang, and a WM crash point (candidates ingested earlier in the
    // crash pass die with the incarnation).
    let (chaos, r) = pin(
        "chaos",
        CampaignConfig {
            job_timeout_grace: 1.5,
            fault_plan: Some(FaultPlan::smoke(9, SimDuration::from_hours(12), 20)),
            ..busy_cfg()
        },
        &[(20, 12)],
    );
    assert_eq!(r[0].wm_crashes, 1, "the crash point must fire");
    let violations = r[0].ledger.check();
    assert!(
        violations.is_empty(),
        "books do not balance: {violations:?}"
    );
    out.push_str(&chaos);

    // The checkpoint a run hands to the next leg is part of the pinned
    // byte stream: a 10-node leg restarts onto 20 nodes.
    let (chain, _) = pin("chain", busy_cfg(), &[(10, 8), (20, 8)]);
    out.push_str(&chain);

    // One CG hang and nothing else: the only pin whose bytes depend on
    // `JobTracker::expire_overdue` firing (every block above reads
    // `timed_out=0`). The shorter CG target puts the hung job's
    // deadline inside the allocation.
    let (watchdog, r) = pin(
        "watchdog",
        CampaignConfig {
            cg_target_us: 0.2,
            job_timeout_grace: 1.5,
            node_failures_per_day: 0.0,
            fault_plan: Some(FaultPlan {
                seed: 0,
                events: vec![FaultEvent {
                    at: SimTime::from_hours(2),
                    kind: FaultKind::JobHang {
                        class: JobClass::CgSim,
                    },
                }],
            }),
            ..busy_cfg()
        },
        &[(10, 12)],
    );
    assert!(r[0].jobs_timed_out >= 1, "the watchdog must fire to pin it");
    out.push_str(&watchdog);
    out
}

/// One line per series: its length and the FNV-1a-64 of its values'
/// little-endian bit patterns, in order.
fn series_line(out: &mut String, name: &str, values: &[f64]) {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    let _ = writeln!(
        out,
        "{name}: n={} fnv1a64={:016x}",
        values.len(),
        fnv1a64(&bytes)
    );
}

/// The Figure 3 (trajectory lengths) and Figure 4 (perf samples) series
/// after a 20-node leg paused at hour 8 and a 10-node leg, with a WM
/// crash point at hour 3 of each.
fn render_fig34_pins() -> String {
    let mut c = Campaign::new(CampaignConfig {
        fault_plan: Some(FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                at: SimTime::from_hours(3),
                kind: FaultKind::WmCrash,
            }],
        }),
        ..busy_cfg()
    });
    let control = RunControl::new();
    // Scheduled mid-hour: the pause-point rule rounds it up to hour 8.
    control.schedule_pause_at(SimTime::from_mins(7 * 60 + 30));
    let first = c.execute_run_controlled_on(MachineSpec::summit_allocation(20), 12, &control);
    assert_eq!(
        first.paused_at,
        Some(SimTime::from_hours(8)),
        "the pause must fire"
    );
    assert_eq!(first.wm_crashes, 1, "the crash point must fire in leg 1");
    control.clear_pause();
    let second = c.execute_run_controlled_on(MachineSpec::summit_allocation(10), 8, &control);
    assert_eq!(second.wm_crashes, 1, "the crash point must fire in leg 2");

    let pairs = |s: &[(f64, f64)]| s.iter().flat_map(|&(a, b)| [a, b]).collect::<Vec<_>>();
    let mut out =
        String::from("# Figure 3/4 input pins (see crates/campaign/tests/trace_pins.rs)\n");
    series_line(&mut out, "cg_samples", &pairs(c.cg_samples()));
    series_line(&mut out, "aa_samples", &pairs(c.aa_samples()));
    series_line(&mut out, "continuum_samples", c.continuum_samples());
    series_line(&mut out, "cg_lengths", &c.cg_lengths());
    series_line(&mut out, "aa_lengths", &c.aa_lengths());
    out
}

/// Compares `got` against the committed golden `name`, or rewrites it
/// under `UPDATE_GOLDENS=1`.
fn check_golden(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("goldens dir")).expect("create goldens dir");
        std::fs::write(&path, got).expect("write pins");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run with UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name} moved; if intentional, regenerate with UPDATE_GOLDENS=1"
    );
}

#[test]
fn campaign_traces_match_the_committed_pins() {
    check_golden("trace_pins.txt", &render_pins());
}

#[test]
fn figure_3_and_4_inputs_match_the_committed_pins() {
    check_golden("fig34_pins.txt", &render_fig34_pins());
}
