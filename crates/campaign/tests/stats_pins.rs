//! Exact-statistics pins for the campaign workloads `benchmark/` times.
//!
//! Each block replays a campaign at `seed: 1` and records what the
//! benchmark reports for it, by the benchmark's own formulas: the mean
//! GPU occupancy over the profile samples at or past two thirds of each
//! leg, averaged over legs; `driver_iterations` and `placed` summed over
//! legs; the largest `peak_gpu_jobs`. Every leg must also reconcile its
//! job ledger and never force the clock. The statistics are properties
//! of product code, so any change that moves one bit of them fails here,
//! whatever the host.
//!
//! `rung_1_64` (the benchmark's warm-up shape) runs with the tier-1
//! tests. `summit_full` and `table1_chain` are `#[ignore]`d for their
//! runtime (seconds in release) and run in CI's scale job:
//!
//! ```text
//! cargo test --release -p campaign --test stats_pins -- --ignored
//! ```
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --release -p campaign --test stats_pins -- --include-ignored
//! git diff crates/campaign/tests/goldens/   # review, then commit
//! ```

use std::path::PathBuf;
use std::sync::Mutex;

use campaign::{Campaign, CampaignConfig};
use resources::MachineSpec;
use simcore::SimTime;

/// Serializes `UPDATE_GOLDENS` rewrites: the blocks share one file.
static GOLDEN: Mutex<()> = Mutex::new(());

/// Context quoted when a Summit-scale block moves: the inequality the
/// exact pins replaced.
const SCALE_GATE: &str = "the gate these pins replaced asserted steady-state GPU \
     occupancy >= 98% with a reconciled ledger at the 1/8-Summit rung";

/// Replays `legs` (nodes, hours) through one campaign and renders the
/// block's statistics line.
fn replay(base: CampaignConfig, legs: &[(u32, u64)]) -> String {
    let mut c = Campaign::new(CampaignConfig { seed: 1, ..base });
    let (mut steady_sum, mut iterations, mut placed, mut peak) = (0.0, 0, 0, 0);
    for (i, &(nodes, hours)) in legs.iter().enumerate() {
        let seen = c.profiler().samples().len();
        let r = c.execute_run_on(MachineSpec::summit_allocation(nodes), hours);
        let violations = r.ledger.check();
        assert!(
            violations.is_empty(),
            "leg {i}: job accounting does not reconcile: {violations:?}"
        );
        assert_eq!(r.forced_advances, 0, "leg {i}: forced clock advances");
        // Samples are stamped in the leg's own virtual time from zero.
        let from = SimTime::from_hours(hours).as_micros() / 3 * 2;
        let steady: Vec<f64> = c.profiler().samples()[seen..]
            .iter()
            .filter(|s| s.at.as_micros() >= from)
            .map(|s| s.gpu_pct())
            .collect();
        steady_sum += steady.iter().sum::<f64>() / steady.len().max(1) as f64;
        iterations += r.driver_iterations;
        placed += r.placed;
        peak = peak.max(r.peak_gpu_jobs);
    }
    format!(
        "steady_gpu_pct={:?} driver_iterations={iterations} placed={placed} peak_gpu_jobs={peak}",
        steady_sum / legs.len() as f64
    )
}

/// Compares one block against `tests/goldens/stats_pins.txt` (or
/// rewrites its line under `UPDATE_GOLDENS=1`).
fn check(name: &str, got: &str, context: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("stats_pins.txt");
    let prefix = format!("{name}: ");
    let line = format!("{prefix}{got}");
    let _guard = GOLDEN.lock().unwrap_or_else(|e| e.into_inner());
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        let mut lines: Vec<String> = text
            .lines()
            .filter(|l| !l.starts_with(&prefix))
            .map(str::to_string)
            .collect();
        if lines.is_empty() {
            lines.push(
                "# exact campaign statistics (see crates/campaign/tests/stats_pins.rs)".into(),
            );
        }
        lines.push(line);
        lines[1..].sort();
        std::fs::write(&path, lines.join("\n") + "\n").expect("write stats pins");
        return;
    }
    let want = text
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| {
            panic!(
                "no {name} line in {}; run with UPDATE_GOLDENS=1",
                path.display()
            )
        });
    assert_eq!(
        line, want,
        "{name}: exact statistics moved{context}; if intentional, regenerate with UPDATE_GOLDENS=1"
    );
}

/// The 1/64 rung, 12 h: the benchmark's warm-up shape.
#[test]
fn rung_1_64() {
    check(
        "rung_1_64",
        &replay(CampaignConfig::scale_rung(72), &[(72, 12)]),
        "",
    );
}

/// Full Summit, one 16 h leg: the benchmark's `summit_full`.
#[test]
#[ignore] // seconds in release; CI runs it in the scale job
fn summit_full() {
    let got = replay(CampaignConfig::scale_rung(4608), &[(4608, 16)]);
    check("summit_full", &got, &format!(" ({SCALE_GATE})"));
}

/// The reduced Table 1 schedule as one 17-leg checkpoint chain under the
/// default configuration: the benchmark's `table1_chain`.
#[test]
#[ignore] // seconds in release; CI runs it in the scale job
fn table1_chain() {
    let legs: Vec<(u32, u64)> = [
        (100, 3, 5),
        (100, 6, 3),
        (500, 6, 3),
        (1000, 12, 5),
        (4000, 12, 1),
    ]
    .iter()
    .flat_map(|&(nodes, hours, runs)| (0..runs).map(move |_| (nodes, hours)))
    .collect();
    let got = replay(CampaignConfig::default(), &legs);
    check("table1_chain", &got, &format!(" ({SCALE_GATE})"));
}
