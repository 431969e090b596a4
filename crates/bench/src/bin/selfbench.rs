//! Self-benchmark of the campaign simulator: the repo's wall-clock
//! trajectory (`BENCH_campaign.json`) and the Summit scale ladder
//! (`BENCH_scale.json`).
//!
//! **Smoke mode** (default) runs the `table1 --smoke` schedule twice —
//! once under the legacy fixed-interval ticked loop, once under
//! event-driven next-event time advance — and records wall-clock seconds,
//! peak RSS, and virtual-seconds-per-wall-second for each, plus the
//! speedup, as JSON at the repository root (CI uploads it as an
//! artifact).
//!
//! Both engines run the *same* configuration, with `poll_interval` set to
//! the scheduler pipeline's own decision granularity (50 ms — the
//! dispatch service cost in `Costs::summit_campaign`; `--poll-millis <n>`
//! to override). That is the equal-fidelity comparison: the event-driven
//! clock times every completion and service start exactly, so for the
//! ticked sweep to resolve the same scheduler events its period must not
//! exceed the finest service interval — and its cost is O(virtual time /
//! poll) while the event-driven cost is O(events), independent of the
//! poll setting. Each phase runs `--reps <n>` times (default 3) and keeps
//! the minimum wall time. See DESIGN.md § "Simulator performance".
//!
//! **Scale mode** (`--scale <rungs>`) climbs the Summit ladder instead:
//! each rung runs one 16-virtual-hour allocation at a fraction of the
//! full machine (4,608 nodes × 6 GPUs) under the indexed coordination
//! hot path, recording wall clock, peak RSS, virt-s per wall-s, and peak
//! concurrent GPU jobs per rung. The 1/8 rung additionally runs the
//! retained pre-index engine (`linear_scan`) at the same seed and
//! records the indexed/linear speedup. Results **append** to
//! `BENCH_scale.json` — the file accumulates a trajectory across
//! invocations instead of being clobbered. See DESIGN.md § "Scaling the
//! coordination hot path".
//!
//! **Table-1 mode** (`--table1`) runs the paper's *full* schedule —
//! all 32 allocations, 20 × 1000-node × 24 h plus the 4,000-node run,
//! ≈600,000 node hours — and appends one entry to `BENCH_scale.json`:
//! the whole Summit campaign replayed in well under a wall-clock minute.
//!
//! Usage:
//!   selfbench [--out <path>] [--poll-millis <n>] [--reps <n>]
//!   selfbench --scale <1/64,1/8,1/2,1/1|all> [--out <path>] [--hours <n>]
//!   selfbench --table1 [--out <path>]
//!
//! The smoke and `--scale` modes also accept the shared scheduler flags
//! `--policy <name>`, `--workload <spec>`, and `--legacy-sched` (see
//! [`mummi_bench::apply_sched_args`]).

use std::time::Instant;

use campaign::{Campaign, CampaignConfig, DriveMode};
use mummi_bench::files::{merge_scale_file, SCHEMA};
use simcore::SimDuration;

/// The `table1 --smoke` schedule: a two-allocation restart chain.
const SCHEDULE: &[(u32, u64, u32)] = &[(100, 4, 1), (100, 2, 1)];

/// The Summit ladder: fraction label → compute nodes (6 GPUs each).
const RUNGS: &[(&str, u32)] = &[("1/64", 72), ("1/8", 576), ("1/2", 2304), ("1/1", 4608)];

/// The rung benchmarked against the retained linear-scan engine.
const COMPARE_RUNG: &str = "1/8";

/// Peak resident set (VmHWM) in KiB — Linux only, 0 elsewhere. The value
/// is a process-lifetime high-water mark, so per-phase readings are
/// cumulative: run the cheaper phase first to keep them meaningful.
fn peak_rss_kib() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    if let Some(kb) = rest.split_whitespace().next() {
                        return kb.parse().unwrap_or(0);
                    }
                }
            }
        }
    }
    0
}

struct Phase {
    wall_seconds: f64,
    virtual_per_wall: f64,
    peak_rss_kib: u64,
    placed: u64,
    iterations: u64,
}

fn run_mode(mode: DriveMode, poll: SimDuration, reps: u32) -> Phase {
    let virtual_secs: u64 = SCHEDULE
        .iter()
        .map(|&(_, hours, count)| hours * count as u64 * 3600)
        .sum();
    let mut best: Option<Phase> = None;
    for _ in 0..reps.max(1) {
        let mut cfg = CampaignConfig {
            poll_interval: poll,
            mode,
            ..CampaignConfig::default()
        };
        mummi_bench::apply_sched_args(&mut cfg);
        let mut c = Campaign::new(cfg);
        let start = Instant::now();
        c.run_table(SCHEDULE);
        let wall = start.elapsed().as_secs_f64();
        let phase = Phase {
            wall_seconds: wall,
            virtual_per_wall: virtual_secs as f64 / wall.max(1e-9),
            peak_rss_kib: peak_rss_kib(),
            placed: c.reports().iter().map(|r| r.placed).sum(),
            iterations: c.reports().iter().map(|r| r.driver_iterations).sum(),
        };
        if best
            .as_ref()
            .is_none_or(|b| phase.wall_seconds < b.wall_seconds)
        {
            best = Some(phase);
        }
    }
    best.expect("at least one rep")
}

/// One scale-ladder measurement: a single allocation at `nodes` for
/// `hours` virtual hours, indexed or linear engine.
struct RungResult {
    wall_seconds: f64,
    virtual_per_wall: f64,
    peak_rss_kib: u64,
    placed: u64,
    iterations: u64,
    peak_gpu_jobs: u64,
    steady_gpu_occupancy: f64,
}

fn run_rung(nodes: u32, hours: u64, linear: bool) -> RungResult {
    let mut cfg = CampaignConfig {
        linear_scan: linear,
        ..CampaignConfig::scale_rung(nodes)
    };
    mummi_bench::apply_sched_args(&mut cfg);
    let mut c = Campaign::new(cfg);
    let start = Instant::now();
    let r = c.execute_run(nodes, hours);
    let wall = start.elapsed().as_secs_f64();
    let series = c.profiler().gpu_series();
    let steady = &series[series.len() * 2 / 3..];
    let steady_mean = if steady.is_empty() {
        0.0
    } else {
        steady.iter().sum::<f64>() / steady.len() as f64
    };
    RungResult {
        wall_seconds: wall,
        virtual_per_wall: (hours * 3600) as f64 / wall.max(1e-9),
        peak_rss_kib: peak_rss_kib(),
        placed: r.placed,
        iterations: r.driver_iterations,
        peak_gpu_jobs: r.peak_gpu_jobs,
        steady_gpu_occupancy: steady_mean,
    }
}

/// `extra` is a preformatted JSON fragment (`", \"key\": value"`) so the
/// ladder variants (engine compare, table1-full) can tag entries
/// without a parameter per optional field.
fn rung_entry(
    rung: &str,
    nodes: u32,
    hours: u64,
    engine: &str,
    r: &RungResult,
    extra: &str,
) -> String {
    format!(
        "{{\"rung\": \"{rung}\", \"nodes\": {nodes}, \"gpus\": {}, \"virtual_hours\": {hours}, \
         \"engine\": \"{engine}\", \"wall_seconds\": {:.6}, \"virtual_per_wall\": {:.1}, \
         \"peak_rss_kib\": {}, \"jobs_placed\": {}, \"driver_iterations\": {}, \
         \"peak_concurrent_gpu_jobs\": {}, \"steady_gpu_occupancy\": {:.2}{extra}}}",
        nodes as u64 * 6,
        r.wall_seconds,
        r.virtual_per_wall,
        r.peak_rss_kib,
        r.placed,
        r.iterations,
        r.peak_gpu_jobs,
        r.steady_gpu_occupancy,
    )
}

/// Appends `new_entries` to the `entries` array of the scale file,
/// preserving whatever is already there (append-don't-clobber: the file
/// is the repo's scale trajectory, one entry per measured rung per run).
/// The merge itself lives in [`mummi_bench::files`], where it is
/// unit-tested against both bench file formats.
fn write_scale_file(out: &str, new_entries: Vec<String>) {
    let existing = std::fs::read_to_string(out).ok();
    let (json, n, warning) = merge_scale_file(existing.as_deref(), new_entries);
    if let Some(w) = warning {
        eprintln!("warning: {out}: {w}");
    }
    std::fs::write(out, &json).unwrap_or_else(|e| {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out} ({n} entries)");
}

fn scale_main(rungs_arg: &str, out: &str, hours: u64) {
    let wanted: Vec<&str> = if rungs_arg == "all" {
        RUNGS.iter().map(|&(label, _)| label).collect()
    } else {
        rungs_arg.split(',').map(str::trim).collect()
    };
    let mut entries = Vec::new();
    for label in &wanted {
        let Some(&(_, nodes)) = RUNGS.iter().find(|&&(l, _)| l == *label) else {
            eprintln!(
                "unknown rung {label:?}; expected one of: {}",
                RUNGS.iter().map(|&(l, _)| l).collect::<Vec<_>>().join(", ")
            );
            std::process::exit(2);
        };
        // The compare rung runs the retained pre-index engine first (it
        // is the slower phase, and VmHWM is cumulative — see
        // `peak_rss_kib`), then the indexed engine at the same seed.
        let linear = (*label == COMPARE_RUNG).then(|| {
            eprintln!("rung {label} ({nodes} nodes): linear-scan baseline…");
            let r = run_rung(nodes, hours, true);
            eprintln!(
                "  linear:  {:.3}s wall, {:.0} virt-s/wall-s, peak {} jobs",
                r.wall_seconds, r.virtual_per_wall, r.peak_gpu_jobs
            );
            r
        });
        eprintln!("rung {label} ({nodes} nodes): indexed engine…");
        let indexed = run_rung(nodes, hours, false);
        eprintln!(
            "  indexed: {:.3}s wall, {:.0} virt-s/wall-s, {} placed, peak {} concurrent GPU jobs, steady occupancy {:.1}%",
            indexed.wall_seconds,
            indexed.virtual_per_wall,
            indexed.placed,
            indexed.peak_gpu_jobs,
            indexed.steady_gpu_occupancy,
        );
        if let Some(lin) = &linear {
            // Same seed, same virtual decisions: the two runs must agree
            // on everything but wall clock, or the toggle is broken.
            assert_eq!(
                (lin.placed, lin.iterations, lin.peak_gpu_jobs),
                (indexed.placed, indexed.iterations, indexed.peak_gpu_jobs),
                "linear and indexed engines diverged at rung {label}"
            );
            let speedup = lin.wall_seconds / indexed.wall_seconds.max(1e-9);
            eprintln!("  speedup (indexed over linear): {speedup:.1}x");
            entries.push(rung_entry(label, nodes, hours, "linear", lin, ""));
            entries.push(rung_entry(
                label,
                nodes,
                hours,
                "indexed",
                &indexed,
                &format!(", \"speedup_vs_linear\": {speedup:.2}"),
            ));
        } else {
            entries.push(rung_entry(label, nodes, hours, "indexed", &indexed, ""));
        }
    }
    write_scale_file(out, entries);
}

/// The paper's full Table 1 schedule (32 runs, ≈600k node hours) — the
/// end-to-end target the ladder rungs approximate one allocation at a
/// time.
fn table1_main(out: &str) {
    let schedule: &[(u32, u64, u32)] = &[
        (100, 6, 5),
        (100, 12, 3),
        (500, 12, 3),
        (1000, 24, 20),
        (4000, 24, 1),
    ];
    let node_hours: u64 = schedule
        .iter()
        .map(|&(n, h, c)| n as u64 * h * c as u64)
        .sum();
    eprintln!(
        "table1-full: 32 runs, {} node hours",
        mummi_bench::group_digits(node_hours)
    );
    let mut c = Campaign::new(CampaignConfig::default());
    let start = Instant::now();
    c.run_table(schedule);
    let wall = start.elapsed().as_secs_f64();
    let virtual_secs: u64 = schedule.iter().map(|&(_, h, c)| h * c as u64 * 3600).sum();
    let runs: u64 = schedule.iter().map(|&(_, _, c)| c as u64).sum();
    let reports = c.reports();
    let r = RungResult {
        wall_seconds: wall,
        virtual_per_wall: virtual_secs as f64 / wall.max(1e-9),
        peak_rss_kib: peak_rss_kib(),
        placed: reports.iter().map(|r| r.placed).sum(),
        iterations: reports.iter().map(|r| r.driver_iterations).sum(),
        peak_gpu_jobs: reports.iter().map(|r| r.peak_gpu_jobs).max().unwrap_or(0),
        steady_gpu_occupancy: reports.iter().map(|r| r.gpu_mean_occupancy).sum::<f64>()
            / runs as f64,
    };
    eprintln!(
        "  {:.1}s wall ({:.1} min), {:.0} virt-s/wall-s, {} placed",
        r.wall_seconds,
        r.wall_seconds / 60.0,
        r.virtual_per_wall,
        r.placed
    );
    let extra = format!(", \"node_hours\": {node_hours}");
    write_scale_file(
        out,
        vec![rung_entry("table1-full", 4000, 24, "indexed", &r, &extra)],
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let scale = arg_after("--scale");
    let table1 = args.iter().any(|a| a == "--table1");
    let out = arg_after("--out").unwrap_or_else(|| {
        if scale.is_some() || table1 {
            "BENCH_scale.json".to_string()
        } else {
            "BENCH_campaign.json".to_string()
        }
    });

    if table1 {
        table1_main(&out);
        return;
    }
    if let Some(rungs) = scale {
        let hours: u64 = arg_after("--hours")
            .and_then(|s| s.parse().ok())
            .unwrap_or(16);
        scale_main(&rungs, &out, hours);
        return;
    }

    let poll_millis: u64 = arg_after("--poll-millis")
        .and_then(|s| s.parse().ok())
        .unwrap_or(50);
    let reps: u32 = arg_after("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let poll = SimDuration::from_millis(poll_millis);

    eprintln!("selfbench: table1 --smoke schedule, poll {poll_millis}ms, best of {reps}");
    // Event-driven first: it allocates less, so the cumulative VmHWM
    // high-water mark stays attributable per phase.
    let event = run_mode(DriveMode::EventDriven, poll, reps);
    eprintln!(
        "  event-driven: {:.3}s wall, {:.0} virt-s/wall-s, {} iterations, peak {} KiB",
        event.wall_seconds, event.virtual_per_wall, event.iterations, event.peak_rss_kib
    );
    let ticked = run_mode(DriveMode::Ticked, poll, reps);
    eprintln!(
        "  ticked:       {:.3}s wall, {:.0} virt-s/wall-s, {} iterations, peak {} KiB",
        ticked.wall_seconds, ticked.virtual_per_wall, ticked.iterations, ticked.peak_rss_kib
    );
    let speedup = ticked.wall_seconds / event.wall_seconds.max(1e-9);
    eprintln!("  speedup (ticked/event): {speedup:.1}x");

    let phase_json = |p: &Phase| {
        format!(
            "{{\"wall_seconds\": {:.6}, \"virtual_per_wall\": {:.1}, \"peak_rss_kib\": {}, \"jobs_placed\": {}, \"driver_iterations\": {}}}",
            p.wall_seconds, p.virtual_per_wall, p.peak_rss_kib, p.placed, p.iterations
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"campaign-smoke\",\n  \"schema\": {SCHEMA},\n  \"schedule\": \"table1 --smoke\",\n  \"poll_interval_millis\": {poll_millis},\n  \"virtual_seconds\": {},\n  \"ticked\": {},\n  \"event_driven\": {},\n  \"speedup_event_over_ticked\": {:.2}\n}}\n",
        SCHEDULE
            .iter()
            .map(|&(_, h, c)| h * c as u64 * 3600)
            .sum::<u64>(),
        phase_json(&ticked),
        phase_json(&event),
        speedup
    );
    std::fs::write(&out, json).unwrap_or_else(|e| {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");
}
