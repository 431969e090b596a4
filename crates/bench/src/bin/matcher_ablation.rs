//! §5.2 "Strategies for Further Scaling": the matcher ablation, plus the
//! policy × workload × rung matrix (`--matrix`).
//!
//! "Under Flux's emulated environment with a resource graph configuration
//! similar to 4000 Summit nodes and the same job mix (24,000 jobs with 1
//! GPU and 3 CPU cores each, and 1 job with 150 nodes, each with 24
//! cores), we measured a 670× improvement in the performance."
//!
//! The default mode runs exactly that job mix through the resource-graph
//! matcher under the old configuration (low-ID exhaustive scoring,
//! synchronous Q↔R) and the new one (greedy first-match, asynchronous
//! Q↔R), measuring both real matcher work (nodes visited) and virtual
//! pipeline time.
//!
//! `--matrix` extends the ablation across the scheduler policy zoo: every
//! `SchedPolicy` × every synthetic workload mix × the requested Summit
//! ladder rungs, emitting `BENCH_policies.json` with placement
//! throughput, steady GPU occupancy, p50/p99 queue waits, and backfill
//! fills per cell. For each policy and rung it also re-runs the paper's
//! scaled job mix under both matcher configurations and asserts the
//! async/first-match matcher-work ratio — the 670× quantity — reproduces
//! above a declared per-rung floor. A policy whose queue ordering
//! somehow re-serialized the matcher would fail here, which is the point:
//! the paper's coordination win must be a property of the design, not of
//! FCFS.
//!
//! Usage:
//!   matcher_ablation
//!   matcher_ablation --matrix [--rungs 1/64,1/8] [--hours <n>]
//!                    [--seed <n>] [--out BENCH_policies.json]

use resources::{JobShape, MachineSpec, MatchPolicy, ResourceGraph};
use sched::{Costs, Coupling, JobClass, JobEvent, JobSpec, SchedEngine, SchedPolicy};
use simcore::{SimDuration, SimTime};
use workload::WorkloadSpec;

struct Outcome {
    placed: usize,
    visited: u64,
    virtual_time: SimTime,
    wall: std::time::Duration,
}

/// Drives the paper's scaled job mix (`sims` single-GPU jobs behind one
/// `continuum_nodes`-wide CPU job) to full placement under one matcher ×
/// coupling × policy configuration.
fn run_mix(
    policy: MatchPolicy,
    coupling: Coupling,
    sched_policy: SchedPolicy,
    nodes: u32,
    continuum_nodes: u32,
    sims: usize,
) -> Outcome {
    let graph = ResourceGraph::new(MachineSpec::summit_allocation(nodes));
    let mut engine = SchedEngine::new(graph, policy, coupling, Costs::summit_campaign());
    engine.set_sched_policy(sched_policy);

    engine.submit(
        JobSpec::new(
            JobClass::Continuum,
            JobShape::continuum(continuum_nodes),
            SimDuration::from_hours(24),
        ),
        SimTime::ZERO,
    );
    for _ in 0..sims {
        engine.submit(
            JobSpec::new(
                JobClass::CgSim,
                JobShape::sim(3),
                SimDuration::from_hours(24),
            ),
            SimTime::ZERO,
        );
    }

    let t0 = std::time::Instant::now();
    let mut placed = 0;
    let mut last_placed_at = SimTime::ZERO;
    // Advance in large steps until every job is placed or nothing moves.
    let mut horizon = SimTime::from_hours(1);
    loop {
        let events = engine.advance(horizon);
        for e in &events {
            if let JobEvent::Placed { at, .. } = e {
                placed += 1;
                last_placed_at = (*at).max(last_placed_at);
            }
        }
        if placed > sims || horizon >= SimTime::from_hours(200) {
            break;
        }
        horizon += SimDuration::from_hours(1);
    }
    Outcome {
        placed,
        visited: engine.graph().visited_total(),
        virtual_time: last_placed_at,
        wall: t0.elapsed(),
    }
}

/// The paper's exact §5.2 mix: 4000 nodes, 1 × 150-node job, 24,000 sims.
fn run(policy: MatchPolicy, coupling: Coupling) -> Outcome {
    run_mix(policy, coupling, SchedPolicy::Fcfs, 4000, 150, 24_000)
}

fn ablation_main() {
    println!("# Matcher ablation: 4000 Summit nodes, 24,000 GPU jobs + 1 × 150-node job\n");
    let old = run(MatchPolicy::LowIdExhaustive, Coupling::Synchronous);
    let new = run(MatchPolicy::FirstMatch, Coupling::Asynchronous);

    println!("configuration            placed   nodes-visited    virtual-time   wall-time");
    println!(
        "low-ID + synchronous     {:>6}   {:>13}   {:>11.2} h   {:?}",
        old.placed,
        mummi_bench::group_digits(old.visited),
        old.virtual_time.as_hours_f64(),
        old.wall
    );
    println!(
        "first-match + async      {:>6}   {:>13}   {:>11.2} h   {:?}",
        new.placed,
        mummi_bench::group_digits(new.visited),
        new.virtual_time.as_hours_f64(),
        new.wall
    );

    let visit_speedup = old.visited as f64 / new.visited.max(1) as f64;
    let time_speedup = old.virtual_time.as_secs_f64() / new.virtual_time.as_secs_f64().max(1e-9);
    // Matcher-only service time: visited nodes × per-node traversal cost.
    let per_node = 250e-6;
    println!(
        "\nmatcher service time: {:.1} h -> {:.1} s  ({visit_speedup:.0}× less matcher work)",
        old.visited as f64 * per_node / 3600.0,
        new.visited as f64 * per_node
    );
    println!(
        "end-to-end load time improvement: {time_speedup:.0}× (submission ingestion now dominates — Amdahl)"
    );
    println!("paper: 670× matcher improvement in Flux's emulated environment");
}

/// The Summit ladder rungs the matrix can run, as `(label, nodes,
/// flat-policy floor, hierarchical floor)` — the declared floors for the
/// async/first-match matcher-work ratio at that scale. The 670× figure
/// is a 4000-node number; exhaustive scoring visits O(nodes) per
/// placement, so the reproducible ratio shrinks with the rung (measured:
/// ~62× at 1/64, ~490× at 1/8) and the floors sit at under half the
/// measured value to absorb mix noise without ever letting the ablation
/// quietly invert. Hierarchical mode gets its own floor (~2.2× measured
/// at both rungs): partitioning already bounds the exhaustive scan to
/// one child *and* its range-walk placement primitive is not free-index
/// accelerated, so its headline ratio is structurally small — the
/// invariant asserted there is only that async/first-match never loses.
const MATRIX_RUNGS: &[(&str, u32, f64, f64)] = &[("1/64", 72, 25.0, 1.5), ("1/8", 576, 200.0, 1.5)];

/// One policy × workload × rung measurement.
struct Cell {
    submitted: u64,
    placed: u64,
    completed: u64,
    jobs_per_minute: f64,
    steady_gpu_occupancy: f64,
    p50_wait_us: u64,
    p99_wait_us: u64,
    backfills: u64,
    match_misses: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Drives one workload stream through a bare engine (production matcher
/// configuration: first-match + async) under `policy` for `hours`
/// virtual hours, sampling GPU occupancy once per virtual minute.
fn run_cell(policy: SchedPolicy, spec: &WorkloadSpec, nodes: u32, hours: u64, seed: u64) -> Cell {
    let graph = ResourceGraph::new(MachineSpec::summit_allocation(nodes));
    let total_gpus = graph.gpu_usage().1 as f64;
    let mut engine = SchedEngine::new(
        graph,
        MatchPolicy::FirstMatch,
        Coupling::Asynchronous,
        Costs::summit_campaign(),
    );
    engine.set_sched_policy(policy);
    engine.collect_wait_samples(true);
    // Job budget sized to the fastest synthetic cadence (~3 arrivals/min)
    // so every mix keeps arriving across the whole horizon; sources whose
    // stream would outlast the window are truncated at `end` below.
    let mut src = spec
        .build(seed, nodes, hours * 180)
        .unwrap_or_else(|e| panic!("workload {} failed to build: {e}", spec.name()));

    let end = SimTime::from_hours(hours);
    let minute = SimDuration::from_mins(1);
    let mut next_sample = SimTime::ZERO + minute;
    let mut occupancy = Vec::new();
    // Event-driven drive: jump to the earlier of the next arrival and the
    // next sample boundary; the engine orders everything in between
    // internally (the same interleaving the replay tests pin).
    loop {
        let mut next = next_sample;
        if let Some(at) = src.next_at() {
            next = next.min(at);
        }
        if next > end {
            break;
        }
        engine.advance(next);
        while let Some(job) = src.pop_due(next) {
            engine.submit(job.spec, job.at);
        }
        if next == next_sample {
            let (_, free_gpus, _) = engine.graph().free_totals();
            occupancy.push(1.0 - free_gpus as f64 / total_gpus.max(1.0));
            next_sample += minute;
        }
    }
    engine.advance(end);

    let stats = engine.stats();
    let mut waits = engine.wait_samples().to_vec();
    waits.sort_unstable();
    let steady = &occupancy[occupancy.len() * 2 / 3..];
    Cell {
        submitted: stats.submitted,
        placed: stats.placed,
        completed: stats.completed,
        jobs_per_minute: stats.placed as f64 / (hours * 60) as f64,
        steady_gpu_occupancy: if steady.is_empty() {
            0.0
        } else {
            steady.iter().sum::<f64>() / steady.len() as f64
        },
        p50_wait_us: percentile(&waits, 0.50),
        p99_wait_us: percentile(&waits, 0.99),
        backfills: stats.backfills,
        match_misses: stats.match_misses,
    }
}

fn matrix_main(rungs_arg: &str, hours: u64, seed: u64, out: &str) {
    let wanted: Vec<&str> = rungs_arg.split(',').map(str::trim).collect();
    let mut entries = Vec::new();
    let mut ratio_checks = Vec::new();
    for label in &wanted {
        let Some(&(_, nodes, flat_floor, hier_floor)) =
            MATRIX_RUNGS.iter().find(|&&(l, _, _, _)| l == *label)
        else {
            eprintln!(
                "unknown rung {label:?}; expected one of: {}",
                MATRIX_RUNGS
                    .iter()
                    .map(|&(l, _, _, _)| l)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        };
        for policy in SchedPolicy::ALL {
            for spec in &WorkloadSpec::SYNTHETIC {
                let c = run_cell(policy, spec, nodes, hours, seed);
                eprintln!(
                    "rung {label} × {} × {}: {:.1} jobs/min, occupancy {:.2}, p99 wait {:.1} s, {} backfills",
                    policy.name(),
                    spec.name(),
                    c.jobs_per_minute,
                    c.steady_gpu_occupancy,
                    c.p99_wait_us as f64 / 1e6,
                    c.backfills
                );
                entries.push(format!(
                    "{{\"rung\": \"{label}\", \"nodes\": {nodes}, \"policy\": \"{}\", \
                     \"workload\": \"{}\", \"virtual_hours\": {hours}, \"submitted\": {}, \
                     \"placed\": {}, \"completed\": {}, \"jobs_per_minute\": {:.3}, \
                     \"steady_gpu_occupancy\": {:.4}, \"p50_wait_us\": {}, \"p99_wait_us\": {}, \
                     \"backfills\": {}, \"match_misses\": {}}}",
                    policy.name(),
                    spec.name(),
                    c.submitted,
                    c.placed,
                    c.completed,
                    c.jobs_per_minute,
                    c.steady_gpu_occupancy,
                    c.p50_wait_us,
                    c.p99_wait_us,
                    c.backfills,
                    c.match_misses,
                ));
            }

            // The ablation itself, scaled to the rung, under this policy:
            // the async/first-match configuration must still beat the
            // sync/low-ID one on matcher work by at least the rung floor.
            let ratio_floor = if policy == SchedPolicy::Hierarchical {
                hier_floor
            } else {
                flat_floor
            };
            let continuum_nodes = (nodes * 3).div_ceil(80).max(1);
            let sims = nodes as usize * 4;
            let old = run_mix(
                MatchPolicy::LowIdExhaustive,
                Coupling::Synchronous,
                policy,
                nodes,
                continuum_nodes,
                sims,
            );
            let new = run_mix(
                MatchPolicy::FirstMatch,
                Coupling::Asynchronous,
                policy,
                nodes,
                continuum_nodes,
                sims,
            );
            assert_eq!(
                (old.placed, new.placed),
                (sims + 1, sims + 1),
                "rung {label} × {}: ablation mix did not fully place",
                policy.name()
            );
            let visit_ratio = old.visited as f64 / new.visited.max(1) as f64;
            let time_ratio =
                old.virtual_time.as_secs_f64() / new.virtual_time.as_secs_f64().max(1e-9);
            eprintln!(
                "rung {label} × {}: matcher-work ratio {visit_ratio:.0}× (floor {ratio_floor}×), load-time ratio {time_ratio:.1}×",
                policy.name()
            );
            assert!(
                visit_ratio >= ratio_floor,
                "rung {label} × {}: async/first-match matcher-work ratio {visit_ratio:.1}× \
                 fell below the declared {ratio_floor}× floor — the paper's coordination win \
                 no longer reproduces under this policy",
                policy.name()
            );
            ratio_checks.push(format!(
                "{{\"rung\": \"{label}\", \"nodes\": {nodes}, \"policy\": \"{}\", \
                 \"jobs\": {}, \"visited_sync_low_id\": {}, \"visited_async_first_match\": {}, \
                 \"matcher_work_ratio\": {visit_ratio:.2}, \"load_time_ratio\": {time_ratio:.3}, \
                 \"declared_floor\": {ratio_floor}}}",
                policy.name(),
                sims + 1,
                old.visited,
                new.visited,
            ));
        }
    }

    let mut json = format!(
        "{{\n  \"bench\": \"policy-matrix\",\n  \"schema\": 1,\n  \"virtual_hours\": {hours},\n  \"seed\": {seed},\n  \"entries\": [\n"
    );
    for (i, e) in entries.iter().enumerate() {
        json.push_str("    ");
        json.push_str(e);
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"ratio_checks\": [\n");
    for (i, e) in ratio_checks.iter().enumerate() {
        json.push_str("    ");
        json.push_str(e);
        json.push_str(if i + 1 < ratio_checks.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out, &json).unwrap_or_else(|e| {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "wrote {out} ({} cells, {} ratio checks)",
        entries.len(),
        ratio_checks.len()
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
    if args.iter().any(|a| a == "--matrix") {
        let rungs = arg_after("--rungs").unwrap_or_else(|| "1/64,1/8".to_string());
        let hours: u64 = arg_after("--hours")
            .and_then(|s| s.parse().ok())
            .unwrap_or(6);
        let seed: u64 = arg_after("--seed")
            .and_then(|s| s.parse().ok())
            .unwrap_or(2021);
        let out = arg_after("--out").unwrap_or_else(|| "BENCH_policies.json".to_string());
        matrix_main(&rungs, hours, seed, &out);
        return;
    }
    ablation_main();
}
