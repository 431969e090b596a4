//! Table 1: campaign runs at different computational scales.
//!
//! "MuMMI can seamlessly (re)start runs at different computational scales.
//! This work utilized over 600,000 node hours on Summit using several runs
//! at varying scales."
//!
//! Usage: `table1 [--full | --smoke] [--chaos <seed>] [--policy <name>]
//! [--workload <spec>] [--trace <path>] [--trace-chrome <path>]`; any
//! other argument, or a flag whose value is missing or does not parse,
//! prints the accepted set and exits 2. `--policy` picks the
//! queue-ordering/backfill policy and `--workload` adds a background job
//! stream (synthetic mix or `trace:<path>`). The default executes the
//! paper's exact schedule but with the twenty 1000-node runs
//! represented by five (the DES is deterministic, so additional identical
//! runs only add wall time); `--full` executes all 32 runs; `--smoke` runs
//! a two-allocation restart chain at 100 nodes (seconds — the CI
//! determinism check). `--chaos <seed>` injects the seeded smoke fault
//! plan (one node failure, store-fault window, job hang, and WM crash per
//! allocation) and exits nonzero if any run's job accounting fails to
//! reconcile.

use campaign::{Campaign, CampaignConfig};
use chaos::FaultPlan;
use mummi_bench::{or_exit, Flags, TraceOpts};
use simcore::SimDuration;

fn main() {
    let valued = [
        &["--chaos", "--policy", "--workload"][..],
        &TraceOpts::FLAGS,
    ]
    .concat();
    let flags = Flags::from_env(&["--full", "--smoke"], &valued);
    let full = flags.has("--full");
    let smoke = flags.has("--smoke");
    let chaos_seed: Option<u64> =
        or_exit(flags.parsed("--chaos", "a u64 seed", |s| s.parse().ok()));
    let topts = TraceOpts::from_flags(&flags);
    // (nodes, wall-time hours, #runs), exactly Table 1.
    let schedule: Vec<(u32, u64, u32)> = if smoke {
        vec![(100, 4, 1), (100, 2, 1)]
    } else {
        vec![
            (100, 6, 5),
            (100, 12, 3),
            (500, 12, 3),
            (1000, 24, if full { 20 } else { 5 }),
            (4000, 24, 1),
        ]
    };

    let mut cfg = CampaignConfig::default();
    or_exit(mummi_bench::apply_sched_args(&mut cfg, &flags));
    let plan = chaos_seed.map(|seed| {
        // Fault times are relative to each run's start; spanning the
        // shortest scheduled allocation puts every fault inside every run.
        let min_hours = schedule.iter().map(|&(_, h, _)| h).min().unwrap_or(1);
        let max_nodes = schedule.iter().map(|&(n, _, _)| n).max().unwrap_or(1);
        FaultPlan::smoke(seed, SimDuration::from_hours(min_hours), max_nodes)
    });
    if let Some(plan) = &plan {
        cfg.fault_plan = Some(plan.clone());
        cfg.job_timeout_grace = 1.5;
    }
    let mut c = Campaign::new(cfg);
    c.set_tracer(topts.tracer());
    println!("# Table 1: (re)starting the campaign at different scales");
    println!("#nodes\twall-time\t#runs\tnode hours");
    let rows = c.run_table(&schedule);
    let mut total = 0;
    for (nodes, hours, runs, node_hours) in &rows {
        println!(
            "{nodes}\t{hours} hours\t{runs}\t{}",
            mummi_bench::group_digits(*node_hours)
        );
        total += node_hours;
    }
    // Scale the shortened 1000-node row up for the headline comparison.
    let projected = if full { total } else { total + 1000 * 24 * 15 };
    println!(
        "\ntotal node hours executed: {}",
        mummi_bench::group_digits(total)
    );
    if !full && !smoke {
        println!(
            "projected at the paper's full schedule (20 × 1000-node runs): {}",
            mummi_bench::group_digits(projected)
        );
    }
    if !smoke {
        println!("paper: >600,000 node hours (597,000 scheduled in Table 1)");
    }

    println!("\n# per-run detail (restart behavior)");
    println!("run\tnodes\thours\tplaced\tcompleted\tmeanGPU%\tload");
    for (i, r) in c.reports().iter().enumerate() {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{:.1}\t{}",
            i + 1,
            r.nodes,
            r.hours,
            r.placed,
            r.sims_completed,
            r.gpu_mean_occupancy,
            r.load_time
                .map(|t| format!("{:.2} h", t.as_hours_f64()))
                .unwrap_or_else(|| "-".into()),
        );
    }
    let (snaps, patches, frames) = c.data_counts();
    println!("\nsnapshots: {snaps}  patches: {patches}  cg-frame candidates: {frames}");
    println!(
        "cg sims spawned: {}  aa sims spawned: {}",
        c.cg_lengths().len(),
        c.aa_lengths().len()
    );
    if let (Some(seed), Some(plan)) = (chaos_seed, &plan) {
        println!("\n# chaos: per-allocation fault plan (seed {seed})");
        print!("{}", plan.to_text());
        println!("run\tcrashes\thung\ttimed-out\tstore-inj\tledger");
        let mut bad = 0u64;
        for (i, r) in c.reports().iter().enumerate() {
            let violations = r.ledger.check();
            bad += violations.len() as u64;
            println!(
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                r.wm_crashes,
                r.jobs_hung,
                r.jobs_timed_out,
                r.store_faults_injected,
                if violations.is_empty() {
                    "ok".to_string()
                } else {
                    violations.join("; ")
                },
            );
        }
        topts.finish(c.tracer());
        if bad > 0 {
            eprintln!("chaos: {bad} accounting violations");
            std::process::exit(1);
        }
        return;
    }
    topts.finish(c.tracer());
}
