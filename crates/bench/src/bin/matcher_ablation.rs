//! §5.2 "Strategies for Further Scaling": the matcher ablation.
//!
//! "Under Flux's emulated environment with a resource graph configuration
//! similar to 4000 Summit nodes and the same job mix (24,000 jobs with 1
//! GPU and 3 CPU cores each, and 1 job with 150 nodes, each with 24
//! cores), we measured a 670× improvement in the performance."
//!
//! This runs exactly that job mix through the resource-graph matcher
//! under the old configuration (low-ID exhaustive scoring, synchronous
//! Q↔R) and the new one (greedy first-match, asynchronous Q↔R),
//! measuring both real matcher work (nodes visited) and virtual pipeline
//! time. The same ratio per queue policy at the 1/64 and 1/8 Summit rungs,
//! with its declared floors, is the `matcher_work_ratio_per_policy`
//! golden in `tests/golden_policies.rs`.
//!
//! Usage:
//!   matcher_ablation

use resources::{JobShape, MachineSpec, MatchPolicy, ResourceGraph};
use sched::{Costs, Coupling, JobClass, JobEvent, JobSpec, SchedEngine};
use simcore::{SimDuration, SimTime};

struct Outcome {
    placed: usize,
    visited: u64,
    virtual_time: SimTime,
    wall: std::time::Duration,
}

/// Drives the paper's exact §5.2 mix — 4000 nodes, 1 × 150-node job,
/// 24,000 single-GPU sims — to full placement under one matcher ×
/// coupling configuration.
fn run(policy: MatchPolicy, coupling: Coupling) -> Outcome {
    let sims = 24_000;
    let graph = ResourceGraph::new(MachineSpec::summit_allocation(4000));
    let mut engine = SchedEngine::new(graph, policy, coupling, Costs::summit_campaign());

    engine.submit(
        JobSpec::new(
            JobClass::Continuum,
            JobShape::continuum(150),
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

fn main() {
    mummi_bench::Flags::from_env(&[], &[]);
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
