//! Ablation: Q↔R coupling × matcher policy across machine sizes.
//!
//! Extends Figure 6 into a design-space sweep: how long does it take to
//! place a full machine's worth of unbundled GPU jobs under each of the
//! four scheduler configurations, at 500–4000 nodes? This is the study
//! behind the paper's "Strategies for Further Scaling" — the synchronous
//! exhaustive configuration degrades super-linearly with machine size
//! while first-match + async stays submission-limited.

use resources::{JobShape, MachineSpec, MatchPolicy, ResourceGraph};
use sched::{Costs, Coupling, JobClass, JobEvent, JobSpec, SchedEngine, Throttle};
use simcore::{SimDuration, SimTime};

fn time_to_place(nodes: u32, policy: MatchPolicy, coupling: Coupling) -> (u64, f64) {
    let gpus = nodes as u64 * 6;
    let mut engine = SchedEngine::new(
        ResourceGraph::new(MachineSpec::summit_allocation(nodes)),
        policy,
        coupling,
        Costs::summit_campaign(),
    );
    // Submit the full GPU partition's worth at the campaign throttle.
    let mut throttle = Throttle::per_minute(100);
    let mut at = SimTime::ZERO;
    for _ in 0..gpus {
        at = throttle.reserve(at);
        engine.submit(
            JobSpec::new(
                JobClass::CgSim,
                JobShape::sim_standard(),
                SimDuration::from_hours(48),
            ),
            at,
        );
    }
    let mut placed = 0u64;
    let mut last = SimTime::ZERO;
    let mut horizon = SimTime::from_hours(1);
    while placed < gpus && horizon <= SimTime::from_hours(100) {
        for ev in engine.advance(horizon) {
            if let JobEvent::Placed { at, .. } = ev {
                placed += 1;
                last = last.max(at);
            }
        }
        horizon += SimDuration::from_hours(1);
    }
    (placed, last.as_hours_f64())
}

fn main() {
    mummi_bench::Flags::from_env(&[], &[]);
    println!("# Scheduler design sweep: hours to place a full GPU partition");
    println!("# (submission throttled at 100 jobs/min; submission alone takes jobs/100/60 h)\n");
    println!("nodes\tjobs\tsync+lowid\tsync+first\tasync+lowid\tasync+first");
    for &nodes in &[500u32, 1000, 2000, 4000] {
        let jobs = nodes as u64 * 6;
        let configs = [
            (MatchPolicy::LowIdExhaustive, Coupling::Synchronous),
            (MatchPolicy::FirstMatch, Coupling::Synchronous),
            (MatchPolicy::LowIdExhaustive, Coupling::Asynchronous),
            (MatchPolicy::FirstMatch, Coupling::Asynchronous),
        ];
        let mut row = format!("{nodes}\t{jobs}");
        for (policy, coupling) in configs {
            let (placed, hours) = time_to_place(nodes, policy, coupling);
            if placed == jobs {
                row.push_str(&format!("\t{hours:.2}"));
            } else {
                row.push_str(&format!("\t>100 ({placed})"));
            }
        }
        println!("{row}");
    }
    println!("\nthe paper's campaign ran sync+lowid (left column): fine at 1000 nodes,");
    println!("pathological at 4000; the fix (right column) stays submission-limited.");
}
