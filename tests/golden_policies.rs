//! Golden snapshots of the policy zoo under adversarial workloads: one
//! seeded synthetic mix per queue policy, driven through a bare
//! scheduler engine and rendered to a canonical text form.
//!
//! The generators are seed-stable and cadence-invariant and the engine
//! is a deterministic DES, so every snapshot is byte-reproducible. Any
//! change to a policy's ordering decisions, the backfill reservation
//! arithmetic, or a generator's draw sequence shows up as a golden
//! diff with the exact counters that moved.
//!
//! A second golden pins the matcher-work ratio behind the paper's 670×
//! claim per policy, with its declared floors asserted alongside.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_policies
//! git diff tests/goldens/   # review every changed row, then commit
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use resources::{JobShape, MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};
use sched::{Costs, Coupling, JobClass, JobEvent, JobSpec, SchedEngine, SchedPolicy};
use simcore::{SimDuration, SimTime};
use workload::WorkloadSpec;

/// The adversarial mix each policy is pinned against — the pairing
/// that exercises its distinctive behavior. Wide-starves-narrow shows
/// FCFS's head-of-line starvation and both backfill flavors' fills;
/// bursty stresses fair-share's class balancing under volleys;
/// hetero's shape palette spans both hierarchical children.
const PAIRINGS: &[(SchedPolicy, WorkloadSpec)] = &[
    (SchedPolicy::Fcfs, WorkloadSpec::WideStarvesNarrow),
    (SchedPolicy::BackfillEasy, WorkloadSpec::WideStarvesNarrow),
    (
        SchedPolicy::BackfillConservative,
        WorkloadSpec::WideStarvesNarrow,
    ),
    (SchedPolicy::FairShare, WorkloadSpec::Bursty),
    (SchedPolicy::Hierarchical, WorkloadSpec::Hetero),
];

const NODES: u32 = 72;
const HOURS: u64 = 4;
const SEED: u64 = 2021;

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
}

/// Drives one policy × mix cell: submit arrivals as they come due,
/// advance on workload arrivals and virtual-minute boundaries, stop at
/// the horizon.
fn render_cell(policy: SchedPolicy, spec: &WorkloadSpec) -> String {
    let mut engine = SchedEngine::new(
        ResourceGraph::new(MachineSpec::custom("golden", NODES, NodeSpec::summit())),
        MatchPolicy::FirstMatch,
        Coupling::Asynchronous,
        Costs::summit_campaign(),
    );
    engine.set_sched_policy(policy);
    let mut src = spec
        .build(SEED, NODES, HOURS * 180)
        .expect("synthetic mixes never fail to build");
    let end = SimTime::from_hours(HOURS);
    let mut now = SimTime::ZERO;
    loop {
        let minute = SimTime::from_micros((now.as_micros() / 60_000_000 + 1) * 60_000_000);
        let next = match src.next_at() {
            Some(t) if t <= end => t.min(minute),
            _ => minute,
        };
        if next > end {
            break;
        }
        now = next;
        engine.advance(now);
        while let Some(job) = src.pop_due(now) {
            engine.submit(job.spec, job.at);
        }
    }
    engine.advance(end);

    let stats = engine.stats();
    let (running, pending) = engine.totals();
    let (gpus_used, gpus_total) = engine.graph().gpu_usage();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# policy={} workload={} nodes={NODES} hours={HOURS} seed={SEED}",
        policy.name(),
        spec.name()
    );
    let _ = writeln!(
        out,
        "submitted={} placed={} completed={} failed={} canceled={}",
        stats.submitted, stats.placed, stats.completed, stats.failed, stats.canceled
    );
    let _ = writeln!(
        out,
        "match_misses={} backfills={} running={running} pending={pending} gpus={gpus_used}/{gpus_total}",
        stats.match_misses, stats.backfills
    );
    out.push_str("# class\tcount\tmean-wait-us\tmax-wait-us\n");
    for (class, w) in engine.class_waits() {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}",
            class.label(),
            w.count,
            w.mean_us(),
            w.max_us
        );
    }
    out
}

#[test]
fn policy_zoo_adversarial_snapshots() {
    let update = std::env::var_os("UPDATE_GOLDENS").is_some();
    let mut failures = Vec::new();
    for (policy, spec) in PAIRINGS {
        let rendered = render_cell(*policy, spec);
        let path = goldens_dir().join(format!("policy_{}.txt", policy.name()));
        if update {
            std::fs::write(&path, &rendered).expect("write golden");
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run with UPDATE_GOLDENS=1",
                path.display()
            )
        });
        if committed != rendered {
            failures.push(format!(
                "golden mismatch for {}:\n--- committed\n{committed}\n--- rendered\n{rendered}",
                path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The rungs the matcher-work golden covers, as `(label, nodes, floor)`:
/// the declared floor for the sync/low-ID over async/first-match
/// matcher-work ratio at that scale under the flat policies. The paper's
/// 670× is a 4000-node number; exhaustive scoring visits O(nodes) per
/// placement, so the ratio shrinks with the rung (~62× at 1/64, ~490× at
/// 1/8) and the floors sit under half of it.
const WORK_RUNGS: &[(&str, u32, f64)] = &[("1/64", 72, 25.0), ("1/8", 576, 200.0)];

/// The hierarchical policy's floor at every rung (~2.2× measured):
/// partitioning already bounds the exhaustive scan to one child, and a
/// first-match range placement keeps no scan hint, so it is charged the
/// walk from the child's first node every time; the invariant there is
/// only that async/first-match never loses.
const HIERARCHICAL_FLOOR: f64 = 1.5;

/// Drives the §5.2 job mix scaled to `nodes` — one `ceil(3·nodes/80)`-node
/// continuum job ahead of `4·nodes` single-GPU sims — to full placement;
/// returns `(placed, nodes visited by the matcher)`.
fn run_work_mix(
    matcher: MatchPolicy,
    coupling: Coupling,
    policy: SchedPolicy,
    nodes: u32,
) -> (usize, u64) {
    let mut engine = SchedEngine::new(
        ResourceGraph::new(MachineSpec::summit_allocation(nodes)),
        matcher,
        coupling,
        Costs::summit_campaign(),
    );
    engine.set_sched_policy(policy);
    let day = SimDuration::from_hours(24);
    engine.submit(
        JobSpec::new(
            JobClass::Continuum,
            JobShape::continuum((nodes * 3).div_ceil(80)),
            day,
        ),
        SimTime::ZERO,
    );
    let sims = nodes as usize * 4;
    for _ in 0..sims {
        engine.submit(
            JobSpec::new(JobClass::CgSim, JobShape::sim(3), day),
            SimTime::ZERO,
        );
    }
    let mut placed = 0;
    let mut horizon = SimTime::ZERO;
    while placed <= sims && horizon < SimTime::from_hours(200) {
        horizon += SimDuration::from_hours(1);
        placed += engine
            .advance(horizon)
            .iter()
            .filter(|e| matches!(e, JobEvent::Placed { .. }))
            .count();
    }
    (placed, engine.graph().visited_total())
}

/// The paper's 670× quantity — matcher work under the old configuration
/// (low-ID exhaustive, synchronous Q↔R) over the new one (first-match,
/// asynchronous) — per queue policy at two Summit rungs. Nodes visited is
/// an exact count, so the table is a golden and the floors are plain
/// assertions: a policy whose ordering re-serialized the matcher would
/// fail here, whatever the host.
#[test]
fn matcher_work_ratio_per_policy() {
    let mut rendered = String::from(
        "# rung\tnodes\tpolicy\tjobs\tplaced-sync-lowid\tplaced-async-first\t\
         visited-sync-lowid\tvisited-async-first\tratio\tfloor\n",
    );
    let mut below = Vec::new();
    for &(label, nodes, flat_floor) in WORK_RUNGS {
        for policy in SchedPolicy::ALL {
            let jobs = nodes as usize * 4 + 1;
            let (old_placed, old_visited) = run_work_mix(
                MatchPolicy::LowIdExhaustive,
                Coupling::Synchronous,
                policy,
                nodes,
            );
            let (new_placed, new_visited) = run_work_mix(
                MatchPolicy::FirstMatch,
                Coupling::Asynchronous,
                policy,
                nodes,
            );
            let ratio = old_visited as f64 / new_visited.max(1) as f64;
            let floor = if policy == SchedPolicy::Hierarchical {
                HIERARCHICAL_FLOOR
            } else {
                flat_floor
            };
            let _ = writeln!(
                rendered,
                "{label}\t{nodes}\t{}\t{jobs}\t{old_placed}\t{new_placed}\t\
                 {old_visited}\t{new_visited}\t{ratio:.2}\t{floor}",
                policy.name()
            );
            if (old_placed, new_placed) != (jobs, jobs) || ratio < floor {
                below.push(format!(
                    "rung {label} × {}: placed {old_placed}/{new_placed} of {jobs}, \
                     ratio {ratio:.2}× (floor {floor}×)",
                    policy.name()
                ));
            }
        }
    }
    assert!(
        below.is_empty(),
        "the coordination win no longer reproduces:\n{}",
        below.join("\n")
    );

    let path = goldens_dir().join("matcher_work.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        committed,
        rendered,
        "golden mismatch for {}",
        path.display()
    );
}
