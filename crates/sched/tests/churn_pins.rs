//! Exact pins for the scheduler policy zoo under a saturating churn
//! stream — the shape the `sched_policy_churn` benchmark times.
//!
//! A bare [`SchedEngine`] (first-match, asynchronous Q↔R,
//! `Costs::summit_campaign()`) is fed one job every 800 virtual ms from
//! a four-class palette, far faster than the machine turns over, so
//! the queue runs much deeper than the backfill reservation window.
//! Along the way the replay cancels a few queued jobs, fails and later
//! repairs a node, and hangs a running sim that a later cancel
//! reclaims: every path that changes what a policy may nominate next.
//! Each policy's pass pins its placements, match misses, backfills,
//! the deepest queue, the matcher's total visits, and an FNV-1a digest
//! of every [`JobEvent`] it emitted, so an optimisation of the
//! nomination or reservation bookkeeping must reproduce the schedule
//! bit for bit.
//!
//! The 96-node block runs with the tier-1 tests. The 576-node block
//! (the benchmark's own size) is `#[ignore]`d for its debug-build
//! runtime and runs in CI's scale job:
//!
//! ```text
//! cargo test --release -p sched --test churn_pins -- --ignored
//! ```
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --release -p sched --test churn_pins -- --include-ignored
//! git diff crates/sched/tests/goldens/   # review, then commit
//! ```

use std::path::PathBuf;
use std::sync::Mutex;

use resources::{JobShape, MachineSpec, MatchPolicy, ResourceGraph};
use sched::{
    Costs, Coupling, JobClass, JobEvent, JobId, JobSpec, JobState, SchedEngine, SchedPolicy,
};
use simcore::{SimDuration, SimTime};

/// Serializes `UPDATE_GOLDENS` rewrites: the blocks share one file.
static GOLDEN: Mutex<()> = Mutex::new(());

/// Virtual gap between arrivals.
const GAP: SimDuration = SimDuration::from_millis(800);

/// SplitMix64: a tiny fixed generator, so the stream is written down
/// here rather than borrowed from another crate's seed mapping.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// The churn stream: every ten consecutive jobs hold the palette in
/// 4:2:2:1:1 proportions (thin CG sims, fat AA sims, CPU set-ups,
/// whole-node AA bundles, two-node slabs) and every 45 consecutive jobs
/// hold each runtime from 15 to 59 minutes once, both shuffled.
fn stream(jobs: usize) -> Vec<(SimTime, JobSpec)> {
    let mut rng = SplitMix(0x5EED_C4A7);
    let mut palette: Vec<(JobClass, JobShape)> = Vec::new();
    let mut minutes: Vec<u64> = Vec::new();
    let mut at = SimTime::ZERO;
    (0..jobs)
        .map(|_| {
            if palette.is_empty() {
                palette.extend([(JobClass::CgSim, JobShape::sim_standard()); 4]);
                palette.extend([(JobClass::AaSim, JobShape::sim(4)); 2]);
                palette.extend([(JobClass::CgSetup, JobShape::setup()); 2]);
                palette.push((JobClass::AaSim, JobShape::sim_bundled(6, 7)));
                palette.push((JobClass::Other, JobShape::continuum(2)));
                rng.shuffle(&mut palette);
            }
            if minutes.is_empty() {
                minutes.extend(15..60);
                rng.shuffle(&mut minutes);
            }
            at += GAP;
            let (class, shape) = palette.pop().expect("refilled above");
            let runtime = SimDuration::from_mins(minutes.pop().expect("refilled above"));
            (at, JobSpec::new(class, shape, runtime))
        })
        .collect()
}

/// One disturbance of the stream, applied right after the engine has
/// been advanced to its instant.
#[derive(Debug, Clone, Copy)]
enum Disturb {
    /// Cancel the oldest queued job, the one `depth / 2` places behind
    /// it, and the newest.
    CancelQueued,
    FailNode(u32),
    Undrain(u32),
    /// Hang the lowest-id running CG sim.
    Hang,
    /// Cancel the job the last `Hang` hung.
    CancelHung,
}

/// FNV-1a over the little-endian words of each event.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn events(&mut self, events: &[JobEvent]) {
        for ev in events {
            match *ev {
                JobEvent::Placed { id, at } => {
                    self.word(0);
                    self.word(id.0);
                    self.word(at.as_micros());
                }
                JobEvent::Finished { id, at, success } => {
                    self.word(1);
                    self.word(id.0);
                    self.word(at.as_micros());
                    self.word(u64::from(success));
                }
            }
        }
    }
}

/// Replays `jobs` arrivals through a `nodes`-node engine under
/// `policy`, event-driven like the benchmark's pass, then cancels what
/// is still queued and drains. Returns the block's statistics line.
fn pass(policy: SchedPolicy, nodes: u32, jobs: usize) -> String {
    let arrivals = stream(jobs);
    let horizon = arrivals.last().map_or(SimTime::ZERO, |&(t, _)| t);
    let at = |num: u64, den: u64| SimTime::from_micros(horizon.as_micros() / den * num);
    let node = nodes / 3;
    // The machine saturates a third to two fifths of the way in; every
    // disturbance lands once the backlog is far past the window.
    let plan = [
        (at(12, 20), Disturb::CancelQueued),
        (at(13, 20), Disturb::FailNode(node)),
        (at(14, 20), Disturb::Hang),
        (at(15, 20), Disturb::CancelQueued),
        (at(16, 20), Disturb::Undrain(node)),
        (at(17, 20), Disturb::CancelHung),
        (at(18, 20), Disturb::CancelQueued),
    ];

    let mut e = SchedEngine::new(
        ResourceGraph::new(MachineSpec::summit_allocation(nodes)),
        MatchPolicy::FirstMatch,
        Coupling::Asynchronous,
        Costs::summit_campaign(),
    );
    e.set_sched_policy(policy);
    let mut digest = Fnv(0xCBF2_9CE4_8422_2325);
    let mut submitted: Vec<JobId> = Vec::with_capacity(jobs);
    let mut queue_depth_max = 0u64;
    let (mut next_job, mut next_disturb) = (0usize, 0usize);
    let mut hung: Option<JobId> = None;
    loop {
        let wake = e.next_wakeup();
        let arrival = arrivals.get(next_job).map(|&(t, _)| t);
        let disturb = plan.get(next_disturb).map(|&(t, _)| t);
        let Some(now) = [wake, arrival, disturb].into_iter().flatten().min() else {
            break;
        };
        if now > horizon {
            break;
        }
        digest.events(&e.advance(now));
        while let Some((t, spec)) = arrivals.get(next_job).filter(|&&(t, _)| t <= now) {
            submitted.push(e.submit(spec.clone(), *t));
            next_job += 1;
        }
        while let Some(&(_, d)) = plan.get(next_disturb).filter(|&&(t, _)| t <= now) {
            next_disturb += 1;
            match d {
                Disturb::CancelQueued => {
                    let queued: Vec<JobId> = submitted
                        .iter()
                        .copied()
                        .filter(|&id| e.state(id) == Some(JobState::Queued))
                        .collect();
                    assert!(
                        queued.len() > 64,
                        "[{}] queue only {} deep at a cancel",
                        policy.name(),
                        queued.len()
                    );
                    for idx in [0, queued.len() / 2, queued.len() - 1] {
                        assert!(e.cancel(queued[idx]));
                    }
                }
                Disturb::FailNode(n) => {
                    e.fail_node(n, now);
                }
                // The pins were generated when a repair reached only the
                // graph, so this one still bypasses `SchedEngine::undrain`
                // (which also retries blocked candidates). Switch it when
                // the pins are next regenerated (ROADMAP item 15).
                Disturb::Undrain(n) => e.graph_mut().undrain(n),
                Disturb::Hang => hung = e.hang_running(JobClass::CgSim, now),
                Disturb::CancelHung => {
                    let id = hung.take().expect("a sim was running to hang");
                    assert!(e.cancel(id));
                }
            }
        }
        queue_depth_max = queue_depth_max.max(e.totals().1);
    }
    digest.events(&e.advance(horizon));
    assert_eq!(next_disturb, plan.len(), "every disturbance applied");
    assert!(
        queue_depth_max > 64,
        "queue never outgrew the backfill window"
    );

    let st = e.stats();
    let line = format!(
        "placed={} match_misses={} backfills={} queue_depth_max={queue_depth_max} visited_total={}",
        st.placed,
        st.match_misses,
        st.backfills,
        e.graph().visited_total()
    );

    // Cancel the backlog, drain, and check the machine came back empty.
    for &id in &submitted {
        if e.state(id) == Some(JobState::Queued) || e.state(id) == Some(JobState::Submitted) {
            e.cancel(id);
        }
    }
    let drained = horizon + SimDuration::from_hours(2);
    while let Some(t) = e.next_wakeup().filter(|&t| t <= drained) {
        digest.events(&e.advance(t));
    }
    digest.events(&e.advance(drained));
    let st = e.stats();
    assert_eq!(e.totals(), (0, 0), "[{}] not drained", policy.name());
    assert_eq!(e.graph().gpu_usage().0, 0, "[{}] gpus leak", policy.name());
    assert_eq!(e.graph().cpu_usage().0, 0, "[{}] cores leak", policy.name());
    assert_eq!(st.submitted, st.completed + st.failed + st.canceled);
    format!("{line} digest={:016x}", digest.0)
}

/// Compares one line against `tests/goldens/churn_pins.txt` (or
/// rewrites it under `UPDATE_GOLDENS=1`).
fn check(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("churn_pins.txt");
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
                "# exact policy-churn statistics (see crates/sched/tests/churn_pins.rs)".into(),
            );
        }
        lines.push(line);
        lines[1..].sort();
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("goldens dir");
        std::fs::write(&path, lines.join("\n") + "\n").expect("write churn pins");
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
        "{name}: the schedule moved; if intentional, regenerate with UPDATE_GOLDENS=1"
    );
}

fn block(label: &str, nodes: u32, jobs: usize) {
    for policy in SchedPolicy::ALL {
        check(
            &format!("{label}/{}", policy.name()),
            &pass(policy, nodes, jobs),
        );
    }
}

/// 96 nodes, 2,400 jobs (32 virtual minutes of arrivals).
#[test]
fn churn_96_nodes() {
    block("n96", 96, 2_400);
}

/// The benchmark's size: 576 nodes, 4,800 jobs (64 virtual minutes).
#[test]
#[ignore = "seconds in release, much longer in debug; CI scale job"]
fn churn_576_nodes() {
    block("n576", 576, 4_800);
}
