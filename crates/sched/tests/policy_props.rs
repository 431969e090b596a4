//! Shared invariants of the scheduler policy zoo.
//!
//! Every queue-ordering policy — FCFS, both backfill flavors, fair
//! share, hierarchical — must uphold the same safety contract the
//! monolithic FCFS engine always had; the policies may only differ in
//! *which* job the matcher sees next. These properties pin that
//! contract over arbitrary job streams:
//!
//! - no job is placed or finished more than once, and resource usage
//!   returns to zero once the stream drains (no double-booking);
//! - the stats ledger conserves jobs (completed + failed + canceled =
//!   submitted) and every feasible job eventually reaches a terminal
//!   state (no starvation, including under backfill);
//! - EASY backfill never delays the blocked head: a backfilled job
//!   returns its resources no later than the head's actual start;
//! - identical jobs submitted together place in submission order.
//!
//! FCFS's exact schedule is pinned byte for byte by `churn_pins.rs` and
//! the campaign goldens; here only its blocked head is, by one plain
//! test. `MUTANTS.md` records which suite kills each hand-written FCFS
//! bug.
//!
//! The contract's op streams fail and repair nodes and hang running
//! jobs as well as submitting, cancelling and advancing, so every path
//! that updates the engine's nomination and reservation indexes runs
//! under every policy; half of them open with a burst deeper than the
//! engine's 64-job backfill reservation window. The EASY head check
//! runs twice: strictly over submit/cancel/advance streams, and over the
//! full op set with a pair exempt only when an outside capacity change
//! falls between the backfill decision and the head's placement.

use proptest::prelude::*;
use resources::{JobShape, MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};
use sched::{
    Costs, Coupling, JobClass, JobEvent, JobId, JobSpec, JobState, SchedEngine, SchedPolicy,
};
use simcore::{SimDuration, SimTime};
use std::collections::HashMap;

/// An 8-node Summit-like machine: big enough that the hierarchical
/// split (child 1 owns the top quarter — 2 nodes) can host every CPU
/// shape the generators below produce.
fn machine() -> MachineSpec {
    MachineSpec::custom("p", 8, NodeSpec::summit())
}

fn engine(policy: SchedPolicy) -> SchedEngine {
    let mut e = SchedEngine::new(
        ResourceGraph::new(machine()),
        MatchPolicy::FirstMatch,
        Coupling::Asynchronous,
        Costs::free(),
    );
    e.set_sched_policy(policy);
    e
}

/// Job shapes that all fit the empty machine — and, for CPU shapes,
/// the hierarchical CPU partition — so "eventually places" is a
/// capacity fact, not an accident of ordering.
fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (0usize..4, 1u64..90).prop_map(|(kind, mins)| {
        let (class, shape) = match kind {
            0 => (JobClass::CgSim, JobShape::sim_standard()),
            1 => (JobClass::AaSim, JobShape::sim(5)),
            2 => (JobClass::CgSetup, JobShape::setup()),
            _ => (JobClass::Continuum, JobShape::continuum(2)),
        };
        JobSpec::new(class, shape, SimDuration::from_mins(mins))
    })
}

#[derive(Debug, Clone)]
enum Op {
    Submit(JobSpec),
    Cancel {
        idx: usize,
    },
    Advance {
        mins: u64,
    },
    /// Fail node `k` (crashing its resident jobs).
    FailNode(u32),
    /// Return node `k` to service.
    Undrain(u32),
    /// Hang the lowest-id running job of a class.
    Hang(JobClass),
}

fn arb_class() -> impl Strategy<Value = JobClass> {
    prop_oneof![
        Just(JobClass::CgSim),
        Just(JobClass::AaSim),
        Just(JobClass::CgSetup),
        Just(JobClass::Continuum),
    ]
}

/// Submit, cancel and advance: every capacity change comes from the
/// schedule itself (a cancel only releases early).
fn arb_basic_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_spec().prop_map(Op::Submit),
        arb_spec().prop_map(Op::Submit),
        (0usize..64).prop_map(|idx| Op::Cancel { idx }),
        (1u64..180).prop_map(|mins| Op::Advance { mins }),
        (1u64..180).prop_map(|mins| Op::Advance { mins }),
    ]
}

/// The basic ops plus node failures, repairs and hangs.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_basic_op(),
        arb_basic_op(),
        arb_basic_op(),
        arb_basic_op(),
        arb_basic_op(),
        (0u32..8).prop_map(Op::FailNode),
        (0u32..8).prop_map(Op::Undrain),
        arb_class().prop_map(Op::Hang),
    ]
}

/// A queue deeper than the engine's 64-job backfill reservation window:
/// a burst submitted at time zero, then an ordinary op stream.
fn arb_deep_ops() -> impl Strategy<Value = Vec<Op>> {
    (
        prop::collection::vec(arb_spec().prop_map(Op::Submit), 65..110),
        prop::collection::vec(arb_op(), 1..40),
    )
        .prop_map(|(mut burst, rest)| {
            burst.extend(rest);
            burst
        })
}

/// One driven engine: the clock, the submitted ids, the jobs hung along
/// the way, when each placed job's placing advance ended, and the
/// instants capacity changed outside the schedule (a node failed or came
/// back, a running job was cancelled).
struct Driver {
    e: SchedEngine,
    now: SimTime,
    jobs: Vec<JobId>,
    hung: Vec<JobId>,
    placed_by: HashMap<JobId, SimTime>,
    capacity_changes: Vec<SimTime>,
}

impl Driver {
    fn new(e: SchedEngine) -> Driver {
        Driver {
            e,
            now: SimTime::ZERO,
            jobs: Vec::new(),
            hung: Vec::new(),
            placed_by: HashMap::new(),
            capacity_changes: Vec::new(),
        }
    }

    fn advance_to(&mut self, t: SimTime) -> Vec<JobEvent> {
        self.now = t;
        let events = self.e.advance(t);
        for ev in &events {
            if let JobEvent::Placed { id, .. } = ev {
                self.placed_by.insert(*id, t);
            }
        }
        events
    }

    /// Applies one op; returns the events an `Advance` produced. Records
    /// a capacity change only when the op changed capacity: a failure of
    /// a node in service, a repair of a drained one, a cancel of a job
    /// holding resources.
    fn apply(&mut self, op: &Op) -> Vec<JobEvent> {
        match op {
            Op::Submit(spec) => self.jobs.push(self.e.submit(spec.clone(), self.now)),
            Op::Cancel { idx } => {
                if !self.jobs.is_empty() {
                    let id = self.jobs[idx % self.jobs.len()];
                    if self.e.state(id) == Some(JobState::Running) {
                        self.capacity_changes.push(self.now);
                    }
                    self.e.cancel(id);
                }
            }
            Op::Advance { mins } => {
                return self.advance_to(self.now + SimDuration::from_mins(*mins));
            }
            Op::FailNode(k) => {
                if !self.e.graph().is_drained(*k) {
                    self.capacity_changes.push(self.now);
                }
                self.e.fail_node(*k, self.now);
            }
            Op::Undrain(k) => {
                if self.e.graph().is_drained(*k) {
                    self.capacity_changes.push(self.now);
                }
                self.e.undrain(*k);
            }
            Op::Hang(class) => self.hung.extend(self.e.hang_running(*class, self.now)),
        }
        Vec::new()
    }

    /// Repairs every node and cancels every hung job (the workflow
    /// manager's timeout), then drains to quiescence. Non-FCFS policies
    /// only retry a blocked head when a completion (or cancel, failure or
    /// repair) lands, so the drain advances in waves — each wave's
    /// completions unblock the next — rather than one long jump.
    fn finish(&mut self) -> Vec<JobEvent> {
        for k in 0..machine().nodes {
            if self.e.graph().is_drained(k) {
                self.apply(&Op::Undrain(k));
            }
        }
        // A hung job still holds its allocation, so cancelling it frees
        // capacity.
        for &id in &self.hung {
            if self.e.cancel(id) {
                self.capacity_changes.push(self.now);
            }
        }
        let mut events = Vec::new();
        for _ in 0..64 {
            events.extend(self.advance_to(self.now + SimDuration::from_hours(10)));
            if self.e.totals() == (0, 0) {
                break;
            }
        }
        events
    }
}

/// Drives one engine through the op stream, then drains it.
fn drive(policy: SchedPolicy, ops: &[Op]) -> (SchedEngine, Vec<JobEvent>, Vec<JobId>) {
    let mut d = Driver::new(engine(policy));
    let mut events = Vec::new();
    for op in ops {
        events.extend(d.apply(op));
    }
    events.extend(d.finish());
    (d.e, events, d.jobs)
}

/// The shared safety contract: no double placement or finish, no
/// starvation, no leaked resources, a balanced ledger.
fn check_contract(
    policy: SchedPolicy,
    e: &SchedEngine,
    events: &[JobEvent],
    jobs: &[JobId],
) -> Result<(), TestCaseError> {
    let mut placed = HashMap::new();
    let mut finished = HashMap::new();
    for ev in events {
        match ev {
            JobEvent::Placed { id, .. } => *placed.entry(*id).or_insert(0u32) += 1,
            JobEvent::Finished { id, .. } => *finished.entry(*id).or_insert(0u32) += 1,
        }
    }
    for (&id, &n) in &placed {
        prop_assert!(n <= 1, "[{}] {id} placed {n} times", policy.name());
    }
    for (&id, &n) in &finished {
        prop_assert!(n <= 1, "[{}] {id} finished {n} times", policy.name());
    }
    // No starvation: every feasible job reached a terminal state.
    for &id in jobs {
        let st = e.state(id).expect("job known");
        prop_assert!(
            st.is_terminal(),
            "[{}] {id} starved in {st:?}",
            policy.name()
        );
    }
    // Double-booking would strand usage; a drained queue must return
    // the machine to empty.
    prop_assert_eq!(e.graph().gpu_usage().0, 0, "[{}] gpus leak", policy.name());
    prop_assert_eq!(e.graph().cpu_usage().0, 0, "[{}] cores leak", policy.name());
    prop_assert_eq!(e.totals(), (0, 0), "[{}] queue not drained", policy.name());
    prop_assert!(
        e.graph().validate_index().is_ok(),
        "[{}] free index",
        policy.name()
    );
    let stats = e.stats();
    prop_assert_eq!(stats.submitted as usize, jobs.len());
    prop_assert_eq!(
        stats.completed + stats.failed + stats.canceled,
        jobs.len() as u64,
        "[{}] ledger does not balance",
        policy.name()
    );
    Ok(())
}

/// One EASY backfill decision, replayed: the backfilled job `bf` ended
/// at `bf_end`; the head it jumped started at `head_start`. `exempt`
/// when an outside capacity change landed after the advance that placed
/// `bf` and before the end of the advance that placed the head: a
/// repair adds nodes the reservation never counted, and a failure's
/// crashes or a cancelled running job release early, so the head may
/// then start before its reservation while `bf` still runs.
struct BackfillPair {
    bf: JobId,
    head: JobId,
    bf_end: SimTime,
    head_start: SimTime,
    exempt: bool,
}

/// Drives EASY backfill with pair collection on and returns every pair
/// whose head started and whose backfilled job finished. A canceled head
/// never starts, and a canceled or crashed backfilled job released
/// earlier than its runtime promised, which only widens the margin, so
/// such pairs carry no bound.
///
/// With `release_floor`, a placement is read as starting no earlier than
/// the last release reported before it. The engine stamps a match that
/// follows a release at the matcher's idle server time rather than at
/// the release (a known defect, ROADMAP item 15), so when a whole burst
/// entered the queue at one instant, a head the release let in reads
/// as having started before the backfilled job it waited for.
fn easy_pairs(ops: &[Op], release_floor: bool) -> Vec<BackfillPair> {
    let mut e = engine(SchedPolicy::BackfillEasy);
    e.collect_backfill_pairs(true);
    let mut d = Driver::new(e);
    let mut placed_at = HashMap::new();
    let mut finished_at = HashMap::new();
    let mut last_release = SimTime::ZERO;
    let mut note = |events: Vec<JobEvent>| {
        for ev in events {
            match ev {
                JobEvent::Placed { id, at } => {
                    let start = if release_floor {
                        at.max(last_release)
                    } else {
                        at
                    };
                    placed_at.insert(id, start);
                }
                JobEvent::Finished { id, at, .. } => {
                    finished_at.insert(id, at);
                    last_release = last_release.max(at);
                }
            }
        }
    };
    for op in ops {
        note(d.apply(op));
    }
    note(d.finish());
    d.e.backfill_pairs()
        .iter()
        .filter_map(|&(bf, head)| {
            let head_start = *placed_at.get(&head)?;
            let bf_end = *finished_at.get(&bf)?;
            // Ops apply between advances, so a change stamped at or after
            // the end of the advance that placed `bf` came after the
            // decision, and one stamped before the end of the advance that
            // placed the head came before that placement.
            let (decided, head_placed_by) = (d.placed_by[&bf], d.placed_by[&head]);
            let exempt = d
                .capacity_changes
                .iter()
                .any(|&t| decided <= t && t < head_placed_by);
            Some(BackfillPair {
                bf,
                head,
                bf_end,
                head_start,
                exempt,
            })
        })
        .collect()
}

/// Fails on any pair whose backfilled job held resources past the
/// head's start. Under `Costs::free` the engine's reservation arithmetic
/// is exact, so the comparison holds with equality allowed (a release
/// and a start may share a timestamp).
fn check_pairs<'a>(pairs: impl IntoIterator<Item = &'a BackfillPair>) -> Result<(), TestCaseError> {
    for p in pairs {
        prop_assert!(
            p.bf_end <= p.head_start,
            "backfilled {} held resources until {}, past head {} start {}",
            p.bf,
            p.bf_end,
            p.head,
            p.head_start
        );
    }
    Ok(())
}

/// Whether a class's identical jobs are placed in submission order.
fn check_burst_order(
    policy: SchedPolicy,
    burst: &[JobId],
    events: &[JobEvent],
) -> Result<(), TestCaseError> {
    let placed: Vec<_> = events
        .iter()
        .filter_map(|ev| match ev {
            JobEvent::Placed { id, .. } if burst.contains(id) => Some(*id),
            _ => None,
        })
        .collect();
    let mut sorted = placed.clone();
    sorted.sort();
    prop_assert_eq!(
        placed,
        sorted,
        "[{}] identical jobs placed out of submission order",
        policy.name()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No double-booking, job conservation, and no starvation — under
    /// every policy in the zoo, over one shared op stream, shallow or
    /// opening deeper than the backfill reservation window.
    #[test]
    fn every_policy_conserves_jobs_and_resources(
        ops in prop_oneof![prop::collection::vec(arb_op(), 1..60), arb_deep_ops()],
    ) {
        for policy in SchedPolicy::ALL {
            let (e, events, jobs) = drive(policy, &ops);
            check_contract(policy, &e, &events, &jobs)?;
        }
    }

    /// EASY backfill never delays the blocked head: every job that
    /// jumped the queue returned its resources by the time the head it
    /// jumped actually started. Every pair is checked, including those
    /// across a cancel of a running job.
    #[test]
    fn easy_backfill_never_delays_the_head(
        ops in prop::collection::vec(arb_basic_op(), 1..60),
    ) {
        check_pairs(&easy_pairs(&ops, false))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Ties break by submission order: a burst of identical jobs deeper
    /// than the reservation window places in id order under every
    /// policy, through cancels, node failures, repairs and hangs.
    #[test]
    fn identical_jobs_place_in_submission_order(
        spec in arb_spec(),
        n in 65usize..100,
        ops in prop::collection::vec(arb_op(), 0..30),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .filter(|op| !matches!(op, Op::Submit(_)))
            .collect();
        for policy in SchedPolicy::ALL {
            let mut d = Driver::new(engine(policy));
            let mut events = Vec::new();
            for _ in 0..n {
                events.extend(d.apply(&Op::Submit(spec.clone())));
            }
            let burst = d.jobs.clone();
            for op in &ops {
                events.extend(d.apply(op));
            }
            events.extend(d.finish());
            check_burst_order(policy, &burst, &events)?;
            check_contract(policy, &d.e, &events, &d.jobs)?;
        }
    }
}

/// The least share of EASY pairs the capacity-change exemption may leave
/// checked.
const MIN_CHECKED_SHARE: f64 = 0.9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// EASY's head guarantee across node failures, repairs and hangs,
    /// shallow and deeper than the reservation window. The exemption for
    /// outside capacity changes must not swallow the check: one case
    /// draws 48 shallow and 16 deep streams, and at least
    /// `MIN_CHECKED_SHARE` of their pairs must carry the bound.
    #[test]
    fn easy_backfill_holds_the_head_across_failures_repairs_and_hangs(
        shallow in prop::collection::vec(prop::collection::vec(arb_op(), 1..60), 48..49),
        deep in prop::collection::vec(arb_deep_ops(), 16..17),
    ) {
        let (mut checked, mut exempt) = (0usize, 0usize);
        let streams = shallow.iter().map(|ops| (ops, false));
        for (ops, release_floor) in streams.chain(deep.iter().map(|ops| (ops, true))) {
            let pairs = easy_pairs(ops, release_floor);
            check_pairs(pairs.iter().filter(|p| !p.exempt))?;
            let n = pairs.iter().filter(|p| p.exempt).count();
            exempt += n;
            checked += pairs.len() - n;
        }
        eprintln!("EASY pairs: {checked} checked, {exempt} exempt");
        prop_assert!(
            checked as f64 >= MIN_CHECKED_SHARE * (checked + exempt) as f64,
            "only {checked} of {} pairs carried the bound",
            checked + exempt
        );
    }
}

/// Regression for the fragmentation wedge: a wide CPU head that fits
/// the *aggregate* free pool but no actual node must still open a
/// backfill window. Four running continuum slices leave 20 free cores
/// on every node; the queued `continuum(2)` head needs 24 per node, so
/// it is topology-blocked while the aggregate says "fits now". Before
/// the head estimate was clamped to the first scheduled release, the
/// reservation window collapsed to zero width and EASY degraded to
/// FCFS — zero backfills, starved narrows.
#[test]
fn aggregate_feasible_but_fragmented_head_still_backfills() {
    for policy in [SchedPolicy::BackfillEasy, SchedPolicy::BackfillConservative] {
        let mut e = SchedEngine::new(
            ResourceGraph::new(MachineSpec::custom("p", 4, NodeSpec::summit())),
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        );
        e.set_sched_policy(policy);
        // Blanket every node with a 24-core slice (one 4-node wide job).
        let wide = e.submit(
            JobSpec::new(
                JobClass::Continuum,
                JobShape::continuum(4),
                SimDuration::from_mins(100),
            ),
            SimTime::ZERO,
        );
        let mut t = SimTime::from_mins(1);
        assert!(e
            .advance(t)
            .iter()
            .any(|ev| matches!(ev, JobEvent::Placed { id, .. } if *id == wide)));
        // The fragmented head: aggregate-feasible (80 free cores >= 48),
        // per-node infeasible (20 < 24 everywhere).
        e.submit(
            JobSpec::new(
                JobClass::Continuum,
                JobShape::continuum(2),
                SimDuration::from_mins(100),
            ),
            t,
        );
        // Narrow GPU sims behind it: they finish well inside the wide
        // job's remaining 99 minutes, so both backfill flavors must
        // start them instead of idling 24 GPUs.
        for _ in 0..6 {
            e.submit(
                JobSpec::new(
                    JobClass::CgSim,
                    JobShape::sim_standard(),
                    SimDuration::from_mins(10),
                ),
                t,
            );
        }
        t += SimDuration::from_mins(5);
        e.advance(t);
        let stats = e.stats();
        assert!(
            stats.backfills >= 6,
            "[{}] expected the narrow sims backfilled, got {stats:?}",
            policy.name()
        );
    }
}

/// FCFS's blocked head, exactly: a head that can never fit misses once
/// per poll, charging one traversal each time, and holds the job behind
/// it. Blocking is what stops it re-buying that traversal back to back
/// until the poll's horizon; the once-per-poll retry is what lets it see
/// capacity that changed outside the engine.
#[test]
fn an_unplaceable_fcfs_head_misses_once_per_poll() {
    let mut e = SchedEngine::new(
        ResourceGraph::new(MachineSpec::custom("p", 2, NodeSpec::summit())),
        MatchPolicy::LowIdExhaustive,
        Coupling::Asynchronous,
        Costs::summit_campaign(),
    );
    let runtime = SimDuration::from_mins(10);
    let wide = e.submit(
        JobSpec::new(JobClass::Continuum, JobShape::continuum(3), runtime),
        SimTime::ZERO,
    );
    let narrow = e.submit(
        JobSpec::new(JobClass::CgSim, JobShape::sim_standard(), runtime),
        SimTime::ZERO,
    );
    for poll in 1..=3u64 {
        assert!(e.advance(SimTime::from_mins(poll)).is_empty());
        assert_eq!(e.stats().match_misses, poll, "one miss per poll");
        assert_eq!(e.next_wakeup(), None, "a blocked head schedules nothing");
    }
    assert_eq!(e.state(wide), Some(JobState::Queued));
    assert_eq!(e.state(narrow), Some(JobState::Queued));
}

/// Queue ties break by submission sequence: a burst of identical jobs
/// submitted at the same instant places in submission order under
/// every policy. Duplicate priorities (same class, same shape, same
/// ready time) must never reorder on an internal detail like hash
/// order or heap tie-breaking.
#[test]
fn duplicate_priority_burst_places_in_submission_order() {
    for policy in SchedPolicy::ALL {
        let mut e = engine(policy);
        let ids: Vec<_> = (0..16)
            .map(|_| {
                e.submit(
                    JobSpec::new(
                        JobClass::CgSim,
                        JobShape::sim_standard(),
                        SimDuration::from_mins(30),
                    ),
                    SimTime::ZERO,
                )
            })
            .collect();
        let events = e.advance(SimTime::from_hours(2));
        let placed: Vec<_> = events
            .iter()
            .filter_map(|ev| match ev {
                JobEvent::Placed { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(
            placed,
            ids,
            "[{}] burst placed out of submission order",
            policy.name()
        );
    }
}
