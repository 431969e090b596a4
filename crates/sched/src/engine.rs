//! The scheduling engine: queue manager (Q) + resource matcher (R).
//!
//! Queue ordering and backfill decisions live in the [`SchedPolicy`]
//! layer (`policy.rs`); this module owns the service-time mechanics
//! (ingest/match costs, coupling, completions) and executes whichever
//! candidate the policy nominates. There is one service loop for every
//! policy: `advance` and `next_wakeup` read the same candidate (the next
//! ingest or match and its start time). The FCFS schedule is pinned
//! exactly, under every op kind, by `churn_pins`, the campaign goldens
//! (`trace_pins`, `golden_policies`, `stats_pins`) and the hand-written
//! kill matrix in `tests/mutants/` (`MUTANTS.md`).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use resources::{Alloc, JobShape, MatchPolicy, ResourceGraph};
use simcore::{SimDuration, SimTime};
use trace::Tracer;

use crate::job::{JobClass, JobEvent, JobId, JobOutcome, JobSpec, JobState, TrackedState};
use crate::policy::SchedPolicy;

/// How Q and R communicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coupling {
    /// Q and R share one service timeline and Q's inbox preempts R — the
    /// Flux version used in the campaign, whose 4000-node signature is
    /// chunky placement (Figure 6, right).
    Synchronous,
    /// Q and R run on independent timelines — the post-campaign fix.
    Asynchronous,
}

/// Virtual service costs of the scheduling pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Costs {
    /// Q-side cost of ingesting one submission (script write to GPFS, RPC,
    /// validation).
    pub submit: SimDuration,
    /// R-side cost per node inspected during matching (graph traversal).
    pub per_node_visit: SimDuration,
    /// R-side fixed cost of dispatching a placed job to its node.
    pub dispatch: SimDuration,
}

impl Costs {
    /// Calibrated so a 1000-node allocation sustains ~100 placements/min
    /// under the exhaustive policy (the paper's steady state) while a
    /// 4000-node allocation cannot.
    pub fn summit_campaign() -> Costs {
        Costs {
            submit: SimDuration::from_millis(250),
            per_node_visit: SimDuration::from_micros(250),
            dispatch: SimDuration::from_millis(50),
        }
    }

    /// Zero-cost scheduling (pure placement logic, used by unit tests).
    pub fn free() -> Costs {
        Costs {
            submit: SimDuration::ZERO,
            per_node_visit: SimDuration::ZERO,
            dispatch: SimDuration::ZERO,
        }
    }
}

/// Aggregate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Total submissions accepted.
    pub submitted: u64,
    /// Jobs placed on resources.
    pub placed: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs that finished as failures.
    pub failed: u64,
    /// Jobs canceled before finishing.
    pub canceled: u64,
    /// Matcher invocations that found no placement.
    pub match_misses: u64,
    /// Placements taken from behind a blocked head by a backfill policy
    /// (always zero under FCFS, fair-share, and hierarchical).
    pub backfills: u64,
}

/// Queue-wait aggregates for one job class: always collected, cheap to
/// keep (three words per class).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassWait {
    /// Placements of this class.
    pub count: u64,
    /// Sum of queue waits (ready → placed) in microseconds.
    pub sum_us: u64,
    /// Largest single queue wait in microseconds.
    pub max_us: u64,
}

impl ClassWait {
    /// Mean queue wait in microseconds (0 when nothing placed).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Folds `other` into this aggregate: counts and sums add, the max
    /// is the larger of the two.
    pub fn merge(&mut self, other: &ClassWait) {
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }
}

#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    state: TrackedState,
    alloc: Option<Alloc>,
    /// When the matcher placed the job (for the traced run span).
    placed_at: Option<SimTime>,
    /// A hung job holds its resources but never completes on its own;
    /// its scheduled completion is suppressed until something cancels it.
    hung: bool,
}

/// Every job ever submitted, indexed by id. Ids are handed out densely
/// from zero in submission order, so slot order is submission order —
/// part of the determinism contract (no HashMap iteration in
/// coordination paths) — and a lookup is an index, not a tree walk.
/// Hot paths go through the `running`/`residency`/`queued`/`releases`
/// indexes instead of scanning this ever-growing table.
#[derive(Debug, Default)]
struct JobTable(Vec<JobRecord>);

impl JobTable {
    fn push(&mut self, rec: JobRecord) -> JobId {
        self.0.push(rec);
        JobId(self.0.len() as u64 - 1)
    }

    fn get(&self, id: JobId) -> Option<&JobRecord> {
        self.0.get(usize::try_from(id.0).ok()?)
    }

    fn get_mut(&mut self, id: JobId) -> Option<&mut JobRecord> {
        self.0.get_mut(usize::try_from(id.0).ok()?)
    }
}

impl JobRecord {
    /// When a running job's allocation is due back: its key in the
    /// engine's release profile.
    fn finish(&self) -> Option<SimTime> {
        self.placed_at.map(|p| p + self.spec.runtime)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Ingest,
    /// Match the job at this queue position (0 = head; backfill and
    /// fair-share/hierarchical policies may nominate deeper positions).
    Match(usize),
}

/// Backfill lookahead: how many queued jobs get reservation estimates.
/// A conservative backfill candidate deeper than this cannot prove it
/// delays nobody, so the scan stops there; EASY only needs the head's
/// estimate and scans the whole queue.
const BF_WINDOW: usize = 64;

/// Reservation state cached while the head of the queue is blocked under
/// a backfill policy — one backfill *episode*. Rebuilt on every head miss
/// and after every backfill placement (queue positions shift), and
/// dropped by any release, node failure, or queue cancellation.
///
/// Within an episode the screen a candidate must pass is fixed (the
/// reservation bounds and the `free` snapshot do not change, queued
/// jobs keep their positions, new ones only append) and the matcher's
/// server time only moves forward, so a position the screen rejects
/// stays rejected until the episode ends. That is what lets the cursor
/// only move forward.
#[derive(Debug)]
struct BackfillState {
    /// `prefix[i]` = minimum estimated earliest start over queue
    /// positions `0..=i`. `None` means every job in that prefix is
    /// unsatisfiable even on an idle machine (an infinite bound — there
    /// is nothing a backfill could delay).
    prefix: Vec<Option<SimTime>>,
    /// Next queue position the backfill scan considers. `advance` moves
    /// it past every position the screen rejects, and a real-topology
    /// miss moves it past the candidate, so one blocked episode screens
    /// each position once and charges each candidate at most once.
    cursor: usize,
    /// Aggregate free `(nodes, gpus, cores)` when the state was built —
    /// the cheap feasibility screen a candidate must pass before the
    /// matcher is charged a graph traversal for it.
    free: (u64, u64, u64),
}

/// Minimum of two "estimated start" bounds where `None` = infinity.
fn min_bound(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

/// Earliest time `shape` could fit in the *aggregate* resource profile:
/// current free totals plus scheduled releases in time order. Aggregate
/// counts are necessary but not sufficient for a real placement
/// (fragmentation, affinity), so the estimate is a lower bound on any
/// real fit time — which is exactly the direction backfill safety needs:
/// a job that ends by this estimate cannot delay the estimated job.
/// `None` means the demand exceeds even the fully-released machine
/// (assuming the drained set stays as it is).
fn estimate_start(
    shape: &JobShape,
    free: (u64, u64, u64),
    releases: &BTreeMap<(SimTime, JobId), (u64, u64)>,
) -> Option<SimTime> {
    let need_nodes = shape.nodes as u64;
    let need_g = shape.nodes as u64 * shape.gpus_per_node as u64;
    let need_c = shape.nodes as u64 * shape.cores_per_node as u64;
    if free.0 < need_nodes {
        return None;
    }
    let (mut g, mut c) = (free.1, free.2);
    if g >= need_g && c >= need_c {
        return Some(SimTime::ZERO);
    }
    for (&(t, _), &(dg, dc)) in releases {
        g += dg;
        c += dc;
        if g >= need_g && c >= need_c {
            return Some(t);
        }
    }
    None
}

/// Whether `shape` passes the aggregate-availability screen right now.
fn feasible_now(shape: &JobShape, free: (u64, u64, u64)) -> bool {
    free.0 >= shape.nodes as u64
        && free.1 >= shape.nodes as u64 * shape.gpus_per_node as u64
        && free.2 >= shape.nodes as u64 * shape.cores_per_node as u64
}

/// Which hierarchical child instance a class routes to: GPU classes on
/// child 0 (the low node range), CPU classes on child 1 (the high range).
fn hier_child(class: JobClass) -> usize {
    if class.uses_gpu() {
        0
    } else {
        1
    }
}

/// The single-user workload manager (see crate docs).
#[derive(Debug)]
pub struct SchedEngine {
    graph: ResourceGraph,
    policy: MatchPolicy,
    sched_policy: SchedPolicy,
    coupling: Coupling,
    costs: Costs,
    jobs: JobTable,
    /// Submissions not yet ingested by Q: (submit time, id).
    inbox: VecDeque<(SimTime, JobId)>,
    /// Ingested jobs in FCFS order: (time the job entered the queue, id).
    /// Every policy keeps this queue in ingestion (= submission) order;
    /// policies differ only in which *position* they nominate next, so
    /// equal-priority ties always break by submission sequence, never by
    /// map iteration order. Ingestion order is id order, so a job's
    /// position is a binary search by id.
    ready: VecDeque<(SimTime, JobId)>,
    /// The ids in `ready`, per class, in id order (empty classes absent):
    /// each class's queue head is its first entry, so fair-share and
    /// hierarchical nominate from at most one head per class instead of
    /// walking the queue.
    queued: BTreeMap<JobClass, BTreeSet<JobId>>,
    /// Scheduled resource releases: (finish time, id). Stale entries
    /// (canceled, crashed, hung jobs) stay until popped, so a driver may
    /// wake once for nothing. Its live entries are exactly `releases`;
    /// the heap stays only for the stale wakeups: a driver polls at
    /// them, each poll retries FCFS's blocked head, and dropping them
    /// would move the pinned schedules.
    completions: BinaryHeap<Reverse<(SimTime, JobId)>>,
    /// The release profile backfill reservations are estimated from:
    /// every running, non-hung job keyed by (finish time, id), with the
    /// (GPUs, cores) it gives back. Kept exact as jobs start, finish,
    /// are canceled, crash, or hang.
    releases: BTreeMap<(SimTime, JobId), (u64, u64)>,
    /// Q server availability (shared server under synchronous coupling).
    q_free_at: SimTime,
    /// R server availability (asynchronous coupling only).
    r_free_at: SimTime,
    /// The policy's primary candidate failed to match; wait for a release
    /// before retrying (FCFS/backfill: the queue head; fair-share: the
    /// least-consumed class head).
    head_blocked: bool,
    /// Backfill reservation state, present iff `head_blocked` under a
    /// backfill policy.
    bf: Option<BackfillState>,
    /// Hierarchical per-child blocked flags (GPU child, CPU child).
    h_blocked: [bool; 2],
    /// First node of the CPU child's range under the hierarchical
    /// policy: GPU classes match in `[0, hier_split)`, CPU classes in
    /// `[hier_split, nodes)`.
    hier_split: usize,
    /// Fair-share accounting: node-microseconds consumed per class,
    /// accrued when resources are *released* (completion, crash). A
    /// cancel carries no timestamp, so canceled holds accrue nothing.
    consumed: BTreeMap<JobClass, u128>,
    /// (running, pending) per class, iterated in class order.
    class_counts: BTreeMap<JobClass, (u64, u64)>,
    /// Every job currently in [`JobState::Running`] (hung jobs included),
    /// keyed `(class, id)` so a class's running set is one ordered range.
    /// Replaces whole-`jobs`-table scans, which grow with every job ever
    /// submitted because terminal records are retained.
    running: BTreeSet<(JobClass, JobId)>,
    /// Running jobs holding resources on each node, in id (= submission)
    /// order — the `fail_node` victim index.
    residency: BTreeMap<resources::NodeId, BTreeSet<JobId>>,
    /// Nodes already reported failed, so a repeated `fail_node` on a
    /// still-drained node is a no-op instead of double-counting.
    failed_nodes: BTreeSet<resources::NodeId>,
    stats: SchedStats,
    /// Per-class queue-wait aggregates (count, sum, max) for every
    /// placement.
    wait_by_class: BTreeMap<JobClass, ClassWait>,
    /// (backfilled job, head it was backfilled around), opt-in — the
    /// instrumentation behind the "EASY never delays the head" proptest.
    bf_pairs: Option<Vec<(JobId, JobId)>>,
    /// Opt-in submission log (§4.4 history files): every submit with its
    /// time and spec, in order.
    recorder: Option<Vec<(SimTime, JobSpec)>>,
    /// Events produced outside `advance` (e.g. node failures), delivered
    /// on the next poll.
    pending_events: Vec<JobEvent>,
    /// Trace sink for job-lifecycle records (disabled by default).
    tracer: Tracer,
}

impl SchedEngine {
    /// Creates an engine over `graph` with the given placement policy and
    /// coupling. The queue policy defaults to [`SchedPolicy::Fcfs`]; set
    /// another member of the zoo with [`SchedEngine::set_sched_policy`]
    /// before submitting work.
    pub fn new(
        graph: ResourceGraph,
        policy: MatchPolicy,
        coupling: Coupling,
        costs: Costs,
    ) -> SchedEngine {
        let nodes = graph.spec().nodes as usize;
        SchedEngine {
            graph,
            policy,
            sched_policy: SchedPolicy::Fcfs,
            coupling,
            costs,
            jobs: JobTable::default(),
            inbox: VecDeque::new(),
            ready: VecDeque::new(),
            queued: BTreeMap::new(),
            completions: BinaryHeap::new(),
            releases: BTreeMap::new(),
            q_free_at: SimTime::ZERO,
            r_free_at: SimTime::ZERO,
            head_blocked: false,
            bf: None,
            h_blocked: [false; 2],
            // 3/4 of the machine to the GPU child, the rest to the CPU
            // child (sims dominate the mix; setup/continuum work is the
            // minority the hierarchy fences off).
            hier_split: nodes - nodes / 4,
            consumed: BTreeMap::new(),
            class_counts: BTreeMap::new(),
            running: BTreeSet::new(),
            residency: BTreeMap::new(),
            failed_nodes: BTreeSet::new(),
            stats: SchedStats::default(),
            wait_by_class: BTreeMap::new(),
            bf_pairs: None,
            recorder: None,
            pending_events: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a tracer; the engine records job-lifecycle events and
    /// scheduling-service spans on it. The default handle is a no-op.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Selects the queue policy. Call before submitting work: switching
    /// policies mid-stream is not part of the model (blocked-state and
    /// reservation caches are policy-specific).
    pub fn set_sched_policy(&mut self, policy: SchedPolicy) {
        self.sched_policy = policy;
        self.unblock();
    }

    /// The active queue policy.
    pub fn sched_policy(&self) -> SchedPolicy {
        self.sched_policy
    }

    /// Starts (or stops) recording every submission with its time and
    /// spec — the paper's §4.4 replayable history file, written as the
    /// job-log CSV by `workload::TraceFile::from_submissions`. Off by
    /// default.
    pub fn set_recording(&mut self, on: bool) {
        self.recorder = on.then(|| self.recorder.take().unwrap_or_default());
    }

    /// Takes the recorded submissions, leaving recording on with a fresh
    /// log if it was on.
    pub fn take_log(&mut self) -> Option<Vec<(SimTime, JobSpec)>> {
        self.recorder.as_mut().map(std::mem::take)
    }

    /// Starts collecting (backfilled job, blocked head) pairs — proptest
    /// instrumentation for the no-head-delay invariant. Off by default.
    pub fn collect_backfill_pairs(&mut self, on: bool) {
        if on {
            if self.bf_pairs.is_none() {
                self.bf_pairs = Some(Vec::new());
            }
        } else {
            self.bf_pairs = None;
        }
    }

    /// Recorded (backfilled job, head) pairs; empty when collection is
    /// off.
    pub fn backfill_pairs(&self) -> &[(JobId, JobId)] {
        self.bf_pairs.as_deref().unwrap_or(&[])
    }

    /// Per-class queue-wait aggregates, in class order.
    pub fn class_waits(&self) -> Vec<(JobClass, ClassWait)> {
        self.wait_by_class.iter().map(|(&c, &w)| (c, w)).collect()
    }

    /// Simulates a compute-node failure at time `at`: the node is drained
    /// (no new placements — Flux "has full support to detect node failures
    /// and to drain the failed nodes") and every job holding resources on
    /// it crashes, reported as a failed [`JobEvent::Finished`] on the next
    /// poll so trackers can resubmit. Returns the crashed job ids.
    pub fn fail_node(&mut self, node: resources::NodeId, at: SimTime) -> Vec<JobId> {
        // A node that already failed and is still drained cannot fail
        // again: re-reporting it would double-count the failure in the
        // trace and the `sched.node_failures` counter. A repaired
        // (undrained) node is eligible to fail anew.
        if self.failed_nodes.contains(&node) && self.graph.is_drained(node) {
            return Vec::new();
        }
        self.failed_nodes.insert(node);
        self.graph.drain(node);
        // The residency index holds exactly the running jobs with a slice
        // on this node, already in id (= submission) order.
        let victims: Vec<JobId> = self
            .residency
            .get(&node)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default();
        for &id in &victims {
            let Some(rec) = self.jobs.get_mut(id) else {
                continue;
            };
            let finish = rec.finish();
            let alloc = rec.alloc.take();
            if let Some(alloc) = &alloc {
                self.graph.release(alloc);
            }
            rec.state.advance_to(JobState::Failed);
            let class = rec.spec.class;
            if let Some(placed) = rec.placed_at.take() {
                let slices = alloc.as_ref().map_or(0, |a| a.slices.len()) as u128;
                *self.consumed.entry(class).or_insert(0) +=
                    at.since(placed).as_micros() as u128 * slices;
            }
            self.unindex_running(id, class, alloc.as_ref(), finish);
            self.counts_mut(class).0 -= 1;
            self.stats.failed += 1;
            self.pending_events.push(JobEvent::Finished {
                id,
                at,
                success: false,
            });
        }
        // Resources changed: blocked candidates may fit elsewhere now.
        self.unblock();
        self.tracer.instant_at(
            at,
            "sched",
            "node.failed",
            &[
                ("node", u64::from(node).into()),
                ("count", victims.len().into()),
            ],
        );
        self.tracer.counter_add("sched.node_failures", 1);
        victims
    }

    /// Returns a drained node to service: it takes new work again, and
    /// since capacity grew, every policy's blocked candidates are retried
    /// (as after a release). Repairs made through
    /// [`SchedEngine::graph_mut`] reach the graph but not the policies: a
    /// blocked non-FCFS policy sees them only at its next release, which
    /// on an otherwise idle machine never comes.
    pub fn undrain(&mut self, node: resources::NodeId) {
        self.graph.undrain(node);
        self.unblock();
    }

    /// Hangs the lowest-id running job of `class` at time `at`: the job
    /// keeps holding its allocation but its scheduled completion is
    /// suppressed, so it never finishes on its own. Only a cancel (e.g.
    /// a workflow-manager timeout) can reclaim the resources — this is
    /// the "job hangs" failure of the paper's §4.4 resilience model.
    /// Returns the hung job's id, or `None` if no eligible job is
    /// running.
    pub fn hang_running(&mut self, class: JobClass, at: SimTime) -> Option<JobId> {
        // The running index is ordered by (class, id): one range walk
        // finds the lowest-id running job of the class, skipping only
        // already-hung entries.
        let id = self
            .running
            .range((class, JobId(0))..)
            .take_while(|&&(c, _)| c == class)
            .map(|&(_, id)| id)
            .find(|&id| self.jobs.get(id).is_some_and(|rec| !rec.hung))?;
        if let Some(rec) = self.jobs.get_mut(id) {
            rec.hung = true;
            // It still holds its allocation but will never give it back
            // on schedule: no reservation may count on that release.
            if let Some(finish) = rec.finish() {
                self.releases.remove(&(finish, id));
            }
        }
        self.tracer.instant_at(
            at,
            "sched",
            "job.hung",
            &[("job", id.0.into()), ("class", class.label().into())],
        );
        self.tracer.counter_add("sched.hung", 1);
        Some(id)
    }

    /// Events produced outside `advance` (node-failure crashes) that have
    /// not yet been delivered to a poller. A workflow manager that dies
    /// between `fail_node` and its next poll loses exactly these.
    pub fn undelivered_events(&self) -> usize {
        self.pending_events.len()
    }

    /// The resource graph (for occupancy sampling).
    pub fn graph(&self) -> &ResourceGraph {
        &self.graph
    }

    /// Mutable graph access. Repair nodes with [`SchedEngine::undrain`],
    /// which also tells the policies.
    pub fn graph_mut(&mut self) -> &mut ResourceGraph {
        &mut self.graph
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// (running, pending) for one job class.
    pub fn class_counts(&self, class: JobClass) -> (u64, u64) {
        self.class_counts.get(&class).copied().unwrap_or((0, 0))
    }

    /// (running, pending) over all classes.
    pub fn totals(&self) -> (u64, u64) {
        self.class_counts
            .values()
            .fold((0, 0), |(r, p), &(cr, cp)| (r + cr, p + cp))
    }

    /// Current state of a job.
    pub fn state(&self, id: JobId) -> Option<JobState> {
        self.jobs.get(id).map(|j| j.state.current())
    }

    /// The class a job was submitted with.
    pub fn class(&self, id: JobId) -> Option<JobClass> {
        self.jobs.get(id).map(|j| j.spec.class)
    }

    /// Submits a job at time `at`. The job enters Q's inbox and will be
    /// ingested, queued, and matched by subsequent [`SchedEngine::advance`]
    /// calls.
    pub fn submit(&mut self, spec: JobSpec, at: SimTime) -> JobId {
        if let Some(log) = &mut self.recorder {
            log.push((at, spec.clone()));
        }
        let class = spec.class;
        let id = self.jobs.push(JobRecord {
            spec,
            state: TrackedState::submitted(),
            alloc: None,
            placed_at: None,
            hung: false,
        });
        self.inbox.push_back((at, id));
        self.counts_mut(class).1 += 1;
        self.stats.submitted += 1;
        self.tracer.instant_at(
            at,
            "sched",
            "job.submit",
            &[("job", id.0.into()), ("class", class.label().into())],
        );
        self.tracer.counter_add("sched.submitted", 1);
        id
    }

    /// Cancels a job; running jobs release their resources immediately.
    /// Returns false if the job was already terminal or unknown.
    pub fn cancel(&mut self, id: JobId) -> bool {
        let Some((state, class)) = self
            .jobs
            .get(id)
            .map(|rec| (rec.state.current(), rec.spec.class))
        else {
            return false;
        };
        match state {
            JobState::Submitted => {
                self.inbox.retain(|&(_, j)| j != id);
            }
            JobState::Queued => {
                // FCFS unblocks only when the blocked head itself goes
                // away (the pre-refactor behavior, kept byte-identical);
                // the other policies hold per-position state, so any
                // queue removal invalidates it.
                if self.ready.front().map(|&(_, j)| j) == Some(id)
                    || self.sched_policy != SchedPolicy::Fcfs
                {
                    self.unblock();
                }
                if let Ok(pos) = self.ready.binary_search_by_key(&id, |&(_, j)| j) {
                    self.ready.remove(pos);
                }
                self.unqueue(class, id);
            }
            JobState::Running => {}
            _ => return false,
        }
        let Some(rec) = self.jobs.get_mut(id) else {
            return false;
        };
        if state == JobState::Running {
            let finish = rec.finish();
            let alloc = rec.alloc.take();
            if let Some(alloc) = &alloc {
                self.graph.release(alloc);
            }
            rec.state.advance_to(JobState::Canceled);
            self.unindex_running(id, class, alloc.as_ref(), finish);
            self.unblock();
        } else {
            rec.state.advance_to(JobState::Canceled);
        }
        let counts = self.counts_mut(class);
        if state == JobState::Running {
            counts.0 -= 1;
        } else {
            counts.1 -= 1;
        }
        self.stats.canceled += 1;
        self.tracer.instant(
            "sched",
            "job.canceled",
            &[("job", id.0.into()), ("class", class.label().into())],
        );
        self.tracer.counter_add("sched.canceled", 1);
        true
    }

    /// The earliest future instant at which [`SchedEngine::advance`] could
    /// make progress, or `None` when the engine is fully idle (no pending
    /// service, no scheduled completions). An event-driven driver jumps
    /// its clock here instead of polling on a fixed tick.
    ///
    /// Completions fire when `advance(now)` sees `t <= now`, so their own
    /// timestamp is returned; Q/R service starts only strictly *before*
    /// `now`, so service start times are nudged one microsecond late. The
    /// returned instant may be conservative (a hung or canceled job's
    /// stale completion entry wakes the driver once, harmlessly): the
    /// contract is *no progress is possible before it*, not that work is
    /// guaranteed exactly at it.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let eps = SimDuration::from_micros(1);
        let completion = self.completions.peek().map(|Reverse((t, _))| *t);
        let service = self.next_service().map(|(start, _)| start + eps);
        completion.into_iter().chain(service).min()
    }

    /// Processes all scheduler work whose *start* time is before `now`,
    /// interleaving Q/R service with resource releases in time order.
    /// Returned events carry their own timestamps; an action started just
    /// before `now` may finish (and be reported) slightly after it.
    pub fn advance(&mut self, now: SimTime) -> Vec<JobEvent> {
        let mut events = std::mem::take(&mut self.pending_events);
        // Retry a blocked FCFS head once per poll (the pre-zoo engine's
        // behavior, which the pins hold): resources may have changed
        // outside the engine's view (undrained nodes, etc.). The other
        // policies must NOT reset here — their blocked state is cleared
        // by releases, failures, and cancels instead. Resetting on every
        // advance lets a permanently-unplaceable candidate re-buy its
        // match cost at every matcher wakeup: the nomination schedules a
        // wakeup, the wakeup's advance clears the block and re-misses,
        // and the loop walks virtual time in match-cost steps (observed
        // as ~28M driver iterations for a 4-hour hierarchical run).
        if self.sched_policy == SchedPolicy::Fcfs {
            self.unblock();
        }
        loop {
            self.settle_backfill_cursor();
            let next_completion = self
                .completions
                .peek()
                .map(|Reverse((t, _))| *t)
                .filter(|&t| t <= now);
            let next_service = self.next_service().filter(|&(ts, _)| ts < now);
            match (next_completion, next_service) {
                (None, None) => break,
                (Some(tc), Some((ts, _))) if tc <= ts => self.run_completion(&mut events),
                (Some(_), None) => self.run_completion(&mut events),
                (None, Some((ts, act))) | (Some(_), Some((ts, act))) => {
                    self.run_service(ts, act, &mut events)
                }
            }
        }
        events
    }

    /// The matcher's service timeline under the active coupling.
    fn matcher_server(&self) -> SimTime {
        match self.coupling {
            Coupling::Synchronous => self.q_free_at,
            Coupling::Asynchronous => self.r_free_at,
        }
    }

    /// The queue position the active policy nominates for the matcher,
    /// with the time that job entered the queue. `None` when the policy
    /// is blocked (nothing eligible until a release).
    fn match_candidate(&self) -> Option<(SimTime, usize)> {
        match self.sched_policy {
            SchedPolicy::Fcfs => match (self.ready.front(), self.head_blocked) {
                (Some(&(ready_at, _)), false) => Some((ready_at, 0)),
                _ => None,
            },
            SchedPolicy::BackfillEasy | SchedPolicy::BackfillConservative => {
                if !self.head_blocked {
                    return self.ready.front().map(|&(t, _)| (t, 0));
                }
                // `advance` has already moved the cursor past every
                // rejected position, so this screens one position unless
                // the queue or the server time moved since.
                let (pos, ready_at) = self.bf_scan(self.bf.as_ref()?);
                ready_at.map(|t| (t, pos))
            }
            // The class with the least consumed node-time nominates its
            // oldest queued job. Ties break by id — the submission
            // sequence, which is queue order — never by class
            // declaration order.
            SchedPolicy::FairShare if !self.head_blocked => self
                .queued
                .iter()
                .filter_map(|(class, ids)| {
                    let used = self.consumed.get(class).copied().unwrap_or(0);
                    Some((used, *ids.first()?))
                })
                .min()
                .and_then(|(_, id)| self.queue_entry(id)),
            SchedPolicy::FairShare => None,
            // The oldest queued job whose child instance is not blocked —
            // a stuck wide CPU job never stalls GPU work.
            SchedPolicy::Hierarchical => self
                .queued
                .iter()
                .filter(|&(&class, _)| !self.h_blocked[hier_child(class)])
                .filter_map(|(_, ids)| ids.first().copied())
                .min()
                .and_then(|id| self.queue_entry(id)),
        }
    }

    /// A queued job's (time it entered the queue, position).
    fn queue_entry(&self, id: JobId) -> Option<(SimTime, usize)> {
        let pos = self.ready.binary_search_by_key(&id, |&(_, j)| j).ok()?;
        Some((self.ready[pos].0, pos))
    }

    /// Screens backfill candidates from the episode's cursor. Returns the
    /// first position the screen does not reject (the queue length, or
    /// the end of the conservative window, if it rejects them all) and,
    /// when that position may run out of order now, the time its job
    /// entered the queue.
    fn bf_scan(&self, bf: &BackfillState) -> (usize, Option<SimTime>) {
        let conservative = self.sched_policy == SchedPolicy::BackfillConservative;
        let server = self.matcher_server();
        let mut pos = bf.cursor.max(1);
        while pos < self.ready.len() {
            let limit = if conservative {
                if pos > bf.prefix.len() {
                    // Beyond the reservation window nothing can be
                    // proven safe; stop scanning.
                    break;
                }
                bf.prefix[pos - 1]
            } else {
                bf.prefix.first().copied().flatten()
            };
            let (ready_at, id) = self.ready[pos];
            if let Some(rec) = self.jobs.get(id) {
                // Safe to run out of order iff the candidate returns
                // everything it takes by the protected jobs' earliest
                // possible start. (Under modeled service costs the
                // dispatch/visit overhead after `t_start` is not charged
                // against the bound; under `Costs::free` the comparison
                // is exact — see `policy_props.rs`.)
                let t_start = server.max(ready_at);
                let time_ok = limit.is_none_or(|l| t_start + rec.spec.runtime <= l);
                if time_ok && feasible_now(&rec.spec.shape, bf.free) {
                    return (pos, Some(ready_at));
                }
            }
            pos += 1;
        }
        (pos, None)
    }

    /// Moves the backfill cursor past every position the episode's screen
    /// rejects. Sound because a rejection is final within an episode
    /// (see [`BackfillState`]); it makes the `&self` nomination in
    /// `next_wakeup` O(1) amortised.
    fn settle_backfill_cursor(&mut self) {
        let Some(bf) = &self.bf else {
            return;
        };
        let (stop, _) = self.bf_scan(bf);
        if let Some(bf) = &mut self.bf {
            bf.cursor = stop;
        }
    }

    /// The node range owned by a hierarchical child instance.
    fn hier_range(&self, child: usize) -> (usize, usize) {
        if child == 0 {
            (0, self.hier_split)
        } else {
            (self.hier_split, self.graph.spec().nodes as usize)
        }
    }

    /// Builds backfill reservation state: the release profile plus
    /// aggregate free totals, folded into earliest-start estimates for
    /// the first [`BF_WINDOW`] queued jobs.
    fn compute_bf_state(&self, cursor: usize) -> BackfillState {
        let free = self.graph.free_totals();
        let releases = &self.releases;
        let mut prefix = Vec::new();
        let mut run: Option<SimTime> = None;
        for pos in 0..self.ready.len().min(BF_WINDOW) {
            let (_, id) = self.ready[pos];
            let mut est = self
                .jobs
                .get(id)
                .and_then(|rec| estimate_start(&rec.spec.shape, free, releases));
            if pos == 0 {
                // A backfill episode only opens after the head fails a
                // *real* topology match, so an aggregate estimate of
                // "fits now" is fragmentation noise (enough cores in
                // total, no node with a whole slice). The pool cannot
                // grow before the first scheduled release, so that
                // release is still a sound lower bound — without it the
                // window collapses to zero width and both backfill
                // policies silently degrade to FCFS. No pending release
                // means no bound can be proven at all.
                est = est.and_then(|t| releases.keys().next().map(|&(r, _)| t.max(r)));
            }
            run = if pos == 0 { est } else { min_bound(run, est) };
            prefix.push(run);
        }
        BackfillState {
            prefix,
            cursor,
            free,
        }
    }

    /// Clears every policy's blocked state: a release, a repaired or
    /// failed node, or a queue mutation may have changed what fits, and
    /// cached backfill reservations are no longer valid.
    fn unblock(&mut self) {
        self.head_blocked = false;
        self.bf = None;
        self.h_blocked = [false; 2];
    }

    /// The next Q/R action and the time it can start. `advance` runs it
    /// if that is strictly before `now`; `next_wakeup` wakes the driver
    /// just after it.
    fn next_service(&self) -> Option<(SimTime, Action)> {
        let ingest = self.inbox.front().map(|&(sub_t, _)| {
            let server = self.q_free_at;
            (server.max(sub_t), Action::Ingest)
        });
        let matcher = self.match_candidate().map(|(ready_at, pos)| {
            // The matcher cannot start before the candidate entered the
            // queue (an idle server does not work in the past).
            (self.matcher_server().max(ready_at), Action::Match(pos))
        });
        match (ingest, matcher) {
            (None, None) => None,
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            // Tie goes to ingestion: under synchronous coupling Q's inbox
            // preempts R, which is the bottleneck the paper describes.
            (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
        }
    }

    fn run_completion(&mut self, events: &mut Vec<JobEvent>) {
        let Some(Reverse((t, id))) = self.completions.pop() else {
            return;
        };
        let Some(rec) = self.jobs.get_mut(id) else {
            return;
        };
        if rec.state.current() != JobState::Running {
            return; // canceled while running; resources already released
        }
        if rec.hung {
            return; // hung jobs never complete; only a cancel frees them
        }
        let alloc = rec.alloc.take();
        if let Some(alloc) = &alloc {
            self.graph.release(alloc);
        }
        let success = rec.spec.outcome == JobOutcome::Success;
        rec.state.advance_to(if success {
            JobState::Completed
        } else {
            JobState::Failed
        });
        let class = rec.spec.class;
        let placed_at = rec.placed_at.take();
        if let Some(p) = placed_at {
            let slices = alloc.as_ref().map_or(0, |a| a.slices.len()) as u128;
            *self.consumed.entry(class).or_insert(0) += t.since(p).as_micros() as u128 * slices;
        }
        self.unindex_running(id, class, alloc.as_ref(), Some(t));
        self.counts_mut(class).0 -= 1;
        if success {
            self.stats.completed += 1;
            self.tracer.counter_add("sched.completed", 1);
        } else {
            self.stats.failed += 1;
            self.tracer.counter_add("sched.failed", 1);
        }
        if let Some(p) = placed_at {
            self.tracer.span_at(
                p,
                t.since(p),
                "sched",
                "job.run",
                &[("job", id.0.into()), ("class", class.label().into())],
            );
        }
        self.tracer.instant_at(
            t,
            "sched",
            "job.finished",
            &[("job", id.0.into()), ("success", success.into())],
        );
        // A release may unblock any policy's waiting candidates.
        self.unblock();
        events.push(JobEvent::Finished { id, at: t, success });
    }

    fn run_service(&mut self, start: SimTime, action: Action, events: &mut Vec<JobEvent>) {
        match action {
            Action::Ingest => {
                let Some((_, id)) = self.inbox.pop_front() else {
                    return;
                };
                let end = start + self.costs.submit;
                self.q_free_at = end;
                if let Some(rec) = self.jobs.get_mut(id) {
                    rec.state.advance_to(JobState::Queued);
                    let class = rec.spec.class;
                    self.ready.push_back((end, id));
                    self.queued.entry(class).or_default().insert(id);
                    self.tracer.span_at(
                        start,
                        self.costs.submit,
                        "sched",
                        "svc.ingest",
                        &[("job", id.0.into())],
                    );
                }
            }
            Action::Match(pos) => {
                let Some(&(ready_at, id)) = self.ready.get(pos) else {
                    return;
                };
                let Some((shape, job_class)) = self
                    .jobs
                    .get(id)
                    .map(|rec| (rec.spec.shape, rec.spec.class))
                else {
                    return;
                };
                let placed = if self.sched_policy == SchedPolicy::Hierarchical {
                    let (lo, hi) = self.hier_range(hier_child(job_class));
                    self.graph.try_alloc_range(&shape, self.policy, lo, hi)
                } else {
                    self.graph.try_alloc(&shape, self.policy)
                };
                let visited = self.graph.visited_last();
                let cost = self.costs.per_node_visit * visited
                    + if placed.is_some() {
                        self.costs.dispatch
                    } else {
                        SimDuration::ZERO
                    };
                let end = start + cost;
                match self.coupling {
                    Coupling::Synchronous => self.q_free_at = end,
                    Coupling::Asynchronous => self.r_free_at = end,
                }
                self.tracer.span_at(
                    start,
                    cost,
                    "sched",
                    "svc.match",
                    &[("job", id.0.into()), ("visited", visited.into())],
                );
                self.tracer.observe("sched.visited_per_match", visited);
                match placed {
                    Some(alloc) => {
                        self.ready.remove(pos);
                        let Some(rec) = self.jobs.get_mut(id) else {
                            self.graph.release(&alloc);
                            return;
                        };
                        rec.alloc = Some(alloc);
                        rec.state.advance_to(JobState::Running);
                        rec.placed_at = Some(end);
                        let runtime = rec.spec.runtime;
                        let class = rec.spec.class;
                        let counts = self.counts_mut(class);
                        counts.0 += 1;
                        counts.1 -= 1;
                        self.stats.placed += 1;
                        self.index_running(id, class, end + runtime);
                        self.completions.push(Reverse((end + runtime, id)));
                        self.tracer.instant_at(
                            end,
                            "sched",
                            "job.placed",
                            &[("job", id.0.into()), ("class", class.label().into())],
                        );
                        self.tracer.counter_add("sched.placed", 1);
                        self.tracer
                            .observe("sched.queue_wait_us", end.since(ready_at).as_micros());
                        let wait_us = end.since(ready_at).as_micros();
                        let w = self.wait_by_class.entry(class).or_default();
                        w.count += 1;
                        w.sum_us += wait_us;
                        w.max_us = w.max_us.max(wait_us);
                        if pos > 0 && self.sched_policy.is_backfill() {
                            self.stats.backfills += 1;
                            self.tracer.counter_add("sched.backfills", 1);
                            if let Some(pairs) = &mut self.bf_pairs {
                                if let Some(&(_, head)) = self.ready.front() {
                                    pairs.push((id, head));
                                }
                            }
                            // Queue positions shifted and the free pool
                            // shrank: rebuild the reservation state,
                            // resuming the scan where the removal left it.
                            self.bf = Some(self.compute_bf_state(pos));
                        }
                        events.push(JobEvent::Placed { id, at: end });
                    }
                    None => {
                        match self.sched_policy {
                            // Strict FCFS, no backfilling: the head blocks
                            // the queue until resources are released.
                            SchedPolicy::Fcfs => self.head_blocked = true,
                            SchedPolicy::BackfillEasy | SchedPolicy::BackfillConservative => {
                                if pos == 0 {
                                    // Head miss: block it and open a
                                    // backfill episode with fresh
                                    // reservation estimates.
                                    self.head_blocked = true;
                                    self.bf = Some(self.compute_bf_state(1));
                                } else if let Some(bf) = &mut self.bf {
                                    // A screened candidate still failed on
                                    // real topology; never re-try it this
                                    // episode.
                                    bf.cursor = pos + 1;
                                }
                            }
                            // The least-consumed class's head missed; a
                            // cross-class skip here would let hungry small
                            // classes starve it, so the queue waits.
                            SchedPolicy::FairShare => self.head_blocked = true,
                            // Only the candidate's own child instance
                            // blocks; the other child keeps scheduling.
                            SchedPolicy::Hierarchical => {
                                self.h_blocked[hier_child(job_class)] = true
                            }
                        }
                        self.stats.match_misses += 1;
                        self.tracer.counter_add("sched.match_misses", 1);
                    }
                }
            }
        }
    }

    fn counts_mut(&mut self, class: JobClass) -> &mut (u64, u64) {
        self.class_counts.entry(class).or_insert((0, 0))
    }

    /// Removes a placed job from the per-class queue index and enters it
    /// in the running, residency and release indexes (`finish` is when
    /// its allocation is due back).
    fn index_running(&mut self, id: JobId, class: JobClass, finish: SimTime) {
        self.unqueue(class, id);
        self.running.insert((class, id));
        let Some(alloc) = self.jobs.get(id).and_then(|r| r.alloc.as_ref()) else {
            return;
        };
        for s in &alloc.slices {
            self.residency.entry(s.node).or_default().insert(id);
        }
        self.releases
            .insert((finish, id), (alloc.gpus(), alloc.cores()));
    }

    /// Drops a job that left the queue from its class's queued set.
    fn unqueue(&mut self, class: JobClass, id: JobId) {
        let emptied = self.queued.get_mut(&class).is_some_and(|ids| {
            ids.remove(&id);
            ids.is_empty()
        });
        if emptied {
            self.queued.remove(&class);
        }
    }

    /// Removes a job that just left [`JobState::Running`] from the running,
    /// residency and release indexes. `alloc` is the allocation it held
    /// (already released back to the graph by the caller), `finish` the
    /// release it was scheduled for.
    fn unindex_running(
        &mut self,
        id: JobId,
        class: JobClass,
        alloc: Option<&resources::Alloc>,
        finish: Option<SimTime>,
    ) {
        self.running.remove(&(class, id));
        if let Some(finish) = finish {
            self.releases.remove(&(finish, id));
        }
        if let Some(alloc) = alloc {
            for s in &alloc.slices {
                let emptied = self.residency.get_mut(&s.node).is_some_and(|set| {
                    set.remove(&id);
                    set.is_empty()
                });
                if emptied {
                    self.residency.remove(&s.node);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resources::{JobShape, MachineSpec, NodeSpec};

    fn engine(nodes: u32, policy: MatchPolicy, coupling: Coupling, costs: Costs) -> SchedEngine {
        let graph = ResourceGraph::new(MachineSpec::custom("t", nodes, NodeSpec::summit()));
        SchedEngine::new(graph, policy, coupling, costs)
    }

    fn sim_spec(runtime_s: u64) -> JobSpec {
        JobSpec::new(
            JobClass::CgSim,
            JobShape::sim_standard(),
            SimDuration::from_secs(runtime_s),
        )
    }

    #[test]
    fn submit_place_complete_lifecycle() {
        let mut e = engine(
            2,
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        );
        let id = e.submit(sim_spec(100), SimTime::ZERO);
        assert_eq!(e.state(id), Some(JobState::Submitted));
        let ev = e.advance(SimTime::from_micros(1));
        assert!(matches!(ev[0], JobEvent::Placed { .. }));
        assert_eq!(e.state(id), Some(JobState::Running));
        assert_eq!(e.totals(), (1, 0));
        let ev = e.advance(SimTime::from_secs(101));
        assert!(matches!(ev[0], JobEvent::Finished { success: true, .. }));
        assert_eq!(e.state(id), Some(JobState::Completed));
        assert_eq!(e.totals(), (0, 0));
        assert_eq!(e.graph().gpu_usage().0, 0);
    }

    #[test]
    fn failed_jobs_report_failure() {
        let mut e = engine(
            1,
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        );
        let id = e.submit(sim_spec(10).failing(), SimTime::ZERO);
        e.advance(SimTime::from_micros(1));
        let ev = e.advance(SimTime::from_secs(11));
        assert!(matches!(ev[0], JobEvent::Finished { success: false, .. }));
        assert_eq!(e.state(id), Some(JobState::Failed));
        assert_eq!(e.stats().failed, 1);
    }

    #[test]
    fn recording_keeps_submissions_only_in_order() {
        let mut e = engine(
            2,
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        );
        assert_eq!(e.take_log(), None, "recording is off by default");
        e.submit(sim_spec(5), SimTime::ZERO);
        e.set_recording(true);
        let want: Vec<(SimTime, JobSpec)> = [sim_spec(100), sim_spec(200).failing(), sim_spec(300)]
            .into_iter()
            .enumerate()
            .map(|(i, spec)| (SimTime::from_secs(i as u64), spec))
            .collect();
        let ids: Vec<JobId> = want
            .iter()
            .map(|(at, spec)| e.submit(spec.clone(), *at))
            .collect();
        e.advance(SimTime::from_secs(3));
        assert!(e.cancel(ids[0]));
        e.fail_node(0, SimTime::from_secs(4));
        // Turning recording on again keeps what was recorded.
        e.set_recording(true);
        assert_eq!(
            e.take_log(),
            Some(want),
            "only submissions made while recording, in order; cancels and node failures are not logged"
        );
        assert_eq!(e.take_log(), Some(Vec::new()), "taking leaves recording on");
        e.set_recording(false);
        e.submit(sim_spec(1), SimTime::from_secs(5));
        assert_eq!(e.take_log(), None);
    }

    #[test]
    fn recorded_submissions_replay_to_the_same_schedule() {
        // The §4.4 history file: a run's recorded submissions, resubmitted
        // at their times into a fresh engine polled at the same instants,
        // reproduce the run's job events and counters exactly.
        let fresh = || {
            engine(
                3,
                MatchPolicy::FirstMatch,
                Coupling::Synchronous,
                Costs::summit_campaign(),
            )
        };
        let horizon = SimTime::from_hours(2);
        let mut live = fresh();
        live.set_recording(true);
        let mut live_events = Vec::new();
        for i in 0..20u64 {
            let at = SimTime::from_secs(i * 30);
            live_events.extend(live.advance(at));
            let class = if i % 3 == 0 {
                JobClass::AaSim
            } else {
                JobClass::CgSim
            };
            let mut spec = JobSpec::new(
                class,
                JobShape::sim_standard(),
                SimDuration::from_mins(10 + i),
            );
            if i % 7 == 6 {
                spec = spec.failing();
            }
            live.submit(spec, at);
        }
        live_events.extend(live.advance(horizon));
        let log = live.take_log().expect("recording is on");
        assert_eq!(log.len(), 20);

        let mut replay = fresh();
        let mut replay_events = Vec::new();
        for (at, spec) in log {
            replay_events.extend(replay.advance(at));
            replay.submit(spec, at);
        }
        replay_events.extend(replay.advance(horizon));
        assert_eq!(replay_events, live_events);
        assert_eq!(replay.stats(), live.stats());
        assert_eq!(replay.totals(), live.totals());
        assert_eq!(replay.graph().gpu_usage(), live.graph().gpu_usage());
        // The run actually did something: every job placed, some failed.
        assert_eq!(live.stats().placed, 20);
        assert!(live.stats().failed >= 1);
    }

    #[test]
    fn fcfs_head_blocks_queue_until_release() {
        // One node = 6 GPUs. Fill with 6 sims, then submit a 7th (blocks)
        // and an 8th behind it. No backfilling: neither runs until a
        // completion, then they run in order.
        let mut e = engine(
            1,
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        );
        let mut first6 = Vec::new();
        for _ in 0..6 {
            first6.push(e.submit(sim_spec(1000), SimTime::ZERO));
        }
        let j7 = e.submit(sim_spec(10), SimTime::ZERO);
        let j8 = e.submit(sim_spec(10), SimTime::ZERO);
        e.advance(SimTime::from_secs(1));
        assert_eq!(e.totals(), (6, 2));
        assert_eq!(e.state(j7), Some(JobState::Queued));
        // Cancel one running job -> releases a GPU -> j7 places, j8 waits.
        assert!(e.cancel(first6[0]));
        e.advance(SimTime::from_secs(2));
        assert_eq!(e.state(j7), Some(JobState::Running));
        assert_eq!(e.state(j8), Some(JobState::Queued));
        assert!(e.stats().match_misses >= 1);
    }

    #[test]
    fn cancel_in_each_state() {
        let mut e = engine(
            1,
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        );
        let a = e.submit(sim_spec(100), SimTime::ZERO);
        assert!(e.cancel(a)); // canceled while Submitted
        assert_eq!(e.state(a), Some(JobState::Canceled));
        assert!(!e.cancel(a)); // idempotent

        let b = e.submit(sim_spec(100), SimTime::ZERO);
        e.advance(SimTime::from_micros(1));
        assert_eq!(e.state(b), Some(JobState::Running));
        assert!(e.cancel(b));
        assert_eq!(e.graph().gpu_usage().0, 0, "cancel releases resources");
        assert_eq!(e.totals(), (0, 0));
    }

    #[test]
    fn canceled_running_job_does_not_double_release() {
        let mut e = engine(
            1,
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        );
        let id = e.submit(sim_spec(5), SimTime::ZERO);
        e.advance(SimTime::from_micros(1));
        e.cancel(id);
        // The stale completion event must be ignored.
        let ev = e.advance(SimTime::from_secs(10));
        assert!(ev.is_empty());
        assert_eq!(e.stats().canceled, 1);
        assert_eq!(e.stats().completed, 0);
    }

    #[test]
    fn service_costs_delay_placement() {
        let costs = Costs {
            submit: SimDuration::from_secs(1),
            per_node_visit: SimDuration::ZERO,
            dispatch: SimDuration::ZERO,
        };
        let mut e = engine(1, MatchPolicy::FirstMatch, Coupling::Synchronous, costs);
        for _ in 0..5 {
            e.submit(sim_spec(1000), SimTime::ZERO);
        }
        // After 3.5s of service, only 3 submissions are ingested; under
        // synchronous coupling matching waits behind the inbox.
        let ev = e.advance(SimTime::from_secs_f64(3.5));
        let placed = ev
            .iter()
            .filter(|e| matches!(e, JobEvent::Placed { .. }))
            .count();
        assert_eq!(placed, 0);
        let (running, pending) = e.totals();
        assert_eq!(running, 0);
        assert_eq!(pending, 5);
        // Once the inbox drains, matches proceed.
        let ev = e.advance(SimTime::from_secs(10));
        let placed = ev
            .iter()
            .filter(|e| matches!(e, JobEvent::Placed { .. }))
            .count();
        assert_eq!(placed, 5);
    }

    #[test]
    fn async_coupling_places_while_ingesting() {
        let costs = Costs {
            submit: SimDuration::from_secs(1),
            per_node_visit: SimDuration::ZERO,
            dispatch: SimDuration::from_millis(1),
        };
        let mut e = engine(2, MatchPolicy::FirstMatch, Coupling::Asynchronous, costs);
        for _ in 0..5 {
            e.submit(sim_spec(1000), SimTime::ZERO);
        }
        let ev = e.advance(SimTime::from_secs_f64(3.5));
        let placed = ev
            .iter()
            .filter(|e| matches!(e, JobEvent::Placed { .. }))
            .count();
        assert!(
            placed >= 2,
            "async R should place ingested jobs, got {placed}"
        );
    }

    #[test]
    fn exhaustive_policy_pays_full_graph_traversal() {
        let costs = Costs {
            submit: SimDuration::ZERO,
            per_node_visit: SimDuration::from_millis(1),
            dispatch: SimDuration::ZERO,
        };
        // 1000 nodes: each exhaustive match costs 1s.
        let mut ex = engine(
            1000,
            MatchPolicy::LowIdExhaustive,
            Coupling::Asynchronous,
            costs,
        );
        let mut fm = engine(1000, MatchPolicy::FirstMatch, Coupling::Asynchronous, costs);
        for e in [&mut ex, &mut fm] {
            for _ in 0..10 {
                e.submit(sim_spec(10_000), SimTime::ZERO);
            }
        }
        let horizon = SimTime::from_secs(5);
        let ex_placed = ex
            .advance(horizon)
            .iter()
            .filter(|e| matches!(e, JobEvent::Placed { .. }))
            .count();
        let fm_placed = fm
            .advance(horizon)
            .iter()
            .filter(|e| matches!(e, JobEvent::Placed { .. }))
            .count();
        assert!(ex_placed <= 5, "exhaustive is slow: {ex_placed}");
        assert_eq!(fm_placed, 10, "first-match is fast");
        assert!(fm.graph().visited_total() < ex.graph().visited_total() / 50);
    }

    #[test]
    fn class_counts_track_mixed_workload() {
        let mut e = engine(
            4,
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        );
        e.submit(sim_spec(100), SimTime::ZERO);
        e.submit(
            JobSpec::new(
                JobClass::CgSetup,
                JobShape::setup(),
                SimDuration::from_secs(50),
            ),
            SimTime::ZERO,
        );
        e.advance(SimTime::from_micros(1));
        assert_eq!(e.class_counts(JobClass::CgSim), (1, 0));
        assert_eq!(e.class_counts(JobClass::CgSetup), (1, 0));
        assert_eq!(e.class_counts(JobClass::AaSim), (0, 0));
    }

    #[test]
    fn class_waits_aggregate_every_placement() {
        // Free ingestion, 1 s per dispatch: three jobs queued at t=0 are
        // placed at 1 s, 2 s and 3 s, one matcher service after another.
        let costs = Costs {
            submit: SimDuration::ZERO,
            per_node_visit: SimDuration::ZERO,
            dispatch: SimDuration::from_secs(1),
        };
        let mut e = engine(4, MatchPolicy::FirstMatch, Coupling::Asynchronous, costs);
        e.submit(sim_spec(100), SimTime::ZERO);
        e.submit(sim_spec(100), SimTime::ZERO);
        e.submit(
            JobSpec::new(
                JobClass::CgSetup,
                JobShape::setup(),
                SimDuration::from_secs(50),
            ),
            SimTime::ZERO,
        );
        e.advance(SimTime::from_secs(10));
        assert_eq!(e.stats().placed, 3);
        let setup = ClassWait {
            count: 1,
            sum_us: 3_000_000,
            max_us: 3_000_000,
        };
        let sim = ClassWait {
            count: 2,
            sum_us: 3_000_000,
            max_us: 2_000_000,
        };
        assert_eq!(
            e.class_waits(),
            vec![(JobClass::CgSetup, setup), (JobClass::CgSim, sim)]
        );
        assert_eq!(sim.mean_us(), 1_500_000);
        assert_eq!(ClassWait::default().mean_us(), 0);
    }

    #[test]
    fn advance_is_idempotent_at_same_time() {
        let mut e = engine(
            1,
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        );
        e.submit(sim_spec(100), SimTime::ZERO);
        let ev1 = e.advance(SimTime::from_secs(1));
        let ev2 = e.advance(SimTime::from_secs(1));
        assert_eq!(ev1.len(), 1);
        assert!(ev2.is_empty());
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use resources::{JobShape, MachineSpec, NodeSpec};

    fn engine(nodes: u32) -> SchedEngine {
        SchedEngine::new(
            ResourceGraph::new(MachineSpec::custom("t", nodes, NodeSpec::summit())),
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        )
    }

    fn sim() -> JobSpec {
        JobSpec::new(
            JobClass::CgSim,
            JobShape::sim_standard(),
            SimDuration::from_hours(1),
        )
    }

    #[test]
    fn node_failure_crashes_resident_jobs_only() {
        let mut e = engine(2);
        let mut ids = Vec::new();
        for _ in 0..12 {
            ids.push(e.submit(sim(), SimTime::ZERO));
        }
        e.advance(SimTime::from_secs(1));
        assert_eq!(e.graph().gpu_usage().0, 12);

        let victims = e.fail_node(0, SimTime::from_secs(2));
        assert_eq!(victims.len(), 6, "six sims lived on node 0");
        assert_eq!(e.graph().gpu_usage().0, 6, "their GPUs were released");
        // Failure events arrive on the next poll, exactly once.
        let events = e.advance(SimTime::from_secs(3));
        let failed = events
            .iter()
            .filter(|ev| matches!(ev, JobEvent::Finished { success: false, .. }))
            .count();
        assert_eq!(failed, 6);
        assert!(e.advance(SimTime::from_secs(4)).is_empty());
        // Survivors keep running.
        let running = ids
            .iter()
            .filter(|&&id| e.state(id) == Some(JobState::Running))
            .count();
        assert_eq!(running, 6);
        assert_eq!(e.stats().failed, 6);
    }

    #[test]
    fn failed_node_takes_no_new_work_until_undrained() {
        let mut e = engine(1);
        let a = e.submit(sim(), SimTime::ZERO);
        e.advance(SimTime::from_secs(1));
        e.fail_node(0, SimTime::from_secs(2));
        assert_eq!(e.state(a), Some(JobState::Failed));
        let b = e.submit(sim(), SimTime::from_secs(3));
        e.advance(SimTime::from_secs(4));
        assert_eq!(
            e.state(b),
            Some(JobState::Queued),
            "drained node rejects work"
        );
        e.undrain(0);
        e.advance(SimTime::from_secs(5));
        assert_eq!(e.state(b), Some(JobState::Running));
    }

    /// Regression: calling `fail_node` twice on the same still-drained
    /// node used to re-emit the `node.failed` trace event and bump the
    /// `sched.node_failures` counter a second time, so chaos plans with
    /// repeated fail events over-reported failures. Minimal plan:
    /// `fail-node t0 0` + `fail-node t1 0` with no repair in between.
    #[test]
    fn double_fail_node_counts_once() {
        let mut e = engine(2);
        let tracer = trace::Tracer::enabled();
        e.set_tracer(tracer.clone());
        for _ in 0..12 {
            e.submit(sim(), SimTime::ZERO);
        }
        e.advance(SimTime::from_secs(1));

        let first = e.fail_node(0, SimTime::from_secs(2));
        assert_eq!(first.len(), 6);
        let second = e.fail_node(0, SimTime::from_secs(3));
        assert!(second.is_empty(), "second fail is a no-op");

        assert_eq!(e.stats().failed, 6, "no double-counted failures");
        let node_failed_events = tracer
            .events()
            .iter()
            .filter(|ev| ev.name == "node.failed")
            .count();
        assert_eq!(node_failed_events, 1, "node.failed traced exactly once");
        let counters = tracer.metrics_snapshot().counters;
        let node_failures = counters
            .iter()
            .find(|(k, _)| k == "sched.node_failures")
            .map(|&(_, v)| v);
        assert_eq!(node_failures, Some(1));
        // Crash notifications are delivered exactly once.
        let events = e.advance(SimTime::from_secs(4));
        assert_eq!(events.len(), 6);
        assert!(e.advance(SimTime::from_secs(5)).is_empty());
    }

    #[test]
    fn repaired_node_can_fail_again() {
        let mut e = engine(1);
        let a = e.submit(sim(), SimTime::ZERO);
        e.advance(SimTime::from_secs(1));
        e.fail_node(0, SimTime::from_secs(2));
        assert_eq!(e.state(a), Some(JobState::Failed));
        e.undrain(0);
        let b = e.submit(sim(), SimTime::from_secs(3));
        e.advance(SimTime::from_secs(4));
        assert_eq!(e.state(b), Some(JobState::Running));
        // The repaired node fails anew: this is a fresh failure, counted.
        let victims = e.fail_node(0, SimTime::from_secs(5));
        assert_eq!(victims.len(), 1);
        assert_eq!(e.stats().failed, 2);
    }

    #[test]
    fn hung_job_never_completes_until_canceled() {
        let mut e = engine(1);
        let id = e.submit(sim(), SimTime::ZERO);
        e.advance(SimTime::from_secs(1));
        assert_eq!(e.state(id), Some(JobState::Running));

        let hung = e.hang_running(JobClass::CgSim, SimTime::from_secs(2));
        assert_eq!(hung, Some(id));
        // No second job of the class is running, so a repeat finds nothing.
        assert_eq!(e.hang_running(JobClass::CgSim, SimTime::from_secs(2)), None);

        // Long past its runtime the job is still holding its GPUs.
        let ev = e.advance(SimTime::from_hours(3));
        assert!(ev.is_empty(), "hung job must not finish: {ev:?}");
        assert_eq!(e.state(id), Some(JobState::Running));
        assert!(e.graph().gpu_usage().0 > 0);
        assert_eq!(e.stats().completed, 0);

        // Cancel (the WM timeout path) reclaims the resources.
        assert!(e.cancel(id));
        assert_eq!(e.state(id), Some(JobState::Canceled));
        assert_eq!(e.graph().gpu_usage().0, 0);
        // The suppressed completion stays suppressed after cancel too.
        assert!(e.advance(SimTime::from_hours(4)).is_empty());
    }

    #[test]
    fn hung_job_release_does_not_bound_backfill() {
        // One node: a 10-minute sim that hangs and five 100-minute sims
        // fill its GPUs. A queued sim then blocks, and a 50-minute CPU
        // set-up behind it may backfill only if the head's reservation
        // sits at the 100-minute releases: the hung sim's 10-minute
        // release will never come and must not count.
        for policy in [SchedPolicy::BackfillEasy, SchedPolicy::BackfillConservative] {
            let mut e = engine(1);
            e.set_sched_policy(policy);
            let spec =
                |class, shape, mins| JobSpec::new(class, shape, SimDuration::from_mins(mins));
            let short = e.submit(
                spec(JobClass::CgSim, JobShape::sim_standard(), 10),
                SimTime::ZERO,
            );
            for _ in 0..5 {
                e.submit(
                    spec(JobClass::CgSim, JobShape::sim_standard(), 100),
                    SimTime::ZERO,
                );
            }
            e.advance(SimTime::from_secs(1));
            assert_eq!(
                e.hang_running(JobClass::CgSim, SimTime::from_secs(1)),
                Some(short)
            );
            let t = SimTime::from_secs(2);
            let head = e.submit(spec(JobClass::CgSim, JobShape::sim_standard(), 30), t);
            let setup = e.submit(spec(JobClass::CgSetup, JobShape::setup(), 50), t);
            e.advance(SimTime::from_secs(3));
            assert_eq!(e.state(head), Some(JobState::Queued), "[{}]", policy.name());
            assert_eq!(
                e.state(setup),
                Some(JobState::Running),
                "[{}]",
                policy.name()
            );
            assert_eq!(e.stats().backfills, 1, "[{}]", policy.name());
        }
    }

    #[test]
    fn undelivered_events_reports_pending_crash_notices() {
        let mut e = engine(1);
        e.submit(sim(), SimTime::ZERO);
        e.advance(SimTime::from_secs(1));
        assert_eq!(e.undelivered_events(), 0);
        e.fail_node(0, SimTime::from_secs(2));
        assert_eq!(e.undelivered_events(), 1);
        e.advance(SimTime::from_secs(3));
        assert_eq!(e.undelivered_events(), 0);
    }

    #[test]
    fn stale_completion_of_crashed_job_is_ignored() {
        let mut e = engine(1);
        e.submit(sim(), SimTime::ZERO);
        e.advance(SimTime::from_secs(1));
        e.fail_node(0, SimTime::from_secs(2));
        e.advance(SimTime::from_secs(3));
        // The original completion (at t=1h+) must not fire again.
        let late = e.advance(SimTime::from_hours(2));
        assert!(late.is_empty(), "unexpected events: {late:?}");
        assert_eq!(e.stats().completed, 0);
        assert_eq!(e.stats().failed, 1);
    }
}
