//! The Workflow Manager (§4.4).
//!
//! "MuMMI is coordinated by a configurable Workflow Manager. Generically,
//! the role of the WM is to couple the scales by consuming relevant data,
//! supporting ML-based selection, spawning the corresponding simulations,
//! and facilitating a feedback loop." The WM here performs the paper's
//! four tasks against a [`sched::SchedEngine`] and any
//! [`datastore::DataStore`]:
//!
//! 1. coarse-data processing is fed in by the driver through
//!    [`WorkflowManager::add_patch_candidates_from`] /
//!    [`WorkflowManager::add_frame_candidates_from`] (the
//!    [`crate::PatchCreator`] produces them from snapshots);
//! 2. selection happens on demand when resources free up, through the
//!    configured samplers;
//! 3. job management keeps the GPU partition full: setup jobs keep the
//!    ready buffers stocked, simulations are spawned unbundled (one GPU
//!    each), failures are resubmitted;
//! 4. feedback iterations run on a fixed cadence and report aggregated
//!    parameters as [`WmEvent`]s for the driver to apply.
//!
//! Each promoted scale is one *stage*: a selector and its replayable
//! history, a setup and a simulation [`JobTracker`], the ready queue
//! between them, and a Figure 6 timeline. The WM holds one stage per
//! selector it is built with, in promotion order (stage 0: continuum
//! patches → CG, stage 1: CG frames → AA), and every phase of a cycle
//! walks that list once. A one-scale application passes one selector and
//! has no second stage.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use continuum::CouplingParams;
use datastore::DataStore;
use dynim::{HdPoint, History, HistoryEvent, Sampler};
use resources::JobShape;
use sched::{JobClass, JobEvent, JobId, SchedEngine, Throttle};
use simcore::{OccupancyProfiler, OccupancySample, SimTime, Timeline};
use trace::Tracer;

use crate::config::WmConfig;
use crate::feedback::{AaToCgFeedback, CgParams, CgToContinuumFeedback, FeedbackManager};
use crate::tracker::{JobTracker, PayloadId, Tracked, TrackerConfig};

/// Notifications the WM hands back to its driver. `stage` indexes the
/// WM's stages in promotion order (0 = CG, 1 = AA).
#[derive(Debug, Clone, PartialEq)]
pub enum WmEvent {
    /// A setup job (createsim for CG, backmapping for AA) finished; its
    /// system is ready to simulate.
    SetupDone {
        /// Which stage.
        stage: usize,
        /// The source patch or frame id.
        payload: PayloadId,
    },
    /// A simulation was placed on a GPU.
    SimStarted {
        /// Which stage.
        stage: usize,
        /// Scheduler job id.
        job: JobId,
        /// Simulation id (= the source patch or frame id).
        sim_id: PayloadId,
    },
    /// A simulation finished.
    SimFinished {
        /// Which stage.
        stage: usize,
        /// Simulation id.
        sim_id: PayloadId,
    },
    /// A job failed and was resubmitted.
    JobResubmitted {
        /// Which class failed.
        class: JobClass,
        /// Application payload.
        payload: PayloadId,
    },
    /// A payload exhausted its resubmission budget and was permanently
    /// given up on (terminal — it will never be submitted again).
    JobAbandoned {
        /// Which class gave up.
        class: JobClass,
        /// Application payload.
        payload: PayloadId,
    },
    /// CG→continuum feedback produced updated coupling parameters.
    CouplingUpdated(CouplingParams),
    /// AA→CG feedback produced updated CG parameters.
    CgParamsUpdated(CgParams),
}

/// WM lifetime counters. The per-scale fields read stage 0 (`patches`,
/// `cg`) and stage 1 (`frames`, `aa`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WmStats {
    /// Patch candidates ingested.
    pub patches_ingested: u64,
    /// CG-frame candidates ingested.
    pub frames_ingested: u64,
    /// Patches selected for CG promotion.
    pub cg_selected: u64,
    /// Frames selected for AA promotion.
    pub aa_selected: u64,
    /// CG simulations started.
    pub cg_sims_started: u64,
    /// AA simulations started.
    pub aa_sims_started: u64,
    /// CG simulations completed.
    pub cg_sims_completed: u64,
    /// AA simulations completed.
    pub aa_sims_completed: u64,
    /// Feedback iterations run.
    pub feedback_iterations: u64,
    /// Frames folded in by feedback (both kinds).
    pub feedback_frames: u64,
    /// Jobs canceled by the timeout watchdog (presumed hung).
    pub jobs_timed_out: u64,
    /// Payloads permanently abandoned after exhausting resubmits.
    pub jobs_abandoned: u64,
}

impl WmStats {
    /// The twelve counters in declaration (= checkpoint text) order.
    pub fn fields(&self) -> [u64; 12] {
        let mut stats = *self;
        stats.fields_mut().map(|n| *n)
    }

    fn fields_mut(&mut self) -> [&mut u64; 12] {
        [
            &mut self.patches_ingested,
            &mut self.frames_ingested,
            &mut self.cg_selected,
            &mut self.aa_selected,
            &mut self.cg_sims_started,
            &mut self.aa_sims_started,
            &mut self.cg_sims_completed,
            &mut self.aa_sims_completed,
            &mut self.feedback_iterations,
            &mut self.feedback_frames,
            &mut self.jobs_timed_out,
            &mut self.jobs_abandoned,
        ]
    }

    /// Stage `stage`'s counters under their per-scale names, indexed
    /// [`INGESTED`], [`SELECTED`], [`STARTED`], [`COMPLETED`]: the one place
    /// stage 0 maps to `patches`/`cg` and stage 1 to `frames`/`aa` (the
    /// per-scale fields alternate between them in declaration order).
    fn stage_mut(&mut self, stage: usize) -> [&mut u64; 4] {
        let [a, b, c, d, e, f, g, h, ..] = self.fields_mut();
        if stage == 0 {
            [a, c, e, g]
        } else {
            [b, d, f, h]
        }
    }
}

// A stage's counters: candidates ingested and selected, simulations
// started and completed.
const INGESTED: usize = 0;
const SELECTED: usize = 1;
const STARTED: usize = 2;
const COMPLETED: usize = 3;

/// One promoted scale: candidates are selected, set up, queued ready, and
/// simulated on one GPU each.
struct Stage {
    /// The stage's `wm.timeline` label (`"cg"`, `"aa"`).
    label: &'static str,
    selector: Box<dyn Sampler + Send>,
    /// The selector's mutation log — "elaborate history files that may be
    /// replayed exactly" (§4.4). Checkpointed, so a restarted WM rebuilds
    /// its exact ML-selection state.
    history: History,
    setup: JobTracker,
    sim: JobTracker,
    /// Payloads whose setup completed, awaiting a GPU (interned).
    ready: VecDeque<PayloadId>,
    /// Prepared-or-in-preparation systems to keep stocked.
    buffer: usize,
    /// Running/pending simulations over time (Figure 6 source data).
    timeline: Timeline,
    /// Lifetime counters, indexed [`INGESTED`] … [`COMPLETED`].
    counts: [u64; 4],
}

impl Stage {
    fn tracker(&mut self, sim: bool) -> &mut JobTracker {
        if sim {
            &mut self.sim
        } else {
            &mut self.setup
        }
    }
}

/// The workflow manager.
pub struct WorkflowManager {
    cfg: WmConfig,
    /// The scheduler the WM submits to and polls (Maestro's role, §4.3).
    engine: SchedEngine,
    /// The promoted scales, in promotion order.
    stages: Vec<Stage>,
    cg_feedback: CgToContinuumFeedback,
    aa_feedback: AaToCgFeedback,
    throttle: Throttle,
    profiler: OccupancyProfiler,
    next_feedback: SimTime,
    next_profile: SimTime,
    /// WM-wide counters; the per-scale ones live on the stages.
    stats: WmStats,
    rng: StdRng,
    /// Optional per-job runtime override: `(class, payload) -> runtime`.
    /// The campaign driver installs one so a simulation's virtual runtime
    /// reflects its remaining target length at its sampled throughput.
    runtime_model: Option<RuntimeModel>,
    /// Trace sink for WM loop, feedback, selection, and profile records
    /// (disabled by default).
    tracer: Tracer,
}

/// Computes a job's virtual runtime from its class and payload.
pub type RuntimeModel = Box<dyn FnMut(JobClass, &str) -> Option<simcore::SimDuration> + Send>;

impl WorkflowManager {
    /// Assembles a WM over a scheduler and one selector per promoted scale:
    /// one (patches → CG) or two (then CG frames → AA).
    ///
    /// # Panics
    /// If `selectors` holds neither one nor two samplers.
    pub fn new(
        cfg: WmConfig,
        engine: SchedEngine,
        selectors: Vec<Box<dyn Sampler + Send>>,
        n_species: usize,
    ) -> WorkflowManager {
        assert!(
            matches!(selectors.len(), 1 | 2),
            "one selector per promoted scale (CG, then AA), got {}",
            selectors.len()
        );
        let tracker = |class, shape, runtime| {
            JobTracker::new(TrackerConfig {
                runtime_jitter: 0.2,
                failure_prob: cfg.job_failure_prob,
                max_resubmits: cfg.max_resubmits,
                timeout_grace: cfg.job_timeout_grace,
                ..TrackerConfig::new(class, shape, runtime)
            })
        };
        let scales = [
            (
                "cg",
                tracker(JobClass::CgSetup, JobShape::setup(), cfg.cg_setup_runtime),
                tracker(
                    JobClass::CgSim,
                    JobShape::sim_standard(),
                    cfg.cg_sim_runtime,
                ),
                cfg.cg_ready_buffer,
            ),
            (
                "aa",
                tracker(JobClass::AaSetup, JobShape::setup(), cfg.aa_setup_runtime),
                tracker(
                    JobClass::AaSim,
                    JobShape::sim_standard(),
                    cfg.aa_sim_runtime,
                ),
                cfg.aa_ready_buffer,
            ),
        ];
        let stages = selectors
            .into_iter()
            .zip(scales)
            .map(|(selector, (label, setup, sim, buffer))| Stage {
                label,
                selector,
                history: History::new(),
                setup,
                sim,
                ready: VecDeque::new(),
                buffer,
                timeline: Timeline::new(),
                counts: [0; 4],
            })
            .collect();
        WorkflowManager {
            stages,
            cg_feedback: CgToContinuumFeedback::new(n_species),
            aa_feedback: AaToCgFeedback::new(),
            throttle: Throttle::per_minute(cfg.submit_rate_per_min),
            profiler: OccupancyProfiler::new(),
            next_feedback: SimTime::ZERO + cfg.feedback_interval,
            next_profile: SimTime::ZERO,
            stats: WmStats::default(),
            rng: StdRng::seed_from_u64(cfg.seed),
            engine,
            cfg,
            runtime_model: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a tracer; the WM records its loop, feedback rounds,
    /// selections, and profile samples on it. Install the same handle on
    /// the scheduler ([`sched::SchedEngine::set_tracer`]) to get the
    /// job-lifecycle records in the same trace.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs a per-job runtime model (returns `None` to fall back to the
    /// tracker's configured runtime).
    pub fn set_runtime_model(&mut self, model: RuntimeModel) {
        self.runtime_model = Some(model);
    }

    /// The scheduler (e.g. for occupancy queries by the driver).
    pub fn launcher(&self) -> &SchedEngine {
        &self.engine
    }

    /// Mutable scheduler access, for jobs the WM does not manage itself
    /// (e.g. the campaign's single continuum job).
    pub fn launcher_mut(&mut self) -> &mut SchedEngine {
        &mut self.engine
    }

    /// Lifetime counters: the WM-wide ones plus each stage's, under the
    /// per-scale names (a missing stage reads zero).
    pub fn stats(&self) -> WmStats {
        let mut stats = self.stats;
        for (i, st) in self.stages.iter().enumerate() {
            for (field, n) in stats.stage_mut(i).into_iter().zip(st.counts) {
                *field = n;
            }
        }
        stats
    }

    /// Every job tracker in the fixed visiting order: each stage's setup
    /// then simulation tracker, stage by stage.
    fn trackers(&self) -> impl Iterator<Item = &JobTracker> {
        self.stages.iter().flat_map(|s| [&s.setup, &s.sim])
    }

    /// Aggregate accounting over all job trackers, for end-of-run
    /// reconciliation against the scheduler's own counters.
    pub fn tracker_totals(&self) -> TrackerTotals {
        let mut t = TrackerTotals::default();
        for tr in self.trackers() {
            let (s, c, f) = tr.counters();
            t.submitted += s;
            t.completed += c;
            t.failed += f;
            t.timed_out += tr.timed_out();
            t.live += tr.live_count() as u64;
        }
        t
    }

    /// The next feedback and profile due-times, for carrying the cadence
    /// across a WM crash within one allocation (deliberately not part of
    /// [`WmCheckpoint`]: a restore on a *new* allocation starts its
    /// cadence from that allocation's own clock).
    pub fn cadence(&self) -> (SimTime, SimTime) {
        (self.next_feedback, self.next_profile)
    }

    /// Restores the feedback/profile cadence (see [`WorkflowManager::cadence`]).
    pub fn set_cadence(&mut self, next_feedback: SimTime, next_profile: SimTime) {
        self.next_feedback = next_feedback;
        self.next_profile = next_profile;
    }

    /// The occupancy profiler (Figure 5 source data).
    pub fn profiler(&self) -> &OccupancyProfiler {
        &self.profiler
    }

    /// Running/pending timeline of one stage's GPU jobs (Figure 6 source
    /// data).
    pub fn timeline(&self, stage: usize) -> &Timeline {
        &self.stages[stage].timeline
    }

    /// Patch candidates waiting in the selector.
    pub fn patch_candidates(&self) -> usize {
        self.stages[0].selector.candidates()
    }

    /// Ingests new patch candidates (Task 1 output) into stage 0, draining
    /// a caller-owned buffer so a driver loop can reuse one allocation
    /// across ticks.
    pub fn add_patch_candidates_from(&mut self, points: &mut Vec<HdPoint>) {
        self.ingest(0, points);
    }

    /// Ingests new CG-frame candidates (from the distributed CG analyses)
    /// into stage 1 (see [`WorkflowManager::add_patch_candidates_from`]).
    ///
    /// # Panics
    /// If the WM was built with one stage.
    pub fn add_frame_candidates_from(&mut self, points: &mut Vec<HdPoint>) {
        self.ingest(1, points);
    }

    fn ingest(&mut self, stage: usize, points: &mut Vec<HdPoint>) {
        let st = &mut self.stages[stage];
        st.counts[INGESTED] += points.len() as u64;
        for p in points.drain(..) {
            if self.cfg.record_history {
                st.history.record_add(&p);
            }
            st.selector.add(p);
        }
    }

    /// The earliest instant after `now` at which a [`WorkflowManager::tick`]
    /// would do anything: the scheduler's next event, the feedback or
    /// profile cadence, or the hang-watchdog's next deadline. Event-driven
    /// drivers jump the clock to the minimum of this and their own event
    /// sources instead of polling on a fixed interval.
    ///
    /// The instant is conservative (waking the WM early is harmless — an
    /// undue tick is a cheap no-op) but never late: no tracked state
    /// changes strictly before the returned time.
    pub fn next_wakeup(&self, now: SimTime) -> SimTime {
        let eps = simcore::SimDuration::from_micros(1);
        let mut next = self.next_feedback.min(self.next_profile);
        if let Some(t) = self.engine.next_wakeup() {
            next = next.min(t);
        }
        for deadline in self.trackers().filter_map(JobTracker::earliest_timeout) {
            // `expire_overdue` uses a strict comparison, so the job is
            // only reclaimable just past its deadline.
            next = next.min(deadline + eps);
        }
        next.max(now + eps)
    }

    /// One WM cycle at time `now`: poll jobs, replace finished ones, keep
    /// buffers stocked, run feedback and profiling when due.
    pub fn tick(&mut self, now: SimTime, store: &mut dyn DataStore) -> Vec<WmEvent> {
        let mut events = Vec::new();
        self.tick_into(now, store, &mut events);
        events
    }

    /// [`WorkflowManager::tick`] writing into a caller-owned buffer
    /// (cleared first), so a driver loop can reuse one allocation across
    /// ticks instead of constructing a fresh `Vec` per cycle.
    pub fn tick_into(
        &mut self,
        now: SimTime,
        store: &mut dyn DataStore,
        events: &mut Vec<WmEvent>,
    ) {
        self.tick_poll_phase(now, events);
        self.tick_maintain_phase(now, store, events);
    }

    /// The first half of a WM cycle: poll the scheduler and expire hung
    /// jobs. This phase never touches the data store. The split exists
    /// so a profiler can time the two halves separately (the benchmark's
    /// `mummi-core.poll_phase_s` / `maintain_phase_s`); finish the cycle
    /// with [`WorkflowManager::tick_maintain_phase`]. Running both phases
    /// back-to-back is exactly [`WorkflowManager::tick_into`]: the split
    /// point is between statements of the cycle, and each phase
    /// consumes the WM's RNG and emits trace events in the same order as
    /// the unsplit tick.
    pub fn tick_poll_phase(&mut self, now: SimTime, events: &mut Vec<WmEvent>) {
        // Keep the tracer clock current so emitters without a time
        // parameter (datastore ops, cancellations) stamp correctly.
        self.tracer.set_now(now);
        self.tracer.instant_at(now, "wm", "wm.tick", &[]);
        events.clear();
        self.poll_jobs(now, events);
        self.expire_hung_jobs(now, events);
    }

    /// The second half of a WM cycle: replace finished simulations, keep
    /// the ready buffers stocked, and run feedback/profiling when due.
    /// Appends to `events` after [`WorkflowManager::tick_poll_phase`]'s
    /// output (it does not clear the buffer). Needs the store: feedback
    /// reads analyzed frames and writes the updated sampling weights.
    pub fn tick_maintain_phase(
        &mut self,
        now: SimTime,
        store: &mut dyn DataStore,
        events: &mut Vec<WmEvent>,
    ) {
        self.maintain_sims(now);
        self.maintain_setups(now);
        self.run_feedback(now, store, events);
        self.sample_profile(now);
    }

    /// Task 3: scan all running jobs, determine completion, route events.
    fn poll_jobs(&mut self, now: SimTime, events: &mut Vec<WmEvent>) {
        let raw = self.engine.advance(now);
        for ev in &raw {
            let Some((stage, sim, class, tracked)) = self.route(ev) else {
                continue;
            };
            match tracked {
                Tracked::Started { job, payload } if sim => {
                    self.stages[stage].counts[STARTED] += 1;
                    events.push(WmEvent::SimStarted {
                        stage,
                        job,
                        sim_id: payload,
                    });
                }
                Tracked::Started { .. } => {}
                Tracked::Done { payload } if sim => {
                    self.stages[stage].counts[COMPLETED] += 1;
                    events.push(WmEvent::SimFinished {
                        stage,
                        sim_id: payload,
                    });
                }
                Tracked::Done { payload } => {
                    self.stages[stage].ready.push_back(payload.clone());
                    events.push(WmEvent::SetupDone { stage, payload });
                }
                failed => self.settle_failure(now, class, failed, false, events),
            }
        }
    }

    /// Hands a scheduler event to the one tracker that owns it, asking
    /// them in the fixed visiting order. Returns the owner's stage,
    /// whether it is the simulation tracker, and its class.
    fn route(&mut self, ev: &JobEvent) -> Option<(usize, bool, JobClass, Tracked)> {
        for (stage, st) in self.stages.iter_mut().enumerate() {
            for sim in [false, true] {
                let tracker = st.tracker(sim);
                if let Some(t) = tracker.on_event(&mut self.engine, ev, &mut self.rng) {
                    return Some((stage, sim, tracker.class(), t));
                }
            }
        }
        None
    }

    /// The §4.4 hang watchdog: cancel-and-resubmit any placed job that
    /// has overstayed `job_timeout_grace` times its submitted runtime.
    /// Disabled when the grace factor is zero.
    fn expire_hung_jobs(&mut self, now: SimTime, events: &mut Vec<WmEvent>) {
        if self.cfg.job_timeout_grace <= 0.0 {
            return;
        }
        // Iterate trackers in the fixed order (determinism contract).
        for stage in 0..self.stages.len() {
            for sim in [false, true] {
                let tracker = self.stages[stage].tracker(sim);
                let class = tracker.class();
                let expired = tracker.expire_overdue(&mut self.engine, now, &mut self.rng);
                for tracked in expired {
                    self.stats.jobs_timed_out += 1;
                    self.settle_failure(now, class, tracked, true, events);
                }
            }
        }
    }

    /// Reports a failed or timed-out job, which the tracker either
    /// resubmitted or gave up on for good. A timeout is traced as
    /// `wm.timeout`, a resubmitted failure as `wm.resubmit`; abandonment is
    /// terminal — the payload is never submitted again — and traced as
    /// `wm.gave_up`, so lost work is visible rather than silently dropped.
    fn settle_failure(
        &mut self,
        now: SimTime,
        class: JobClass,
        failed: Tracked,
        timed_out: bool,
        events: &mut Vec<WmEvent>,
    ) {
        let (payload, attempt) = match failed {
            Tracked::Resubmitted { payload, attempt } => (payload, Some(attempt)),
            Tracked::Abandoned { payload } => (payload, None),
            Tracked::Started { .. } | Tracked::Done { .. } => return,
        };
        let args = [
            ("class", class.label().into()),
            ("payload", (&*payload).into()),
            ("attempt", attempt.unwrap_or(0).into()),
        ];
        let args = if attempt.is_some() {
            &args[..]
        } else {
            &args[..2]
        };
        if timed_out {
            self.tracer.instant_at(now, "wm", "wm.timeout", args);
            self.tracer.counter_add("wm.timeouts", 1);
        }
        match attempt {
            Some(_) => {
                if !timed_out {
                    self.tracer.instant_at(now, "wm", "wm.resubmit", args);
                    self.tracer.counter_add("wm.resubmits", 1);
                }
                events.push(WmEvent::JobResubmitted { class, payload });
            }
            None => {
                self.stats.jobs_abandoned += 1;
                self.tracer.instant_at(now, "wm", "wm.gave_up", args);
                self.tracer.counter_add("wm.gave_up", 1);
                events.push(WmEvent::JobAbandoned { class, payload });
            }
        }
    }

    /// Keep the GPU partition full: spawn simulations from the ready
    /// buffers up to each stage's GPU target. Started events arrive via
    /// poll on placement.
    fn maintain_sims(&mut self, now: SimTime) {
        let (_, total_gpus) = self.engine.graph().gpu_usage();
        let (cg_target, aa_target) = self.cfg.gpu_targets(total_gpus);
        for (st, target) in self.stages.iter_mut().zip([cg_target, aa_target]) {
            loop {
                let (running, pending) = self.engine.class_counts(st.sim.class());
                if running + pending >= target {
                    break;
                }
                let Some(sim_id) = st.ready.pop_front() else {
                    break;
                };
                let at = self.throttle.reserve(now);
                let runtime = self
                    .runtime_model
                    .as_mut()
                    .and_then(|m| m(st.sim.class(), &sim_id));
                st.sim
                    .submit(&mut self.engine, sim_id, at, runtime, &mut self.rng);
            }
        }
    }

    /// CPU cores not yet spoken for: free cores minus the cores committed
    /// to still-pending jobs. Setup jobs are only submitted against real
    /// headroom — the paper's WM "submits new jobs … to re-engage
    /// resources as soon as they become available", and under FCFS without
    /// backfilling an unplaceable setup at the queue head would convoy
    /// every simulation behind it.
    fn cpu_headroom(&self) -> i64 {
        let (used, total) = self.engine.graph().cpu_usage();
        let setup_cores = JobShape::setup().total_cores();
        let sim_cores = JobShape::sim_standard().total_cores();
        let committed: u64 = self
            .stages
            .iter()
            .map(|s| {
                self.engine.class_counts(s.setup.class()).1 * setup_cores
                    + self.engine.class_counts(s.sim.class()).1 * sim_cores
            })
            .sum();
        total as i64 - used as i64 - committed as i64
    }

    /// Keep the ready buffers stocked: select new patches/frames and spawn
    /// setup jobs. "To prevent GPU downtime, sets of CG and AA simulations
    /// are kept prepared in anticipation."
    fn maintain_setups(&mut self, now: SimTime) {
        let setup_cores = JobShape::setup().total_cores() as i64;
        for stage in 0..self.stages.len() {
            loop {
                let st = &self.stages[stage];
                let (running, pending) = self.engine.class_counts(st.setup.class());
                if st.ready.len() + (running + pending) as usize >= st.buffer
                    || self.cpu_headroom() < setup_cores
                {
                    break;
                }
                let st = &mut self.stages[stage];
                let Some(pick) = st.selector.select(1).pop() else {
                    break;
                };
                if self.cfg.record_history {
                    st.history.record_select(&pick.id);
                }
                st.counts[SELECTED] += 1;
                self.tracer.instant_at(
                    now,
                    "wm",
                    "wm.select",
                    &[
                        ("class", st.setup.class().label().into()),
                        ("payload", pick.id.as_str().into()),
                    ],
                );
                self.tracer.counter_add("wm.selected", 1);
                let at = self.throttle.reserve(now);
                st.setup
                    .submit(&mut self.engine, pick.id.into(), at, None, &mut self.rng);
            }
        }
    }

    /// Task 4: run both feedback iterations when due.
    fn run_feedback(&mut self, now: SimTime, store: &mut dyn DataStore, events: &mut Vec<WmEvent>) {
        if now < self.next_feedback {
            return;
        }
        self.next_feedback = now + self.cfg.feedback_interval;
        self.stats.feedback_iterations += 1;
        if let Ok(out) = self.cg_feedback.iterate(store) {
            self.stats.feedback_frames += out.processed as u64;
            self.trace_feedback(now, "cg-continuum", &out);
            if out.processed > 0 {
                if let Some(params) = self.cg_feedback.report() {
                    events.push(WmEvent::CouplingUpdated(params));
                }
            }
        }
        if let Ok(out) = self.aa_feedback.iterate(store) {
            self.stats.feedback_frames += out.processed as u64;
            self.trace_feedback(now, "aa-cg", &out);
            if out.processed > 0 {
                if let Some(params) = self.aa_feedback.report() {
                    events.push(WmEvent::CgParamsUpdated(params));
                }
            }
        }
    }

    /// Records one feedback round on the trace.
    fn trace_feedback(&self, now: SimTime, manager: &str, out: &crate::feedback::FeedbackOutcome) {
        self.tracer.instant_at(
            now,
            "feedback",
            "feedback.round",
            &[
                ("manager", manager.into()),
                ("processed", out.processed.into()),
                ("corrupt", out.corrupt.into()),
            ],
        );
        self.tracer
            .counter_add("feedback.frames", out.processed as u64);
    }

    /// Record a profile event (Figures 5 and 6) when due.
    fn sample_profile(&mut self, now: SimTime) {
        if now < self.next_profile {
            return;
        }
        self.next_profile = now + self.cfg.profile_interval;
        let (gpus_used, gpus_total) = self.engine.graph().gpu_usage();
        let (cpus_used, cpus_total) = self.engine.graph().cpu_usage();
        self.profiler.record(OccupancySample {
            at: now,
            gpus_used,
            gpus_total,
            cpus_used,
            cpus_total,
        });
        // The `wm.profile` / `wm.timeline` records mirror the live
        // collectors exactly — `trace::derive` rebuilds the Figure 5/6
        // series from them, integer for integer.
        self.tracer.instant_at(
            now,
            "wm",
            "wm.profile",
            &[
                ("gpus_used", gpus_used.into()),
                ("gpus_total", gpus_total.into()),
                ("cpus_used", cpus_used.into()),
                ("cpus_total", cpus_total.into()),
            ],
        );
        if gpus_total > 0 {
            self.tracer.gauge_set(
                "wm.gpu_occupancy_pct",
                100.0 * gpus_used as f64 / gpus_total as f64,
            );
        }
        for st in &mut self.stages {
            let (running, pending) = self.engine.class_counts(st.sim.class());
            st.timeline.record(now, running, pending);
            self.tracer.instant_at(
                now,
                "wm",
                "wm.timeline",
                &[
                    ("class", st.label.into()),
                    ("running", running.into()),
                    ("pending", pending.into()),
                ],
            );
        }
    }

    /// Serializes restartable WM state: counters, ready buffers, and the
    /// selector histories (a missing stage writes none).
    pub fn checkpoint(&self) -> WmCheckpoint {
        let mut ckpt = WmCheckpoint {
            stats: self.stats(),
            ..WmCheckpoint::default()
        };
        let slots = [
            (&mut ckpt.cg_ready, &mut ckpt.patch_history),
            (&mut ckpt.aa_ready, &mut ckpt.frame_history),
        ];
        for (st, (ready, history)) in self.stages.iter().zip(slots) {
            *ready = st.ready.iter().map(|p| p.to_string()).collect();
            *history = st.history.compact().to_text();
        }
        ckpt
    }

    /// Restores counters, ready buffers, and selector state from a
    /// checkpoint. The histories are replayed into the (fresh) selectors,
    /// reconstructing their candidate queues and selected sets exactly.
    pub fn restore(&mut self, ckpt: &WmCheckpoint) {
        self.stats = ckpt.stats;
        let saved = [
            (&ckpt.cg_ready, &ckpt.patch_history),
            (&ckpt.aa_ready, &ckpt.frame_history),
        ];
        for (i, (st, (ready, history))) in self.stages.iter_mut().zip(saved).enumerate() {
            st.counts = self.stats.stage_mut(i).map(|n| *n);
            st.ready = ready.iter().map(|s| PayloadId::from(s.as_str())).collect();
            if let Some(h) = History::from_text(history) {
                h.replay(st.selector.as_mut());
                st.history = h;
            }
        }
    }
}

/// Aggregate accounting over the WM's job trackers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackerTotals {
    /// Jobs submitted (including resubmissions).
    pub submitted: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs that finished as failures.
    pub failed: u64,
    /// Jobs canceled by the timeout watchdog.
    pub timed_out: u64,
    /// Jobs still live (submitted or running).
    pub live: u64,
}

/// Restartable WM state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WmCheckpoint {
    /// Lifetime counters.
    pub stats: WmStats,
    /// Prepared CG systems awaiting GPUs.
    pub cg_ready: Vec<String>,
    /// Prepared AA systems awaiting GPUs.
    pub aa_ready: Vec<String>,
    /// Patch-selector mutation log (replayable).
    pub patch_history: String,
    /// Frame-selector mutation log (replayable).
    pub frame_history: String,
}

/// A typed error from [`WmCheckpoint::from_text`], carrying the offending
/// line so a corrupt checkpoint names its own problem instead of silently
/// restoring half a workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The raw line.
        content: String,
        /// What was wrong.
        reason: String,
    },
    /// The `stats` section appeared more than once.
    DuplicateStats {
        /// 1-based line number of the second occurrence.
        line: usize,
    },
    /// No `stats` section was found.
    MissingStats,
    /// The trailing `end <count>` line is missing (truncated file).
    MissingFooter,
    /// The footer count disagrees with the body lines actually present.
    CountMismatch {
        /// Lines the footer promised.
        expected: usize,
        /// Lines actually parsed.
        actual: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadLine {
                line,
                content,
                reason,
            } => write!(f, "checkpoint line {line}: {reason}: `{content}`"),
            CheckpointError::DuplicateStats { line } => {
                write!(f, "checkpoint line {line}: duplicated stats section")
            }
            CheckpointError::MissingStats => write!(f, "checkpoint has no stats line"),
            CheckpointError::MissingFooter => {
                write!(f, "checkpoint missing `end <count>` footer (truncated?)")
            }
            CheckpointError::CountMismatch { expected, actual } => write!(
                f,
                "checkpoint footer promised {expected} body lines, found {actual}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl WmCheckpoint {
    /// Serializes to a line-oriented text format, ending with a counted
    /// `end` footer so truncation is detectable.
    pub fn to_text(&self) -> String {
        let stats: Vec<String> = self.stats.fields().iter().map(u64::to_string).collect();
        let mut out = format!("stats {}\n", stats.join(" "));
        let body = (self.cg_ready.iter().map(|id| ("cg", id.as_str())))
            .chain(self.aa_ready.iter().map(|id| ("aa", id.as_str())))
            .chain(self.patch_history.lines().map(|line| ("ph", line)))
            .chain(self.frame_history.lines().map(|line| ("fh", line)));
        for (tag, line) in body {
            out.push_str(&format!("{tag} {line}\n"));
        }
        out.push_str(&format!("end {}\n", out.lines().count()));
        out
    }

    /// Parses the text format, naming the offending line on failure.
    pub fn from_text(text: &str) -> Result<WmCheckpoint, CheckpointError> {
        let mut stats: Option<WmStats> = None;
        let mut cg_ready = Vec::new();
        let mut aa_ready = Vec::new();
        let mut patch_history = String::new();
        let mut frame_history = String::new();
        // Coordinates per point of each history, fixed by its first point.
        let mut dims: [Option<usize>; 2] = [None, None];
        let mut body = 0usize;
        let mut footer: Option<usize> = None;
        for (idx, line) in text.lines().enumerate() {
            let bad = |reason: &str| CheckpointError::BadLine {
                line: idx + 1,
                content: line.to_string(),
                reason: reason.to_string(),
            };
            if footer.is_some() {
                return Err(bad("content after `end` footer"));
            }
            let (tag, rest) = line.split_once(' ').ok_or_else(|| bad("missing tag"))?;
            if tag == "end" {
                footer = Some(rest.parse().map_err(|_| bad("footer needs a line count"))?);
                continue;
            }
            body += 1;
            match tag {
                "stats" => {
                    if stats.is_some() {
                        return Err(CheckpointError::DuplicateStats { line: idx + 1 });
                    }
                    let v: Vec<u64> = rest
                        .split(' ')
                        .map(|x| x.parse().ok())
                        .collect::<Option<_>>()
                        .ok_or_else(|| bad("non-numeric stats field"))?;
                    if v.len() != 12 {
                        return Err(bad("stats needs exactly 12 fields"));
                    }
                    let mut parsed = WmStats::default();
                    for (field, n) in parsed.fields_mut().into_iter().zip(v) {
                        *field = n;
                    }
                    stats = Some(parsed);
                }
                "cg" => cg_ready.push(rest.to_string()),
                "aa" => aa_ready.push(rest.to_string()),
                "ph" | "fh" => {
                    let (history, dim, what) = if tag == "ph" {
                        (&mut patch_history, &mut dims[0], "patch")
                    } else {
                        (&mut frame_history, &mut dims[1], "frame")
                    };
                    let record = History::from_text(rest)
                        .ok_or_else(|| bad(&format!("unreplayable {what}-history record")))?;
                    // A selector holds its points in one space: replaying a
                    // point of another dimensionality would panic in it.
                    if let Some(HistoryEvent::Added(p)) = record.events().first() {
                        if *dim.get_or_insert(p.dim()) != p.dim() {
                            return Err(bad(&format!(
                                "{what}-history point dimensionality differs from the first"
                            )));
                        }
                    }
                    history.push_str(rest);
                    history.push('\n');
                }
                _ => return Err(bad("unknown checkpoint field")),
            }
        }
        let expected = footer.ok_or(CheckpointError::MissingFooter)?;
        if expected != body {
            return Err(CheckpointError::CountMismatch {
                expected,
                actual: body,
            });
        }
        let stats = stats.ok_or(CheckpointError::MissingStats)?;
        Ok(WmCheckpoint {
            stats,
            cg_ready,
            aa_ready,
            patch_history,
            frame_history,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::{DataStore, KvDataStore};
    use dynim::{BinnedConfig, BinnedSampler, ExactNn, FarthestPointSampler, FpsConfig};
    use resources::{MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};
    use sched::{Costs, Coupling, SchedEngine};
    use simcore::SimDuration;

    fn engine(nodes: u32) -> SchedEngine {
        SchedEngine::new(
            ResourceGraph::new(MachineSpec::custom("t", nodes, NodeSpec::summit())),
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        )
    }

    fn patch_selector() -> Box<dyn Sampler + Send> {
        Box::new(FarthestPointSampler::new(
            FpsConfig { cap: 0 },
            ExactNn::new(),
        ))
    }

    fn wm(nodes: u32, cfg: WmConfig) -> WorkflowManager {
        let frame_selector = Box::new(BinnedSampler::new(BinnedConfig::cg_frames()));
        WorkflowManager::new(
            cfg,
            engine(nodes),
            vec![patch_selector(), frame_selector],
            2,
        )
    }

    fn patch_points(n: usize, offset: usize) -> Vec<HdPoint> {
        (0..n)
            .map(|i| {
                let v = (offset + i) as f64;
                HdPoint::new(
                    format!("p{}", offset + i),
                    vec![v * 0.31 % 7.0, v * 0.17 % 3.0],
                )
            })
            .collect()
    }

    fn frame_points(n: usize) -> Vec<HdPoint> {
        (0..n)
            .map(|i| {
                let v = i as f64 / n as f64;
                HdPoint::new(format!("f{i}"), vec![v, 1.0 - v, 0.5])
            })
            .collect()
    }

    /// Drives the WM for `hours` of virtual time at the poll interval.
    fn drive(wm: &mut WorkflowManager, store: &mut dyn DataStore, hours: u64) -> Vec<WmEvent> {
        let mut all = Vec::new();
        let mut t = SimTime::ZERO;
        let end = SimTime::from_hours(hours);
        while t <= end {
            all.extend(wm.tick(t, store));
            t += wm.cfg.poll_interval;
        }
        all
    }

    #[test]
    fn wm_fills_gpus_from_candidates() {
        let mut m = wm(2, WmConfig::test_scale()); // 12 GPUs
        let mut store = KvDataStore::new(4);
        m.add_patch_candidates_from(&mut patch_points(50, 0));
        m.add_frame_candidates_from(&mut frame_points(50));
        let events = drive(&mut m, &mut store, 2);

        let stats = m.stats();
        assert!(stats.cg_selected > 0, "patches were selected");
        assert!(stats.aa_selected > 0, "frames were selected");
        assert!(stats.cg_sims_started > 0, "CG sims started");
        assert!(stats.aa_sims_started > 0, "AA sims started");
        // GPU partition respected: at most 8 CG (70% of 12) at once.
        let (cg_run, _) = m.launcher().class_counts(JobClass::CgSim);
        assert!(cg_run <= 8, "CG target respected: {cg_run}");
        assert!(events
            .iter()
            .any(|e| matches!(e, WmEvent::SetupDone { stage: 0, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, WmEvent::SimStarted { stage: 0, .. })));
    }

    #[test]
    fn sims_complete_and_are_replaced() {
        let mut cfg = WmConfig::test_scale();
        cfg.cg_sim_runtime = SimDuration::from_mins(10);
        let mut m = wm(1, cfg);
        let mut store = KvDataStore::new(4);
        m.add_patch_candidates_from(&mut patch_points(100, 0));
        drive(&mut m, &mut store, 6);
        let stats = m.stats();
        assert!(stats.cg_sims_completed >= 3, "turnover expected: {stats:?}");
        assert!(stats.cg_sims_started > stats.cg_sims_completed.saturating_sub(1));
    }

    #[test]
    fn feedback_runs_on_cadence_and_reports() {
        let mut m = wm(1, WmConfig::test_scale());
        let mut store = KvDataStore::new(4);
        // Plant feedback data.
        let frame = cg::analysis::CgFrame {
            id: "s:f0".into(),
            time: 0.0,
            encoding: [0.2, 0.4, 0.6],
            rdfs: vec![vec![2.0; 10], vec![0.5; 10]],
        };
        store
            .write(crate::ns::RDF_NEW, &frame.id, &frame.encode())
            .unwrap();
        let events = drive(&mut m, &mut store, 1);
        assert!(m.stats().feedback_iterations >= 2);
        assert!(events
            .iter()
            .any(|e| matches!(e, WmEvent::CouplingUpdated(_))));
        assert_eq!(store.count(crate::ns::RDF_NEW).unwrap(), 0);
    }

    #[test]
    fn failed_jobs_are_resubmitted() {
        let mut cfg = WmConfig::test_scale();
        cfg.job_failure_prob = 0.5;
        cfg.cg_sim_runtime = SimDuration::from_mins(5);
        let mut m = wm(1, cfg);
        let mut store = KvDataStore::new(4);
        m.add_patch_candidates_from(&mut patch_points(100, 0));
        let events = drive(&mut m, &mut store, 4);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, WmEvent::JobResubmitted { .. })),
            "with 50% failures some resubmissions must occur"
        );
    }

    #[test]
    fn permanently_failing_jobs_are_given_up_not_looped() {
        // Every job fails; with a budget of 1 resubmit per payload the WM
        // must abandon each payload after 2 attempts instead of
        // resubmitting forever.
        let mut cfg = WmConfig::test_scale();
        cfg.job_failure_prob = 1.0;
        cfg.max_resubmits = 1;
        cfg.cg_setup_runtime = SimDuration::from_mins(2);
        let mut m = wm(1, cfg);
        let mut store = KvDataStore::new(4);
        m.add_patch_candidates_from(&mut patch_points(6, 0));
        let events = drive(&mut m, &mut store, 8);
        let abandoned = events
            .iter()
            .filter(|e| matches!(e, WmEvent::JobAbandoned { .. }))
            .count();
        assert!(abandoned > 0, "doomed payloads must be abandoned");
        assert_eq!(m.stats().jobs_abandoned, abandoned as u64);
        // Bounded submissions: each payload gets at most 2 attempts, and
        // the selector holds only the 6 candidates we planted (plus any
        // setup still in flight when time ran out).
        let totals = m.tracker_totals();
        assert!(
            totals.submitted <= 2 * 6,
            "submissions must be bounded by the budget: {totals:?}"
        );
        assert_eq!(m.stats().cg_sims_started, 0, "nothing ever sets up");
    }

    #[test]
    fn hang_watchdog_recovers_stuck_sims() {
        let mut cfg = WmConfig::test_scale();
        cfg.job_timeout_grace = 1.5;
        cfg.cg_sim_runtime = SimDuration::from_mins(10);
        let mut m = wm(1, cfg);
        let mut store = KvDataStore::new(4);
        m.add_patch_candidates_from(&mut patch_points(30, 0));
        // Warm up until sims are running, then hang one.
        let mut t = SimTime::ZERO;
        while m.launcher().class_counts(JobClass::CgSim).0 == 0 {
            t += m.cfg.poll_interval;
            m.tick(t, &mut store);
            assert!(t < SimTime::from_hours(4), "sims never started");
        }
        m.launcher_mut().hang_running(JobClass::CgSim, t);
        // Drive long past the grace window; the watchdog must reclaim the
        // GPU and the workflow must keep completing sims.
        let end = t + SimDuration::from_hours(3);
        while t < end {
            t += m.cfg.poll_interval;
            m.tick(t, &mut store);
        }
        assert!(m.stats().jobs_timed_out >= 1, "watchdog fired");
        assert!(
            m.stats().cg_sims_completed > 0,
            "workflow kept making progress: {:?}",
            m.stats()
        );
    }

    #[test]
    fn profiler_records_occupancy_samples() {
        let mut m = wm(2, WmConfig::test_scale());
        let mut store = KvDataStore::new(4);
        m.add_patch_candidates_from(&mut patch_points(80, 0));
        m.add_frame_candidates_from(&mut frame_points(80));
        drive(&mut m, &mut store, 2);
        assert!(m.profiler().samples().len() >= 20);
        // Once warmed up, the GPU occupancy should be substantial.
        let late: Vec<f64> = m.profiler().gpu_series().into_iter().skip(12).collect();
        let mean = late.iter().sum::<f64>() / late.len().max(1) as f64;
        assert!(mean > 50.0, "late GPU occupancy should be high: {mean:.1}%");
        assert!(!m.timeline(0).points().is_empty());
    }

    #[test]
    fn buffers_respect_configured_targets() {
        let mut cfg = WmConfig::test_scale();
        cfg.cg_ready_buffer = 3;
        let mut m = wm(1, cfg);
        let mut store = KvDataStore::new(4);
        m.add_patch_candidates_from(&mut patch_points(100, 0));
        m.tick(SimTime::ZERO, &mut store);
        // In-flight setups never exceed the buffer target.
        let (r, p) = m.launcher().class_counts(JobClass::CgSetup);
        assert!(r + p <= 3, "setup in-flight {r}+{p} exceeds buffer");
    }

    #[test]
    fn checkpoint_roundtrip_restores_state() {
        let mut m = wm(1, WmConfig::test_scale());
        let mut store = KvDataStore::new(4);
        m.add_patch_candidates_from(&mut patch_points(30, 0));
        drive(&mut m, &mut store, 1);
        let ckpt = m.checkpoint();
        let text = ckpt.to_text();
        let parsed = WmCheckpoint::from_text(&text).unwrap();
        assert_eq!(parsed, ckpt);

        let mut fresh = wm(1, WmConfig::test_scale());
        fresh.restore(&parsed);
        assert_eq!(fresh.stats(), m.stats());
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        assert!(matches!(
            WmCheckpoint::from_text("bogus line"),
            Err(CheckpointError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            WmCheckpoint::from_text("stats 1 2"),
            Err(CheckpointError::BadLine { line: 1, .. })
        ));
    }

    /// A non-trivial checkpoint to corrupt: live buffers + histories.
    fn populated_checkpoint() -> WmCheckpoint {
        let mut m = wm(1, WmConfig::test_scale());
        let mut store = KvDataStore::new(4);
        m.add_patch_candidates_from(&mut patch_points(30, 0));
        drive(&mut m, &mut store, 1);
        let ckpt = m.checkpoint();
        assert!(!ckpt.patch_history.is_empty(), "want history to corrupt");
        ckpt
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let text = populated_checkpoint().to_text();
        // Drop the footer: the file looks complete but is not verifiable.
        let without_footer: Vec<&str> = text.lines().take(text.lines().count() - 1).collect();
        assert_eq!(
            WmCheckpoint::from_text(&(without_footer.join("\n") + "\n")).unwrap_err(),
            CheckpointError::MissingFooter
        );
        // Drop a body line but keep the footer: the count disagrees.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(1);
        assert!(matches!(
            WmCheckpoint::from_text(&(lines.join("\n") + "\n")).unwrap_err(),
            CheckpointError::CountMismatch { .. }
        ));
    }

    #[test]
    fn duplicated_stats_section_is_rejected() {
        let text = populated_checkpoint().to_text();
        let stats_line = text.lines().next().unwrap();
        let doubled = format!("{stats_line}\n{text}");
        assert!(matches!(
            WmCheckpoint::from_text(&doubled).unwrap_err(),
            CheckpointError::DuplicateStats { line: 2 }
        ));
    }

    #[test]
    fn unknown_field_names_the_offending_line() {
        let text = populated_checkpoint().to_text();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines.insert(2, "zz mystery".to_string());
        match WmCheckpoint::from_text(&(lines.join("\n") + "\n")).unwrap_err() {
            CheckpointError::BadLine {
                line,
                content,
                reason,
            } => {
                assert_eq!(line, 3);
                assert_eq!(content, "zz mystery");
                assert!(reason.contains("unknown"), "reason: {reason}");
            }
            e => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn corrupt_history_record_is_rejected() {
        let text = populated_checkpoint().to_text();
        let corrupted = text.replacen("ph A ", "ph Q ", 1);
        assert_ne!(corrupted, text, "expected an add record to corrupt");
        assert!(matches!(
            WmCheckpoint::from_text(&corrupted).unwrap_err(),
            CheckpointError::BadLine { .. }
        ));
    }

    #[test]
    fn no_candidates_means_no_jobs() {
        let mut m = wm(1, WmConfig::test_scale());
        let mut store = KvDataStore::new(4);
        drive(&mut m, &mut store, 1);
        assert_eq!(m.stats().cg_sims_started, 0);
        assert_eq!(m.stats().cg_selected, 0);
    }

    /// A one-scale ladder (continuum → CG) is one selector: no second
    /// stage exists, so no AA-class job is ever submitted.
    #[test]
    fn one_stage_ladder_promotes_only_to_cg() {
        let cfg = WmConfig {
            cg_gpu_fraction: 1.0,
            cg_sim_runtime: SimDuration::from_mins(10),
            ..WmConfig::test_scale()
        };
        let one_stage = || WorkflowManager::new(cfg.clone(), engine(1), vec![patch_selector()], 2);
        let mut m = one_stage();
        let mut store = KvDataStore::new(4);
        m.add_patch_candidates_from(&mut patch_points(60, 0));
        drive(&mut m, &mut store, 3);
        let stats = m.stats();
        assert!(stats.cg_sims_started > 0, "{stats:?}");
        assert!(stats.cg_sims_completed > 0, "{stats:?}");
        // Every job the scheduler ever saw came from the CG trackers.
        assert_eq!(m.launcher().stats().submitted, m.tracker_totals().submitted);
        for class in [JobClass::AaSetup, JobClass::AaSim] {
            assert_eq!(m.launcher().class_counts(class), (0, 0), "{class:?}");
        }

        let ckpt = m.checkpoint();
        assert!(ckpt.aa_ready.is_empty() && ckpt.frame_history.is_empty());
        let parsed = WmCheckpoint::from_text(&ckpt.to_text()).unwrap();
        assert_eq!(parsed, ckpt);
        let mut fresh = one_stage();
        fresh.restore(&parsed);
        assert_eq!(fresh.checkpoint(), ckpt);
    }
}
