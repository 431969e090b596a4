//! The Workflow Manager (§4.4).
//!
//! "MuMMI is coordinated by a configurable Workflow Manager. Generically,
//! the role of the WM is to couple the scales by consuming relevant data,
//! supporting ML-based selection, spawning the corresponding simulations,
//! and facilitating a feedback loop." The WM here performs the paper's
//! four tasks against any [`sched::Launcher`] and [`datastore::DataStore`]:
//!
//! 1. coarse-data processing is fed in by the driver through
//!    [`WorkflowManager::add_patch_candidates`] /
//!    [`WorkflowManager::add_frame_candidates`] (the [`crate::PatchCreator`]
//!    produces them from snapshots);
//! 2. selection happens on demand when resources free up, through the
//!    configured samplers;
//! 3. job management keeps the GPU partition full: setup jobs keep the
//!    ready buffers stocked, simulations are spawned unbundled (one GPU
//!    each), failures are resubmitted;
//! 4. feedback iterations run on a fixed cadence and report aggregated
//!    parameters as [`WmEvent`]s for the driver to apply.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use continuum::CouplingParams;
use datastore::DataStore;
use dynim::{HdPoint, History, Sampler};
use resources::JobShape;
use sched::{JobClass, JobId, Launcher, Throttle};
use simcore::{OccupancyProfiler, OccupancySample, SimTime, Timeline};
use trace::Tracer;

use crate::config::WmConfig;
use crate::feedback::{AaToCgFeedback, CgParams, CgToContinuumFeedback, FeedbackManager};
use crate::tracker::{JobTracker, PayloadId, Tracked, TrackerConfig};

/// Notifications the WM hands back to its driver.
#[derive(Debug, Clone, PartialEq)]
pub enum WmEvent {
    /// A createsim job finished; its CG system is ready to simulate.
    CgSetupDone {
        /// The source patch id.
        patch_id: PayloadId,
    },
    /// A CG simulation was placed on a GPU.
    CgSimStarted {
        /// Scheduler job id.
        job: JobId,
        /// Simulation id (= patch id).
        sim_id: PayloadId,
    },
    /// A CG simulation finished.
    CgSimFinished {
        /// Simulation id.
        sim_id: PayloadId,
    },
    /// A backmapping job finished; its AA system is ready to simulate.
    AaSetupDone {
        /// The source CG frame id.
        frame_id: PayloadId,
    },
    /// An AA simulation was placed on a GPU.
    AaSimStarted {
        /// Scheduler job id.
        job: JobId,
        /// Simulation id (= frame id).
        sim_id: PayloadId,
    },
    /// An AA simulation finished.
    AaSimFinished {
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

/// WM lifetime counters.
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

/// The workflow manager.
pub struct WorkflowManager<L: Launcher> {
    cfg: WmConfig,
    launcher: L,
    patch_selector: Box<dyn Sampler + Send>,
    frame_selector: Box<dyn Sampler + Send>,
    cg_setup: JobTracker,
    cg_sim: JobTracker,
    aa_setup: JobTracker,
    aa_sim: JobTracker,
    cg_feedback: CgToContinuumFeedback,
    aa_feedback: AaToCgFeedback,
    throttle: Throttle,
    profiler: OccupancyProfiler,
    cg_timeline: Timeline,
    aa_timeline: Timeline,
    /// Patch ids whose createsim completed, awaiting a GPU (interned).
    cg_ready: VecDeque<PayloadId>,
    /// Frame ids whose backmapping completed, awaiting a GPU (interned).
    aa_ready: VecDeque<PayloadId>,
    next_feedback: SimTime,
    next_profile: SimTime,
    stats: WmStats,
    rng: StdRng,
    /// Mutation logs of the two selectors — "elaborate history files that
    /// may be replayed exactly" (§4.4). Included in checkpoints so a
    /// restarted WM reconstructs its exact ML-selection state.
    patch_history: History,
    frame_history: History,
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

impl<L: Launcher> WorkflowManager<L> {
    /// Assembles a WM over a launcher and the two selectors.
    pub fn new(
        cfg: WmConfig,
        launcher: L,
        patch_selector: Box<dyn Sampler + Send>,
        frame_selector: Box<dyn Sampler + Send>,
        n_species: usize,
    ) -> WorkflowManager<L> {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let throttle = Throttle::per_minute(cfg.submit_rate_per_min);
        let mk = |class, shape, runtime| {
            let mut t = JobTracker::new(TrackerConfig {
                runtime_jitter: 0.2,
                failure_prob: cfg.job_failure_prob,
                max_resubmits: cfg.max_resubmits,
                ..TrackerConfig::new(class, shape, runtime)
            });
            t.set_timeout_grace(cfg.job_timeout_grace);
            t
        };
        WorkflowManager {
            cg_setup: mk(JobClass::CgSetup, JobShape::setup(), cfg.cg_setup_runtime),
            cg_sim: mk(
                JobClass::CgSim,
                JobShape::sim_standard(),
                cfg.cg_sim_runtime,
            ),
            aa_setup: mk(JobClass::AaSetup, JobShape::setup(), cfg.aa_setup_runtime),
            aa_sim: mk(
                JobClass::AaSim,
                JobShape::sim_standard(),
                cfg.aa_sim_runtime,
            ),
            cg_feedback: CgToContinuumFeedback::new(n_species),
            aa_feedback: AaToCgFeedback::new(),
            throttle,
            profiler: OccupancyProfiler::new(),
            cg_timeline: Timeline::new(),
            aa_timeline: Timeline::new(),
            cg_ready: VecDeque::new(),
            aa_ready: VecDeque::new(),
            next_feedback: SimTime::ZERO + cfg.feedback_interval,
            next_profile: SimTime::ZERO,
            stats: WmStats::default(),
            rng,
            launcher,
            patch_selector,
            frame_selector,
            cfg,
            runtime_model: None,
            patch_history: History::new(),
            frame_history: History::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a tracer; the WM records its loop, feedback rounds,
    /// selections, and profile samples on it. Install the same handle on
    /// the launcher (e.g. [`sched::SchedEngine::set_tracer`]) to get the
    /// job-lifecycle records in the same trace.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs a per-job runtime model (returns `None` to fall back to the
    /// tracker's configured runtime).
    pub fn set_runtime_model(&mut self, model: RuntimeModel) {
        self.runtime_model = Some(model);
    }

    /// The launcher (e.g. for occupancy queries by the driver).
    pub fn launcher(&self) -> &L {
        &self.launcher
    }

    /// Mutable launcher access, for jobs the WM does not manage itself
    /// (e.g. the campaign's single continuum job).
    pub fn launcher_mut(&mut self) -> &mut L {
        &mut self.launcher
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WmStats {
        self.stats
    }

    /// Aggregate accounting over all four job trackers, for end-of-run
    /// reconciliation against the scheduler's own counters.
    pub fn tracker_totals(&self) -> TrackerTotals {
        let mut t = TrackerTotals::default();
        for tr in [&self.cg_setup, &self.cg_sim, &self.aa_setup, &self.aa_sim] {
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

    /// Running/pending timeline of CG GPU jobs (Figure 6 source data).
    pub fn cg_timeline(&self) -> &Timeline {
        &self.cg_timeline
    }

    /// Running/pending timeline of AA GPU jobs (Figure 6 source data).
    pub fn aa_timeline(&self) -> &Timeline {
        &self.aa_timeline
    }

    /// Patch candidates waiting in the selector.
    pub fn patch_candidates(&self) -> usize {
        self.patch_selector.candidates()
    }

    /// Ingests new patch candidates (Task 1 output).
    pub fn add_patch_candidates(&mut self, mut points: Vec<HdPoint>) {
        self.add_patch_candidates_from(&mut points);
    }

    /// [`WorkflowManager::add_patch_candidates`] draining a caller-owned
    /// buffer, so a driver loop can reuse one allocation across ticks.
    pub fn add_patch_candidates_from(&mut self, points: &mut Vec<HdPoint>) {
        self.stats.patches_ingested += points.len() as u64;
        for p in points.drain(..) {
            if self.cfg.record_history {
                self.patch_history.record_add(&p);
            }
            self.patch_selector.add(p);
        }
    }

    /// Ingests new CG-frame candidates (from the distributed CG analyses).
    pub fn add_frame_candidates(&mut self, mut points: Vec<HdPoint>) {
        self.add_frame_candidates_from(&mut points);
    }

    /// [`WorkflowManager::add_frame_candidates`] draining a caller-owned
    /// buffer (see [`WorkflowManager::add_patch_candidates_from`]).
    pub fn add_frame_candidates_from(&mut self, points: &mut Vec<HdPoint>) {
        self.stats.frames_ingested += points.len() as u64;
        for p in points.drain(..) {
            if self.cfg.record_history {
                self.frame_history.record_add(&p);
            }
            self.frame_selector.add(p);
        }
    }

    /// The earliest instant after `now` at which a [`WorkflowManager::tick`]
    /// would do anything: the launcher's next event, the feedback or
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
        if let Some(t) = self.launcher.next_wakeup() {
            next = next.min(t);
        }
        if self.cfg.job_timeout_grace > 0.0 {
            for tr in [&self.cg_setup, &self.cg_sim, &self.aa_setup, &self.aa_sim] {
                if let Some(deadline) = tr.earliest_timeout() {
                    // `expire_overdue` uses a strict comparison, so the
                    // job is only reclaimable just past its deadline.
                    next = next.min(deadline + eps);
                }
            }
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

    /// The first half of a WM cycle: poll the launcher and expire hung
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
        self.maintain_sims(now, events);
        self.maintain_setups(now);
        self.run_feedback(now, store, events);
        self.sample_profile(now);
    }

    /// Task 3: scan all running jobs, determine completion, route events.
    fn poll_jobs(&mut self, now: SimTime, events: &mut Vec<WmEvent>) {
        let raw = self.launcher.poll(now);
        for ev in &raw {
            // Each event belongs to exactly one tracker.
            if let Some(t) = self
                .cg_setup
                .on_event(&mut self.launcher, ev, &mut self.rng)
            {
                match t {
                    Tracked::Done { payload } => {
                        self.cg_ready.push_back(payload.clone());
                        events.push(WmEvent::CgSetupDone { patch_id: payload });
                    }
                    Tracked::Resubmitted { payload, attempt } => {
                        self.trace_resubmit(now, JobClass::CgSetup, &payload, attempt);
                        events.push(WmEvent::JobResubmitted {
                            class: JobClass::CgSetup,
                            payload,
                        });
                    }
                    Tracked::Abandoned { payload } => {
                        self.give_up(now, JobClass::CgSetup, payload, events);
                    }
                    _ => {}
                }
                continue;
            }
            if let Some(t) = self.cg_sim.on_event(&mut self.launcher, ev, &mut self.rng) {
                match t {
                    Tracked::Started { job, payload } => {
                        self.stats.cg_sims_started += 1;
                        events.push(WmEvent::CgSimStarted {
                            job,
                            sim_id: payload,
                        });
                    }
                    Tracked::Done { payload } => {
                        self.stats.cg_sims_completed += 1;
                        events.push(WmEvent::CgSimFinished { sim_id: payload });
                    }
                    Tracked::Resubmitted { payload, attempt } => {
                        self.trace_resubmit(now, JobClass::CgSim, &payload, attempt);
                        events.push(WmEvent::JobResubmitted {
                            class: JobClass::CgSim,
                            payload,
                        });
                    }
                    Tracked::Abandoned { payload } => {
                        self.give_up(now, JobClass::CgSim, payload, events);
                    }
                }
                continue;
            }
            if let Some(t) = self
                .aa_setup
                .on_event(&mut self.launcher, ev, &mut self.rng)
            {
                match t {
                    Tracked::Done { payload } => {
                        self.aa_ready.push_back(payload.clone());
                        events.push(WmEvent::AaSetupDone { frame_id: payload });
                    }
                    Tracked::Resubmitted { payload, attempt } => {
                        self.trace_resubmit(now, JobClass::AaSetup, &payload, attempt);
                        events.push(WmEvent::JobResubmitted {
                            class: JobClass::AaSetup,
                            payload,
                        });
                    }
                    Tracked::Abandoned { payload } => {
                        self.give_up(now, JobClass::AaSetup, payload, events);
                    }
                    _ => {}
                }
                continue;
            }
            if let Some(t) = self.aa_sim.on_event(&mut self.launcher, ev, &mut self.rng) {
                match t {
                    Tracked::Started { job, payload } => {
                        self.stats.aa_sims_started += 1;
                        events.push(WmEvent::AaSimStarted {
                            job,
                            sim_id: payload,
                        });
                    }
                    Tracked::Done { payload } => {
                        self.stats.aa_sims_completed += 1;
                        events.push(WmEvent::AaSimFinished { sim_id: payload });
                    }
                    Tracked::Resubmitted { payload, attempt } => {
                        self.trace_resubmit(now, JobClass::AaSim, &payload, attempt);
                        events.push(WmEvent::JobResubmitted {
                            class: JobClass::AaSim,
                            payload,
                        });
                    }
                    Tracked::Abandoned { payload } => {
                        self.give_up(now, JobClass::AaSim, payload, events);
                    }
                }
            }
        }
    }

    /// The §4.4 hang watchdog: cancel-and-resubmit any placed job that
    /// has overstayed `job_timeout_grace` times its submitted runtime.
    /// Disabled when the grace factor is zero.
    fn expire_hung_jobs(&mut self, now: SimTime, events: &mut Vec<WmEvent>) {
        if self.cfg.job_timeout_grace <= 0.0 {
            return;
        }
        // Iterate trackers in a fixed order (determinism contract).
        for which in 0..4usize {
            let tracker = match which {
                0 => &mut self.cg_setup,
                1 => &mut self.cg_sim,
                2 => &mut self.aa_setup,
                _ => &mut self.aa_sim,
            };
            let class = tracker.class();
            let expired = tracker.expire_overdue(&mut self.launcher, now, &mut self.rng);
            for tracked in expired {
                self.stats.jobs_timed_out += 1;
                match tracked {
                    Tracked::Resubmitted { payload, attempt } => {
                        self.tracer.instant_at(
                            now,
                            "wm",
                            "wm.timeout",
                            &[
                                ("class", class.label().into()),
                                ("payload", (&*payload).into()),
                                ("attempt", attempt.into()),
                            ],
                        );
                        self.tracer.counter_add("wm.timeouts", 1);
                        events.push(WmEvent::JobResubmitted { class, payload });
                    }
                    Tracked::Abandoned { payload } => {
                        self.tracer.instant_at(
                            now,
                            "wm",
                            "wm.timeout",
                            &[
                                ("class", class.label().into()),
                                ("payload", (&*payload).into()),
                            ],
                        );
                        self.tracer.counter_add("wm.timeouts", 1);
                        self.give_up(now, class, payload, events);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Terminal abandonment: the payload exhausted its budget and will
    /// never be submitted again. Recorded as the `wm.gave_up` trace event
    /// so lost work is visible rather than silently dropped.
    fn give_up(
        &mut self,
        now: SimTime,
        class: JobClass,
        payload: PayloadId,
        events: &mut Vec<WmEvent>,
    ) {
        self.stats.jobs_abandoned += 1;
        self.tracer.instant_at(
            now,
            "wm",
            "wm.gave_up",
            &[
                ("class", class.label().into()),
                ("payload", (&*payload).into()),
            ],
        );
        self.tracer.counter_add("wm.gave_up", 1);
        events.push(WmEvent::JobAbandoned { class, payload });
    }

    /// Records one failed-and-resubmitted job on the trace.
    fn trace_resubmit(&self, now: SimTime, class: JobClass, payload: &str, attempt: u32) {
        self.tracer.instant_at(
            now,
            "wm",
            "wm.resubmit",
            &[
                ("class", class.label().into()),
                ("payload", payload.into()),
                ("attempt", attempt.into()),
            ],
        );
        self.tracer.counter_add("wm.resubmits", 1);
    }

    /// Keep the GPU partition full: spawn simulations from the ready
    /// buffers up to each scale's GPU target.
    fn maintain_sims(&mut self, now: SimTime, events: &mut Vec<WmEvent>) {
        let (_, total_gpus) = self.launcher.gpu_usage();
        let (cg_target, aa_target) = self.cfg.gpu_targets(total_gpus);

        loop {
            let (running, pending) = self.cg_sim.counts(&self.launcher);
            if running + pending >= cg_target {
                break;
            }
            let Some(sim_id) = self.cg_ready.pop_front() else {
                break;
            };
            let at = self.throttle.reserve(now);
            match self
                .runtime_model
                .as_mut()
                .and_then(|m| m(JobClass::CgSim, &sim_id))
            {
                Some(rt) => {
                    self.cg_sim.submit_interned_with(
                        &mut self.launcher,
                        sim_id,
                        at,
                        rt,
                        &mut self.rng,
                    );
                }
                None => {
                    self.cg_sim
                        .submit_interned(&mut self.launcher, sim_id, at, &mut self.rng);
                }
            }
            let _ = events; // started events arrive via poll on placement
        }
        loop {
            let (running, pending) = self.aa_sim.counts(&self.launcher);
            if running + pending >= aa_target {
                break;
            }
            let Some(sim_id) = self.aa_ready.pop_front() else {
                break;
            };
            let at = self.throttle.reserve(now);
            match self
                .runtime_model
                .as_mut()
                .and_then(|m| m(JobClass::AaSim, &sim_id))
            {
                Some(rt) => {
                    self.aa_sim.submit_interned_with(
                        &mut self.launcher,
                        sim_id,
                        at,
                        rt,
                        &mut self.rng,
                    );
                }
                None => {
                    self.aa_sim
                        .submit_interned(&mut self.launcher, sim_id, at, &mut self.rng);
                }
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
        let (used, total) = self.launcher.cpu_usage();
        let pending_cores = |t: &JobTracker, per_job: u64| -> u64 {
            let (_, pending) = t.counts(&self.launcher);
            pending * per_job
        };
        let committed = pending_cores(&self.cg_setup, JobShape::setup().total_cores())
            + pending_cores(&self.aa_setup, JobShape::setup().total_cores())
            + pending_cores(&self.cg_sim, JobShape::sim_standard().total_cores())
            + pending_cores(&self.aa_sim, JobShape::sim_standard().total_cores());
        total as i64 - used as i64 - committed as i64
    }

    /// Keep the ready buffers stocked: select new patches/frames and spawn
    /// setup jobs. "To prevent GPU downtime, sets of CG and AA simulations
    /// are kept prepared in anticipation."
    fn maintain_setups(&mut self, now: SimTime) {
        let setup_cores = JobShape::setup().total_cores() as i64;
        loop {
            let (running, pending) = self.cg_setup.counts(&self.launcher);
            let in_flight = (running + pending) as usize;
            if self.cg_ready.len() + in_flight >= self.cfg.cg_ready_buffer
                || self.cpu_headroom() < setup_cores
            {
                break;
            }
            let Some(pick) = self.patch_selector.select(1).pop() else {
                break;
            };
            if self.cfg.record_history {
                self.patch_history.record_select(&pick.id);
            }
            self.stats.cg_selected += 1;
            self.tracer.instant_at(
                now,
                "wm",
                "wm.select",
                &[
                    ("class", JobClass::CgSetup.label().into()),
                    ("payload", pick.id.as_str().into()),
                ],
            );
            self.tracer.counter_add("wm.selected", 1);
            let at = self.throttle.reserve(now);
            self.cg_setup
                .submit(&mut self.launcher, &pick.id, at, &mut self.rng);
        }
        loop {
            let (running, pending) = self.aa_setup.counts(&self.launcher);
            let in_flight = (running + pending) as usize;
            if self.aa_ready.len() + in_flight >= self.cfg.aa_ready_buffer
                || self.cpu_headroom() < setup_cores
            {
                break;
            }
            let Some(pick) = self.frame_selector.select(1).pop() else {
                break;
            };
            if self.cfg.record_history {
                self.frame_history.record_select(&pick.id);
            }
            self.stats.aa_selected += 1;
            self.tracer.instant_at(
                now,
                "wm",
                "wm.select",
                &[
                    ("class", JobClass::AaSetup.label().into()),
                    ("payload", pick.id.as_str().into()),
                ],
            );
            self.tracer.counter_add("wm.selected", 1);
            let at = self.throttle.reserve(now);
            self.aa_setup
                .submit(&mut self.launcher, &pick.id, at, &mut self.rng);
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
        let (gpus_used, gpus_total) = self.launcher.gpu_usage();
        let (cpus_used, cpus_total) = self.launcher.cpu_usage();
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
        let (r, p) = self.cg_sim.counts(&self.launcher);
        self.cg_timeline.record(now, r, p);
        self.trace_timeline(now, "cg", r, p);
        let (r, p) = self.aa_sim.counts(&self.launcher);
        self.aa_timeline.record(now, r, p);
        self.trace_timeline(now, "aa", r, p);
    }

    /// Records one Figure 6 timeline point on the trace.
    fn trace_timeline(&self, now: SimTime, class: &str, running: u64, pending: u64) {
        self.tracer.instant_at(
            now,
            "wm",
            "wm.timeline",
            &[
                ("class", class.into()),
                ("running", running.into()),
                ("pending", pending.into()),
            ],
        );
    }

    /// Serializes restartable WM state: counters, ready buffers, and the
    /// selector histories.
    pub fn checkpoint(&self) -> WmCheckpoint {
        WmCheckpoint {
            stats: self.stats,
            cg_ready: self.cg_ready.iter().map(|p| p.to_string()).collect(),
            aa_ready: self.aa_ready.iter().map(|p| p.to_string()).collect(),
            patch_history: self.patch_history.compact().to_text(),
            frame_history: self.frame_history.compact().to_text(),
        }
    }

    /// Restores counters, ready buffers, and selector state from a
    /// checkpoint. The histories are replayed into the (fresh) selectors,
    /// reconstructing their candidate queues and selected sets exactly.
    pub fn restore(&mut self, ckpt: &WmCheckpoint) {
        self.stats = ckpt.stats;
        self.cg_ready = ckpt
            .cg_ready
            .iter()
            .map(|s| PayloadId::from(s.as_str()))
            .collect();
        self.aa_ready = ckpt
            .aa_ready
            .iter()
            .map(|s| PayloadId::from(s.as_str()))
            .collect();
        if let Some(h) = History::from_text(&ckpt.patch_history) {
            h.replay(self.patch_selector.as_mut());
            self.patch_history = h;
        }
        if let Some(h) = History::from_text(&ckpt.frame_history) {
            h.replay(self.frame_selector.as_mut());
            self.frame_history = h;
        }
    }
}

/// Aggregate accounting over the WM's four job trackers.
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
#[derive(Debug, Clone, PartialEq)]
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
        let s = &self.stats;
        let mut out = format!(
            "stats {} {} {} {} {} {} {} {} {} {} {} {}\n",
            s.patches_ingested,
            s.frames_ingested,
            s.cg_selected,
            s.aa_selected,
            s.cg_sims_started,
            s.aa_sims_started,
            s.cg_sims_completed,
            s.aa_sims_completed,
            s.feedback_iterations,
            s.feedback_frames,
            s.jobs_timed_out,
            s.jobs_abandoned,
        );
        let mut body = 1usize;
        for id in &self.cg_ready {
            out.push_str(&format!("cg {id}\n"));
            body += 1;
        }
        for id in &self.aa_ready {
            out.push_str(&format!("aa {id}\n"));
            body += 1;
        }
        for line in self.patch_history.lines() {
            out.push_str(&format!("ph {line}\n"));
            body += 1;
        }
        for line in self.frame_history.lines() {
            out.push_str(&format!("fh {line}\n"));
            body += 1;
        }
        out.push_str(&format!("end {body}\n"));
        out
    }

    /// Parses the text format, naming the offending line on failure.
    pub fn from_text(text: &str) -> Result<WmCheckpoint, CheckpointError> {
        let mut stats: Option<WmStats> = None;
        let mut cg_ready = Vec::new();
        let mut aa_ready = Vec::new();
        let mut patch_history = String::new();
        let mut frame_history = String::new();
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
                    stats = Some(WmStats {
                        patches_ingested: v[0],
                        frames_ingested: v[1],
                        cg_selected: v[2],
                        aa_selected: v[3],
                        cg_sims_started: v[4],
                        aa_sims_started: v[5],
                        cg_sims_completed: v[6],
                        aa_sims_completed: v[7],
                        feedback_iterations: v[8],
                        feedback_frames: v[9],
                        jobs_timed_out: v[10],
                        jobs_abandoned: v[11],
                    });
                    body += 1;
                }
                "cg" => {
                    cg_ready.push(rest.to_string());
                    body += 1;
                }
                "aa" => {
                    aa_ready.push(rest.to_string());
                    body += 1;
                }
                "ph" => {
                    if History::from_text(rest).is_none() {
                        return Err(bad("unreplayable patch-history record"));
                    }
                    patch_history.push_str(rest);
                    patch_history.push('\n');
                    body += 1;
                }
                "fh" => {
                    if History::from_text(rest).is_none() {
                        return Err(bad("unreplayable frame-history record"));
                    }
                    frame_history.push_str(rest);
                    frame_history.push('\n');
                    body += 1;
                }
                "end" => {
                    let n: usize = rest.parse().map_err(|_| bad("footer needs a line count"))?;
                    footer = Some(n);
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

    fn wm(nodes: u32, cfg: WmConfig) -> WorkflowManager<SchedEngine> {
        let launcher = SchedEngine::new(
            ResourceGraph::new(MachineSpec::custom("t", nodes, NodeSpec::summit())),
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        );
        WorkflowManager::new(
            cfg,
            launcher,
            Box::new(FarthestPointSampler::new(
                FpsConfig { cap: 0 },
                ExactNn::new(),
            )),
            Box::new(BinnedSampler::new(BinnedConfig::cg_frames())),
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
    fn drive(
        wm: &mut WorkflowManager<SchedEngine>,
        store: &mut dyn DataStore,
        hours: u64,
    ) -> Vec<WmEvent> {
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
        m.add_patch_candidates(patch_points(50, 0));
        m.add_frame_candidates(frame_points(50));
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
            .any(|e| matches!(e, WmEvent::CgSetupDone { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, WmEvent::CgSimStarted { .. })));
    }

    #[test]
    fn sims_complete_and_are_replaced() {
        let mut cfg = WmConfig::test_scale();
        cfg.cg_sim_runtime = SimDuration::from_mins(10);
        let mut m = wm(1, cfg);
        let mut store = KvDataStore::new(4);
        m.add_patch_candidates(patch_points(100, 0));
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
        m.add_patch_candidates(patch_points(100, 0));
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
        m.add_patch_candidates(patch_points(6, 0));
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
        m.add_patch_candidates(patch_points(30, 0));
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
        m.add_patch_candidates(patch_points(80, 0));
        m.add_frame_candidates(frame_points(80));
        drive(&mut m, &mut store, 2);
        assert!(m.profiler().samples().len() >= 20);
        // Once warmed up, the GPU occupancy should be substantial.
        let late: Vec<f64> = m.profiler().gpu_series().into_iter().skip(12).collect();
        let mean = late.iter().sum::<f64>() / late.len().max(1) as f64;
        assert!(mean > 50.0, "late GPU occupancy should be high: {mean:.1}%");
        assert!(!m.cg_timeline().points().is_empty());
    }

    #[test]
    fn buffers_respect_configured_targets() {
        let mut cfg = WmConfig::test_scale();
        cfg.cg_ready_buffer = 3;
        let mut m = wm(1, cfg);
        let mut store = KvDataStore::new(4);
        m.add_patch_candidates(patch_points(100, 0));
        m.tick(SimTime::ZERO, &mut store);
        // In-flight setups never exceed the buffer target.
        let (r, p) = m.launcher().class_counts(JobClass::CgSetup);
        assert!(r + p <= 3, "setup in-flight {r}+{p} exceeds buffer");
    }

    #[test]
    fn checkpoint_roundtrip_restores_state() {
        let mut m = wm(1, WmConfig::test_scale());
        let mut store = KvDataStore::new(4);
        m.add_patch_candidates(patch_points(30, 0));
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
        m.add_patch_candidates(patch_points(30, 0));
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
}
