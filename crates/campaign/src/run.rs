//! The multi-run campaign driver.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use chaos::{FaultKind, FaultPlan, MonotonicWatch, RunLedger};
use datastore::{DataStore, FaultWindow, KvDataStore, ScheduledFaultStore};
use dynim::{HdPoint, PayloadId};
use mummi_core::app3;
use mummi_core::{RuntimeModel, WmCheckpoint, WmConfig, WmEvent, WorkflowManager};
use resources::{JobShape, MachineSpec, MatchPolicy, ResourceGraph};
use sched::{
    ClassWait, Costs, Coupling, JobClass, JobId, JobSpec, JobState, SchedEngine, SchedPolicy,
};
use simcore::{EventQueue, OccupancyProfiler, SeedStream, SimDuration, SimTime, Timeline};
use trace::Tracer;
use workload::{WorkloadSource, WorkloadSpec};

use crate::control::RunControl;
use crate::driver;
use crate::failures::FailureProcess;
use crate::perf::{AaPerf, CgPerf, ContinuumPerf};

/// Which backend the run loop drives its feedback-store traffic
/// through. A configuration switch, never a semantic one: both backends
/// speak the same `ns:{key}` mapping and trace vocabulary, and a
/// campaign traces byte-identical under either (pinned by
/// `tests/netstore.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreBackend {
    /// The in-process `kvstore` cluster (the historical default).
    InProcess,
    /// The networked datastore tier via its deterministic in-process
    /// loopback transport: every op is encoded as a wire frame, decoded
    /// and handled by a `storeserver` engine — the campaign-side
    /// rehearsal of the real TCP deployment, with no sockets or threads.
    Loopback,
}

impl StoreBackend {
    /// Stable name for configs and wire forms.
    pub fn name(self) -> &'static str {
        match self {
            StoreBackend::InProcess => "in-process",
            StoreBackend::Loopback => "loopback",
        }
    }

    /// Inverse of [`StoreBackend::name`].
    pub fn parse(s: &str) -> Option<StoreBackend> {
        match s {
            "in-process" => Some(StoreBackend::InProcess),
            "loopback" => Some(StoreBackend::Loopback),
            _ => None,
        }
    }
}

/// Campaign-level configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Fraction of GPUs for CG.
    pub cg_fraction: f64,
    /// Continuum snapshot interval (the campaign's 90 s I/O rate).
    pub snapshot_interval: SimDuration,
    /// Patch candidates generated per snapshot. The real campaign cut ~333
    /// (6.83 M patches / 20,507 snapshots); the DES default is scaled down
    /// — selection pressure, not candidate volume, drives the figures.
    pub patches_per_snapshot: usize,
    /// CG frames flagged as AA candidates, per running CG sim per minute
    /// (scaled down from the campaign's ~0.25 for DES memory).
    pub frames_per_sim_per_min: f64,
    /// Target CG trajectory length (µs; the campaign capped at 5).
    pub cg_target_us: f64,
    /// Target AA trajectory length range (ns; the campaign used 50–65).
    pub aa_target_ns: (f64, f64),
    /// Submission throttle (jobs/min).
    pub submit_rate_per_min: u64,
    /// Q↔R coupling of the Flux model.
    pub coupling: Coupling,
    /// Matcher policy.
    pub policy: MatchPolicy,
    /// Queue-ordering / backfill policy layered over the matcher (the
    /// matcher stays the placement sub-policy). FCFS — the historical
    /// behavior — is byte-identical to the pre-policy-zoo engine.
    pub sched_policy: SchedPolicy,
    /// Optional background workload submitted alongside the WM-driven
    /// stream: a replayed trace or an adversarial synthetic mix, on its
    /// own seed stream. `None` (the default) leaves the campaign
    /// byte-identical to before the workload layer existed.
    pub workload: Option<WorkloadSpec>,
    /// Record every scheduler submission/cancel/node-failure into a
    /// replayable job log, surfaced as [`RunReport::job_log`] (CSV).
    pub record_jobs: bool,
    /// Inert: nothing reads it. `app3::build_three_scale_wm` always caps
    /// the patch selector at the paper's 35,000, whatever this says. The
    /// farm wire still validates the key, `scale_rung` still computes it
    /// and the frozen `benchmark/` crate sends 500. Wiring it through
    /// moves every pinned trace, so it waits for ROADMAP item 17's pin
    /// regeneration.
    pub queue_cap: usize,
    /// Probability a job fails and is resubmitted.
    pub job_failure_prob: f64,
    /// Expected compute-node failures per allocation-day (drained on
    /// failure, resident jobs crash and are resubmitted). Summit-era
    /// leadership machines lose a handful of nodes per day at full scale.
    pub node_failures_per_day: f64,
    /// Total planned campaign virtual hours (sets the MPI-bug episode
    /// boundary at one third of it).
    pub planned_hours: f64,
    /// Job-timeout watchdog grace handed to the WM: a placed job whose
    /// age exceeds `grace ×` its modeled runtime is presumed hung,
    /// canceled, and resubmitted. 0 disables the watchdog.
    pub job_timeout_grace: f64,
    /// Ready-buffer sizing: each partition keeps `gpu_target /
    /// ready_buffer_divisor` prepared simulations in flight. The paper's
    /// "sets of CG and AA simulations are kept prepared in anticipation"
    /// trade-off; the divisor controls staleness vs fill rate.
    pub ready_buffer_divisor: u64,
    /// Upper clamp on the CG ready buffer (the AA buffer is capped at
    /// half of it). The historical default of 400 starves allocations
    /// beyond ~1,000 nodes — full-Summit configurations must raise it or
    /// the setup pipeline cannot keep 27k GPUs fed.
    pub ready_buffer_cap: usize,
    /// Optional fault plan injected into every run (the chaos harness;
    /// event times are relative to each run's start).
    pub fault_plan: Option<FaultPlan>,
    /// Inert: nothing reads it. It used to pin the serial body of a
    /// forked (GEN ‖ POLL) event loop; that fork is gone and the one
    /// remaining body is the serial one (DESIGN.md § 11). The field
    /// stays declared only because the frozen `benchmark/` crate still
    /// sets it to `true`; the follow-up `[benchmark]` PR that drops
    /// those writes together with `campaign.serial_over_default_x`
    /// deletes it (ROADMAP item 3).
    pub serial_loop: bool,
    /// Feedback-store backend (see [`StoreBackend`]).
    pub store_backend: StoreBackend,
    /// Root seed.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            cg_fraction: 0.7,
            snapshot_interval: SimDuration::from_secs(90),
            patches_per_snapshot: 24,
            frames_per_sim_per_min: 0.02,
            cg_target_us: 5.0,
            aa_target_ns: (50.0, 65.0),
            submit_rate_per_min: 100,
            coupling: Coupling::Synchronous,
            policy: MatchPolicy::LowIdExhaustive,
            sched_policy: SchedPolicy::Fcfs,
            workload: None,
            record_jobs: false,
            queue_cap: 2000,
            job_failure_prob: 0.005,
            node_failures_per_day: 2.0,
            planned_hours: 600.0,
            job_timeout_grace: 0.0,
            ready_buffer_divisor: 10,
            ready_buffer_cap: 400,
            fault_plan: None,
            serial_loop: false,
            store_backend: StoreBackend::InProcess,
            seed: 20201214,
        }
    }
}

/// A campaign configuration the driver refuses to run. Historically the
/// use sites silently rewrote bad values (`.max(1)` on the divisor,
/// `.max(8)` on the cap); a service accepting configs over the wire must
/// reject them instead — an operator who typed `ready_buffer_divisor: 0`
/// meant *something*, and it was not "10".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `ready_buffer_divisor` is 0 — the ready-buffer target would divide
    /// by zero.
    ZeroReadyBufferDivisor,
    /// `ready_buffer_cap` is below 8 — the CG buffer clamps into
    /// `8..=cap` and the AA buffer into `4..=cap/2`, so any cap under 8
    /// would invert a clamp range.
    ReadyBufferCapTooSmall {
        /// The rejected cap.
        cap: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroReadyBufferDivisor => {
                write!(f, "ready_buffer_divisor must be >= 1 (got 0)")
            }
            ConfigError::ReadyBufferCapTooSmall { cap } => {
                write!(f, "ready_buffer_cap must be >= 8 (got {cap})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl CampaignConfig {
    /// Checks the invariants the run loop relies on. [`Campaign::new`]
    /// enforces this (loudly), and wire-facing services reject invalid
    /// submissions with the typed error instead of mutating them. The
    /// defaults always validate.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ready_buffer_divisor == 0 {
            return Err(ConfigError::ZeroReadyBufferDivisor);
        }
        if self.ready_buffer_cap < 8 {
            return Err(ConfigError::ReadyBufferCapTooSmall {
                cap: self.ready_buffer_cap,
            });
        }
        Ok(())
    }

    /// Configuration for one rung of the Summit scale ladder (`nodes`
    /// compute nodes, 6 GPUs each): §5.2's fixed engine (greedy matching,
    /// asynchronous Q↔R), the hang watchdog armed as the 4,000-node
    /// campaign ran it, and candidate generation / ready buffers scaled
    /// so the whole machine can fill within a few setup generations.
    /// Hardware attrition is off — the ladder is a clean throughput
    /// benchmark; the chaos harness exercises faults separately.
    pub fn scale_rung(nodes: u32) -> CampaignConfig {
        let total_gpus = nodes as u64 * 6;
        CampaignConfig {
            // ~4× oversupply of patch candidates relative to the CG
            // partition: enough to keep the selector fed through
            // resubmissions without drowning the driver in candidate
            // generation.
            patches_per_snapshot: ((total_gpus / 200).max(24)) as usize,
            frames_per_sim_per_min: 0.01,
            queue_cap: (total_gpus as usize * 2).clamp(2_000, 35_000),
            policy: MatchPolicy::FirstMatch,
            coupling: Coupling::Asynchronous,
            submit_rate_per_min: 3_000,
            job_timeout_grace: 1.5,
            node_failures_per_day: 0.0,
            ready_buffer_divisor: 2,
            ready_buffer_cap: total_gpus as usize,
            ..CampaignConfig::default()
        }
    }
}

/// What one simulation accumulated over the campaign.
#[derive(Debug, Clone, Copy)]
struct SimRecord {
    /// `CgSim` or `AaSim`.
    class: JobClass,
    /// Target trajectory length (µs for CG, ns for AA).
    target: f64,
    /// Achieved length so far.
    achieved: f64,
    /// Throughput (µs/day for CG, ns/day for AA).
    rate_per_day: f64,
    /// When the current job instance was placed, if running.
    started_at: Option<SimTime>,
}

/// Report of one campaign run (one row of Table 1's underlying data).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Allocation size.
    pub nodes: u32,
    /// Wall-clock (virtual) hours actually executed. Equals the requested
    /// allocation length unless a [`RunControl`] pause ended the run
    /// early (pauses land on whole-hour boundaries, so this stays exact).
    pub hours: u64,
    /// nodes × executed hours.
    pub node_hours: u64,
    /// Jobs placed during the run.
    pub placed: u64,
    /// Simulations (CG+AA) completed during the run.
    pub sims_completed: u64,
    /// Mean GPU occupancy over the run's profile events (%).
    pub gpu_mean_occupancy: f64,
    /// Time for the CG partition to reach 90% of its GPU target.
    pub load_time: Option<SimTime>,
    /// CG running/pending timeline (Figure 6).
    pub cg_timeline: Timeline,
    /// AA running/pending timeline (Figure 6).
    pub aa_timeline: Timeline,
    /// Peak simultaneous GPU jobs.
    pub peak_gpu_jobs: u64,
    /// Compute nodes that failed (and were drained) during the run.
    pub nodes_failed: u64,
    /// Jobs crashed by node failures.
    pub jobs_crashed: u64,
    /// WM crash points survived (checkpoint → restore → continue).
    pub wm_crashes: u64,
    /// Jobs hung by the fault plan.
    pub jobs_hung: u64,
    /// Datastore faults injected by scheduled fault windows.
    pub store_faults_injected: u64,
    /// Datastore calls charged extra latency by fault windows.
    pub store_ops_delayed: u64,
    /// Jobs canceled by the WM timeout watchdog.
    pub jobs_timed_out: u64,
    /// Payloads permanently abandoned after exhausting resubmits.
    pub jobs_abandoned: u64,
    /// Job accounting summed over every WM incarnation of the run;
    /// [`RunLedger::check`] must come back empty.
    pub ledger: RunLedger,
    /// Driver loop passes this run took, one per wakeup — the quantity
    /// next-event time advance minimises.
    pub driver_iterations: u64,
    /// Clock advances forced past a stale wakeup source (see
    /// [`crate::driver::advance_clock`]). Always zero while every source
    /// honors the "never late, never stale" contract; a nonzero count
    /// means a `next_wakeup` accessor regressed.
    pub forced_advances: u64,
    /// The virtual time a cooperative pause stopped the run, if one did.
    /// Always a whole-hour boundary; `None` for runs that reached their
    /// requested end.
    pub paused_at: Option<SimTime>,
    /// Per-class queue-wait aggregates from the final scheduler
    /// incarnation (fair-share observability). Empty when no job of a
    /// class was placed.
    pub class_waits: Vec<(JobClass, ClassWait)>,
    /// The recorded job stream in CSV trace form, when
    /// [`CampaignConfig::record_jobs`] was set. Only the final WM
    /// incarnation's log survives a crash-chain run (earlier incarnations
    /// die with their engines).
    pub job_log: Option<String>,
}

/// The persistent campaign: survives across runs via checkpoints, exactly
/// like the paper's "single multiscale simulation campaign continued using
/// checkpoint files".
pub struct Campaign {
    cfg: CampaignConfig,
    seeds: SeedStream,
    /// Ordered by sim id: end-of-run iteration re-queues interrupted
    /// sims into the checkpoint, and that order must not depend on a
    /// hash function (determinism contract).
    sims: BTreeMap<PayloadId, SimRecord>,
    ckpt: Option<WmCheckpoint>,
    /// Aggregated occupancy over all runs (Figure 5).
    profiler: OccupancyProfiler,
    reports: Vec<RunReport>,
    /// Cumulative virtual hours executed (drives the MPI-bug episode).
    hours_done: f64,
    /// Continuum performance samples (Figure 4, left).
    cont_samples: Vec<f64>,
    /// (size, rate) CG samples (Figure 4, middle).
    cg_samples: Vec<(f64, f64)>,
    /// (size, rate) AA samples (Figure 4, right).
    aa_samples: Vec<(f64, f64)>,
    snapshots: u64,
    patches: u64,
    frames: u64,
    next_id: u64,
    run_idx: u64,
    /// Observability sink shared with every run's engine and WM; a no-op
    /// handle by default.
    tracer: Tracer,
}

/// The per-sim runtime model the driver lends the WM for one tick:
/// remaining length over throughput. First sight of a sim draws its
/// size, rate and target, records the perf sample and enters the sim in
/// the campaign's sims map.
struct SimModel<'a> {
    camp: &'a mut Campaign,
    rng: &'a mut StdRng,
    /// Campaign progress at the start of the run (the CG MPI-bug episode).
    progress: f64,
}

impl RuntimeModel for SimModel<'_> {
    fn runtime(&mut self, class: JobClass, payload: &PayloadId) -> Option<SimDuration> {
        let (camp, rng) = (&mut *self.camp, &mut *self.rng);
        let rec = match camp.sims.entry(payload.clone()) {
            Entry::Occupied(seen) => seen.into_mut(),
            Entry::Vacant(new) => {
                let (target, rate_per_day) = match class {
                    JobClass::CgSim => {
                        let perf = CgPerf::default();
                        let size = perf.sample_size(rng);
                        let rate = perf.sample(size, self.progress, rng);
                        camp.cg_samples.push((size, rate));
                        (camp.cfg.cg_target_us, rate)
                    }
                    JobClass::AaSim => {
                        let perf = AaPerf::default();
                        let size = perf.sample_size(rng);
                        let rate = perf.sample(size, rng);
                        camp.aa_samples.push((size, rate));
                        let (lo, hi) = camp.cfg.aa_target_ns;
                        (rng.gen_range(lo..hi), rate)
                    }
                    _ => return None,
                };
                new.insert(SimRecord {
                    class,
                    target,
                    achieved: 0.0,
                    rate_per_day,
                    started_at: None,
                })
            }
        };
        let remaining = (rec.target - rec.achieved).max(0.0);
        let days = remaining / rec.rate_per_day.max(1e-9);
        Some(SimDuration::from_secs_f64(days * 86_400.0).max(SimDuration::from_mins(5)))
    }
}

/// Compiles the plan's store-fault events into the windows the store
/// wrapper applies; every other event kind is drained by the run loop
/// as virtual time passes it.
fn fault_windows(plan: &FaultPlan) -> Vec<FaultWindow> {
    plan.events
        .iter()
        .filter_map(|ev| match ev.kind {
            FaultKind::StoreFaults {
                op,
                period,
                duration,
                extra_latency,
            } => Some(FaultWindow {
                from: ev.at,
                until: ev.at + duration,
                op,
                period,
                extra_latency,
            }),
            _ => None,
        })
        .collect()
}

/// Puts interrupted sims, collected in ascending id order, at the head
/// of a ready buffer in descending id order, ahead of what was queued:
/// the order one insert at the front per sim gave, in one splice.
fn requeue_ahead(ready: &mut Vec<String>, ascending: Vec<String>) {
    ready.splice(0..0, ascending.into_iter().rev());
}

/// Submits the continuum job — one multi-node CPU job covering
/// `at..until` — and returns its id. The job belongs to the driver, not
/// to a tracker, so the caller books its failures.
fn submit_continuum(
    wm: &mut WorkflowManager,
    cont_nodes: u32,
    at: SimTime,
    until: SimTime,
) -> JobId {
    wm.launcher_mut().submit(
        JobSpec::new(
            JobClass::Continuum,
            JobShape::continuum(cont_nodes),
            until.since(at),
        ),
        at,
    )
}

impl Campaign {
    /// Starts a fresh campaign.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CampaignConfig::validate`] — an in-process
    /// caller constructing a config that divides by zero is a programming
    /// error, not a recoverable condition. Services accepting configs
    /// over a wire call `validate()` first and turn the typed error into
    /// a rejection.
    pub fn new(cfg: CampaignConfig) -> Campaign {
        if let Err(err) = cfg.validate() {
            panic!("invalid campaign config: {err}");
        }
        let seeds = SeedStream::new(cfg.seed);
        Campaign {
            cfg,
            seeds,
            sims: BTreeMap::new(),
            ckpt: None,
            profiler: OccupancyProfiler::new(),
            reports: Vec::new(),
            hours_done: 0.0,
            cont_samples: Vec::new(),
            cg_samples: Vec::new(),
            aa_samples: Vec::new(),
            snapshots: 0,
            patches: 0,
            frames: 0,
            next_id: 0,
            run_idx: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a tracer. Each subsequent run installs the same handle on
    /// its scheduler engine and workflow manager, so one trace carries the
    /// whole campaign (runs are disjoint in virtual time only per-run; the
    /// `run.start` / `run.end` markers delimit them).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer handle (no-op unless [`Campaign::set_tracer`]
    /// was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// All run reports so far.
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// The merged occupancy profile (Figure 5).
    pub fn profiler(&self) -> &OccupancyProfiler {
        &self.profiler
    }

    /// Continuum performance samples (ms/day).
    pub fn continuum_samples(&self) -> &[f64] {
        &self.cont_samples
    }

    /// CG (size, µs/day) samples.
    pub fn cg_samples(&self) -> &[(f64, f64)] {
        &self.cg_samples
    }

    /// AA (size, ns/day) samples.
    pub fn aa_samples(&self) -> &[(f64, f64)] {
        &self.aa_samples
    }

    /// (snapshots, patches, frames) generated so far.
    pub fn data_counts(&self) -> (u64, u64, u64) {
        (self.snapshots, self.patches, self.frames)
    }

    /// Achieved CG trajectory lengths (µs), one per spawned CG sim.
    pub fn cg_lengths(&self) -> Vec<f64> {
        self.lengths(JobClass::CgSim)
    }

    /// Achieved AA trajectory lengths (ns), one per spawned AA sim.
    pub fn aa_lengths(&self) -> Vec<f64> {
        self.lengths(JobClass::AaSim)
    }

    fn lengths(&self, class: JobClass) -> Vec<f64> {
        self.sims
            .values()
            .filter(|r| r.class == class)
            .map(|r| r.achieved)
            .collect()
    }

    /// Executes one Summit allocation of `nodes` nodes for `hours` virtual
    /// hours, restarting from the previous run's checkpoint.
    pub fn execute_run(&mut self, nodes: u32, hours: u64) -> RunReport {
        self.execute_run_on(MachineSpec::summit_allocation(nodes), hours)
    }

    /// Executes one allocation on an arbitrary machine (the persistent-
    /// workflow path: "coordinate variable sized allocations as resources
    /// become available on different clusters", §6).
    pub fn execute_run_on(&mut self, machine: MachineSpec, hours: u64) -> RunReport {
        self.execute_run_controlled_on(machine, hours, &RunControl::disabled())
    }

    /// The serialized checkpoint carried from the last run boundary (or
    /// pause point), for durable storage across process boundaries. `None`
    /// until a run has completed or paused.
    pub fn checkpoint_text(&self) -> Option<String> {
        self.ckpt.as_ref().map(|c| c.to_text())
    }

    /// Installs a checkpoint (e.g. parsed back via
    /// [`WmCheckpoint::from_text`]) so the next run restores from it —
    /// the cold-restart path a service takes after losing its in-memory
    /// campaign. In-memory trajectory progress (the sims map) does not
    /// survive such a restart; ready-queue membership and WM statistics
    /// do, exactly as with the paper's on-disk checkpoint files.
    pub fn restore_checkpoint(&mut self, ckpt: WmCheckpoint) {
        self.ckpt = Some(ckpt);
    }

    /// [`Campaign::execute_run_on`] with a cooperative [`RunControl`]:
    /// the handle can pause the run at the next whole virtual hour (the
    /// pause-point rule — see `control`'s module docs) and report the
    /// run's first placement to an armed observer. A paused run
    /// closes exactly like an end-of-allocation boundary: partial
    /// trajectories credited, interrupted sims requeued into the
    /// checkpoint, ledger reconciled — so resuming is the existing
    /// restart-chain path with a shorter first leg. With a disabled (or
    /// idle) handle this is value- and byte-identical to the batch path.
    pub fn execute_run_controlled_on(
        &mut self,
        machine: MachineSpec,
        hours: u64,
        control: &RunControl,
    ) -> RunReport {
        // 20 shards either way — the paper's 20 Redis nodes. The tracer
        // is installed before the fault-window wrapper takes the store.
        let mut store = match self.cfg.store_backend {
            StoreBackend::InProcess => KvDataStore::new(20),
            StoreBackend::Loopback => KvDataStore::loopback(20),
        };
        store.set_tracer(self.tracer.clone());
        RunSim::start(self, store, machine, hours, control).run()
    }

    /// GPUs the CG partition aims to fill on a machine of `total_gpus`.
    /// Rounds down, where `WmConfig::gpu_targets` rounds to nearest: at
    /// full Summit the load threshold and ready buffers use 19,353 while
    /// the WM fills to 19,354 (ROADMAP item 17).
    fn cg_gpu_target(&self, total_gpus: u64) -> u64 {
        (total_gpus as f64 * self.cfg.cg_fraction) as u64
    }

    /// The WM configuration every incarnation of one run shares (each
    /// crash-point restore replaces only the seed).
    fn wm_config(&self, total_gpus: u64, seed: u64) -> WmConfig {
        let cg_target = self.cg_gpu_target(total_gpus);
        // Validated at construction/submission: divisor >= 1, cap >= 8.
        let divisor = self.cfg.ready_buffer_divisor;
        let cap = self.cfg.ready_buffer_cap;
        // `cg_target` can exceed `total_gpus` when `cg_fraction > 1`
        // (e.g. an operator writing 70 for 70%): the AA partition then
        // gets nothing, it must not underflow into a multi-exabyte
        // ready-buffer request.
        let aa_gpus = total_gpus.saturating_sub(cg_target);
        WmConfig {
            cg_gpu_fraction: self.cfg.cg_fraction,
            cg_ready_buffer: ((cg_target / divisor) as usize).clamp(8, cap),
            aa_ready_buffer: ((aa_gpus / divisor) as usize).clamp(4, cap / 2),
            feedback_interval: SimDuration::from_mins(10),
            profile_interval: SimDuration::from_mins(10),
            submit_rate_per_min: self.cfg.submit_rate_per_min,
            job_failure_prob: self.cfg.job_failure_prob,
            // The campaign owns restart state (its sims map + ready
            // queues); per-candidate history would dominate DES memory.
            record_history: false,
            job_timeout_grace: self.cfg.job_timeout_grace,
            seed,
            ..WmConfig::default()
        }
    }

    /// Builds one WM incarnation — a fresh resource graph, scheduler
    /// engine and workflow manager over `machine`, traced, restored from
    /// `ckpt` — for the start of a run and for every crash-point restore
    /// (a WM crash discards the whole incarnation).
    fn build_incarnation(
        &self,
        machine: &MachineSpec,
        wm_cfg: WmConfig,
        ckpt: Option<&WmCheckpoint>,
    ) -> WorkflowManager {
        let mut engine = SchedEngine::new(
            ResourceGraph::new(machine.clone()),
            self.cfg.policy,
            self.cfg.coupling,
            Costs::summit_campaign(),
        );
        engine.set_tracer(self.tracer.clone());
        engine.set_sched_policy(self.cfg.sched_policy);
        if self.cfg.record_jobs {
            engine.set_recording(true);
        }
        let mut wm = app3::build_three_scale_wm(wm_cfg, engine, 14);
        wm.set_tracer(self.tracer.clone());
        if let Some(ckpt) = ckpt {
            wm.restore(ckpt);
        }
        wm
    }

    /// Runs the paper's Table 1 schedule (or a scaled version of it).
    /// Returns (nodes, hours, runs, node_hours) rows.
    pub fn run_table(&mut self, rows: &[(u32, u64, u32)]) -> Vec<(u32, u64, u32, u64)> {
        let mut out = Vec::with_capacity(rows.len());
        for &(nodes, hours, count) in rows {
            for _ in 0..count {
                self.execute_run(nodes, hours);
            }
            out.push((nodes, hours, count, nodes as u64 * hours * count as u64));
        }
        out
    }
}

/// One allocation in flight: the state [`Campaign::execute_run_controlled_on`]
/// threads through its loop.
/// [`RunSim::run`] names the phases of a driver pass; their order is the
/// tie-break contract documented in [`crate::driver`].
struct RunSim<'c> {
    camp: &'c mut Campaign,
    control: &'c RunControl,
    /// Outlives the first engine: every crash-point restore rebuilds
    /// scheduler + WM over it.
    machine: MachineSpec,
    /// Requested allocation length.
    hours: u64,
    run_seeds: SeedStream,
    /// The driver stream: snapshot and frame generation.
    rng: StdRng,
    wm_cfg: WmConfig,
    /// The runtime model's stream, reseeded by each crash-point restore.
    model_rng: StdRng,
    /// Campaign progress at the start of the run, for the model.
    progress: f64,
    wm: WorkflowManager,
    store: ScheduledFaultStore<KvDataStore>,
    cont_nodes: u32,
    cont_perf: ContinuumPerf,
    /// The live continuum job (resubmitted by each crash restore).
    cont_id: JobId,
    cg_target: u64,
    /// Chaos-plan events in a real event queue: every pass drains what
    /// is due, and event mode additionally uses the head timestamp to
    /// bound how far the clock may jump.
    plan_q: EventQueue<FaultKind>,
    /// Hardware attrition as a pre-seeded Poisson process on its own
    /// seed stream: the (time, node) failure history is a function of
    /// the run seed and daily rate alone, invariant to the poll cadence.
    failures: FailureProcess,
    /// Optional background workload: an extra job stream submitted
    /// straight to the scheduler on its own seed stream. The WM never
    /// tracks these ids — its polls ignore unknown jobs — so the ledger
    /// books them separately.
    bg_src: Option<Box<dyn WorkloadSource>>,
    bg_ids: BTreeSet<JobId>,
    ledger: RunLedger,
    watch: MonotonicWatch,
    /// Run-local figure collectors: a WM crash discards the incarnation,
    /// so its profile and timelines are folded in before the drop.
    run_profiler: OccupancyProfiler,
    run_cg_tl: Timeline,
    run_aa_tl: Timeline,
    /// The requested end of the allocation.
    end: SimTime,
    /// The effective end of this run: `end` unless a cooperative pause
    /// pulls it in to an earlier whole-hour boundary. Monotone
    /// non-increasing — once a pause point is adopted it never moves.
    run_end: SimTime,
    t: SimTime,
    prev_t: SimTime,
    next_snapshot: SimTime,
    frame_accum: f64,
    placed: u64,
    completed: u64,
    load_time: Option<SimTime>,
    nodes_failed: u64,
    jobs_crashed: u64,
    wm_crashes: u64,
    jobs_hung: u64,
    driver_iterations: u64,
    forced_advances: u64,
    /// Per-pass scratch buffers: candidate staging, the WM event list
    /// and the encoded frame are drained or rewritten every pass, so one
    /// allocation serves the whole run.
    point_buf: Vec<HdPoint>,
    wm_events: Vec<WmEvent>,
    frame_buf: Vec<u8>,
}

impl<'c> RunSim<'c> {
    /// Sets up one allocation of `hours` virtual hours on `machine`,
    /// restoring from the campaign's checkpoint, over `inner_store`
    /// (tracer already installed).
    fn start(
        camp: &'c mut Campaign,
        inner_store: KvDataStore,
        machine: MachineSpec,
        hours: u64,
        control: &'c RunControl,
    ) -> Self {
        camp.run_idx += 1;
        let run_seeds = camp.seeds.fork_indexed("run", camp.run_idx);
        let nodes = machine.nodes;
        let total_gpus = machine.total_gpus();
        let wm_cfg = camp.wm_config(total_gpus, run_seeds.seed_for("wm"));
        let mut wm = camp.build_incarnation(&machine, wm_cfg.clone(), camp.ckpt.as_ref());
        camp.tracer.set_now(SimTime::ZERO);
        camp.tracer.instant_at(
            SimTime::ZERO,
            "campaign",
            "run.start",
            &[
                ("run", camp.run_idx.into()),
                ("nodes", nodes.into()),
                ("hours", hours.into()),
            ],
        );
        let end = SimTime::from_hours(hours);
        let cont_nodes = (nodes / 8).clamp(2, 150);
        let cont_id = submit_continuum(&mut wm, cont_nodes, SimTime::ZERO, end);

        // The chaos plan (empty unless configured): store-fault windows
        // are compiled up-front into the store wrapper.
        let mut plan = camp.cfg.fault_plan.clone().unwrap_or_default();
        plan.normalize();
        let store = ScheduledFaultStore::new(inner_store, fault_windows(&plan));
        let mut plan_q = EventQueue::new();
        for ev in &plan.events {
            plan_q.schedule(ev.at, ev.kind);
        }
        // Synthetic mixes are sized to the run length (~one arrival a
        // minute at their default cadences).
        let bg_src = camp.cfg.workload.as_ref().map(|w| {
            w.build(run_seeds.seed_for("workload"), nodes, hours * 60)
                .unwrap_or_else(|e| panic!("workload {w} failed to build: {e}"))
        });
        RunSim {
            rng: StdRng::seed_from_u64(run_seeds.seed_for("driver")),
            failures: FailureProcess::new(
                run_seeds.seed_for("node-failures"),
                camp.cfg.node_failures_per_day,
                nodes,
            ),
            cg_target: camp.cg_gpu_target(total_gpus),
            model_rng: StdRng::seed_from_u64(run_seeds.seed_for("perf")),
            progress: (camp.hours_done / camp.cfg.planned_hours).min(1.0),
            camp,
            control,
            machine,
            hours,
            run_seeds,
            wm_cfg,
            wm,
            store,
            cont_nodes,
            cont_perf: ContinuumPerf::default(),
            cont_id,
            plan_q,
            bg_src,
            bg_ids: BTreeSet::new(),
            ledger: RunLedger {
                continuum_submitted: 1,
                ..RunLedger::default()
            },
            watch: MonotonicWatch::new(),
            run_profiler: OccupancyProfiler::new(),
            run_cg_tl: Timeline::new(),
            run_aa_tl: Timeline::new(),
            end,
            run_end: end,
            t: SimTime::ZERO,
            prev_t: SimTime::ZERO,
            next_snapshot: SimTime::ZERO,
            frame_accum: 0.0,
            placed: 0,
            completed: 0,
            load_time: None,
            nodes_failed: 0,
            jobs_crashed: 0,
            wm_crashes: 0,
            jobs_hung: 0,
            driver_iterations: 0,
            forced_advances: 0,
            point_buf: Vec::new(),
            wm_events: Vec::new(),
            frame_buf: Vec::new(),
        }
    }

    /// Drives the allocation to its (possibly paused) end and closes it.
    /// One pass per wakeup: everything due at `t` drains in this phase
    /// order, then the clock moves.
    fn run(mut self) -> RunReport {
        loop {
            self.begin_pass();
            self.ingest_snapshots();
            self.ingest_frames();
            self.submit_background();
            self.apply_faults();
            let mut model = SimModel {
                camp: &mut *self.camp,
                rng: &mut self.model_rng,
                progress: self.progress,
            };
            self.wm
                .tick_into(self.t, &mut self.store, &mut model, &mut self.wm_events);
            self.account();
            if !self.advance() {
                break;
            }
        }
        self.close()
    }

    /// Stamps the pass on the tracer and store clocks and adopts a
    /// cooperative pause point: a requested/scheduled pause target
    /// (always a whole-hour boundary at or after `t`) becomes the run's
    /// new end. The current pass still executes in full, so the run
    /// closes with a final pass exactly at the boundary, mirroring the
    /// normal end-of-allocation close.
    fn begin_pass(&mut self) {
        self.driver_iterations += 1;
        self.camp.tracer.set_now(self.t);
        self.store.set_now(self.t);
        if let Some(target) = self.control.pause_target(self.t) {
            if target < self.run_end {
                self.run_end = target;
            }
        }
    }

    /// Continuum output: each due snapshot becomes a batch of patch
    /// candidates.
    fn ingest_snapshots(&mut self) {
        let cfg = &self.camp.cfg;
        while self.next_snapshot <= self.t {
            self.camp.snapshots += 1;
            self.camp.cont_samples.push(self.cont_perf.sample(
                JobShape::continuum(self.cont_nodes).total_cores(),
                &mut self.rng,
            ));
            for _ in 0..cfg.patches_per_snapshot {
                self.camp.next_id += 1;
                self.camp.patches += 1;
                let id = PayloadId::from_fmt(format_args!("cg-{:010}", self.camp.next_id));
                let state = self.rng.gen_range(0..app3::PATCH_QUEUES);
                let encoded: Vec<f64> = (0..app3::PATCH_LATENT_DIM)
                    .map(|_| self.rng.gen_range(-1.0..1.0))
                    .collect();
                self.point_buf
                    .push(app3::state_tagged_point(&id, state, encoded));
            }
            self.wm.add_patch_candidates_from(&mut self.point_buf);
            self.next_snapshot += cfg.snapshot_interval;
        }
    }

    /// CG analyses flag frames as AA candidates, proportional to the
    /// number of running CG simulations and to the virtual time that
    /// actually elapsed since the last driver pass (so the rate is
    /// honoured whether the clock sweeps or jumps).
    fn ingest_frames(&mut self) {
        let t = self.t;
        let (cg_running, _) = self.wm.launcher().class_counts(JobClass::CgSim);
        self.frame_accum += cg_running as f64
            * self.camp.cfg.frames_per_sim_per_min
            * t.since(self.prev_t).as_mins_f64();
        let n_frames = self.frame_accum as usize;
        self.frame_accum -= n_frames as f64;
        if n_frames == 0 {
            return;
        }
        for _ in 0..n_frames {
            self.camp.next_id += 1;
            self.camp.frames += 1;
            let id = PayloadId::from_fmt(format_args!("aa-{:010}", self.camp.next_id));
            let coords = vec![
                self.rng.gen_range(0.0..1.0),
                self.rng.gen_range(0.0..1.0),
                self.rng.gen_range(0.0..1.0),
            ];
            // The analyzed frame also lands in the data store for the
            // CG→continuum feedback round (paper Task 4). A store-fault
            // window may reject the write: the frame is simply lost to
            // feedback, never to job accounting.
            cg::analysis::encode_frame(
                &mut self.frame_buf,
                t.as_secs_f64(),
                [coords[0], coords[1], coords[2]],
                &[[1.0 + coords[0] - coords[1]; 8]],
            );
            let _ = self
                .store
                .write(mummi_core::ns::RDF_NEW, &id, &self.frame_buf);
            self.point_buf.push(HdPoint::new(id, coords));
        }
        self.wm.add_frame_candidates_from(&mut self.point_buf);
    }

    /// Background workload arrivals due by now, submitted at their own
    /// timestamps (== `t`: the source's next arrival is a wakeup of the
    /// clock).
    fn submit_background(&mut self) {
        if let Some(src) = self.bg_src.as_deref_mut() {
            while let Some(job) = src.pop_due(self.t) {
                self.bg_ids
                    .insert(self.wm.launcher_mut().submit(job.spec, job.at));
                self.ledger.background_submitted += 1;
            }
        }
    }

    /// Drains the hardware-attrition arrivals, then the chaos-plan
    /// events, due at or before `t`.
    fn apply_faults(&mut self) {
        let t = self.t;
        while let Some((_, node)) = self.failures.pop_due(t) {
            self.fail_node(node);
        }
        while self.plan_q.peek_time().is_some_and(|at| at <= t) {
            let Some((ev_t, kind)) = self.plan_q.pop() else {
                break;
            };
            match kind {
                FaultKind::NodeFail { node } => {
                    let node = node % self.machine.nodes.max(1);
                    if let Some(victims) = self.fail_node(node) {
                        self.camp.tracer.instant_at(
                            t,
                            "chaos",
                            "chaos.node_fail",
                            &[("node", node.into()), ("count", victims.into())],
                        );
                    }
                }
                // The window itself was pre-installed on the store; this
                // marks its opening in the trace.
                FaultKind::StoreFaults {
                    op,
                    period,
                    duration,
                    ..
                } => self.camp.tracer.instant_at(
                    t,
                    "chaos",
                    "chaos.store_window",
                    &[
                        ("op", op.label().into()),
                        ("period", period.into()),
                        ("from", ev_t.as_micros().into()),
                        ("until", (ev_t + duration).as_micros().into()),
                    ],
                ),
                FaultKind::JobHang { class } => {
                    if let Some(id) = self.wm.launcher_mut().hang_running(class, t) {
                        self.jobs_hung += 1;
                        self.camp.tracer.instant_at(
                            t,
                            "chaos",
                            "chaos.hang",
                            &[("class", class.label().into()), ("job", id.0.into())],
                        );
                    }
                }
                FaultKind::WmCrash => self.crash_restore(),
            }
        }
    }

    /// Fails `node` at `t` unless it is already drained: Flux drains it,
    /// resident jobs crash (their trackers resubmit them on the next
    /// poll), and a continuum casualty is booked on the ledger. Returns
    /// the number of crashed jobs.
    fn fail_node(&mut self, node: u32) -> Option<usize> {
        if self.wm.launcher().graph().is_drained(node) {
            return None;
        }
        let victims = self.wm.launcher_mut().fail_node(node, self.t);
        self.nodes_failed += 1;
        self.jobs_crashed += victims.len() as u64;
        if victims.contains(&self.cont_id) {
            self.ledger.continuum_failed += 1;
        }
        Some(victims.len())
    }

    /// A WM crash point: the checkpoint is the only state that survives,
    /// live jobs die with the incarnation (as do candidates ingested
    /// earlier in this pass), and a rebuilt scheduler + WM restores from
    /// it — the end-of-allocation restart path, applied mid-run.
    fn crash_restore(&mut self) {
        let t = self.t;
        self.wm_crashes += 1;
        let mut ckpt = self.wm.checkpoint();
        let (next_fb, next_prof) = self.wm.cadence();
        self.credit_interrupted(t, &mut ckpt);
        let lost = self.book_incarnation(true);
        self.camp.tracer.instant_at(
            t,
            "chaos",
            "chaos.crash",
            &[("run", self.camp.run_idx.into()), ("lost", lost.into())],
        );
        // The new incarnation gets its own seed streams: recovery must
        // not replay the dead WM's random decisions.
        let n = self.wm_crashes;
        let wm_cfg = WmConfig {
            seed: self.run_seeds.seed_for(&format!("wm-crash-{n}")),
            ..self.wm_cfg.clone()
        };
        self.model_rng = StdRng::seed_from_u64(self.run_seeds.seed_for(&format!("perf-crash-{n}")));
        self.wm = self
            .camp
            .build_incarnation(&self.machine, wm_cfg, Some(&ckpt));
        self.wm.set_cadence(next_fb, next_prof);
        // The continuum job died with the allocation's job table;
        // resubmit it for the remainder of the run.
        self.cont_id = submit_continuum(&mut self.wm, self.cont_nodes, t, self.run_end);
        self.ledger.continuum_submitted += 1;
        // Scheduler counters legitimately restart from zero.
        self.watch.reset();
    }

    /// Credits partial trajectories up to `at` to the sims the current
    /// incarnation leaves running and requeues the unfinished ones at
    /// the head of `ckpt`'s ready buffers (restart from checkpoints).
    fn credit_interrupted(&mut self, at: SimTime, ckpt: &mut WmCheckpoint) {
        let (mut cg, mut aa) = (Vec::new(), Vec::new());
        for (id, rec) in self.camp.sims.iter_mut() {
            if let Some(started) = rec.started_at.take() {
                let days = at.since(started).as_hours_f64() / 24.0;
                rec.achieved = (rec.achieved + rec.rate_per_day * days).min(rec.target);
                if rec.achieved < rec.target {
                    if rec.class == JobClass::CgSim {
                        cg.push(id.to_string());
                    } else {
                        aa.push(id.to_string());
                    }
                }
            }
        }
        requeue_ahead(&mut ckpt.cg_ready, cg);
        requeue_ahead(&mut ckpt.aa_ready, aa);
    }

    /// Closes the books on the current WM incarnation — at a crash point
    /// (`crashed`: its live jobs are lost) or at the end of the run
    /// (they are live at end) — and folds its profile and timelines into
    /// the run's. Returns the live job count.
    fn book_incarnation(&mut self, crashed: bool) -> u64 {
        let launcher = self.wm.launcher();
        let ledger = &mut self.ledger;
        let st = launcher.stats();
        ledger.submitted += st.submitted;
        ledger.placed += st.placed;
        ledger.completed += st.completed;
        ledger.failed += st.failed;
        ledger.canceled += st.canceled;
        let (live_run, live_pend) = launcher.totals();
        let live = live_run + live_pend;
        ledger.undelivered_failed += launcher.undelivered_events() as u64;
        let tt = self.wm.tracker_totals();
        ledger.t_submitted += tt.submitted;
        ledger.t_completed += tt.completed;
        ledger.t_failed += tt.failed;
        ledger.t_timed_out += tt.timed_out;
        if crashed {
            ledger.lost_in_crash += live;
            ledger.t_lost_in_crash += tt.live;
        } else {
            ledger.live_end += live;
            ledger.t_live_end += tt.live;
        }
        // Background jobs die with the incarnation's engine: book their
        // terminal states here (live ones are inside `totals()` above).
        for id in std::mem::take(&mut self.bg_ids) {
            match launcher.state(id) {
                Some(JobState::Completed) => ledger.background_completed += 1,
                Some(JobState::Failed) => ledger.background_failed += 1,
                _ => {}
            }
        }
        self.run_profiler.merge(self.wm.profiler());
        self.run_cg_tl.merge(self.wm.timeline(0));
        self.run_aa_tl.merge(self.wm.timeline(1));
        live
    }

    /// Folds the pass's WM events into the run counters and the sims
    /// map, checks the lifetime counters, and reports the run's first
    /// placement to the run control.
    fn account(&mut self) {
        let t = self.t;
        for ev in self.wm_events.drain(..) {
            match ev {
                WmEvent::SimStarted { sim_id, .. } => {
                    self.placed += 1;
                    if let Some(rec) = self.camp.sims.get_mut(&sim_id) {
                        rec.started_at = Some(t);
                    }
                }
                WmEvent::SimFinished { sim_id, .. } => {
                    self.completed += 1;
                    if let Some(rec) = self.camp.sims.get_mut(&sim_id) {
                        rec.achieved = rec.target;
                        rec.started_at = None;
                    }
                }
                _ => {}
            }
        }
        // Lifetime counters must never run backwards, fault plan or not.
        let st = self.wm.launcher().stats();
        let mut counters = vec![
            st.submitted,
            st.placed,
            st.completed,
            st.failed,
            st.canceled,
        ];
        counters.extend(self.wm.stats().fields());
        self.watch.observe(&counters);
        if self.load_time.is_none() {
            let (r, _) = self.wm.launcher().class_counts(JobClass::CgSim);
            if r * 10 >= self.cg_target * 9 {
                self.load_time = Some(t);
            }
        }
        self.control.publish(t, self.placed);
        self.prev_t = t;
    }

    /// Moves the clock to the next pass; `false` once the closing pass
    /// at `run_end` has executed.
    fn advance(&mut self) -> bool {
        if self.t >= self.run_end {
            return false;
        }
        // Next-event time advance: jump straight to the safe horizon —
        // the earliest instant any source can act — clamped so the run
        // closes with a final pass exactly at `run_end`. Every source
        // returns a wakeup strictly after `t` once its due work is
        // drained; a stale (already-past) horizon is a source contract
        // violation, counted instead of silently masked as 1 µs of drift
        // (the legacy `.max(t + 1µs)` clamp), and fatal under debug.
        let horizon = [
            self.bg_src.as_deref().and_then(|s| s.next_at()),
            self.plan_q.peek_time(),
        ]
        .into_iter()
        .flatten()
        .fold(
            self.next_snapshot
                .min(self.failures.next_at())
                .min(self.wm.next_wakeup(self.t)),
            SimTime::min,
        );
        let (next_t, forced) = driver::advance_clock(self.t, horizon, self.run_end);
        if forced {
            self.forced_advances += 1;
            debug_assert!(false, "stale wakeup at t={}us", self.t.as_micros());
        }
        self.t = next_t;
        true
    }

    /// Run over (or paused — the close-out is identical): credits
    /// partial trajectories, queues interrupted sims for the next
    /// allocation, reconciles the ledger, and folds the run into the
    /// campaign.
    fn close(mut self) -> RunReport {
        let run_end = self.run_end;
        let paused_at = (run_end < self.end).then_some(run_end);
        let executed_hours = run_end.as_micros() / 3_600_000_000;
        debug_assert_eq!(
            executed_hours * 3_600_000_000,
            run_end.as_micros(),
            "run ends and pause points are whole-hour aligned"
        );
        let mut ckpt = self.wm.checkpoint();
        self.credit_interrupted(run_end, &mut ckpt);
        self.book_incarnation(false);
        self.ledger.monotonic_violations = self.watch.violations();
        debug_assert!(
            self.ledger.check().is_empty(),
            "run {} accounting does not reconcile: {:?}",
            self.camp.run_idx,
            self.ledger.check()
        );

        // Fold the run's profile into campaign state.
        self.camp.profiler.merge(&self.run_profiler);
        self.camp.hours_done += executed_hours as f64;

        let gpu_mean = {
            let series = self.run_profiler.gpu_series();
            if series.is_empty() {
                0.0
            } else {
                series.iter().sum::<f64>() / series.len() as f64
            }
        };
        let wm_stats = self.wm.stats();
        let report = RunReport {
            nodes: self.machine.nodes,
            hours: executed_hours,
            node_hours: self.machine.nodes as u64 * executed_hours,
            placed: self.placed,
            sims_completed: self.completed,
            gpu_mean_occupancy: gpu_mean,
            load_time: self.load_time,
            peak_gpu_jobs: self.run_cg_tl.peak_running() + self.run_aa_tl.peak_running(),
            cg_timeline: self.run_cg_tl,
            aa_timeline: self.run_aa_tl,
            nodes_failed: self.nodes_failed,
            jobs_crashed: self.jobs_crashed,
            wm_crashes: self.wm_crashes,
            jobs_hung: self.jobs_hung,
            store_faults_injected: self.store.injected(),
            store_ops_delayed: self.store.delayed().0,
            jobs_timed_out: wm_stats.jobs_timed_out,
            jobs_abandoned: wm_stats.jobs_abandoned,
            ledger: self.ledger,
            driver_iterations: self.driver_iterations,
            forced_advances: self.forced_advances,
            paused_at,
            class_waits: self.wm.launcher().class_waits(),
            job_log: self
                .wm
                .launcher_mut()
                .take_log()
                .map(|log| workload::TraceFile::from_submissions(&log).to_csv()),
        };
        let tracer = &self.camp.tracer;
        if let Some(p) = paused_at {
            tracer.instant_at(
                p,
                "campaign",
                "run.paused",
                &[
                    ("run", self.camp.run_idx.into()),
                    ("requested", self.hours.into()),
                ],
            );
        }
        tracer.instant_at(
            run_end,
            "campaign",
            "run.end",
            &[
                ("run", self.camp.run_idx.into()),
                ("placed", self.placed.into()),
                ("completed", self.completed.into()),
            ],
        );
        self.camp.ckpt = Some(ckpt);
        self.camp.reports.push(report.clone());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CampaignConfig {
        CampaignConfig {
            patches_per_snapshot: 6,
            frames_per_sim_per_min: 0.05,
            cg_target_us: 0.5, // short targets so sims turn over in-test
            aa_target_ns: (5.0, 8.0),
            queue_cap: 500,
            policy: MatchPolicy::FirstMatch,
            coupling: Coupling::Asynchronous,
            submit_rate_per_min: 600,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn single_run_reaches_high_gpu_occupancy() {
        let mut c = Campaign::new(small_cfg());
        let report = c.execute_run(20, 24);
        assert_eq!(report.node_hours, 480);
        assert!(report.placed > 50, "jobs placed: {}", report.placed);
        assert!(
            report.gpu_mean_occupancy > 50.0,
            "mean GPU occupancy {:.1}%",
            report.gpu_mean_occupancy
        );
        assert!(report.load_time.is_some(), "machine should fully load");
        let (snaps, patches, frames) = c.data_counts();
        assert!(snaps > 900, "one snapshot per 90s for 24h: {snaps}");
        assert_eq!(patches, snaps * 6);
        assert!(frames > 0);
    }

    #[test]
    fn campaign_restarts_carry_over_sims() {
        let mut c = Campaign::new(small_cfg());
        c.execute_run(10, 6);
        let lens_after_1: Vec<f64> = c.cg_lengths();
        let spawned_1 = lens_after_1.len();
        assert!(spawned_1 > 0);
        c.execute_run(10, 6);
        let lens_after_2 = c.cg_lengths();
        assert!(lens_after_2.len() >= spawned_1);
        // Some trajectories grow across runs (restart continues them) or
        // more sims appear.
        let sum1: f64 = lens_after_1.iter().sum();
        let sum2: f64 = lens_after_2.iter().sum();
        assert!(
            sum2 > sum1,
            "campaign accumulates trajectory: {sum1} -> {sum2}"
        );
    }

    #[test]
    fn length_distribution_caps_at_target() {
        let mut c = Campaign::new(small_cfg());
        c.execute_run(10, 24);
        c.execute_run(10, 24);
        let lens = c.cg_lengths();
        assert!(!lens.is_empty());
        assert!(lens.iter().all(|&l| l <= 0.5 + 1e-9));
        // With 0.5 µs targets at ~1 µs/day, a 48h campaign completes many.
        let done = lens.iter().filter(|&&l| l >= 0.5 - 1e-9).count();
        assert!(done > 0, "some sims should reach target");
    }

    #[test]
    fn perf_samples_accumulate_with_spawns() {
        let mut c = Campaign::new(small_cfg());
        c.execute_run(10, 12);
        assert!(!c.cg_samples().is_empty());
        assert!(!c.continuum_samples().is_empty());
        for &(size, rate) in c.cg_samples() {
            assert!(size > 100_000.0 && rate > 0.1);
        }
    }

    #[test]
    fn table_schedule_accumulates_node_hours() {
        let mut c = Campaign::new(small_cfg());
        let rows = c.run_table(&[(5, 6, 2), (10, 6, 1)]);
        assert_eq!(rows[0], (5, 6, 2, 60));
        assert_eq!(rows[1], (10, 6, 1, 60));
        assert_eq!(c.reports().len(), 3);
        let total: u64 = rows.iter().map(|r| r.3).sum();
        assert_eq!(total, 120);
    }

    /// Regression: an over-unity CG fraction (the "70 instead of 0.70"
    /// operator typo) makes `cg_target` exceed the machine's GPU count;
    /// the AA ready-buffer sizing used to underflow in `u64` — a panic in
    /// debug, a multi-exabyte buffer request in release. It must saturate
    /// to the floor instead and the run must still execute.
    #[test]
    fn overfull_cg_fraction_saturates_aa_buffer() {
        let cfg = CampaignConfig {
            cg_fraction: 70.0,
            patches_per_snapshot: 4,
            policy: MatchPolicy::FirstMatch,
            coupling: Coupling::Asynchronous,
            ..CampaignConfig::default()
        };
        let mut c = Campaign::new(cfg);
        let r = c.execute_run(5, 6);
        assert!(r.placed > 0, "the CG-only machine still places jobs");
        assert!(r.ledger.check().is_empty(), "{:?}", r.ledger.check());
    }

    #[test]
    fn default_config_validates() {
        assert_eq!(CampaignConfig::default().validate(), Ok(()));
        assert_eq!(CampaignConfig::scale_rung(72).validate(), Ok(()));
    }

    #[test]
    fn zero_divisor_is_a_typed_error_not_a_silent_rewrite() {
        let cfg = CampaignConfig {
            ready_buffer_divisor: 0,
            ..CampaignConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroReadyBufferDivisor));
        assert_eq!(
            cfg.validate().unwrap_err().to_string(),
            "ready_buffer_divisor must be >= 1 (got 0)"
        );
    }

    #[test]
    fn tiny_cap_is_a_typed_error_not_a_silent_rewrite() {
        let cfg = CampaignConfig {
            ready_buffer_cap: 0,
            ..CampaignConfig::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ReadyBufferCapTooSmall { cap: 0 })
        );
        let cfg = CampaignConfig {
            ready_buffer_cap: 7,
            ..CampaignConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = CampaignConfig {
            ready_buffer_cap: 8,
            ..CampaignConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "invalid campaign config")]
    fn campaign_new_rejects_invalid_configs_loudly() {
        let _ = Campaign::new(CampaignConfig {
            ready_buffer_divisor: 0,
            ..CampaignConfig::default()
        });
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;

    #[test]
    fn node_failures_drain_and_resubmit() {
        let mut cfg = CampaignConfig {
            patches_per_snapshot: 6,
            frames_per_sim_per_min: 0.02,
            cg_target_us: 2.0,
            queue_cap: 500,
            policy: MatchPolicy::FirstMatch,
            coupling: Coupling::Asynchronous,
            submit_rate_per_min: 600,
            ..CampaignConfig::default()
        };
        cfg.node_failures_per_day = 10.0; // aggressive attrition (half the allocation per day)
        let mut c = Campaign::new(cfg);
        c.execute_run(20, 12);
        let r = c.execute_run(20, 12);
        assert!(r.nodes_failed >= 2, "failures occurred: {}", r.nodes_failed);
        assert!(r.jobs_crashed > 0, "jobs crashed: {}", r.jobs_crashed);
        // The campaign keeps making progress regardless.
        assert!(
            r.gpu_mean_occupancy > 40.0,
            "occupancy survives attrition: {:.1}%",
            r.gpu_mean_occupancy
        );
    }

    /// Interrupted sims go back in descending id order, ahead of the
    /// previous ready queue, as inserting each at the front did.
    #[test]
    fn interrupted_sims_requeue_descending_ahead_of_the_queue() {
        let ids = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let mut ready = ids(&["cg-0000000009", "cg-0000000001"]);
        requeue_ahead(
            &mut ready,
            ids(&["cg-0000000002", "cg-0000000005", "cg-0000000007"]),
        );
        assert_eq!(
            ready,
            ids(&[
                "cg-0000000007",
                "cg-0000000005",
                "cg-0000000002",
                "cg-0000000009",
                "cg-0000000001",
            ])
        );
        let mut ready = ids(&["x"]);
        requeue_ahead(&mut ready, Vec::new());
        assert_eq!(ready, ids(&["x"]));
    }

    #[test]
    fn zero_failure_rate_is_quiet() {
        let cfg = CampaignConfig {
            node_failures_per_day: 0.0,
            patches_per_snapshot: 4,
            policy: MatchPolicy::FirstMatch,
            coupling: Coupling::Asynchronous,
            ..CampaignConfig::default()
        };
        let mut c = Campaign::new(cfg);
        let r = c.execute_run(5, 6);
        assert_eq!(r.nodes_failed, 0);
        assert_eq!(r.jobs_crashed, 0);
    }
}
