//! The farm core: a shared worker pool running many campaigns at once.
//!
//! # Model
//!
//! A submission is a campaign config plus a *schedule* of allocation legs
//! `(nodes, hours)`. Workers pick one leg at a time — chosen by
//! [fair-share admission](crate::admission) — run it to completion (or to
//! a cooperative pause point), then rejoin the pool. Between legs a
//! campaign's state lives in two places: the warm in-memory [`Campaign`]
//! (kept across legs so traces stay contiguous) and the durable
//! checkpoint text captured at every leg and pause boundary (what
//! survives a worker kill).
//!
//! # Determinism boundary
//!
//! Everything *inside* a leg is the deterministic batch path:
//! [`Campaign::execute_run_controlled_on`] with an idle control handle is
//! byte-identical to [`Campaign::execute_run`] (pinned by test). The
//! async shell only decides *when* and *where* legs run — which worker,
//! in what wall-clock order — never what happens inside one. Per-campaign
//! event sequences are deterministic; the interleaving across campaigns
//! is not, and nothing downstream may depend on it.
//!
//! # Pause-point rule
//!
//! All run control lands on whole virtual hours (see
//! [`campaign::control`]): tenant pauses, rescales, and chaos worker
//! kills all stop a leg exactly the way an end-of-allocation boundary
//! would — partial credit for finished trajectories, in-flight work
//! requeued into the checkpoint, ledger reconciled.
//!
//! # Worker kills
//!
//! A [`WorkerKillPlan`] fires on the farm's logical progress clock
//! (total completed legs). A killed worker's in-memory campaign is
//! discarded — the partial leg's progress is lost, exactly like a real
//! process death — and the campaign requeues from its last durable
//! checkpoint with `recoveries` incremented. The remaining schedule is
//! untouched, so the campaign still completes everything it promised.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex}; // lint: allow(L6: farm service state is shared across OS worker threads by design; determinism lives inside each leg, not in the shell)
use std::thread;

use campaign::{Campaign, RunControl};
use chaos::WorkerKillPlan;
use mummi_core::WmCheckpoint;
use resources::MachineSpec;
use sched::{ClassWait, JobClass};
use simcore::SimTime;
use trace::{Json, Tracer};

use crate::admission::{self, Candidate, TenantLoad};
use crate::proto::SubmitSpec;

/// Where a campaign is in its service lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Waiting for a worker (has runnable legs).
    Queued,
    /// A worker is executing a leg.
    Running {
        /// The executing worker's id.
        worker: usize,
    },
    /// Cooperatively paused; resumes only on a `resume` op.
    Paused,
    /// Every scheduled leg ran to completion.
    Completed,
}

impl EntryState {
    /// Wire name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            EntryState::Queued => "queued",
            EntryState::Running { .. } => "running",
            EntryState::Paused => "paused",
            EntryState::Completed => "completed",
        }
    }
}

/// One entry in a campaign's event log. Sequence numbers are
/// per-campaign and gapless, so a streaming client can resume from any
/// point.
#[derive(Debug, Clone)]
pub struct FarmEvent {
    /// Position in this campaign's log (starts at 0).
    pub seq: u64,
    /// Event kind (`queued`, `leg.start`, `leg.done`, `first_placement`,
    /// `paused`, `resumed`, `rescaled`, `worker.killed`, `completed`).
    /// `first_placement` is logged once per campaign, mid-leg, by the
    /// driver pass that places the first job (`at_virt_s` is that pass's
    /// run-local virtual time); a discarded leg does not repeat it.
    pub kind: String,
    /// Kind-specific payload, stable key order.
    pub fields: BTreeMap<String, Json>,
}

impl FarmEvent {
    /// The event as a JSON object: its fields plus `seq` and `kind`.
    pub fn to_value(&self) -> Json {
        let mut map = self.fields.clone();
        map.insert("seq".to_string(), Json::Num(self.seq as f64));
        map.insert("kind".to_string(), Json::Str(self.kind.clone()));
        Json::Obj(map)
    }

    /// Wire form of the event.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }
}

/// A point-in-time snapshot of one campaign, safe to hand out without
/// the farm lock.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// Campaign id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Lifecycle state.
    pub state: EntryState,
    /// Legs in the original submission.
    pub legs_total: u64,
    /// Legs fully completed.
    pub legs_done: u64,
    /// Remaining schedule (front row shrinks across a pause).
    pub remaining: Vec<(u32, u64)>,
    /// Jobs placed, summed over kept legs.
    pub placed: u64,
    /// Simulations completed, summed over kept legs.
    pub sims_completed: u64,
    /// Node-hours consumed by kept legs.
    pub node_hours: u64,
    /// Checkpoint recoveries after worker kills.
    pub recoveries: u64,
    /// True while every kept leg's [`chaos::RunLedger`] reconciled.
    pub ledger_ok: bool,
    /// Whether the campaign records a trace.
    pub traced: bool,
    /// Events logged so far.
    pub events: u64,
    /// Per-class queue-wait aggregates, merged over kept legs (sorted by
    /// class, so the wire form is deterministic).
    pub class_waits: Vec<(JobClass, ClassWait)>,
}

impl CampaignStatus {
    /// True once no further legs will run without operator action.
    pub fn terminal(&self) -> bool {
        self.state == EntryState::Completed
    }
}

/// Farm-wide counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Campaigns accepted.
    pub submitted: u64,
    /// Campaigns fully completed.
    pub completed: u64,
    /// Legs completed across all campaigns.
    pub legs_completed: u64,
    /// Worker kills fired by the chaos plan.
    pub kills_fired: u64,
    /// Kills that landed on a worker with a leg in flight. Each owes
    /// exactly one checkpoint recovery, so once the farm drains,
    /// `recoveries == kills_mid_leg` (asserted by the service suite's
    /// worker-kill test).
    pub kills_mid_leg: u64,
    /// Kills that landed on an idle worker (replacement spawned, no
    /// recovery owed).
    pub kills_idle: u64,
    /// Checkpoint recoveries performed.
    pub recoveries: u64,
    /// Workers ever spawned (pool size + replacements).
    pub workers_spawned: u64,
    /// Workers currently alive.
    pub workers_alive: u64,
    /// Per-class queue-wait aggregates merged across every campaign's
    /// kept legs (sorted by class).
    pub class_waits: Vec<(JobClass, ClassWait)>,
}

struct Entry {
    id: u64,
    tenant: String,
    seq: u64,
    spec: SubmitSpec,
    state: EntryState,
    /// Warm campaign; `None` while a worker holds it, after a kill
    /// discarded it, or once the campaign completed.
    campaign: Option<Campaign>,
    /// Durable state at the last leg/pause boundary.
    ckpt_text: Option<String>,
    /// Remaining legs; the front row's hours shrink across a pause.
    remaining: Vec<(u32, u64)>,
    legs_total: u64,
    legs_done: u64,
    placed: u64,
    sims_completed: u64,
    node_hours: u64,
    recoveries: u64,
    ledger_ok: bool,
    class_waits: BTreeMap<JobClass, ClassWait>,
    paused_by_user: bool,
    /// First-leg scheduled pause still pending (virtual hours).
    scheduled_pause: Option<u64>,
    /// Width to apply to remaining legs at the next pause boundary.
    pending_rescale: Option<u32>,
    /// The worker running this entry was killed; discard on settle.
    killed: bool,
    control: RunControl,
    events: Vec<FarmEvent>,
    trace_jsonl: Option<String>,
    first_placement_seen: bool,
}

impl Entry {
    fn push_event(&mut self, kind: &str, fields: &[(&str, Json)]) {
        self.events.push(FarmEvent {
            seq: self.events.len() as u64,
            kind: kind.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        });
    }

    fn status(&self) -> CampaignStatus {
        CampaignStatus {
            id: self.id,
            tenant: self.tenant.clone(),
            state: self.state,
            legs_total: self.legs_total,
            legs_done: self.legs_done,
            remaining: self.remaining.clone(),
            placed: self.placed,
            sims_completed: self.sims_completed,
            node_hours: self.node_hours,
            recoveries: self.recoveries,
            ledger_ok: self.ledger_ok,
            traced: self.spec.trace,
            events: self.events.len() as u64,
            class_waits: self.class_waits.iter().map(|(c, w)| (*c, *w)).collect(),
        }
    }
}

struct WorkerSlot {
    alive: bool,
    running: Option<u64>,
}

struct Inner {
    next_id: u64,
    next_seq: u64,
    entries: BTreeMap<u64, Entry>,
    tenants: BTreeMap<String, TenantLoad>,
    workers: BTreeMap<usize, WorkerSlot>,
    next_worker: usize,
    kill_plan: WorkerKillPlan,
    /// Cursor into the sorted kill plan (plan kills only).
    kills_fired: usize,
    /// Kills requested through [`Farm::kill_worker`].
    admin_kills: u64,
    /// Kills (plan or admin) that landed on a worker mid-leg — each one
    /// discards an in-flight leg and owes exactly one checkpoint
    /// recovery.
    kills_mid_leg: u64,
    /// Kills that landed on an idle worker — the worker dies and is
    /// replaced, but no leg was in flight so no recovery follows.
    kills_idle: u64,
    legs_completed: u64,
    shutdown: bool,
}

struct FarmState {
    inner: Mutex<Inner>, // lint: allow(L6: the service queue is the one intentionally shared structure; all campaign state transitions happen under this single lock)
    /// Wakes idle workers when work becomes runnable.
    work_cv: Condvar,
    /// Wakes status/stream waiters when any campaign changes.
    event_cv: Condvar,
    threads: Mutex<Vec<thread::JoinHandle<()>>>, // lint: allow(L6: join-handle parking lot for graceful shutdown; never touched on the leg execution path)
}

/// A handle to a running farm. Cheap to clone; the farm lives until
/// [`Farm::shutdown`].
#[derive(Clone)]
pub struct Farm {
    state: Arc<FarmState>,
}

/// What a worker takes out of the queue: everything needed to run one
/// leg without the farm lock.
struct Assignment {
    entry_id: u64,
    campaign: Campaign,
    nodes: u32,
    hours: u64,
    control: RunControl,
}

impl Farm {
    /// Starts a farm with `workers` pool threads and an optional chaos
    /// kill plan (pass [`WorkerKillPlan::empty`] for none).
    pub fn new(workers: usize, kill_plan: WorkerKillPlan) -> Farm {
        let inner = Inner {
            next_id: 1,
            next_seq: 0,
            entries: BTreeMap::new(),
            tenants: BTreeMap::new(),
            workers: BTreeMap::new(),
            next_worker: 0,
            kill_plan,
            kills_fired: 0,
            admin_kills: 0,
            kills_mid_leg: 0,
            kills_idle: 0,
            legs_completed: 0,
            shutdown: false,
        };
        let state = Arc::new(FarmState {
            inner: Mutex::new(inner), // lint: allow(L6: constructing the one shared service structure)
            work_cv: Condvar::new(),
            event_cv: Condvar::new(),
            threads: Mutex::new(Vec::new()), // lint: allow(L6: join-handle parking lot, shutdown only)
        });
        let farm = Farm { state };
        {
            let mut inner = farm.state.inner.lock().unwrap();
            for _ in 0..workers.max(1) {
                let idx = inner.next_worker;
                inner.next_worker += 1;
                inner.workers.insert(
                    idx,
                    WorkerSlot {
                        alive: true,
                        running: None,
                    },
                );
                spawn_worker(Arc::clone(&farm.state), idx);
            }
        }
        farm
    }

    /// Accepts a campaign, or explains why not. The spec's config must
    /// already validate (wire decoding guarantees it; in-process callers
    /// get the same check here).
    pub fn submit(&self, spec: SubmitSpec) -> Result<u64, String> {
        spec.cfg
            .validate()
            .map_err(|e| format!("invalid config: {e}"))?;
        if spec.schedule.is_empty() {
            return Err("schedule must contain at least one leg".to_string());
        }
        let mut inner = self.state.inner.lock().unwrap();
        if inner.shutdown {
            return Err("farm is shut down".to_string());
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let mut entry = Entry {
            id,
            tenant: spec.tenant.clone(),
            seq,
            state: EntryState::Queued,
            campaign: None,
            ckpt_text: None,
            remaining: spec.schedule.clone(),
            legs_total: spec.schedule.len() as u64,
            legs_done: 0,
            placed: 0,
            sims_completed: 0,
            node_hours: 0,
            recoveries: 0,
            ledger_ok: true,
            class_waits: BTreeMap::new(),
            paused_by_user: false,
            scheduled_pause: spec.pause_at_hours,
            pending_rescale: None,
            killed: false,
            control: RunControl::new(),
            events: Vec::new(),
            trace_jsonl: None,
            first_placement_seen: false,
            spec,
        };
        entry.push_event("queued", &[("legs", Json::Num(entry.legs_total as f64))]);
        inner.entries.insert(id, entry);
        self.state.work_cv.notify_all();
        self.state.event_cv.notify_all();
        Ok(id)
    }

    /// Snapshot of one campaign.
    pub fn status(&self, id: u64) -> Option<CampaignStatus> {
        let inner = self.state.inner.lock().unwrap();
        inner.entries.get(&id).map(Entry::status)
    }

    /// Snapshots of every campaign, in id order.
    pub fn list(&self) -> Vec<CampaignStatus> {
        let inner = self.state.inner.lock().unwrap();
        inner.entries.values().map(Entry::status).collect()
    }

    /// Requests a cooperative pause. A running leg stops at the next
    /// whole virtual hour; a queued campaign pauses immediately.
    pub fn pause(&self, id: u64) -> Result<(), String> {
        let mut inner = self.state.inner.lock().unwrap();
        let entry = inner.entries.get_mut(&id).ok_or("no such campaign")?;
        match entry.state {
            EntryState::Completed => Err("campaign already completed".to_string()),
            EntryState::Paused => Ok(()),
            EntryState::Running { .. } => {
                entry.paused_by_user = true;
                entry.control.request_pause();
                Ok(())
            }
            EntryState::Queued => {
                entry.paused_by_user = true;
                entry.state = EntryState::Paused;
                entry.push_event("paused", &[("while", Json::Str("queued".into()))]);
                self.state.event_cv.notify_all();
                Ok(())
            }
        }
    }

    /// Resumes a paused campaign, optionally rewriting the width of
    /// every remaining leg (scale-up/down across the pause).
    pub fn resume(&self, id: u64, nodes: Option<u32>) -> Result<(), String> {
        let mut inner = self.state.inner.lock().unwrap();
        if inner.shutdown {
            return Err("farm is shut down".to_string());
        }
        let entry = inner.entries.get_mut(&id).ok_or("no such campaign")?;
        if entry.state != EntryState::Paused {
            return Err(format!("campaign is {}, not paused", entry.state.name()));
        }
        if let Some(n) = nodes {
            if n == 0 {
                return Err("nodes must be >= 1".to_string());
            }
            for row in &mut entry.remaining {
                row.0 = n;
            }
        }
        entry.paused_by_user = false;
        entry.control.clear_pause();
        entry.state = EntryState::Queued;
        let width = nodes.map(|n| Json::Num(n as f64)).unwrap_or(Json::Null);
        entry.push_event("resumed", &[("nodes", width)]);
        self.state.work_cv.notify_all();
        self.state.event_cv.notify_all();
        Ok(())
    }

    /// Rewrites the width of the remaining legs mid-flight. A running
    /// leg is paused at the next whole hour and automatically requeued
    /// at the new width; queued/paused campaigns change immediately.
    pub fn rescale(&self, id: u64, nodes: u32) -> Result<(), String> {
        if nodes == 0 {
            return Err("nodes must be >= 1".to_string());
        }
        let mut inner = self.state.inner.lock().unwrap();
        let entry = inner.entries.get_mut(&id).ok_or("no such campaign")?;
        match entry.state {
            EntryState::Completed => Err("campaign already completed".to_string()),
            EntryState::Running { .. } => {
                entry.pending_rescale = Some(nodes);
                entry.control.request_pause();
                Ok(())
            }
            EntryState::Queued | EntryState::Paused => {
                for row in &mut entry.remaining {
                    row.0 = nodes;
                }
                entry.push_event("rescaled", &[("nodes", Json::Num(nodes as f64))]);
                self.state.event_cv.notify_all();
                Ok(())
            }
        }
    }

    /// Events from sequence `from`, plus whether the campaign is
    /// terminal. Non-blocking.
    pub fn events_since(&self, id: u64, from: u64) -> Option<(Vec<FarmEvent>, bool)> {
        let inner = self.state.inner.lock().unwrap();
        inner.entries.get(&id).map(|e| {
            let from = (from as usize).min(e.events.len());
            (e.events[from..].to_vec(), e.state == EntryState::Completed)
        })
    }

    /// Blocks until the campaign has events past `from`, is terminal, or
    /// the farm shuts down; then returns the new events and terminality.
    pub fn wait_events(&self, id: u64, from: u64) -> Result<(Vec<FarmEvent>, bool), String> {
        let mut inner = self.state.inner.lock().unwrap();
        loop {
            let entry = inner.entries.get(&id).ok_or("no such campaign")?;
            let terminal = entry.state == EntryState::Completed;
            if (from as usize) < entry.events.len() || terminal || inner.shutdown {
                let from = (from as usize).min(entry.events.len());
                return Ok((entry.events[from..].to_vec(), terminal));
            }
            inner = self.state.event_cv.wait(inner).unwrap();
        }
    }

    /// Blocks until `pred` holds for the campaign's status (or the farm
    /// shuts down), then returns the status.
    pub fn wait_until(
        &self,
        id: u64,
        pred: impl Fn(&CampaignStatus) -> bool,
    ) -> Result<CampaignStatus, String> {
        let mut inner = self.state.inner.lock().unwrap();
        loop {
            let status = inner.entries.get(&id).ok_or("no such campaign")?.status();
            if pred(&status) || inner.shutdown {
                return Ok(status);
            }
            inner = self.state.event_cv.wait(inner).unwrap();
        }
    }

    /// The completed campaign's JSONL trace.
    pub fn trace_jsonl(&self, id: u64) -> Result<String, String> {
        let inner = self.state.inner.lock().unwrap();
        let entry = inner.entries.get(&id).ok_or("no such campaign")?;
        if entry.state != EntryState::Completed {
            return Err(format!("campaign is {}, not completed", entry.state.name()));
        }
        entry
            .trace_jsonl
            .clone()
            .ok_or("campaign was not submitted with trace: true".to_string())
    }

    /// Farm-wide counters.
    pub fn stats(&self) -> FarmStats {
        let inner = self.state.inner.lock().unwrap();
        let mut class_waits: BTreeMap<JobClass, ClassWait> = BTreeMap::new();
        for entry in inner.entries.values() {
            for (class, wait) in &entry.class_waits {
                let agg = class_waits.entry(*class).or_default();
                agg.count += wait.count;
                agg.sum_us += wait.sum_us;
                agg.max_us = agg.max_us.max(wait.max_us);
            }
        }
        FarmStats {
            submitted: inner.next_id - 1,
            completed: inner
                .entries
                .values()
                .filter(|e| e.state == EntryState::Completed)
                .count() as u64,
            legs_completed: inner.legs_completed,
            kills_fired: inner.kills_fired as u64 + inner.admin_kills,
            kills_mid_leg: inner.kills_mid_leg,
            kills_idle: inner.kills_idle,
            recoveries: inner.entries.values().map(|e| e.recoveries).sum(),
            workers_spawned: inner.next_worker as u64,
            workers_alive: inner.workers.values().filter(|w| w.alive).count() as u64,
            class_waits: class_waits.into_iter().collect(),
        }
    }

    /// Kills worker `worker` at its next cooperative point — the admin
    /// form of what a [`WorkerKillPlan`] does on its own clock. If the
    /// worker is mid-leg, the leg stops at the next whole hour and its
    /// partial progress is discarded; a replacement worker is spawned
    /// either way.
    pub fn kill_worker(&self, worker: usize) -> Result<(), String> {
        let mut inner = self.state.inner.lock().unwrap();
        if !inner.workers.get(&worker).is_some_and(|w| w.alive) {
            return Err(format!("no live worker {worker}"));
        }
        inner.admin_kills += 1;
        kill_victim(&mut inner, &self.state, worker);
        self.state.work_cv.notify_all();
        Ok(())
    }

    /// True once [`Farm::shutdown`] ran.
    pub fn is_shutdown(&self) -> bool {
        self.state.inner.lock().unwrap().shutdown
    }

    /// Stops accepting work, asks running legs to pause at the next
    /// whole hour, and joins every worker. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut inner = self.state.inner.lock().unwrap();
            if inner.shutdown {
                return;
            }
            inner.shutdown = true;
            for entry in inner.entries.values() {
                if matches!(entry.state, EntryState::Running { .. }) {
                    entry.control.request_pause();
                }
            }
            self.state.work_cv.notify_all();
            self.state.event_cv.notify_all();
        }
        loop {
            let handles: Vec<_> = self.state.threads.lock().unwrap().drain(..).collect();
            if handles.is_empty() {
                return;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

fn spawn_worker(state: Arc<FarmState>, me: usize) {
    let for_thread = Arc::clone(&state);
    let handle = thread::spawn(move || worker_main(for_thread, me));
    state.threads.lock().unwrap().push(handle);
}

fn worker_main(state: Arc<FarmState>, me: usize) {
    loop {
        let assignment = {
            let mut inner = state.inner.lock().unwrap();
            loop {
                if inner.shutdown || !inner.workers[&me].alive {
                    let slot = inner.workers.get_mut(&me).expect("worker slot exists");
                    slot.alive = false;
                    state.event_cv.notify_all();
                    return;
                }
                if let Some(a) = claim_next(&state, &mut inner, me) {
                    // The Queued -> Running transition and its leg.start
                    // event must wake status waiters and stream readers.
                    state.event_cv.notify_all();
                    break a;
                }
                inner = state.work_cv.wait(inner).unwrap();
            }
        };
        let Assignment {
            entry_id,
            mut campaign,
            nodes,
            hours,
            control,
        } = assignment;
        let report = campaign.execute_run_controlled_on(
            MachineSpec::summit_allocation(nodes),
            hours,
            &control,
        );
        settle(&state, me, entry_id, campaign, report);
    }
}

/// Picks the next runnable leg for worker `me` and marks it running.
/// Returns `None` when nothing is runnable.
fn claim_next(state: &Arc<FarmState>, inner: &mut Inner, me: usize) -> Option<Assignment> {
    let candidates: Vec<Candidate> = inner
        .entries
        .values()
        .filter(|e| e.state == EntryState::Queued && !e.remaining.is_empty())
        .map(|e| Candidate {
            id: e.id,
            tenant: e.tenant.clone(),
            seq: e.seq,
        })
        .collect();
    let tenants = &inner.tenants;
    let id = admission::pick(&candidates, |t| tenants.get(t).copied().unwrap_or_default())?;
    let entry = inner.entries.get_mut(&id).expect("picked entry exists");
    let (nodes, hours) = entry.remaining[0];
    entry.state = EntryState::Running { worker: me };
    // Re-arm the control for this leg: clear any stale pause, then apply
    // the still-pending scheduled drain window (first-leg virtual clock).
    entry.control.clear_pause();
    if let Some(h) = entry.scheduled_pause {
        entry.control.schedule_pause_at(SimTime::from_hours(h));
    }
    let campaign = match entry.campaign.take() {
        Some(c) => c,
        None => {
            // Cold start (first leg) or post-kill recovery: rebuild from
            // config and the last durable checkpoint.
            let mut c = Campaign::new(entry.spec.cfg.clone());
            if entry.spec.trace {
                c.set_tracer(Tracer::enabled());
            }
            if let Some(text) = &entry.ckpt_text {
                if let Ok(ckpt) = WmCheckpoint::from_text(text) {
                    c.restore_checkpoint(ckpt);
                }
            }
            c
        }
    };
    entry.push_event(
        "leg.start",
        &[
            ("leg", Json::Num(entry.legs_done as f64)),
            ("nodes", Json::Num(nodes as f64)),
            ("hours", Json::Num(hours as f64)),
            ("worker", Json::Num(me as f64)),
        ],
    );
    if !entry.first_placement_seen {
        // The campaign's one liveness signal, logged from the driver's
        // pass that places its first job rather than when the leg
        // settles. Weak: an observer that never fires (nothing placed)
        // must not keep the farm alive through its own entry.
        let state = Arc::downgrade(state);
        entry.control.on_first_placement(move |at, placed| {
            let Some(state) = state.upgrade() else { return };
            let mut inner = state.inner.lock().unwrap();
            let Some(entry) = inner.entries.get_mut(&id) else {
                return;
            };
            entry.first_placement_seen = true;
            entry.push_event(
                "first_placement",
                &[
                    ("placed", Json::Num(placed as f64)),
                    ("at_virt_s", Json::Num(at.as_secs_f64())),
                ],
            );
            state.event_cv.notify_all();
        });
    }
    let control = entry.control.clone();
    inner
        .tenants
        .entry(entry.tenant.clone())
        .or_default()
        .running += 1;
    inner
        .workers
        .get_mut(&me)
        .expect("claiming worker exists")
        .running = Some(id);
    Some(Assignment {
        entry_id: id,
        campaign,
        nodes,
        hours,
        control,
    })
}

/// Books a finished (or paused, or killed) leg back into the farm.
fn settle(
    state: &Arc<FarmState>,
    me: usize,
    id: u64,
    campaign: Campaign,
    report: campaign::RunReport,
) {
    let mut inner = state.inner.lock().unwrap();
    inner
        .workers
        .get_mut(&me)
        .expect("settling worker exists")
        .running = None;
    let tenant = inner.entries[&id].tenant.clone();
    {
        let load = inner.tenants.entry(tenant).or_default();
        load.running = load.running.saturating_sub(1);
        load.node_hours += report.node_hours;
    }
    let entry = inner.entries.get_mut(&id).expect("settling entry exists");

    if entry.killed {
        // The worker died mid-leg: the in-memory campaign is gone with
        // it. Partial progress is discarded — the campaign requeues from
        // its last durable checkpoint, remaining schedule untouched.
        drop(campaign);
        entry.killed = false;
        entry.recoveries += 1;
        entry.control.clear_pause();
        entry.state = if entry.paused_by_user {
            EntryState::Paused
        } else {
            EntryState::Queued
        };
        entry.push_event(
            "worker.killed",
            &[
                ("worker", Json::Num(me as f64)),
                ("recoveries", Json::Num(entry.recoveries as f64)),
            ],
        );
        state.work_cv.notify_all();
        state.event_cv.notify_all();
        return;
    }

    // Kept leg (full or partial): book its results and its checkpoint.
    entry.placed += report.placed;
    entry.sims_completed += report.sims_completed;
    entry.node_hours += report.node_hours;
    for (class, wait) in &report.class_waits {
        let agg = entry.class_waits.entry(*class).or_default();
        agg.count += wait.count;
        agg.sum_us += wait.sum_us;
        agg.max_us = agg.max_us.max(wait.max_us);
    }
    if !report.ledger.check().is_empty() {
        entry.ledger_ok = false;
    }
    entry.ckpt_text = campaign.checkpoint_text();

    match report.paused_at {
        None => {
            // Full leg. The scheduled drain window, if any, never fired
            // inside this leg — it is spent.
            entry.scheduled_pause = None;
            entry.remaining.remove(0);
            entry.legs_done += 1;
            entry.push_event(
                "leg.done",
                &[
                    ("leg", Json::Num((entry.legs_done - 1) as f64)),
                    ("placed", Json::Num(entry.placed as f64)),
                    ("sims_completed", Json::Num(entry.sims_completed as f64)),
                ],
            );
            if entry.remaining.is_empty() {
                entry.state = EntryState::Completed;
                if entry.spec.trace {
                    entry.trace_jsonl = Some(campaign.tracer().to_jsonl());
                }
                entry.push_event(
                    "completed",
                    &[
                        ("legs", Json::Num(entry.legs_done as f64)),
                        ("node_hours", Json::Num(entry.node_hours as f64)),
                    ],
                );
            } else {
                entry.campaign = Some(campaign);
                entry.state = if entry.paused_by_user {
                    EntryState::Paused
                } else {
                    EntryState::Queued
                };
                if entry.state == EntryState::Paused {
                    entry.push_event("paused", &[("at_leg_boundary", Json::Bool(true))]);
                }
            }
            inner.legs_completed += 1;
            fire_due_kills(&mut inner, state);
        }
        Some(at) => {
            // Partial leg: shrink the front row by the executed hours and
            // decide why we stopped, in precedence order.
            let executed = report.hours;
            entry.remaining[0].1 -= executed;
            entry.campaign = Some(campaign);
            let at_hours = Json::Num(at.as_hours_f64());
            if entry.paused_by_user {
                entry.state = EntryState::Paused;
                entry.push_event("paused", &[("at_hours", at_hours)]);
            } else if entry.scheduled_pause.is_some() {
                entry.scheduled_pause = None;
                entry.state = EntryState::Paused;
                entry.push_event(
                    "paused",
                    &[("at_hours", at_hours), ("scheduled", Json::Bool(true))],
                );
            } else if let Some(n) = entry.pending_rescale.take() {
                for row in &mut entry.remaining {
                    row.0 = n;
                }
                entry.state = EntryState::Queued;
                entry.push_event(
                    "rescaled",
                    &[("at_hours", at_hours), ("nodes", Json::Num(n as f64))],
                );
            } else {
                // Shutdown drain (or a pause whose reason was cleared):
                // leave the campaign queued and resumable.
                entry.state = EntryState::Queued;
            }
        }
    }
    state.work_cv.notify_all();
    state.event_cv.notify_all();
}

/// Fires every kill the plan says is due at the current progress count.
/// Victims running a leg get the killed flag plus a pause request (the
/// kill lands at the leg's next cooperative point); idle victims just
/// die. Every kill spawns a replacement worker.
fn fire_due_kills(inner: &mut Inner, state: &Arc<FarmState>) {
    loop {
        let due = inner.kill_plan.due(inner.legs_completed, inner.kills_fired);
        let Some(kill) = due.first().copied() else {
            return;
        };
        inner.kills_fired += 1;
        if inner.shutdown {
            continue; // plan exhausted against a draining farm
        }
        // Prefer workers with a leg actually in flight: the plan exists
        // to exercise the discard-and-recover path, and a kill that
        // lands on an idle worker tests nothing but the respawn. Only
        // when every live worker is idle does the kill fall through to
        // the full pool.
        let busy: Vec<usize> = inner
            .workers
            .iter()
            .filter(|(_, slot)| slot.alive && slot.running.is_some())
            .map(|(idx, _)| *idx)
            .collect();
        let pool: Vec<usize> = if busy.is_empty() {
            inner
                .workers
                .iter()
                .filter(|(_, slot)| slot.alive)
                .map(|(idx, _)| *idx)
                .collect()
        } else {
            busy
        };
        if pool.is_empty() {
            continue;
        }
        let victim = pool[kill.worker % pool.len()];
        kill_victim(inner, state, victim);
        state.work_cv.notify_all();
    }
}

/// Marks `victim` dead, flags its in-flight leg (if any) for discard,
/// and spawns a replacement worker.
fn kill_victim(inner: &mut Inner, state: &Arc<FarmState>, victim: usize) {
    let slot = inner.workers.get_mut(&victim).expect("victim slot exists");
    slot.alive = false;
    if let Some(entry_id) = slot.running {
        inner.kills_mid_leg += 1;
        let entry = inner
            .entries
            .get_mut(&entry_id)
            .expect("victim's entry exists");
        entry.killed = true;
        entry.control.request_pause();
    } else {
        inner.kills_idle += 1;
    }
    let idx = inner.next_worker;
    inner.next_worker += 1;
    inner.workers.insert(
        idx,
        WorkerSlot {
            alive: true,
            running: None,
        },
    );
    spawn_worker(Arc::clone(state), idx);
}
