//! Every farm decision as a plain state machine — campaign entries,
//! tenant accounting, worker slots, the kill-plan cursor, the counters —
//! with no lock, thread, socket or clock. Each input is one `&mut self`
//! call. A worker's life is [`FarmCore::claim`], run the [`Leg`] without
//! the core, [`FarmCore::settle`]; new workers wait in
//! [`FarmCore::drain_spawns`]. [`crate::Farm`] is the thread shell around
//! it, and `tests/core.rs` drives it on one thread with in-process legs.
//!
//! A submission is a campaign config plus a *schedule* of allocation legs
//! `(nodes, hours)`. Workers run one leg at a time, picked by
//! [fair-share admission](crate::admission). Between legs a campaign
//! lives on as its warm [`Campaign`] (traces stay contiguous) and as the
//! checkpoint text of its last leg or pause boundary (what survives a
//! worker kill).
//!
//! All run control lands on whole virtual hours ([`campaign::control`]):
//! tenant pauses, rescales and worker kills stop a leg exactly like an
//! end-of-allocation boundary. A request in a leg's last hour meets the
//! leg's own end, so [`FarmCore::settle`] resolves why a leg stopped the
//! same way at a pause point and at a leg boundary. A [`WorkerKillPlan`]
//! fires on the count of completed legs; a killed worker's leg is
//! discarded and its campaign recovers from its last checkpoint, the
//! remaining schedule untouched.

use std::collections::BTreeMap;

use campaign::{Campaign, RunControl, RunReport};
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
    /// Worker kills (plan or admin op) that landed:
    /// `kills_mid_leg + kills_idle`. A plan kill due during a drain is not.
    pub kills_fired: u64,
    /// Kills that landed mid-leg; each owes one checkpoint recovery, so a
    /// drained farm has `recoveries == kills_mid_leg`.
    pub kills_mid_leg: u64,
    /// Kills that landed on an idle worker (no recovery owed).
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
    /// The submission as accepted (`schedule` is the original one).
    spec: SubmitSpec,
    state: EntryState,
    /// Warm campaign; `None` while a worker holds it, after a kill
    /// discarded it, or once the campaign completed.
    campaign: Option<Campaign>,
    /// Durable state at the last leg/pause boundary.
    ckpt_text: Option<String>,
    /// Remaining legs; the front row's hours shrink across a pause.
    remaining: Vec<(u32, u64)>,
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
    /// Width to apply to remaining legs when the running leg stops.
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
            tenant: self.spec.tenant.clone(),
            state: self.state,
            legs_total: self.spec.schedule.len() as u64,
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

    /// Rewrites the width of every remaining leg.
    fn set_width(&mut self, nodes: u32) {
        for row in &mut self.remaining {
            row.0 = nodes;
        }
    }

    /// Why a kept leg stopped short of completing the campaign, in
    /// precedence order: a tenant pause, the scheduled drain window, a
    /// pending rescale, else a plain requeue (a shutdown drain). `at` is
    /// where it stopped — `at_hours` at a pause point, `at_leg_boundary`
    /// at a leg's end (where the scheduled window is already spent).
    fn resolve_stop(&mut self, at: (&str, Json)) {
        self.state = EntryState::Paused;
        if self.paused_by_user {
            self.push_event("paused", &[at]);
        } else if self.scheduled_pause.take().is_some() {
            self.push_event("paused", &[at, ("scheduled", Json::Bool(true))]);
        } else {
            self.state = EntryState::Queued;
            if let Some(n) = self.pending_rescale.take() {
                self.set_width(n);
                self.push_event("rescaled", &[at, ("nodes", Json::Num(n as f64))]);
            }
        }
    }
}

/// One leg handed to a worker: everything needed to run it without the
/// core, and to settle it afterwards.
pub struct Leg {
    /// The claiming worker.
    pub worker: usize,
    /// Campaign id.
    pub id: u64,
    /// The campaign, warm or rebuilt from its last checkpoint.
    campaign: Campaign,
    /// Allocation width.
    nodes: u32,
    /// Allocation length in virtual hours.
    hours: u64,
    /// The campaign's run control: pause requests and kills land here.
    pub control: RunControl,
    /// The campaign has not logged `first_placement` yet: arm `control`'s
    /// observer to report it through [`FarmCore::first_placement`].
    pub announce: bool,
}

impl Leg {
    /// Runs the leg on the calling thread, to its end or its pause point.
    pub fn run(&mut self) -> RunReport {
        self.campaign.execute_run_controlled_on(
            MachineSpec::summit_allocation(self.nodes),
            self.hours,
            &self.control,
        )
    }
}

/// What an idle worker does next.
pub enum Claim {
    /// Run this leg, then hand it back to [`FarmCore::settle`].
    Run(Box<Leg>),
    /// Nothing is runnable: wait for the next change.
    Wait,
    /// The worker was killed or the farm is shutting down: exit.
    Exit,
}

/// The farm's state and every transition on it. The default core has
/// no workers and no kill plan.
#[derive(Default)]
pub struct FarmCore {
    entries: BTreeMap<u64, Entry>,
    tenants: BTreeMap<String, TenantLoad>,
    /// Live workers, each with the campaign it is running.
    workers: BTreeMap<usize, Option<u64>>,
    /// Workers ever added (the next worker's id).
    workers_spawned: usize,
    /// Workers added since the shell last looked.
    spawns: Vec<usize>,
    kill_plan: WorkerKillPlan,
    /// Cursor into the sorted kill plan: kills already due, landed or not.
    plan_cursor: usize,
    kills_mid_leg: u64,
    kills_idle: u64,
    legs_completed: u64,
    shutdown: bool,
}

impl FarmCore {
    /// A farm with `workers` pool workers (at least one) and a chaos kill
    /// plan ([`WorkerKillPlan::empty`] for none).
    pub fn new(workers: usize, kill_plan: WorkerKillPlan) -> FarmCore {
        let mut core = FarmCore {
            kill_plan,
            ..FarmCore::default()
        };
        for _ in 0..workers.max(1) {
            core.add_worker();
        }
        core
    }

    fn add_worker(&mut self) {
        self.workers.insert(self.workers_spawned, None);
        self.spawns.push(self.workers_spawned);
        self.workers_spawned += 1;
    }

    /// Worker ids added since the last call, one thread each.
    pub fn drain_spawns(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.spawns)
    }

    /// Accepts a campaign, or explains why not. The spec's config must
    /// validate (wire decoding guarantees it; in-process callers get the
    /// same check here).
    pub fn submit(&mut self, spec: SubmitSpec) -> Result<u64, String> {
        spec.cfg
            .validate()
            .map_err(|e| format!("invalid config: {e}"))?;
        if spec.schedule.is_empty() {
            return Err("schedule must contain at least one leg".to_string());
        }
        if self.shutdown {
            return Err("farm is shut down".to_string());
        }
        let id = self.entries.len() as u64 + 1;
        let legs = Json::Num(spec.schedule.len() as f64);
        let mut entry = Entry {
            id,
            state: EntryState::Queued,
            campaign: None,
            ckpt_text: None,
            remaining: spec.schedule.clone(),
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
        entry.push_event("queued", &[("legs", legs)]);
        self.entries.insert(id, entry);
        Ok(id)
    }

    /// Snapshot of one campaign.
    pub fn status(&self, id: u64) -> Option<CampaignStatus> {
        self.entries.get(&id).map(Entry::status)
    }

    /// Snapshots of every campaign, in id order.
    pub fn list(&self) -> Vec<CampaignStatus> {
        self.entries.values().map(Entry::status).collect()
    }

    /// Events from sequence `from`, and whether the campaign is terminal.
    pub fn events_since(&self, id: u64, from: u64) -> Option<(Vec<FarmEvent>, bool)> {
        self.entries.get(&id).map(|e| {
            let from = (from as usize).min(e.events.len());
            (e.events[from..].to_vec(), e.state == EntryState::Completed)
        })
    }

    /// The completed campaign's JSONL trace.
    pub fn trace_jsonl(&self, id: u64) -> Result<String, String> {
        let entry = self.entries.get(&id).ok_or("no such campaign")?;
        if entry.state != EntryState::Completed {
            return Err(format!("campaign is {}, not completed", entry.state.name()));
        }
        let jsonl = entry.trace_jsonl.clone();
        jsonl.ok_or("campaign was not submitted with trace: true".to_string())
    }

    /// Farm-wide counters.
    pub fn stats(&self) -> FarmStats {
        let mut class_waits: BTreeMap<JobClass, ClassWait> = BTreeMap::new();
        for (class, wait) in self.entries.values().flat_map(|e| &e.class_waits) {
            class_waits.entry(*class).or_default().merge(wait);
        }
        let completed = self
            .entries
            .values()
            .filter(|e| e.state == EntryState::Completed);
        FarmStats {
            submitted: self.entries.len() as u64,
            completed: completed.count() as u64,
            legs_completed: self.legs_completed,
            kills_fired: self.kills_mid_leg + self.kills_idle,
            kills_mid_leg: self.kills_mid_leg,
            kills_idle: self.kills_idle,
            recoveries: self.entries.values().map(|e| e.recoveries).sum(),
            workers_spawned: self.workers_spawned as u64,
            workers_alive: self.workers.len() as u64,
            class_waits: class_waits.into_iter().collect(),
        }
    }

    /// True once [`FarmCore::shutdown`] ran.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Requests a cooperative pause. A running leg stops at the next
    /// whole virtual hour; a queued campaign pauses immediately.
    pub fn pause(&mut self, id: u64) -> Result<(), String> {
        let entry = self.entries.get_mut(&id).ok_or("no such campaign")?;
        match entry.state {
            EntryState::Completed => return Err("campaign already completed".to_string()),
            EntryState::Paused => {}
            EntryState::Running { .. } => {
                entry.paused_by_user = true;
                entry.control.request_pause();
            }
            EntryState::Queued => {
                entry.paused_by_user = true;
                entry.state = EntryState::Paused;
                entry.push_event("paused", &[("while", Json::Str("queued".into()))]);
            }
        }
        Ok(())
    }

    /// Resumes a paused campaign, optionally rewriting the width of
    /// every remaining leg (scale-up/down across the pause).
    pub fn resume(&mut self, id: u64, nodes: Option<u32>) -> Result<(), String> {
        if self.shutdown {
            return Err("farm is shut down".to_string());
        }
        let entry = self.entries.get_mut(&id).ok_or("no such campaign")?;
        if entry.state != EntryState::Paused {
            return Err(format!("campaign is {}, not paused", entry.state.name()));
        }
        if let Some(n) = nodes {
            if n == 0 {
                return Err("nodes must be >= 1".to_string());
            }
            entry.set_width(n);
        }
        entry.paused_by_user = false;
        entry.control.clear_pause();
        entry.state = EntryState::Queued;
        let width = nodes.map(|n| Json::Num(n as f64)).unwrap_or(Json::Null);
        entry.push_event("resumed", &[("nodes", width)]);
        Ok(())
    }

    /// Rewrites the width of the remaining legs mid-flight. A running
    /// leg is paused at the next whole hour and automatically requeued
    /// at the new width (if that hour is the leg's end, the new width
    /// applies from the next leg); queued/paused campaigns change
    /// immediately.
    pub fn rescale(&mut self, id: u64, nodes: u32) -> Result<(), String> {
        if nodes == 0 {
            return Err("nodes must be >= 1".to_string());
        }
        let entry = self.entries.get_mut(&id).ok_or("no such campaign")?;
        match entry.state {
            EntryState::Completed => return Err("campaign already completed".to_string()),
            EntryState::Running { .. } => {
                entry.pending_rescale = Some(nodes);
                entry.control.request_pause();
            }
            EntryState::Queued | EntryState::Paused => {
                entry.set_width(nodes);
                entry.push_event("rescaled", &[("nodes", Json::Num(nodes as f64))]);
            }
        }
        Ok(())
    }

    /// Kills worker `worker` at its next cooperative point — the admin
    /// form of what a [`WorkerKillPlan`] does on its own clock. If the
    /// worker is mid-leg, the leg stops at the next whole hour and its
    /// partial progress is discarded; a replacement worker is added
    /// either way.
    pub fn kill_worker(&mut self, worker: usize) -> Result<(), String> {
        if !self.workers.contains_key(&worker) {
            return Err(format!("no live worker {worker}"));
        }
        self.kill_victim(worker);
        Ok(())
    }

    /// Stops accepting work and asks running legs to pause at the next
    /// whole hour. Returns false if the farm was already shut down.
    pub fn shutdown(&mut self) -> bool {
        if self.shutdown {
            return false;
        }
        self.shutdown = true;
        for entry in self.entries.values() {
            if matches!(entry.state, EntryState::Running { .. }) {
                entry.control.request_pause();
            }
        }
        true
    }

    /// Worker `worker` is idle: hands it the next runnable leg, chosen by
    /// fair-share admission, and marks the campaign running.
    pub fn claim(&mut self, worker: usize) -> Claim {
        if self.shutdown || !self.workers.contains_key(&worker) {
            self.workers.remove(&worker);
            return Claim::Exit;
        }
        let candidates: Vec<Candidate> = self
            .entries
            .values()
            .filter(|e| e.state == EntryState::Queued && !e.remaining.is_empty())
            .map(|e| Candidate {
                id: e.id,
                tenant: e.spec.tenant.clone(),
                seq: e.id,
            })
            .collect();
        let tenants = &self.tenants;
        let Some(id) =
            admission::pick(&candidates, |t| tenants.get(t).copied().unwrap_or_default())
        else {
            return Claim::Wait;
        };
        let entry = self.entries.get_mut(&id).expect("picked entry exists");
        let (nodes, hours) = entry.remaining[0];
        entry.state = EntryState::Running { worker };
        // Re-arm the control for this leg: clear any stale pause, then apply
        // the still-pending scheduled drain window (first-leg virtual clock).
        entry.control.clear_pause();
        if let Some(h) = entry.scheduled_pause {
            entry.control.schedule_pause_at(SimTime::from_hours(h));
        }
        let campaign = entry.campaign.take().unwrap_or_else(|| {
            // Cold start (first leg) or post-kill recovery: rebuild from
            // config and the last durable checkpoint.
            let mut c = Campaign::new(entry.spec.cfg.clone());
            if entry.spec.trace {
                c.set_tracer(Tracer::enabled());
            }
            if let Some(ckpt) = entry
                .ckpt_text
                .as_deref()
                .and_then(|t| WmCheckpoint::from_text(t).ok())
            {
                c.restore_checkpoint(ckpt);
            }
            c
        });
        entry.push_event(
            "leg.start",
            &[
                ("leg", Json::Num(entry.legs_done as f64)),
                ("nodes", Json::Num(nodes as f64)),
                ("hours", Json::Num(hours as f64)),
                ("worker", Json::Num(worker as f64)),
            ],
        );
        let load = self.tenants.entry(entry.spec.tenant.clone()).or_default();
        load.running += 1;
        self.workers.insert(worker, Some(id));
        Claim::Run(Box::new(Leg {
            worker,
            id,
            campaign,
            nodes,
            hours,
            control: entry.control.clone(),
            announce: !entry.first_placement_seen,
        }))
    }

    /// The driver pass of a running leg placed the campaign's first jobs
    /// (`at` is its run-local virtual time): the campaign's one liveness
    /// signal, logged when it happens rather than when the leg settles.
    pub fn first_placement(&mut self, id: u64, at: SimTime, placed: u64) {
        let Some(entry) = self.entries.get_mut(&id) else {
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
    }

    /// Books a finished (or paused, or killed) leg back into the farm.
    pub fn settle(&mut self, leg: Leg, report: RunReport) {
        if let Some(running) = self.workers.get_mut(&leg.worker) {
            *running = None; // a killed worker is already gone
        }
        let entry = self.entries.get_mut(&leg.id).expect("leg's entry");
        let load = self.tenants.entry(entry.spec.tenant.clone()).or_default();
        load.running = load.running.saturating_sub(1);
        load.node_hours += report.node_hours;

        if entry.killed {
            // The worker died mid-leg: the in-memory campaign dies with it
            // (dropped here). The campaign requeues from its last durable
            // checkpoint, remaining schedule untouched.
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
                    ("worker", Json::Num(leg.worker as f64)),
                    ("recoveries", Json::Num(entry.recoveries as f64)),
                ],
            );
            return;
        }

        // Kept leg (full or partial): book its results and its checkpoint.
        entry.placed += report.placed;
        entry.sims_completed += report.sims_completed;
        entry.node_hours += report.node_hours;
        for (class, wait) in &report.class_waits {
            entry.class_waits.entry(*class).or_default().merge(wait);
        }
        if !report.ledger.check().is_empty() {
            entry.ledger_ok = false;
        }
        entry.ckpt_text = leg.campaign.checkpoint_text();

        let Some(at) = report.paused_at else {
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
                    entry.trace_jsonl = Some(leg.campaign.tracer().to_jsonl());
                }
                entry.push_event(
                    "completed",
                    &[
                        ("legs", Json::Num(entry.legs_done as f64)),
                        ("node_hours", Json::Num(entry.node_hours as f64)),
                    ],
                );
            } else {
                entry.campaign = Some(leg.campaign);
                entry.resolve_stop(("at_leg_boundary", Json::Bool(true)));
            }
            self.legs_completed += 1;
            self.fire_due_kills();
            return;
        };
        // Partial leg: shrink the front row by the executed hours.
        entry.remaining[0].1 -= report.hours;
        entry.campaign = Some(leg.campaign);
        entry.resolve_stop(("at_hours", Json::Num(at.as_hours_f64())));
    }

    /// Fires every kill the plan says is due at the current progress
    /// count. A kill due while the farm drains (or with no live worker)
    /// advances the cursor but lands nowhere.
    fn fire_due_kills(&mut self) {
        while let Some(kill) = self
            .kill_plan
            .due(self.legs_completed, self.plan_cursor)
            .first()
            .copied()
        {
            self.plan_cursor += 1;
            // Prefer workers with a leg in flight: the plan exists to
            // exercise discard-and-recover; an idle victim tests only the
            // respawn.
            let (busy, idle): (Vec<_>, Vec<_>) = self
                .workers
                .iter()
                .partition(|(_, running)| running.is_some());
            let pool = if busy.is_empty() { idle } else { busy };
            if self.shutdown || pool.is_empty() {
                continue;
            }
            let victim = *pool[kill.worker % pool.len()].0;
            self.kill_victim(victim);
        }
    }

    /// Removes `victim`, flags its in-flight leg (if any) for discard —
    /// the leg stops at its next whole hour — and adds a replacement.
    fn kill_victim(&mut self, victim: usize) {
        match self.workers.remove(&victim).flatten() {
            Some(id) => {
                self.kills_mid_leg += 1;
                let entry = self.entries.get_mut(&id).expect("victim's entry exists");
                entry.killed = true;
                entry.control.request_pause();
            }
            None => self.kills_idle += 1,
        }
        self.add_worker();
    }
}
