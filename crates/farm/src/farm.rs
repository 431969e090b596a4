//! The farm's thread shell: one [`FarmCore`] behind a lock, the worker
//! threads, and two condition variables. Each operation is one core call;
//! after it `Shared::react` starts the workers the core added and wakes
//! every waiter — the one place the farm notifies. A worker claims a leg,
//! runs it without the lock and settles it; its first placement reaches
//! the core through a `Weak` observer on the leg's control handle.
//!
//! Determinism boundary: inside a leg runs the batch path
//! ([`campaign::Campaign::execute_run_controlled_on`] with an idle handle
//! is byte-identical to [`campaign::Campaign::execute_run`], pinned by
//! test). The shell decides only *when* and *where* legs run; the
//! interleaving across campaigns is not deterministic, and nothing
//! downstream may depend on it.

use std::sync::{Arc, Condvar, Mutex}; // lint: allow(L6: farm service state is shared across OS worker threads by design; determinism lives inside each leg, not in the shell)
use std::thread;

use chaos::WorkerKillPlan;

use crate::core::{CampaignStatus, Claim, FarmCore, FarmEvent, FarmStats};
use crate::proto::SubmitSpec;

/// Locks and waits fail only after a farm thread panicked holding the lock.
const POISONED: &str = "a farm thread panicked holding a farm lock";

struct Shared {
    core: Mutex<FarmCore>, // lint: allow(L6: the farm core is the one intentionally shared structure; every state transition is one core call under this single lock)
    /// Idle workers wait here to claim again.
    work_cv: Condvar,
    /// Status/stream waiters wait here for a campaign to change.
    event_cv: Condvar,
    threads: Mutex<Vec<thread::JoinHandle<()>>>, // lint: allow(L6: join-handle parking lot for graceful shutdown; never touched on the leg execution path)
}

impl Shared {
    /// Reads the core under the lock.
    fn read<R>(&self, f: impl FnOnce(&FarmCore) -> R) -> R {
        f(&self.core.lock().expect(POISONED))
    }

    /// One core transition under the lock, then [`Shared::react`].
    fn call<R>(self: &Arc<Self>, op: impl FnOnce(&mut FarmCore) -> R) -> R {
        let mut core = self.core.lock().expect(POISONED);
        let out = op(&mut core);
        self.react(&mut core);
        out
    }

    /// What the shell does after every core transition: start a thread
    /// for each worker the core added, then wake every waiter.
    fn react(self: &Arc<Self>, core: &mut FarmCore) {
        for worker in core.drain_spawns() {
            let shared = Arc::clone(self);
            let handle = thread::spawn(move || worker_main(shared, worker));
            self.threads.lock().expect(POISONED).push(handle);
        }
        self.work_cv.notify_all();
        self.event_cv.notify_all();
    }
}

/// A handle to a running farm. Cheap to clone; the farm lives until
/// [`Farm::shutdown`].
#[derive(Clone)]
pub struct Farm {
    shared: Arc<Shared>,
}

impl Farm {
    /// Starts a farm with `workers` pool threads and an optional chaos
    /// kill plan (pass [`WorkerKillPlan::empty`] for none).
    pub fn new(workers: usize, kill_plan: WorkerKillPlan) -> Farm {
        let shared = Arc::new(Shared {
            core: Mutex::new(FarmCore::new(workers, kill_plan)), // lint: allow(L6: constructing the one shared service structure)
            work_cv: Condvar::new(),
            event_cv: Condvar::new(),
            threads: Mutex::new(Vec::new()), // lint: allow(L6: join-handle parking lot, shutdown only)
        });
        shared.call(|_| ()); // starts the pool
        Farm { shared }
    }

    /// Accepts a campaign, or explains why not (see [`FarmCore::submit`]).
    pub fn submit(&self, spec: SubmitSpec) -> Result<u64, String> {
        self.shared.call(|core| core.submit(spec))
    }

    /// Snapshot of one campaign.
    pub fn status(&self, id: u64) -> Option<CampaignStatus> {
        self.shared.read(|core| core.status(id))
    }

    /// Snapshots of every campaign, in id order.
    pub fn list(&self) -> Vec<CampaignStatus> {
        self.shared.read(|core| core.list())
    }

    /// Requests a cooperative pause (see [`FarmCore::pause`]).
    pub fn pause(&self, id: u64) -> Result<(), String> {
        self.shared.call(|core| core.pause(id))
    }

    /// Resumes a paused campaign (see [`FarmCore::resume`]).
    pub fn resume(&self, id: u64, nodes: Option<u32>) -> Result<(), String> {
        self.shared.call(|core| core.resume(id, nodes))
    }

    /// Rewrites the remaining legs' width (see [`FarmCore::rescale`]).
    pub fn rescale(&self, id: u64, nodes: u32) -> Result<(), String> {
        self.shared.call(|core| core.rescale(id, nodes))
    }

    /// Events from sequence `from`, and terminality. Non-blocking.
    pub fn events_since(&self, id: u64, from: u64) -> Option<(Vec<FarmEvent>, bool)> {
        self.shared.read(|core| core.events_since(id, from))
    }

    /// Blocks until the campaign has events past `from`, is terminal, or
    /// the farm shuts down; then returns the new events and terminality.
    pub fn wait_events(&self, id: u64, from: u64) -> Result<(Vec<FarmEvent>, bool), String> {
        let mut core = self.shared.core.lock().expect(POISONED);
        loop {
            let (events, terminal) = core.events_since(id, from).ok_or("no such campaign")?;
            if !events.is_empty() || terminal || core.is_shutdown() {
                return Ok((events, terminal));
            }
            core = self.shared.event_cv.wait(core).expect(POISONED);
        }
    }

    /// Blocks until `pred` holds for the campaign's status (or the farm
    /// shuts down), then returns the status.
    pub fn wait_until(
        &self,
        id: u64,
        pred: impl Fn(&CampaignStatus) -> bool,
    ) -> Result<CampaignStatus, String> {
        let mut core = self.shared.core.lock().expect(POISONED);
        loop {
            let status = core.status(id).ok_or("no such campaign")?;
            if pred(&status) || core.is_shutdown() {
                return Ok(status);
            }
            core = self.shared.event_cv.wait(core).expect(POISONED);
        }
    }

    /// The completed campaign's JSONL trace.
    pub fn trace_jsonl(&self, id: u64) -> Result<String, String> {
        self.shared.read(|core| core.trace_jsonl(id))
    }

    /// Farm-wide counters.
    pub fn stats(&self) -> FarmStats {
        self.shared.read(|core| core.stats())
    }

    /// Kills worker `worker` (see [`FarmCore::kill_worker`]).
    pub fn kill_worker(&self, worker: usize) -> Result<(), String> {
        self.shared.call(|core| core.kill_worker(worker))
    }

    /// True once [`Farm::shutdown`] ran.
    pub fn is_shutdown(&self) -> bool {
        self.shared.read(|core| core.is_shutdown())
    }

    /// Stops accepting work, asks running legs to pause at the next
    /// whole hour, and joins every worker. Idempotent.
    pub fn shutdown(&self) {
        if !self.shared.call(FarmCore::shutdown) {
            return;
        }
        loop {
            let handles = std::mem::take(&mut *self.shared.threads.lock().expect(POISONED));
            if handles.is_empty() {
                return;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

fn worker_main(shared: Arc<Shared>, me: usize) {
    let mut core = shared.core.lock().expect(POISONED);
    loop {
        let mut leg = match core.claim(me) {
            Claim::Run(leg) => leg,
            Claim::Wait => {
                core = shared.work_cv.wait(core).expect(POISONED);
                continue;
            }
            Claim::Exit => {
                shared.react(&mut core);
                return;
            }
        };
        shared.react(&mut core);
        drop(core);
        if leg.announce {
            // Weak: an observer that never fires (nothing placed) must not
            // keep the farm alive through its own entry.
            let (weak, id) = (Arc::downgrade(&shared), leg.id);
            leg.control.on_first_placement(move |at, placed| {
                if let Some(shared) = weak.upgrade() {
                    shared.call(|core| core.first_placement(id, at, placed));
                }
            });
        }
        let report = leg.run();
        core = shared.core.lock().expect(POISONED);
        core.settle(*leg, report);
        shared.react(&mut core);
    }
}
