//! Abstract job tracking (§4.3).
//!
//! "To support handling arbitrary types of jobs, we provide a generic and
//! abstract Job Tracker that can be customized using a combination of
//! inherited classes and configuration files." A [`JobTracker`] owns one
//! class of jobs: it submits them with the configured resource shape and
//! runtime model, maps scheduler events back to application payloads
//! (patch ids, simulation ids), and resubmits failures up to a budget.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::Rng;
use resources::JobShape;
use sched::{JobClass, JobEvent, JobId, JobSpec, SchedEngine};
use simcore::{SimDuration, SimTime};

// The application payload (patch/frame/simulation id). The campaign's
// names are held inline, so every tracker record, ready-queue entry,
// resubmission and `WmEvent` copies the name without touching the heap.
pub use dynim::PayloadId;

/// Per-class tracker configuration.
#[derive(Debug, Clone)]
pub struct TrackerConfig {
    /// Scheduler class of the jobs.
    pub class: JobClass,
    /// Resource shape of each job.
    pub shape: JobShape,
    /// Base virtual runtime.
    pub runtime: SimDuration,
    /// Uniform runtime jitter as a fraction of the base (0.2 = ±20%).
    pub runtime_jitter: f64,
    /// Probability a submitted job fails and needs resubmission.
    pub failure_prob: f64,
    /// Resubmission budget per payload; beyond it the payload is dropped.
    pub max_resubmits: u32,
    /// Hang watchdog grace factor: a placed job is presumed hung once it
    /// overstays `timeout_grace` times its submitted runtime (`0`
    /// disables the watchdog).
    pub timeout_grace: f64,
}

impl TrackerConfig {
    /// A tracker for `class` with shape and runtime, no jitter/failures,
    /// watchdog off.
    pub fn new(class: JobClass, shape: JobShape, runtime: SimDuration) -> TrackerConfig {
        TrackerConfig {
            class,
            shape,
            runtime,
            runtime_jitter: 0.0,
            failure_prob: 0.0,
            max_resubmits: 3,
            timeout_grace: 0.0,
        }
    }
}

/// What a tracked job's completion means to the workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tracked {
    /// The job was placed on resources.
    Started {
        /// Scheduler id.
        job: JobId,
        /// Application payload (patch/frame/simulation id).
        payload: PayloadId,
    },
    /// The job finished successfully.
    Done {
        /// Application payload.
        payload: PayloadId,
    },
    /// The job failed and was resubmitted.
    Resubmitted {
        /// Application payload.
        payload: PayloadId,
        /// Which attempt this will be (1-based).
        attempt: u32,
    },
    /// The job failed and exhausted its resubmission budget.
    Abandoned {
        /// Application payload.
        payload: PayloadId,
    },
}

/// Bookkeeping for one in-flight job: its payload plus what the tracker
/// needs to notice a hang (when it was placed and how long it should run).
#[derive(Debug, Clone)]
struct LiveJob {
    payload: PayloadId,
    /// Set when the scheduler reports placement.
    placed_at: Option<SimTime>,
    /// The virtual runtime the job was submitted with.
    runtime: SimDuration,
}

/// Tracks one class of jobs end to end.
#[derive(Debug)]
pub struct JobTracker {
    cfg: TrackerConfig,
    live: BTreeMap<JobId, LiveJob>,
    attempts: BTreeMap<PayloadId, u32>,
    /// Watchdog deadlines of placed jobs, ordered `(deadline, id)` — the
    /// index behind [`JobTracker::earliest_timeout`] and
    /// [`JobTracker::expire_overdue`].
    /// Deadlines are `placed_at + runtime × grace`; empty while the
    /// watchdog is disabled ([`TrackerConfig::timeout_grace`] `== 0`).
    deadlines: BTreeSet<(SimTime, JobId)>,
    submitted: u64,
    completed: u64,
    failed: u64,
    timed_out: u64,
}

impl JobTracker {
    /// Creates a tracker; its hang watchdog runs when
    /// [`TrackerConfig::timeout_grace`] is above zero.
    pub fn new(cfg: TrackerConfig) -> JobTracker {
        JobTracker {
            cfg,
            live: BTreeMap::new(),
            attempts: BTreeMap::new(),
            deadlines: BTreeSet::new(),
            submitted: 0,
            completed: 0,
            failed: 0,
            timed_out: 0,
        }
    }

    /// The tracker's job class.
    pub fn class(&self) -> JobClass {
        self.cfg.class
    }

    /// (submitted, completed, failed) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.submitted, self.completed, self.failed)
    }

    /// Jobs canceled by the timeout watchdog ([`JobTracker::expire_overdue`]).
    pub fn timed_out(&self) -> u64 {
        self.timed_out
    }

    /// Jobs currently live (submitted or running) under this tracker.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Submits one job for `payload` at time `at`. An explicit `runtime`
    /// serves per-payload runtime models (e.g. remaining length to target
    /// in the campaign DES); `None` takes the configured runtime with its
    /// jitter, drawn before the failure draw.
    pub fn submit(
        &mut self,
        engine: &mut SchedEngine,
        payload: PayloadId,
        at: SimTime,
        runtime: Option<SimDuration>,
        rng: &mut StdRng,
    ) -> JobId {
        let runtime = runtime.unwrap_or_else(|| {
            let jitter = if self.cfg.runtime_jitter > 0.0 {
                1.0 + rng.gen_range(-self.cfg.runtime_jitter..self.cfg.runtime_jitter)
            } else {
                1.0
            };
            self.cfg.runtime.mul_f64(jitter)
        });
        let mut spec = JobSpec::new(self.cfg.class, self.cfg.shape, runtime);
        if self.cfg.failure_prob > 0.0 && rng.gen_bool(self.cfg.failure_prob) {
            spec = spec.failing();
        }
        let id = engine.submit(spec, at);
        self.live.insert(
            id,
            LiveJob {
                payload: payload.clone(),
                placed_at: None,
                runtime,
            },
        );
        *self.attempts.entry(payload).or_insert(0) += 1;
        self.submitted += 1;
        id
    }

    /// The timeout watchdog: cancels placed jobs that have overstayed the
    /// configured grace factor times their submitted runtime (a hung job
    /// never reports completion, so the scheduler alone cannot reclaim it
    /// — §4.4's "jobs may hang" failure). Canceled payloads are
    /// resubmitted under the usual budget; the returned [`Tracked`]s
    /// describe what happened. With a grace factor above 1 a healthy job
    /// always finishes first, so only genuinely hung jobs expire. No-op
    /// while [`TrackerConfig::timeout_grace`] is zero.
    ///
    /// Overdue jobs come straight off the front of the deadline index; no
    /// live-table scan happens. They are processed in job-id
    /// (submission) order, so resubmission order — and therefore the
    /// trace — does not depend on how deadlines happen to sort.
    pub fn expire_overdue(
        &mut self,
        engine: &mut SchedEngine,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Vec<Tracked> {
        let mut overdue: Vec<JobId> = Vec::new();
        while let Some(&(deadline, id)) = self.deadlines.first() {
            // A job expires strictly after its deadline
            // (`now - placed > runtime × grace`).
            if deadline >= now {
                break;
            }
            self.deadlines.pop_first();
            overdue.push(id);
        }
        overdue.sort_unstable();
        let mut out = Vec::new();
        for id in overdue {
            engine.cancel(id);
            let Some(job) = self.live.remove(&id) else {
                continue;
            };
            self.timed_out += 1;
            let payload = job.payload;
            let attempt = self.attempts.get(&payload).copied().unwrap_or(0);
            if attempt <= self.cfg.max_resubmits {
                self.submit(engine, payload.clone(), now, None, rng);
                out.push(Tracked::Resubmitted {
                    payload,
                    attempt: attempt + 1,
                });
            } else {
                self.attempts.remove(&payload);
                out.push(Tracked::Abandoned { payload });
            }
        }
        out
    }

    /// The earliest instant at which a currently-placed job becomes
    /// overdue (see [`JobTracker::expire_overdue`], whose `>` comparison
    /// means expiry happens strictly *after* this instant). `None` when
    /// nothing is placed or the watchdog is disabled. The campaign clock
    /// uses this as the watchdog's next wakeup; it is one ordered-set
    /// peek.
    pub fn earliest_timeout(&self) -> Option<SimTime> {
        self.deadlines.first().map(|&(deadline, _)| deadline)
    }

    /// Routes a scheduler event owned by this tracker. Returns `None` for
    /// events about other trackers' jobs. Failed jobs are resubmitted
    /// immediately (at the finish time) until the budget runs out.
    pub fn on_event(
        &mut self,
        engine: &mut SchedEngine,
        event: &JobEvent,
        rng: &mut StdRng,
    ) -> Option<Tracked> {
        match *event {
            JobEvent::Placed { id, at } => {
                let job = self.live.get_mut(&id)?;
                job.placed_at = Some(at);
                let payload = job.payload.clone();
                if self.cfg.timeout_grace > 0.0 {
                    let deadline = at + job.runtime.mul_f64(self.cfg.timeout_grace);
                    self.deadlines.insert((deadline, id));
                }
                Some(Tracked::Started { job: id, payload })
            }
            JobEvent::Finished { id, at, success } => {
                let job = self.live.remove(&id)?;
                if self.cfg.timeout_grace > 0.0 {
                    if let Some(p) = job.placed_at {
                        self.deadlines
                            .remove(&(p + job.runtime.mul_f64(self.cfg.timeout_grace), id));
                    }
                }
                let payload = job.payload;
                if success {
                    self.completed += 1;
                    self.attempts.remove(&payload);
                    Some(Tracked::Done { payload })
                } else {
                    self.failed += 1;
                    let attempt = self.attempts.get(&payload).copied().unwrap_or(0);
                    if attempt <= self.cfg.max_resubmits {
                        self.submit(engine, payload.clone(), at, None, rng);
                        Some(Tracked::Resubmitted {
                            payload,
                            attempt: attempt + 1,
                        })
                    } else {
                        self.attempts.remove(&payload);
                        Some(Tracked::Abandoned { payload })
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use resources::{MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};
    use sched::{Costs, Coupling, SchedEngine};

    fn engine(nodes: u32) -> SchedEngine {
        SchedEngine::new(
            ResourceGraph::new(MachineSpec::custom("t", nodes, NodeSpec::summit())),
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::free(),
        )
    }

    fn sim_tracker(failure_prob: f64) -> JobTracker {
        JobTracker::new(TrackerConfig {
            failure_prob,
            ..TrackerConfig::new(
                JobClass::CgSim,
                JobShape::sim_standard(),
                SimDuration::from_mins(10),
            )
        })
    }

    #[test]
    fn lifecycle_maps_payloads() {
        let mut l = engine(1);
        let mut t = sim_tracker(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let id = t.submit(&mut l, "patch-42".into(), SimTime::ZERO, None, &mut rng);
        let events = l.advance(SimTime::from_secs(1));
        let tracked: Vec<Tracked> = events
            .iter()
            .filter_map(|e| t.on_event(&mut l, e, &mut rng))
            .collect();
        assert_eq!(
            tracked,
            vec![Tracked::Started {
                job: id,
                payload: "patch-42".into()
            }]
        );
        let events = l.advance(SimTime::from_mins(11));
        let tracked: Vec<Tracked> = events
            .iter()
            .filter_map(|e| t.on_event(&mut l, e, &mut rng))
            .collect();
        assert_eq!(
            tracked,
            vec![Tracked::Done {
                payload: "patch-42".into()
            }]
        );
        assert_eq!(t.counters(), (1, 1, 0));
        assert_eq!(t.live_count(), 0);
    }

    #[test]
    fn failures_are_resubmitted_until_budget() {
        let mut l = engine(1);
        let mut t = JobTracker::new(TrackerConfig {
            failure_prob: 1.0, // every attempt fails
            max_resubmits: 2,
            ..TrackerConfig::new(
                JobClass::CgSim,
                JobShape::sim_standard(),
                SimDuration::from_mins(1),
            )
        });
        let mut rng = StdRng::seed_from_u64(2);
        t.submit(&mut l, "doomed".into(), SimTime::ZERO, None, &mut rng);
        let mut resubmits = 0;
        let mut abandoned = false;
        for round in 1..20 {
            let events = l.advance(SimTime::from_mins(2 * round));
            for e in &events {
                match t.on_event(&mut l, e, &mut rng) {
                    Some(Tracked::Resubmitted { attempt, .. }) => {
                        resubmits += 1;
                        assert!(attempt <= 3);
                    }
                    Some(Tracked::Abandoned { payload }) => {
                        assert_eq!(&*payload, "doomed");
                        abandoned = true;
                    }
                    _ => {}
                }
            }
            if abandoned {
                break;
            }
        }
        assert_eq!(resubmits, 2, "budget of 2 resubmits");
        assert!(abandoned, "payload finally abandoned");
        assert_eq!(t.live_count(), 0);
    }

    #[test]
    fn hung_jobs_expire_and_resubmit() {
        let mut l = engine(1);
        let mut t = JobTracker::new(TrackerConfig {
            timeout_grace: 1.5,
            ..TrackerConfig::new(
                JobClass::CgSim,
                JobShape::sim_standard(),
                SimDuration::from_mins(10),
            )
        });
        let mut rng = StdRng::seed_from_u64(5);
        let id = t.submit(&mut l, "patch-7".into(), SimTime::ZERO, None, &mut rng);
        for e in l.advance(SimTime::from_secs(1)) {
            t.on_event(&mut l, &e, &mut rng);
        }
        l.hang_running(JobClass::CgSim, SimTime::from_mins(1));

        // Within 1.5x the 10-min runtime nothing expires.
        let none = t.expire_overdue(&mut l, SimTime::from_mins(12), &mut rng);
        assert!(none.is_empty());
        // Past the grace window the hung job is canceled and resubmitted.
        let tracked = t.expire_overdue(&mut l, SimTime::from_mins(16), &mut rng);
        assert_eq!(
            tracked,
            vec![Tracked::Resubmitted {
                payload: "patch-7".into(),
                attempt: 2
            }]
        );
        assert_eq!(l.state(id), Some(sched::JobState::Canceled));
        assert_eq!(t.timed_out(), 1);
        assert_eq!(t.live_count(), 1, "replacement job is live");
        // The replacement runs to completion (the node is healthy).
        for e in l.advance(SimTime::from_mins(40)) {
            t.on_event(&mut l, &e, &mut rng);
        }
        assert_eq!(t.counters(), (2, 1, 0));
    }

    #[test]
    fn timeout_grace_sets_each_deadline_from_placement() {
        let tracker = |timeout_grace| {
            JobTracker::new(TrackerConfig {
                timeout_grace,
                ..TrackerConfig::new(
                    JobClass::CgSim,
                    JobShape::sim_standard(),
                    SimDuration::from_mins(10),
                )
            })
        };
        let mut rng = StdRng::seed_from_u64(8);

        // Grace 0: the watchdog never arms.
        let mut l = engine(1);
        let mut off = tracker(0.0);
        off.submit(&mut l, "free".into(), SimTime::ZERO, None, &mut rng);
        for e in l.advance(SimTime::from_secs(1)) {
            off.on_event(&mut l, &e, &mut rng);
        }
        l.hang_running(JobClass::CgSim, SimTime::from_secs(2));
        assert_eq!(off.earliest_timeout(), None);
        assert!(off
            .expire_overdue(&mut l, SimTime::from_hours(10), &mut rng)
            .is_empty());

        // Grace 2: the deadline is placement + 2 × runtime, and the job
        // expires strictly after it.
        let mut l = engine(1);
        let mut t = tracker(2.0);
        assert_eq!(t.earliest_timeout(), None, "nothing placed yet");
        t.submit(&mut l, "watched".into(), SimTime::ZERO, None, &mut rng);
        let mut placed = None;
        for e in l.advance(SimTime::from_secs(1)) {
            if let JobEvent::Placed { at, .. } = e {
                placed = Some(at);
            }
            t.on_event(&mut l, &e, &mut rng);
        }
        let placed = placed.expect("the job was placed");
        l.hang_running(JobClass::CgSim, SimTime::from_secs(2));
        let deadline = placed + SimDuration::from_mins(20);
        assert_eq!(t.earliest_timeout(), Some(deadline));
        assert!(t.expire_overdue(&mut l, deadline, &mut rng).is_empty());
        let tracked = t.expire_overdue(&mut l, deadline + SimDuration::from_micros(1), &mut rng);
        assert_eq!(
            tracked,
            vec![Tracked::Resubmitted {
                payload: "watched".into(),
                attempt: 2
            }]
        );
        assert_eq!(t.timed_out(), 1);
    }

    #[test]
    fn perpetually_hung_payload_is_abandoned() {
        let mut l = engine(1);
        let mut t = JobTracker::new(TrackerConfig {
            max_resubmits: 2,
            timeout_grace: 1.5,
            ..TrackerConfig::new(
                JobClass::CgSim,
                JobShape::sim_standard(),
                SimDuration::from_mins(10),
            )
        });
        let mut rng = StdRng::seed_from_u64(6);
        t.submit(&mut l, "cursed".into(), SimTime::ZERO, None, &mut rng);
        let mut resubmits = 0;
        let mut abandoned = false;
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += SimDuration::from_mins(1);
            for e in l.advance(now) {
                t.on_event(&mut l, &e, &mut rng);
            }
            l.hang_running(JobClass::CgSim, now);
            now += SimDuration::from_mins(30);
            for e in l.advance(now) {
                t.on_event(&mut l, &e, &mut rng);
            }
            for tracked in t.expire_overdue(&mut l, now, &mut rng) {
                match tracked {
                    Tracked::Resubmitted { .. } => resubmits += 1,
                    Tracked::Abandoned { payload } => {
                        assert_eq!(&*payload, "cursed");
                        abandoned = true;
                    }
                    _ => {}
                }
            }
            if abandoned {
                break;
            }
        }
        assert_eq!(resubmits, 2, "budget of 2 resubmits");
        assert!(abandoned, "payload can never loop forever");
        assert_eq!(t.live_count(), 0);
        assert_eq!(t.timed_out(), 3);
    }

    #[test]
    fn events_for_other_trackers_are_ignored() {
        let mut l = engine(1);
        let mut cg = sim_tracker(0.0);
        let mut other = JobTracker::new(TrackerConfig::new(
            JobClass::AaSim,
            JobShape::sim_standard(),
            SimDuration::from_mins(5),
        ));
        let mut rng = StdRng::seed_from_u64(3);
        cg.submit(&mut l, "mine".into(), SimTime::ZERO, None, &mut rng);
        let events = l.advance(SimTime::from_secs(1));
        for e in &events {
            assert!(other.on_event(&mut l, e, &mut rng).is_none());
        }
    }

    #[test]
    fn runtime_jitter_varies_finish_times() {
        let mut l = engine(4);
        let mut t = JobTracker::new(TrackerConfig {
            runtime_jitter: 0.5,
            ..TrackerConfig::new(
                JobClass::CgSim,
                JobShape::sim_standard(),
                SimDuration::from_mins(100),
            )
        });
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..10 {
            t.submit(
                &mut l,
                format!("p{i}").into(),
                SimTime::ZERO,
                None,
                &mut rng,
            );
        }
        l.advance(SimTime::from_secs(1));
        let events = l.advance(SimTime::from_mins(300));
        let finish_times: std::collections::HashSet<u64> = events
            .iter()
            .filter_map(|e| match e {
                JobEvent::Finished { at, .. } => Some(at.as_micros()),
                _ => None,
            })
            .collect();
        assert!(finish_times.len() > 5, "jitter should spread finish times");
    }
}
