//! Seeded worker-kill schedules for the campaign-farm chaos harness.
//!
//! A farm runs campaigns on a pool of worker threads; the fault mode that
//! matters at service level is *losing a worker mid-campaign* — the
//! in-memory campaign dies with it, and the farm must recover the tenant's
//! campaign from its last durable checkpoint on another worker without
//! losing or double-counting any job. A [`WorkerKillPlan`] schedules those
//! kills deterministically so a chaotic service run is replayable: kills
//! fire on the farm's *logical* progress clock (total completed campaign
//! legs across all workers), never on wall time, so the same plan against
//! the same submission set produces the same recovery history.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcore::SeedStream;

/// One scheduled kill: when the farm's total completed-leg counter
/// reaches `after_legs`, worker `worker` dies at its next cooperative
/// point (between legs, or at the next whole virtual hour mid-leg).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerKill {
    /// Fire once the farm has completed this many legs in total.
    pub after_legs: u64,
    /// Victim worker index (applied modulo the pool size).
    pub worker: usize,
}

/// A seeded schedule of worker kills, ordered by trigger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerKillPlan {
    /// The seed the plan was generated from (the reproduction recipe).
    pub seed: u64,
    /// Kills in trigger order (non-decreasing `after_legs`).
    pub kills: Vec<WorkerKill>,
}

impl WorkerKillPlan {
    /// No kills.
    pub fn empty() -> WorkerKillPlan {
        WorkerKillPlan::default()
    }

    /// Sorts kills by trigger, keeping same-trigger kills in insertion
    /// order so application order is well-defined.
    pub fn normalize(&mut self) {
        self.kills.sort_by_key(|k| k.after_legs);
    }

    /// Generates `count` kills spread over a farm expected to complete
    /// about `expected_legs` legs on `workers` workers. Same arguments,
    /// same plan. Triggers land in `[1, expected_legs)` so every kill
    /// hits a farm that has made some progress but still has work left.
    pub fn generate(seed: u64, workers: usize, expected_legs: u64, count: usize) -> WorkerKillPlan {
        let seeds = SeedStream::new(seed).fork("worker-kill-plan");
        let mut rng = StdRng::seed_from_u64(seeds.seed_for("kills"));
        let hi = expected_legs.max(2);
        let mut kills = Vec::with_capacity(count);
        for _ in 0..count {
            kills.push(WorkerKill {
                after_legs: rng.gen_range(1..hi),
                worker: rng.gen_range(0..workers.max(1)),
            });
        }
        let mut plan = WorkerKillPlan { seed, kills };
        plan.normalize();
        plan
    }

    /// Kills whose trigger is at or below `legs_completed`, skipping the
    /// first `fired` entries (the caller's cursor into the sorted plan).
    /// A cursor past the end reads as an exhausted plan.
    pub fn due(&self, legs_completed: u64, fired: usize) -> &[WorkerKill] {
        let fired = fired.min(self.kills.len());
        let upto = self.kills[fired..]
            .iter()
            .take_while(|k| k.after_legs <= legs_completed)
            .count();
        &self.kills[fired..fired + upto]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_sorted_and_in_range() {
        let a = WorkerKillPlan::generate(11, 4, 20, 5);
        let b = WorkerKillPlan::generate(11, 4, 20, 5);
        assert_eq!(a, b);
        assert_eq!(a.kills.len(), 5);
        assert!(a
            .kills
            .windows(2)
            .all(|w| w[0].after_legs <= w[1].after_legs));
        assert!(a
            .kills
            .iter()
            .all(|k| (1..20).contains(&k.after_legs) && k.worker < 4));
        assert_ne!(a, WorkerKillPlan::generate(12, 4, 20, 5));
    }

    #[test]
    fn due_respects_cursor_and_trigger() {
        let plan = WorkerKillPlan {
            seed: 0,
            kills: vec![
                WorkerKill {
                    after_legs: 2,
                    worker: 0,
                },
                WorkerKill {
                    after_legs: 2,
                    worker: 1,
                },
                WorkerKill {
                    after_legs: 7,
                    worker: 0,
                },
            ],
        };
        assert!(plan.due(1, 0).is_empty());
        assert_eq!(plan.due(2, 0).len(), 2);
        assert_eq!(plan.due(2, 2).len(), 0, "cursor skips fired kills");
        assert_eq!(plan.due(10, 2).len(), 1);
        assert!(
            plan.due(10, 5).is_empty(),
            "past-the-end cursor is exhausted, not a panic"
        );
    }
}
