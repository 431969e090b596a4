//! Node-attrition as a seeded point process.
//!
//! The driver used to decide hardware attrition with one Bernoulli draw per
//! poll tick, pulled from the shared driver RNG. That coupled the failure
//! history to the tick rate twice over: changing the tick length changed
//! both *how many* draws were made and *which* downstream draws every other
//! consumer of the stream saw. An event-driven clock cannot tick per
//! interval at all, so the process is reformulated the standard way: node
//! failures are a Poisson process, realised by sampling exponential
//! inter-arrival times from a dedicated [`simcore::SeedStream`]-derived
//! RNG. The resulting `(time, node)` stream depends only on the seed and
//! the daily rate — never on how the driver advances time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use simcore::{SimDuration, SimTime};

/// A pre-seeded Poisson process of `(failure time, victim node)` events.
///
/// Draws are consumed only when an arrival is realised, so two drivers that
/// query the process on different cadences (or jump the clock event-driven)
/// observe the exact same failure history.
#[derive(Debug)]
pub struct FailureProcess {
    rng: StdRng,
    /// Mean failures per hour; 0 disables the process.
    rate_per_hour: f64,
    nodes: u32,
    next_at: SimTime,
}

impl FailureProcess {
    /// Builds the process for an allocation of `nodes` nodes suffering
    /// `failures_per_day` mean failures per day, and draws the first
    /// arrival. A zero rate (or zero nodes) yields a process that never
    /// fires.
    pub fn new(seed: u64, failures_per_day: f64, nodes: u32) -> FailureProcess {
        let mut p = FailureProcess {
            rng: StdRng::seed_from_u64(seed),
            rate_per_hour: if nodes == 0 {
                0.0
            } else {
                failures_per_day.max(0.0) / 24.0
            },
            nodes,
            next_at: SimTime::MAX,
        };
        if p.rate_per_hour > 0.0 {
            p.next_at = SimTime::ZERO + p.draw_gap();
        }
        p
    }

    /// Exponential inter-arrival gap at the configured rate.
    fn draw_gap(&mut self) -> SimDuration {
        // U ∈ [0, 1): ln(1 - U) is finite, so the gap is never zero-width
        // in expectation nor infinite.
        let u: f64 = self.rng.gen();
        let hours = -(1.0 - u).ln() / self.rate_per_hour;
        SimDuration::from_secs_f64(hours * 3600.0)
    }

    /// The instant of the next failure, or [`SimTime::MAX`] when the
    /// process is disabled. Event-driven drivers fold this into their
    /// next-event minimum.
    pub fn next_at(&self) -> SimTime {
        self.next_at
    }

    /// Pops the next failure if it is due at or before `now`, returning
    /// its `(arrival time, victim node)` and drawing the following
    /// arrival. Loop until `None` to drain everything due.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, u32)> {
        if self.next_at > now {
            return None;
        }
        let at = self.next_at;
        let node = self.rng.gen_range(0..self.nodes);
        self.next_at = at + self.draw_gap();
        Some((at, node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(p: &mut FailureProcess, until: SimTime) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        while let Some(ev) = p.pop_due(until) {
            out.push(ev);
        }
        out
    }

    #[test]
    fn same_seed_same_history() {
        let a = drain(
            &mut FailureProcess::new(7, 4.0, 32),
            SimTime::from_hours(100),
        );
        let b = drain(
            &mut FailureProcess::new(7, 4.0, 32),
            SimTime::from_hours(100),
        );
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn history_is_invariant_to_query_cadence() {
        // One big drain vs. hourly polling vs. per-minute polling: the
        // realised (time, node) stream must be identical. This is the
        // regression test for the old per-tick Bernoulli coupling.
        let bulk = drain(
            &mut FailureProcess::new(99, 6.0, 20),
            SimTime::from_hours(48),
        );
        for step_mins in [1u64, 60, 137] {
            let mut p = FailureProcess::new(99, 6.0, 20);
            let mut polled = Vec::new();
            let mut t = SimTime::ZERO;
            while t <= SimTime::from_hours(48) {
                while let Some(ev) = p.pop_due(t) {
                    polled.push(ev);
                }
                t += SimDuration::from_mins(step_mins);
            }
            // Polling quantizes *when* we learn of events, never the
            // events themselves; the final poll covers the full horizon.
            while let Some(ev) = p.pop_due(SimTime::from_hours(48)) {
                polled.push(ev);
            }
            assert_eq!(polled, bulk, "cadence {step_mins}min reshuffled draws");
        }
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut p = FailureProcess::new(1, 0.0, 16);
        assert_eq!(p.next_at(), SimTime::MAX);
        assert!(p.pop_due(SimTime::from_hours(1_000_000)).is_none());
    }

    #[test]
    fn mean_rate_roughly_matches() {
        // 2/day over 1000 days → ~2000 events; Poisson σ≈45.
        let evs = drain(
            &mut FailureProcess::new(3, 2.0, 64),
            SimTime::from_hours(24_000),
        );
        assert!(
            (1800..2200).contains(&evs.len()),
            "got {} events",
            evs.len()
        );
        for w in evs.windows(2) {
            assert!(w[0].0 <= w[1].0, "arrivals must be ordered");
        }
        assert!(evs.iter().all(|&(_, n)| n < 64));
    }
}
