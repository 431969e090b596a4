//! Clock primitives for the campaign event loop.
//!
//! The event-driven driver advances virtual time to a **safe horizon**:
//! the minimum over the five wakeup sources (continuum snapshot,
//! background workload, node attrition, chaos fault plan, scheduler/WM)
//! of the earliest instant each can act. Nothing can happen strictly
//! between two horizons, so jumping the clock skips no work.
//! `RunSim::advance` (`run.rs`) takes that plain minimum inline. Sources
//! due at the same instant all drain in the one pass at that instant, in
//! the statement order of `RunSim::run`'s loop body: snapshots, frames,
//! background workload, faults (attrition, then the chaos plan), then the
//! WM tick (scheduler poll and maintenance). Which source reached the
//! minimum decides nothing, so it is not recorded.
//!
//! **Forced advance.** The legacy advance expression
//! `next.min(end).max(t + 1µs)` silently bumped the clock one
//! microsecond whenever a source returned a wakeup `<= t`. At
//! [`SimTime`]'s integer-microsecond resolution a wakeup *strictly
//! between* `t` and `t + 1µs` is unrepresentable, so the only way the
//! clamp can engage is a source returning an already-past (stale)
//! wakeup — a contract violation that the old expression masked as
//! 1 µs of silent drift. [`advance_clock`] makes the case explicit: a
//! normal advance jumps exactly to the horizon, and a stale source is
//! *flagged* so the driver can count it
//! ([`crate::RunReport::forced_advances`]) and debug-assert on it.

use simcore::SimTime;

/// Advances the driver clock from `t` toward `horizon`, clamped to
/// `end`. Returns the new clock and whether the advance was **forced**.
///
/// A normal advance (`horizon > t`) jumps exactly to
/// `horizon.min(end)` — same-microsecond wakeups are impossible to skip
/// because every well-behaved source returns a wakeup strictly after
/// `now` (`SimTime` has 1 µs resolution, and each source drains
/// everything `<= t` before reporting). A stale horizon (`horizon <=
/// t`) would mean a source re-reported an already-drained event; the
/// clock still moves `t + 1µs` so a release build cannot livelock, but
/// the step is flagged so the driver can count and assert on it instead
/// of silently drifting past potential same-microsecond work like the
/// legacy `next.min(end).max(t + 1µs)` expression did.
pub fn advance_clock(t: SimTime, horizon: SimTime, end: SimTime) -> (SimTime, bool) {
    if horizon > t {
        (horizon.min(end), false)
    } else {
        (t + simcore::SimDuration::from_micros(1), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    /// The pre-PR advance expression, kept verbatim as the differential
    /// oracle for the forced-advance bugfix.
    fn legacy_advance(t: SimTime, next: SimTime, end: SimTime) -> SimTime {
        next.min(end).max(t + SimDuration::from_micros(1))
    }

    #[test]
    fn normal_advance_matches_legacy_expression() {
        // On well-behaved inputs (horizon strictly after now) the fix
        // changes nothing: same-seed traces stay byte-identical.
        let end = us(1_000_000);
        for (t, next) in [(0u64, 1), (5, 90_000_000), (7, 8), (999, 1_000)] {
            let (t2, forced) = advance_clock(us(t), us(next), end);
            assert!(!forced);
            assert_eq!(t2, legacy_advance(us(t), us(next), end));
        }
    }

    #[test]
    fn advance_clamps_to_end() {
        let (t2, forced) = advance_clock(us(10), us(500), us(100));
        assert_eq!(t2, us(100));
        assert!(!forced);
    }

    #[test]
    fn stale_horizon_is_flagged_not_silently_skipped() {
        // Regression for the forced-advance bug: the legacy expression
        // turned a stale wakeup (horizon <= now) into a silent 1 µs bump
        // — indistinguishable from a real advance, and capable of
        // jumping past work a source scheduled for the current
        // microsecond. The fixed advance still moves (no livelock) but
        // reports the violation.
        let end = us(1_000_000);
        for (t, next) in [(5u64, 5u64), (5, 4), (5, 0)] {
            let legacy = legacy_advance(us(t), us(next), end);
            assert_eq!(legacy, us(t + 1), "legacy masked the stale source");
            let (t2, forced) = advance_clock(us(t), us(next), end);
            assert_eq!(t2, us(t + 1));
            assert!(forced, "stale horizon {next} at t={t} must be flagged");
        }
    }

    #[test]
    fn sub_resolution_wakeups_cannot_exist() {
        // SimTime is integer microseconds: there is no representable
        // instant strictly between t and t + 1µs, so a wakeup "in the
        // gap" the legacy clamp could jump over is impossible by
        // construction. The smallest strictly-later wakeup advances the
        // clock exactly onto itself.
        let t = us(41);
        let gap_free_next = t + SimDuration::from_micros(1);
        let (t2, forced) = advance_clock(t, gap_free_next, us(1_000));
        assert_eq!(t2, gap_free_next);
        assert!(!forced);
    }
}
