//! Clock primitives for the campaign event loop.
//!
//! The event-driven driver advances virtual time to a **safe horizon**:
//! the minimum over every wakeup source of the earliest instant that
//! source can act — nothing can happen strictly between two horizons, so
//! jumping the clock skips no work. Two things about the horizon are
//! load-bearing enough to live in their own module with their own
//! tests:
//!
//! 1. **Tie-breaking.** When several sources coincide at the same
//!    `SimTime`, one driver pass drains them in a *documented* priority
//!    order — the statement order of the loop body
//!    (`RunSim::run` in `run.rs`), a contract instead of an accident of
//!    a `min` chain:
//!
//!    | priority | source   | loop-body phase                      |
//!    |---------:|----------|--------------------------------------|
//!    | 0        | Snapshot | continuum snapshot → patch candidates|
//!    | 1        | Workload | background workload-source arrivals  |
//!    | 2        | Failure  | node-attrition arrivals              |
//!    | 3        | Chaos    | fault-plan events                    |
//!    | 4        | Wm       | scheduler poll + WM maintenance      |
//!
//!    Same-seed traces are byte-stable because every pass drains in
//!    this order.
//!
//! 2. **Forced advance.** The legacy advance expression
//!    `next.min(end).max(t + 1µs)` silently bumped the clock one
//!    microsecond whenever a source returned a wakeup `<= t`. At
//!    [`SimTime`]'s integer-microsecond resolution a wakeup *strictly
//!    between* `t` and `t + 1µs` is unrepresentable, so the only way the
//!    clamp can engage is a source returning an already-past (stale)
//!    wakeup — a contract violation that the old expression masked as
//!    1 µs of silent drift. [`advance_clock`] makes the
//!    case explicit: a normal advance jumps exactly to the horizon, and
//!    a stale source is *flagged* so the driver can count it
//!    ([`crate::RunReport::forced_advances`]) and debug-assert on it.

use simcore::SimTime;

/// A wakeup source of the campaign event loop, in drain priority order
/// (`Snapshot` drains first at a tied time, `Wm` last). The numeric
/// order matches the loop body's statement order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WakeSource {
    /// Continuum snapshot → patch-candidate generation.
    Snapshot,
    /// Background workload-source arrivals ([`workload::WorkloadSource`]
    /// streams submitted alongside the WM's own jobs).
    Workload,
    /// Node-attrition (hardware failure) arrivals.
    Failure,
    /// Chaos fault-plan events (node kills, store windows, hangs, WM
    /// crash points).
    Chaos,
    /// Scheduler/WM activity: job completions, ready-buffer maintenance,
    /// feedback and profile cadences, hang-watchdog deadlines.
    Wm,
}

/// The next driver pass: the earliest wakeup over all
/// sources, plus which source claims it under the documented tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Horizon {
    /// Wakeup time (safe horizon).
    pub at: SimTime,
    /// Highest-priority source due at `at`.
    pub source: WakeSource,
}

/// Computes the safe horizon from the five wakeup sources.
///
/// Ties resolve to the lowest-priority-number source ([`WakeSource`]
/// order), matching the loop body's drain order. `workload` is `None`
/// when no background workload source is configured (or it is
/// exhausted); `chaos` is `None` when the fault-plan queue is empty.
pub fn next_horizon(
    snapshot: SimTime,
    workload: Option<SimTime>,
    failure: SimTime,
    chaos: Option<SimTime>,
    wm: SimTime,
) -> Horizon {
    let mut h = Horizon {
        at: snapshot,
        source: WakeSource::Snapshot,
    };
    // Strict `<` keeps the earliest-listed source on ties: the listing
    // order *is* the priority order.
    for (at, source) in [
        (workload, WakeSource::Workload),
        (Some(failure), WakeSource::Failure),
        (chaos, WakeSource::Chaos),
        (Some(wm), WakeSource::Wm),
    ] {
        if let Some(at) = at {
            if at < h.at {
                h = Horizon { at, source };
            }
        }
    }
    h
}

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

    #[test]
    fn horizon_picks_earliest_source() {
        let h = next_horizon(us(50), None, us(20), Some(us(30)), us(40));
        assert_eq!(h.at, us(20));
        assert_eq!(h.source, WakeSource::Failure);
        let h = next_horizon(us(50), None, us(20), None, us(10));
        assert_eq!(h.source, WakeSource::Wm);
        let h = next_horizon(us(50), Some(us(5)), us(20), None, us(10));
        assert_eq!(h.at, us(5));
        assert_eq!(h.source, WakeSource::Workload);
    }

    #[test]
    fn tied_sources_resolve_in_documented_priority_order() {
        // Regression for the tie-break bugfix: before the Horizon helper
        // the processing order of coincident wakeups was an accident of
        // a `min` chain. The contract:
        // Snapshot < Workload < Failure < Chaos < Wm.
        let t = us(77);
        let all_tied = next_horizon(t, Some(t), t, Some(t), t);
        assert_eq!(all_tied.source, WakeSource::Snapshot);
        let no_snapshot = next_horizon(us(100), Some(t), t, Some(t), t);
        assert_eq!(no_snapshot.source, WakeSource::Workload);
        let no_workload = next_horizon(us(100), None, t, Some(t), t);
        assert_eq!(no_workload.source, WakeSource::Failure);
        let chaos_vs_wm = next_horizon(us(100), None, us(100), Some(t), t);
        assert_eq!(chaos_vs_wm.source, WakeSource::Chaos);
        assert!(WakeSource::Snapshot < WakeSource::Workload);
        assert!(WakeSource::Workload < WakeSource::Failure);
        assert!(WakeSource::Failure < WakeSource::Chaos);
        assert!(WakeSource::Chaos < WakeSource::Wm);
    }
}
