//! Property-based agreement between `Throttle::reserve` and
//! `Throttle::slots_within`.
//!
//! `slots_within(now, window)` is the planning view ("how many submissions
//! could I schedule in this window?") and `reserve(now)` is the consuming
//! view. They must agree exactly: the number of `reserve` calls whose
//! granted times land in `[now, now + window)` equals `slots_within(now,
//! window)` — pinning the `div_ceil` boundary arithmetic on both the
//! window edge and a mid-interval `next_at`.

use proptest::prelude::*;
use sched::Throttle;
use simcore::{SimDuration, SimTime};

/// Counts how many consecutive reservations land strictly before `end`.
fn reservations_in(mut t: Throttle, now: SimTime, end: SimTime) -> u64 {
    let mut n = 0;
    loop {
        let at = t.reserve(now);
        if at >= end {
            return n;
        }
        n += 1;
        assert!(n <= 1_000_000, "runaway reservation loop");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For arbitrary rates, windows, prior consumption, and query times,
    /// the planning count equals the consuming count.
    fn slots_within_agrees_with_reserve(
        per_min in 1u64..6000,
        prior in 0u64..50,
        prior_at_secs in 0u64..600,
        now_secs in 0u64..1200,
        window_micros in 0u64..120_000_000,
    ) {
        let mut t = Throttle::per_minute(per_min);
        // Consume some slots first so `next_at` sits at an arbitrary
        // (often mid-interval, unaligned) point relative to `now`.
        let prior_at = SimTime::from_secs(prior_at_secs);
        for _ in 0..prior {
            t.reserve(prior_at);
        }
        let now = SimTime::from_secs(now_secs);
        let window = SimDuration::from_micros(window_micros);
        let planned = t.slots_within(now, window);
        let consumed = reservations_in(t.clone(), now, now + window);
        prop_assert_eq!(
            planned,
            consumed,
            "rate {}/min, next_at after {} reserves at {}, now {}, window {}",
            per_min,
            prior,
            prior_at,
            now,
            window
        );
    }

    /// An empty window never has slots, and a window of exactly one
    /// interval has exactly one (the slot at its left edge) when the
    /// throttle is idle.
    fn interval_edge_cases(per_min in 1u64..6000, now_secs in 0u64..600) {
        let t = Throttle::per_minute(per_min);
        let now = SimTime::from_secs(now_secs);
        prop_assert_eq!(t.slots_within(now, SimDuration::ZERO), 0);
        prop_assert_eq!(t.slots_within(now, t.interval()), 1);
        // One microsecond past a whole interval admits the next slot.
        let just_over = t.interval() + SimDuration::from_micros(1);
        prop_assert_eq!(t.slots_within(now, just_over), 2);
    }
}

/// Deterministic pin of the `div_ceil` boundary: a window that is an exact
/// multiple of the interval yields exactly that multiple, never one more.
#[test]
fn exact_multiple_windows_are_not_over_counted() {
    let t = Throttle::per_minute(60); // 1-second interval
    for k in 0..20u64 {
        assert_eq!(
            t.slots_within(SimTime::ZERO, SimDuration::from_secs(k)),
            k,
            "window of exactly {k} intervals"
        );
        assert_eq!(
            reservations_in(t.clone(), SimTime::ZERO, SimTime::from_secs(k)),
            k
        );
    }
}

/// When `next_at` is already beyond the whole window, both views agree on
/// zero.
#[test]
fn fully_consumed_window_has_zero_slots() {
    let mut t = Throttle::per_minute(60);
    for _ in 0..100 {
        t.reserve(SimTime::ZERO);
    }
    // next_at is now at t=100s; a 10-second window at t=0 is exhausted.
    assert_eq!(t.slots_within(SimTime::ZERO, SimDuration::from_secs(10)), 0);
    assert_eq!(
        reservations_in(t.clone(), SimTime::ZERO, SimTime::from_secs(10)),
        0
    );
}
