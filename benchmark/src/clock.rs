//! The benchmark's only reader of the host clock.
//!
//! Every timing in the harness goes through [`now`], so the workspace
//! lint (L1: no wall-clock sources outside declared benchmarks) has one
//! line to allow instead of one per call site, and the product crates
//! stay wall-clock-free.

use std::time::Instant;

/// The current host instant.
#[inline]
pub fn now() -> Instant {
    Instant::now() // lint: allow(L1) the benchmark measures host time at its own edge
}

/// Seconds elapsed since `t0`.
#[inline]
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Times one call, returning its result and the seconds it took.
#[inline]
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now();
    let out = f();
    (out, secs_since(t0))
}
