//! Virtual time for discrete-event simulation.
//!
//! Time is kept in integer microseconds so that event ordering is exact and
//! platform-independent. A three-month campaign (the paper's Dec 2020–Mar 2021
//! run) is ~7.9e12 µs, comfortably inside `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The instant the simulation starts.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from whole seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Builds an instant from whole minutes since simulation start.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000_000)
    }

    /// Builds an instant from whole hours since simulation start.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600_000_000)
    }

    /// Builds an instant from fractional seconds, clamping at zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    /// Raw microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Hours since simulation start, as a float (for reporting only).
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000_000)
    }

    /// Builds a duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000_000)
    }

    /// Builds a duration from fractional seconds, rounding to the nearest
    /// microsecond and saturating below zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimDuration(0);
        }
        SimDuration((s * 1e6).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration in seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration in minutes as a float (for reporting only).
    pub fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Duration in hours as a float (for reporting only).
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Scales the duration by a non-negative float, saturating on overflow.
    pub fn mul_f64(self, k: f64) -> Self {
        if k <= 0.0 || !k.is_finite() {
            return SimDuration(0);
        }
        let v = self.0 as f64 * k;
        if v >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(v.round() as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(d.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, d: SimDuration) {
        *self = *self - d;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k.max(1))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s < 1.0 {
            write!(f, "{:.3}ms", s * 1e3)
        } else if s < 120.0 {
            write!(f, "{s:.2}s")
        } else if s < 7200.0 {
            write!(f, "{:.2}min", s / 60.0)
        } else {
            write!(f, "{:.2}h", s / 3600.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_micros(1_500_000);
        let d = SimDuration::from_secs(2);
        assert_eq!((t + d).as_micros(), 3_500_000);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).since(t), d);
    }

    #[test]
    fn subtraction_saturates() {
        let t = SimTime::from_micros(10);
        assert_eq!(t - SimDuration::from_secs(5), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_secs_f64(1.5).as_micros(), 1_500_000);
    }

    #[test]
    fn from_secs_f64_handles_pathological_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_scales_and_saturates() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "250.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(90)), "90.00s");
        assert_eq!(format!("{}", SimDuration::from_mins(30)), "30.00min");
        assert_eq!(format!("{}", SimDuration::from_hours(24)), "24.00h");
    }
}
