//! Deterministic fault injection for resilience testing.
//!
//! The paper stresses that MuMMI "can be restored completely after any such
//! crash without much loss of data". [`ScheduledFaultStore`] wraps any
//! backend and fails operations on a deterministic schedule so tests can
//! exercise the retry/armoring and producer/consumer wait paths. The
//! schedule is a list of virtual-time fault windows (the form serialized in
//! `chaos` fault plans): inside a window, the targeted operation fails
//! periodically and is slowed by a configured latency. A window that is
//! always open ([`FaultWindow::always`]) is the plain "every `period`-th
//! call fails" injector.

use simcore::{SimDuration, SimTime};

use crate::store::DataStore;
use crate::{DataError, Result};

/// Which operations the injector can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `write` calls.
    Write,
    /// `read` calls.
    Read,
    /// `move_ns` calls.
    MoveNs,
    /// `delete` calls.
    Delete,
    /// `flush` calls.
    Flush,
}

impl Op {
    /// Stable label (used by serialized fault plans).
    pub fn label(self) -> &'static str {
        match self {
            Op::Write => "write",
            Op::Read => "read",
            Op::MoveNs => "move_ns",
            Op::Delete => "delete",
            Op::Flush => "flush",
        }
    }

    /// The inverse of [`Op::label`].
    pub fn from_label(label: &str) -> Option<Op> {
        match label {
            "write" => Some(Op::Write),
            "read" => Some(Op::Read),
            "move_ns" => Some(Op::MoveNs),
            "delete" => Some(Op::Delete),
            "flush" => Some(Op::Flush),
            _ => None,
        }
    }
}

/// One scheduled fault window: between `from` (inclusive) and `until`
/// (exclusive) in virtual time, every `period`-th call of `op` fails, and
/// every call of `op` is charged `extra_latency` of virtual I/O delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// The targeted operation.
    pub op: Op,
    /// Fail every `period`-th targeted call made inside the window
    /// (counted on the window's own counter; 0 = latency only).
    pub period: u64,
    /// Virtual latency added to each targeted call inside the window.
    pub extra_latency: SimDuration,
}

impl FaultWindow {
    /// A window open for all of virtual time that fails every
    /// `period`-th `op` call and adds no latency. Its hit counter is the
    /// op's call count, so calls `period`, `2 * period`, … fail.
    pub fn always(op: Op, period: u64) -> FaultWindow {
        FaultWindow {
            from: SimTime::ZERO,
            until: SimTime::MAX,
            op,
            period,
            extra_latency: SimDuration::ZERO,
        }
    }

    fn active(&self, now: SimTime, op: Op) -> bool {
        self.op == op && self.from <= now && now < self.until
    }
}

/// A wrapper driven by virtual time: the owner advances the clock with
/// [`ScheduledFaultStore::set_now`] and the wrapper applies whichever
/// [`FaultWindow`]s are open. With no windows it is an exact passthrough,
/// so a campaign can always run behind it.
///
/// Counting: each window counts the targeted calls it saw and drives its
/// failure schedule from that private counter, so traffic outside the
/// window (or on other ops) never shifts it. When no
/// two windows fail the same call, the totals satisfy
/// `injected() == Σ_w (window_hits(w) / period(w))`.
#[derive(Debug)]
pub struct ScheduledFaultStore<S> {
    inner: S,
    windows: Vec<FaultWindow>,
    /// Targeted calls observed per window (drives its schedule).
    window_hits: Vec<u64>,
    now: SimTime,
    injected: u64,
    delayed: u64,
    delay_total: SimDuration,
}

impl<S: DataStore> ScheduledFaultStore<S> {
    /// Wraps `inner` with a schedule of fault windows.
    pub fn new(inner: S, windows: Vec<FaultWindow>) -> ScheduledFaultStore<S> {
        let window_hits = vec![0; windows.len()];
        ScheduledFaultStore {
            inner,
            windows,
            window_hits,
            now: SimTime::ZERO,
            injected: 0,
            delayed: 0,
            delay_total: SimDuration::ZERO,
        }
    }

    /// Advances the wrapper's virtual clock (call once per driver tick).
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// (calls delayed, total virtual delay charged) by latency spikes.
    pub fn delayed(&self) -> (u64, SimDuration) {
        (self.delayed, self.delay_total)
    }

    /// Consumes the wrapper, returning the inner store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Direct access to the wrapped store.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    fn should_fail(&mut self, op: Op) -> bool {
        let mut fail = false;
        for (i, w) in self.windows.iter().enumerate() {
            if !w.active(self.now, op) {
                continue;
            }
            self.window_hits[i] += 1;
            if w.extra_latency > SimDuration::ZERO {
                self.delayed += 1;
                self.delay_total += w.extra_latency;
            }
            if w.period > 0 && self.window_hits[i].is_multiple_of(w.period) {
                fail = true;
            }
        }
        if fail {
            self.injected += 1;
        }
        fail
    }

    fn fault(op: Op) -> DataError {
        DataError::Injected(format!("windowed fault on {op:?}"))
    }
}

impl<S: DataStore> DataStore for ScheduledFaultStore<S> {
    fn write(&mut self, ns: &str, key: &str, data: &[u8]) -> Result<()> {
        if self.should_fail(Op::Write) {
            return Err(Self::fault(Op::Write));
        }
        self.inner.write(ns, key, data)
    }

    fn read(&mut self, ns: &str, key: &str) -> Result<Vec<u8>> {
        if self.should_fail(Op::Read) {
            return Err(Self::fault(Op::Read));
        }
        self.inner.read(ns, key)
    }

    fn exists(&mut self, ns: &str, key: &str) -> bool {
        self.inner.exists(ns, key)
    }

    fn list(&mut self, ns: &str) -> Result<Vec<String>> {
        self.inner.list(ns)
    }

    fn move_ns(&mut self, key: &str, from: &str, to: &str) -> Result<()> {
        if self.should_fail(Op::MoveNs) {
            return Err(Self::fault(Op::MoveNs));
        }
        self.inner.move_ns(key, from, to)
    }

    fn delete(&mut self, ns: &str, key: &str) -> Result<bool> {
        if self.should_fail(Op::Delete) {
            return Err(Self::fault(Op::Delete));
        }
        self.inner.delete(ns, key)
    }

    fn flush(&mut self) -> Result<()> {
        if self.should_fail(Op::Flush) {
            return Err(Self::fault(Op::Flush));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvDataStore;

    /// The plain periodic injector: one always-open window.
    pub(super) fn periodic(op: Op, period: u64) -> ScheduledFaultStore<KvDataStore> {
        ScheduledFaultStore::new(KvDataStore::new(2), vec![FaultWindow::always(op, period)])
    }

    #[test]
    fn fails_on_schedule() {
        let mut s = periodic(Op::Write, 3);
        let mut results = Vec::new();
        for i in 0..9 {
            results.push(s.write("ns", &format!("k{i}"), b"v").is_ok());
        }
        assert_eq!(
            results,
            vec![true, true, false, true, true, false, true, true, false]
        );
        assert_eq!(s.injected(), 3);
    }

    #[test]
    fn zero_period_never_fails() {
        let mut s = periodic(Op::Write, 0);
        for i in 0..10 {
            assert!(s.write("ns", &format!("k{i}"), b"v").is_ok());
        }
        assert_eq!(s.injected(), 0);
    }

    #[test]
    fn only_targeted_op_fails() {
        let mut s = periodic(Op::Read, 1);
        assert!(s.write("ns", "k", b"v").is_ok());
        assert!(matches!(s.read("ns", "k"), Err(DataError::Injected(_))));
        // Untargeted ops pass through.
        assert!(s.delete("ns", "k").is_ok());
    }

    #[test]
    fn untargeted_traffic_does_not_shift_the_schedule() {
        // flush/move_ns between writes must not advance the Write schedule.
        let mut with_noise = periodic(Op::Write, 2);
        let mut quiet = periodic(Op::Write, 2);
        let mut noisy_results = Vec::new();
        let mut quiet_results = Vec::new();
        for i in 0..6 {
            with_noise.flush().unwrap();
            let _ = with_noise.move_ns("nope", "a", "b");
            noisy_results.push(with_noise.write("ns", &format!("k{i}"), b"v").is_ok());
            quiet_results.push(quiet.write("ns", &format!("k{i}"), b"v").is_ok());
        }
        assert_eq!(noisy_results, quiet_results);
        assert_eq!(with_noise.injected(), quiet.injected());
    }

    #[test]
    fn retry_after_fault_succeeds() {
        // Period 2: every second read fails; a retry loop makes progress.
        let mut s = periodic(Op::Read, 2);
        s.write("ns", "k", b"v").unwrap();
        // Advance the schedule so the loop's first attempt is the failing one.
        assert!(s.read("ns", "k").is_ok());
        let mut attempts = 0;
        let val = loop {
            attempts += 1;
            match s.read("ns", "k") {
                Ok(v) => break v,
                Err(DataError::Injected(_)) if attempts < 5 => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(val, b"v");
        assert!(attempts >= 2);
    }

    #[test]
    fn window_fails_only_inside_its_span() {
        let w = FaultWindow {
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(20),
            op: Op::Read,
            period: 1,
            extra_latency: SimDuration::ZERO,
        };
        let mut s = ScheduledFaultStore::new(KvDataStore::new(2), vec![w]);
        s.write("ns", "k", b"v").unwrap();
        s.set_now(SimTime::from_secs(5));
        assert!(s.read("ns", "k").is_ok(), "before the window");
        s.set_now(SimTime::from_secs(10));
        assert!(s.read("ns", "k").is_err(), "window start is inclusive");
        s.set_now(SimTime::from_secs(19));
        assert!(s.read("ns", "k").is_err(), "inside the window");
        s.set_now(SimTime::from_secs(20));
        assert!(s.read("ns", "k").is_ok(), "window end is exclusive");
        assert_eq!(s.injected(), 2);
    }

    #[test]
    fn window_period_counts_only_window_traffic() {
        let w = FaultWindow {
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(20),
            op: Op::Write,
            period: 2,
            extra_latency: SimDuration::ZERO,
        };
        let mut s = ScheduledFaultStore::new(KvDataStore::new(2), vec![w]);
        // Heavy traffic before the window must not pre-advance the period.
        for i in 0..7 {
            s.write("ns", &format!("pre{i}"), b"v").unwrap();
        }
        s.set_now(SimTime::from_secs(10));
        assert!(s.write("ns", "w1", b"v").is_ok(), "1st window call passes");
        assert!(s.write("ns", "w2", b"v").is_err(), "2nd window call fails");
        assert!(s.write("ns", "w3", b"v").is_ok());
        assert!(s.write("ns", "w4", b"v").is_err());
        assert_eq!(s.injected(), 2);
    }

    #[test]
    fn latency_only_window_delays_without_failing() {
        let w = FaultWindow {
            from: SimTime::ZERO,
            until: SimTime::from_secs(100),
            op: Op::Read,
            period: 0,
            extra_latency: SimDuration::from_millis(7),
        };
        let mut s = ScheduledFaultStore::new(KvDataStore::new(2), vec![w]);
        s.write("ns", "k", b"v").unwrap();
        for _ in 0..3 {
            assert!(s.read("ns", "k").is_ok());
        }
        assert_eq!(s.injected(), 0);
        let (n, total) = s.delayed();
        assert_eq!(n, 3);
        assert_eq!(total, SimDuration::from_millis(21));
    }

    #[test]
    fn no_windows_is_exact_passthrough() {
        let mut s = ScheduledFaultStore::new(KvDataStore::new(2), Vec::new());
        for i in 0..20 {
            assert!(s.write("ns", &format!("k{i}"), b"v").is_ok());
            assert!(s.read("ns", &format!("k{i}")).is_ok());
        }
        assert_eq!(s.injected(), 0);
        assert_eq!(s.delayed().0, 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::periodic;
    use super::*;
    use crate::kv::KvDataStore;
    use proptest::prelude::*;

    fn is_injected(s: &mut ScheduledFaultStore<KvDataStore>, op: Op, i: usize) -> bool {
        let key = format!("k{i}");
        let r = match op {
            Op::Write => s.write("ns", &key, b"v").err(),
            Op::Read => s.read("ns", &key).err(),
            Op::MoveNs => s.move_ns(&key, "ns", "ns2").err(),
            Op::Delete => s.delete("ns", &key).err(),
            Op::Flush => s.flush().err(),
        };
        matches!(r, Some(DataError::Injected(_)))
    }

    proptest! {
        /// Over arbitrary op sequences, injected-failure totals are
        /// exactly `count(target) / period`, independent of interleaving.
        #[test]
        fn injections_are_exact(
            ops in proptest::collection::vec(0usize..5, 0..120),
            target in 0usize..5,
            period in 0u64..5,
        ) {
            let all = [Op::Write, Op::Read, Op::MoveNs, Op::Delete, Op::Flush];
            let target = all[target];
            let mut s = periodic(target, period);
            let mut expected = [0u64; 5];
            let mut injected = 0u64;
            for (i, &oi) in ops.iter().enumerate() {
                let op = all[oi];
                expected[op as usize] += 1;
                let was_injected = is_injected(&mut s, op, i);
                let should = op == target
                    && period > 0
                    && expected[op as usize].is_multiple_of(period);
                prop_assert_eq!(was_injected, should, "call {} of {:?}", i, op);
                if was_injected {
                    injected += 1;
                }
            }
            prop_assert_eq!(s.injected(), injected);
            let quota = expected[target as usize].checked_div(period).unwrap_or(0);
            prop_assert_eq!(s.injected(), quota);
        }
    }
}
