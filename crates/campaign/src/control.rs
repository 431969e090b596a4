//! Cooperative run control: the embeddable-run handle the campaign farm
//! holds while a worker drives [`crate::Campaign::execute_run_controlled_on`].
//!
//! The contract is deliberately narrow so the event loop stays
//! deterministic:
//!
//! - **Pause points are whole virtual hours.** A pause request (or a
//!   scheduled pause time) shortens the run's end to the next whole
//!   virtual hour at or after the request point; the run then closes
//!   exactly like an end-of-allocation boundary — partial trajectories
//!   credited, interrupted sims requeued into the checkpoint. Resuming is
//!   therefore *identical* to the multi-allocation restart chain the
//!   batch binary already exercises.
//! - **A disabled handle is free.** [`RunControl::disabled`] carries no
//!   allocation and every hook is a `None` check, so the batch path
//!   (`execute_run`) is value-identical to the pre-control code and
//!   same-seed traces stay byte-identical.
//! - **Observation never feeds back.** The one thing the driver reports
//!   is the run's first placement, to a one-shot observer; nothing it
//!   does reaches back into the loop, so it cannot perturb the replay
//!   path. The observer runs *outside* the control lock, so a callback
//!   may take its owner's lock even though that owner calls back into
//!   this handle while holding it.

use std::sync::Arc;

use parking_lot::Mutex; // lint: allow(L6: control-plane handshake between a farm worker and the service threads; never read by the replay path except as a monotone end-of-run bound)

use simcore::SimTime;

const MICROS_PER_HOUR: u64 = 3_600_000_000;

/// Rounds a virtual time up to the next whole hour (identity on whole
/// hours). Pause points land on hour boundaries so executed-hours
/// accounting stays exact in `u64` hours.
fn ceil_hour(t: SimTime) -> SimTime {
    SimTime::from_micros(t.as_micros().div_ceil(MICROS_PER_HOUR) * MICROS_PER_HOUR)
}

/// One-shot callback for the first driver pass that has placed a job:
/// `(run-local virtual time, jobs placed so far this run)`.
type FirstPlacementObserver = Box<dyn FnOnce(SimTime, u64) + Send>;

#[derive(Default)]
struct ControlState {
    pause_requested: bool,
    pause_at: Option<SimTime>,
    on_first_placement: Option<FirstPlacementObserver>,
}

/// Shared handle for pausing and observing one campaign's runs.
///
/// Clone it freely: all clones address the same state. The default
/// (`RunControl::default()` / [`RunControl::disabled`]) is a no-op handle
/// with zero overhead on the run loop.
#[derive(Clone, Default)]
pub struct RunControl {
    inner: Option<Arc<Mutex<ControlState>>>, // lint: allow(L6: see module docs — control-plane only, observation never feeds back into the replay path)
}

impl RunControl {
    /// A live handle.
    pub fn new() -> RunControl {
        RunControl {
            inner: Some(Arc::new(Mutex::new(ControlState::default()))), // lint: allow(L6: constructing the control-plane handle; see struct field allow)
        }
    }

    /// The no-op handle the batch path uses; every hook short-circuits.
    pub fn disabled() -> RunControl {
        RunControl { inner: None }
    }

    /// Asks the running campaign to pause at the next whole virtual hour.
    /// No-op on a disabled handle.
    pub fn request_pause(&self) {
        if let Some(inner) = &self.inner {
            inner.lock().pause_requested = true;
        }
    }

    /// Schedules a pause at virtual time `at` (rounded up to a whole
    /// hour), e.g. a drain window known at submission time. Deterministic:
    /// unlike [`RunControl::request_pause`] it does not race the driver.
    pub fn schedule_pause_at(&self, at: SimTime) {
        if let Some(inner) = &self.inner {
            inner.lock().pause_at = Some(ceil_hour(at));
        }
    }

    /// Clears any pending pause request/schedule (done before resuming).
    pub fn clear_pause(&self) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            st.pause_requested = false;
            st.pause_at = None;
        }
    }

    /// The virtual time the run should stop at, given the clock is at
    /// `t`: the next whole hour for an interactive request, the scheduled
    /// point (or the next whole hour if the clock already passed it) for
    /// a scheduled pause. `None` when no pause is pending (or disabled).
    pub(crate) fn pause_target(&self, t: SimTime) -> Option<SimTime> {
        let inner = self.inner.as_ref()?;
        let st = inner.lock();
        if st.pause_requested {
            Some(ceil_hour(t))
        } else {
            st.pause_at.map(|at| ceil_hour(if at < t { t } else { at }))
        }
    }

    /// Arms a one-shot observer for the first driver pass that publishes
    /// `placed > 0`, replacing any observer still armed. It is called on
    /// the driver's thread after the control lock is released. No-op on a
    /// disabled handle.
    pub fn on_first_placement(&self, observer: impl FnOnce(SimTime, u64) + Send + 'static) {
        if let Some(inner) = &self.inner {
            inner.lock().on_first_placement = Some(Box::new(observer));
        }
    }

    /// Driver hook, once per pass with the jobs placed so far this run:
    /// fires the armed first-placement observer on a pass with
    /// `placed > 0`, after the control lock is released.
    pub(crate) fn publish(&self, at: SimTime, placed: u64) {
        let Some(inner) = self.inner.as_ref().filter(|_| placed > 0) else {
            return;
        };
        let observer = inner.lock().on_first_placement.take();
        if let Some(observer) = observer {
            observer(at, placed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_hour_rounds_up_and_is_identity_on_boundaries() {
        assert_eq!(ceil_hour(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(ceil_hour(SimTime::from_hours(3)), SimTime::from_hours(3));
        assert_eq!(
            ceil_hour(SimTime::from_micros(1)),
            SimTime::from_hours(1),
            "one microsecond past a boundary rounds a full hour up"
        );
        assert_eq!(
            ceil_hour(SimTime::from_micros(3 * MICROS_PER_HOUR - 1)),
            SimTime::from_hours(3)
        );
    }

    #[test]
    fn disabled_handle_short_circuits_every_hook() {
        let c = RunControl::disabled();
        c.request_pause();
        c.schedule_pause_at(SimTime::from_hours(1));
        assert_eq!(c.pause_target(SimTime::ZERO), None);
        c.on_first_placement(|_, _| panic!("a disabled handle never observes"));
        c.publish(SimTime::from_hours(2), 10);
    }

    #[test]
    fn first_placement_observer_fires_once_outside_the_control_lock() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let c = RunControl::new();
        let fired = Arc::new(AtomicU64::new(0));
        let (seen, handle) = (Arc::clone(&fired), c.clone());
        c.request_pause();
        c.on_first_placement(move |at, placed| {
            // Re-entering the handle would self-deadlock if the observer
            // ran under the control lock (the farm does exactly this, one
            // lock removed: it calls `clear_pause` holding its own).
            handle.clear_pause();
            assert_eq!((at, placed), (SimTime::from_mins(7), 3));
            seen.fetch_add(1, Ordering::SeqCst);
        });
        c.publish(SimTime::from_mins(5), 0);
        assert_eq!(fired.load(Ordering::SeqCst), 0, "nothing placed yet");
        c.publish(SimTime::from_mins(7), 3);
        c.publish(SimTime::from_mins(9), 8);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "one-shot");
        assert_eq!(
            c.pause_target(SimTime::from_mins(9)),
            None,
            "the callback's clear_pause landed"
        );
    }

    #[test]
    fn interactive_pause_targets_next_whole_hour() {
        let c = RunControl::new();
        assert_eq!(c.pause_target(SimTime::from_mins(90)), None);
        c.request_pause();
        assert_eq!(
            c.pause_target(SimTime::from_mins(90)),
            Some(SimTime::from_hours(2))
        );
        c.clear_pause();
        assert_eq!(c.pause_target(SimTime::from_mins(90)), None);
    }

    #[test]
    fn scheduled_pause_holds_until_cleared_and_never_targets_the_past() {
        let c = RunControl::new();
        c.schedule_pause_at(SimTime::from_hours(5));
        assert_eq!(
            c.pause_target(SimTime::from_hours(1)),
            Some(SimTime::from_hours(5))
        );
        // The clock has already passed the scheduled point (e.g. the pause
        // was scheduled for an earlier leg): stop at the next whole hour.
        assert_eq!(
            c.pause_target(SimTime::from_micros(6 * MICROS_PER_HOUR + 7)),
            Some(SimTime::from_hours(7))
        );
    }

    #[test]
    fn clones_share_state() {
        let a = RunControl::new();
        let b = a.clone();
        b.request_pause();
        assert_eq!(
            a.pause_target(SimTime::from_hours(3)),
            Some(SimTime::from_hours(3))
        );
        a.clear_pause();
        assert_eq!(b.pause_target(SimTime::from_hours(3)), None);
    }
}
