//! Reconstructing figure series from a trace.
//!
//! The workflow manager emits `wm.profile` and `wm.timeline` records at
//! every profiling event, so the Figure 5 occupancy distribution and the
//! Figure 6 running/pending timelines can be rebuilt from a trace alone
//! and compared — exactly, integer for integer — against the live
//! [`simcore::profile`] collectors. Job throughput (jobs placed per
//! virtual minute) comes from the scheduler's `job.placed` records.

use simcore::{OccupancyProfiler, OccupancySample, Timeline};

use crate::event::TraceEvent;

/// Rebuilds the Figure 5 occupancy samples from `wm.profile` records, in
/// record order.
fn occupancy_samples(events: &[TraceEvent]) -> Vec<OccupancySample> {
    events
        .iter()
        .filter(|e| e.cat == "wm" && e.name == "wm.profile")
        .filter_map(|e| {
            Some(OccupancySample {
                at: e.at,
                gpus_used: e.arg_u64("gpus_used")?,
                gpus_total: e.arg_u64("gpus_total")?,
                cpus_used: e.arg_u64("cpus_used")?,
                cpus_total: e.arg_u64("cpus_total")?,
            })
        })
        .collect()
}

/// Rebuilds an [`OccupancyProfiler`] (Figure 5) from `wm.profile` records.
pub fn occupancy_profiler(events: &[TraceEvent]) -> OccupancyProfiler {
    let mut p = OccupancyProfiler::new();
    for s in occupancy_samples(events) {
        p.record(s);
    }
    p
}

/// Rebuilds the Figure 6 [`Timeline`] for one job class (the `class`
/// argument of `wm.timeline` records, e.g. `"cg"` or `"aa"`).
pub fn timeline(events: &[TraceEvent], class: &str) -> Timeline {
    let mut t = Timeline::new();
    for e in events
        .iter()
        .filter(|e| e.cat == "wm" && e.name == "wm.timeline")
    {
        if e.arg("class").and_then(|a| a.as_str()) != Some(class) {
            continue;
        }
        if let (Some(running), Some(pending)) = (e.arg_u64("running"), e.arg_u64("pending")) {
            t.record(e.at, running, pending);
        }
    }
    t
}

/// Jobs placed per virtual minute, derived from the scheduler's
/// `job.placed` records: `(minute_index, jobs_placed)` for every minute
/// from zero through the last placement, including empty minutes.
pub fn jobs_per_minute(events: &[TraceEvent]) -> Vec<(u64, u64)> {
    let minutes: Vec<u64> = events
        .iter()
        .filter(|e| e.cat == "sched" && e.name == "job.placed")
        .map(|e| e.at.as_micros() / 60_000_000)
        .collect();
    let last = match minutes.iter().max() {
        Some(m) => *m,
        None => return Vec::new(),
    };
    let mut series = vec![0u64; (last + 1) as usize];
    for m in minutes {
        series[m as usize] += 1;
    }
    series
        .into_iter()
        .enumerate()
        .map(|(i, n)| (i as u64, n))
        .collect()
}

/// Parses the event records out of a JSONL trace file's contents
/// (metric summary lines are skipped).
pub fn events_from_jsonl(text: &str) -> Vec<TraceEvent> {
    text.lines().filter_map(TraceEvent::from_jsonl).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Arg;
    use crate::tracer::Tracer;
    use simcore::SimTime;

    fn profile_event(gu: u64) -> Vec<(&'static str, Arg)> {
        vec![
            ("gpus_used", gu.into()),
            ("gpus_total", 600u64.into()),
            ("cpus_used", 100u64.into()),
            ("cpus_total", 200u64.into()),
        ]
    }

    #[test]
    fn occupancy_rebuilds_from_profile_records() {
        let t = Tracer::enabled();
        let mut live = OccupancyProfiler::new();
        for i in 0..5u64 {
            let at = SimTime::from_mins(10 * i);
            let sample = OccupancySample {
                at,
                gpus_used: 500 + i,
                gpus_total: 600,
                cpus_used: 100,
                cpus_total: 200,
            };
            live.record(sample);
            t.instant_at(at, "wm", "wm.profile", &profile_event(500 + i));
        }
        let derived = occupancy_profiler(&t.events());
        assert_eq!(derived.samples(), live.samples());
        assert_eq!(derived.gpu_series(), live.gpu_series());
    }

    #[test]
    fn timeline_rebuilds_per_class() {
        let t = Tracer::enabled();
        let mut cg = Timeline::new();
        for i in 0..4u64 {
            let at = SimTime::from_mins(i);
            cg.record(at, i * 2, 10 - i);
            t.instant_at(
                at,
                "wm",
                "wm.timeline",
                &[
                    ("class", "cg".into()),
                    ("running", (i * 2).into()),
                    ("pending", (10 - i).into()),
                ],
            );
            // A different class interleaved must not leak in.
            t.instant_at(
                at,
                "wm",
                "wm.timeline",
                &[
                    ("class", "aa".into()),
                    ("running", 99u64.into()),
                    ("pending", 0u64.into()),
                ],
            );
        }
        let derived = timeline(&t.events(), "cg");
        assert_eq!(derived.points(), cg.points());
        assert_eq!(timeline(&t.events(), "aa").points().len(), 4);
    }

    #[test]
    fn jobs_per_minute_buckets_placements() {
        let t = Tracer::enabled();
        for (secs, job) in [(10u64, 1u64), (50, 2), (70, 3), (200, 4)] {
            t.instant_at(
                SimTime::from_secs(secs),
                "sched",
                "job.placed",
                &[("job", job.into())],
            );
        }
        let series = jobs_per_minute(&t.events());
        assert_eq!(series, vec![(0, 2), (1, 1), (2, 0), (3, 1)]);
        assert!(jobs_per_minute(&[]).is_empty());
    }

    #[test]
    fn events_from_jsonl_skip_metric_lines() {
        let t = Tracer::enabled();
        t.instant_at(SimTime::from_micros(1), "wm", "tick", &[]);
        t.counter_add("c", 1);
        let events = events_from_jsonl(&t.to_jsonl());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "tick");
    }

    #[test]
    fn trace_written_and_reparsed_yields_identical_series() {
        let t = Tracer::enabled();
        for i in 0..8u64 {
            t.instant_at(
                SimTime::from_mins(10 * i),
                "wm",
                "wm.profile",
                &profile_event(590 + i),
            );
        }
        let reparsed = events_from_jsonl(&t.to_jsonl());
        assert_eq!(occupancy_samples(&reparsed), occupancy_samples(&t.events()));
    }
}
