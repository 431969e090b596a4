//! Occupancy profiling and job timelines.
//!
//! MuMMI's profiling mechanism "gathers the number of running and pending
//! jobs every few minutes (for most of this campaign, profiling frequency was
//! 10 min)" and derives resource occupancy from the per-job resource shapes.
//! [`OccupancyProfiler`] is that collector; [`Timeline`] records the
//! running/pending counts per job class that Figure 6 plots.

use crate::stats::{median, Histogram, Summary};
use crate::time::SimTime;

/// One profile event: instantaneous resource usage at a sample time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancySample {
    /// When the sample was taken.
    pub at: SimTime,
    /// GPUs currently allocated to jobs.
    pub gpus_used: u64,
    /// Total GPUs in the resource set.
    pub gpus_total: u64,
    /// CPU cores currently allocated to jobs.
    pub cpus_used: u64,
    /// Total CPU cores in the resource set.
    pub cpus_total: u64,
}

impl OccupancySample {
    /// GPU occupancy in percent (0 when the resource set is empty).
    pub fn gpu_pct(&self) -> f64 {
        pct(self.gpus_used, self.gpus_total)
    }

    /// CPU occupancy in percent (0 when the resource set is empty).
    pub fn cpu_pct(&self) -> f64 {
        pct(self.cpus_used, self.cpus_total)
    }
}

fn pct(used: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * used as f64 / total as f64
    }
}

/// Collects occupancy samples across one or more runs and aggregates them
/// into the Figure 5 distribution.
#[derive(Debug, Clone, Default)]
pub struct OccupancyProfiler {
    samples: Vec<OccupancySample>,
}

impl OccupancyProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one profile event.
    pub fn record(&mut self, sample: OccupancySample) {
        self.samples.push(sample);
    }

    /// All recorded samples.
    pub fn samples(&self) -> &[OccupancySample] {
        &self.samples
    }

    /// Merges samples from another profiler (e.g. across campaign runs).
    pub fn merge(&mut self, other: &OccupancyProfiler) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// GPU occupancy percentages per profile event.
    pub fn gpu_series(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.gpu_pct()).collect()
    }

    /// CPU occupancy percentages per profile event.
    fn cpu_series(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.cpu_pct()).collect()
    }

    /// Fraction of profile events with GPU occupancy ≥ `threshold_pct`.
    ///
    /// The paper's headline: "98% of all available GPUs were allocated for
    /// more than 83% of the total time (captured as profile events)".
    pub fn fraction_gpu_at_least(&self, threshold_pct: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self
            .samples
            .iter()
            .filter(|s| s.gpu_pct() >= threshold_pct)
            .count();
        n as f64 / self.samples.len() as f64
    }

    /// (mean, median) GPU occupancy in percent.
    pub fn gpu_mean_median(&self) -> (f64, f64) {
        let series = self.gpu_series();
        (Summary::of(&series).mean, median(&series))
    }

    /// (mean, median) CPU occupancy in percent.
    pub fn cpu_mean_median(&self) -> (f64, f64) {
        let series = self.cpu_series();
        (Summary::of(&series).mean, median(&series))
    }

    /// Builds the Figure 5 histogram (percent of profile events per
    /// occupancy bin) for the GPU or CPU series.
    pub fn histogram(&self, cpu: bool, bins: usize) -> Histogram {
        let mut h = Histogram::new(0.0, 100.0 + 1e-9, bins);
        let series = if cpu {
            self.cpu_series()
        } else {
            self.gpu_series()
        };
        h.add_all(&series);
        h
    }
}

/// One point on a job-count timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Sample time.
    pub at: SimTime,
    /// Jobs currently running.
    pub running: u64,
    /// Jobs submitted but not yet placed.
    pub pending: u64,
}

/// Running/pending job counts over time for one job class (Figure 6).
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    points: Vec<TimelinePoint>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    pub fn record(&mut self, at: SimTime, running: u64, pending: u64) {
        self.points.push(TimelinePoint {
            at,
            running,
            pending,
        });
    }

    /// All samples in record order.
    pub fn points(&self) -> &[TimelinePoint] {
        &self.points
    }

    /// Appends another timeline's samples (e.g. across workflow-manager
    /// incarnations within one run).
    pub fn merge(&mut self, other: &Timeline) {
        self.points.extend_from_slice(&other.points);
    }

    /// Peak running count.
    pub fn peak_running(&self) -> u64 {
        self.points.iter().map(|p| p.running).max().unwrap_or(0)
    }

    /// Longest gap (in samples) during which the running count did not
    /// increase while pending jobs existed — the "large chunks followed by
    /// large periods of inactivity" signature of the 4000-node run.
    pub fn longest_stall(&self) -> usize {
        let mut longest = 0;
        let mut current = 0;
        let mut prev_running = None;
        for p in &self.points {
            let stalled = p.pending > 0 && prev_running.is_some_and(|r| p.running <= r);
            if stalled {
                current += 1;
                longest = longest.max(current);
            } else {
                current = 0;
            }
            prev_running = Some(p.running);
        }
        longest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_s: u64, gu: u64, gt: u64, cu: u64, ct: u64) -> OccupancySample {
        OccupancySample {
            at: SimTime::from_micros(at_s * 1_000_000),
            gpus_used: gu,
            gpus_total: gt,
            cpus_used: cu,
            cpus_total: ct,
        }
    }

    #[test]
    fn percentages_computed() {
        let s = sample(0, 59, 60, 22, 44);
        assert!((s.gpu_pct() - 98.333).abs() < 1e-2);
        assert!((s.cpu_pct() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn empty_resource_set_is_zero_occupancy() {
        let s = sample(0, 0, 0, 0, 0);
        assert_eq!(s.gpu_pct(), 0.0);
        assert_eq!(s.cpu_pct(), 0.0);
    }

    #[test]
    fn fraction_gpu_at_least_matches_headline_shape() {
        let mut p = OccupancyProfiler::new();
        // 9 of 10 events at full GPU occupancy, one at half.
        for i in 0..9 {
            p.record(sample(i, 600, 600, 100, 200));
        }
        p.record(sample(9, 300, 600, 100, 200));
        assert!((p.fraction_gpu_at_least(98.0) - 0.9).abs() < 1e-12);
        let (mean, med) = p.gpu_mean_median();
        assert!(mean < med, "one bad event pulls the mean below the median");
    }

    #[test]
    fn merge_concatenates() {
        let mut a = OccupancyProfiler::new();
        a.record(sample(0, 1, 2, 1, 2));
        let mut b = OccupancyProfiler::new();
        b.record(sample(1, 2, 2, 2, 2));
        a.merge(&b);
        assert_eq!(a.samples().len(), 2);
    }

    #[test]
    fn timeline_peak() {
        let mut t = Timeline::new();
        t.record(SimTime::from_micros(0), 0, 100);
        t.record(SimTime::from_micros(10), 50, 50);
        t.record(SimTime::from_micros(20), 100, 0);
        assert_eq!(t.peak_running(), 100);
    }

    #[test]
    fn longest_stall_detects_chunky_scheduling() {
        let mut smooth = Timeline::new();
        let mut chunky = Timeline::new();
        for i in 0..20u64 {
            smooth.record(SimTime::from_micros(i), i * 10, 200 - i * 10);
            // Chunky: running jumps only every 5th sample.
            let r = (i / 5) * 50;
            chunky.record(SimTime::from_micros(i), r, 200u64.saturating_sub(r));
        }
        assert!(chunky.longest_stall() > smooth.longest_stall());
        assert_eq!(smooth.longest_stall(), 0);
    }
}
