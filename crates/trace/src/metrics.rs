//! Deterministic metrics registry: counters, gauges, fixed-bucket
//! histograms.
//!
//! All state lives in `BTreeMap`s so snapshots iterate in name order, and
//! histogram buckets are fixed at registration time, so the serialized
//! summary of a same-seed run is byte-identical.

use std::collections::BTreeMap;

use crate::json::escape_json_into;

/// Default bucket upper bounds (inclusive), used by
/// [`MetricsRegistry::observe`] for unregistered histograms. The decade
/// ladder suits both virtual-µs latencies and payload byte sizes.
const DEFAULT_BUCKETS: &[u64] = &[
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// A fixed-bucket histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedHistogram {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Vec<u64>,
    /// Per-bucket counts; `counts[bounds.len()]` is the overflow bucket.
    counts: Vec<u64>,
    /// Total observations.
    count: u64,
    /// Sum of all observed values (saturating).
    sum: u64,
}

impl FixedHistogram {
    /// Creates a histogram with the given inclusive upper bounds.
    pub fn new(bounds: &[u64]) -> FixedHistogram {
        FixedHistogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Bucket upper bounds.
    fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Counters, gauges, and histograms keyed by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, FixedHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one observation into histogram `name`, bucketed by
    /// `DEFAULT_BUCKETS`.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.hists
            .entry(name.to_string())
            .or_insert_with(|| FixedHistogram::new(DEFAULT_BUCKETS))
            .observe(value);
    }

    /// Current value of counter `name` (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// An ordered snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// A point-in-time, name-ordered view of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` in name order.
    pub gauges: Vec<(String, f64)>,
    /// `(name, histogram)` in name order.
    pub hists: Vec<(String, FixedHistogram)>,
}

impl MetricsSnapshot {
    /// Serializes the snapshot as JSONL metric lines (one per metric,
    /// deterministic order), appended after the event lines in a trace
    /// file.
    pub fn to_jsonl_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, v) in &self.counters {
            let mut s = String::from("{\"metric\":\"counter\",\"name\":\"");
            escape_json_into(name, &mut s);
            s.push_str("\",\"value\":");
            s.push_str(&v.to_string());
            s.push('}');
            lines.push(s);
        }
        for (name, v) in &self.gauges {
            let mut s = String::from("{\"metric\":\"gauge\",\"name\":\"");
            escape_json_into(name, &mut s);
            s.push_str("\",\"value\":");
            if v.is_finite() {
                s.push_str(&v.to_string());
            } else {
                s.push('0');
            }
            s.push('}');
            lines.push(s);
        }
        for (name, h) in &self.hists {
            let mut s = String::from("{\"metric\":\"hist\",\"name\":\"");
            escape_json_into(name, &mut s);
            s.push_str("\",\"le\":[");
            for (i, b) in h.bounds().iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&b.to_string());
            }
            s.push_str("],\"counts\":[");
            for (i, c) in h.counts().iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&c.to_string());
            }
            s.push_str("],\"count\":");
            s.push_str(&h.count().to_string());
            s.push_str(",\"sum\":");
            s.push_str(&h.sum().to_string());
            s.push('}');
            lines.push(s);
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let mut h = FixedHistogram::new(&[10, 100]);
        h.observe(10); // lands in [..=10]
        h.observe(11); // lands in (10..=100]
        h.observe(101); // overflow
        assert_eq!(h.counts(), &[1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 122);
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let mut m = MetricsRegistry::new();
        m.counter_add("zeta", 1);
        m.counter_add("alpha", 2);
        m.gauge_set("mid", 0.5);
        m.observe("lat", 42);
        let snap = m.snapshot();
        assert_eq!(snap.counters[0].0, "alpha");
        assert_eq!(snap.counters[1].0, "zeta");
        assert_eq!(snap.gauges, vec![("mid".to_string(), 0.5)]);
        assert_eq!(snap.hists[0].0, "lat");
        assert_eq!(snap.hists[0].1.count(), 1);
    }

    #[test]
    fn snapshot_jsonl_is_deterministic() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.counter_add("b", 1);
            m.counter_add("a", 7);
            m.observe("h", 5);
            m.observe("h", 50_000_000_000);
            m.snapshot().to_jsonl_lines().join("\n")
        };
        let one = build();
        assert_eq!(one, build());
        assert!(one.contains("{\"metric\":\"counter\",\"name\":\"a\",\"value\":7}"));
        assert!(one.contains("\"count\":2"));
    }

    #[test]
    fn counters_accumulate_and_missing_reads_are_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.counter_add("x", 3);
        m.counter_add("x", 4);
        assert_eq!(m.counter("x"), 7);
    }
}
