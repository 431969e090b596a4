//! Descriptive statistics and histograms for emitting figure series.

/// Summary statistics over a sample of `f64` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean; 0 for an empty sample.
    pub mean: f64,
    /// Population standard deviation; 0 for fewer than two samples.
    pub std: f64,
    /// Minimum; +inf for an empty sample.
    pub min: f64,
    /// Maximum; -inf for an empty sample.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics in one pass.
    pub fn of(values: &[f64]) -> Summary {
        let count = values.len();
        if count == 0 {
            return Summary {
                count: 0,
                mean: 0.0,
                std: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            };
        }
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        let mean = sum / count as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        Summary {
            count,
            mean,
            std: var.sqrt(),
            min,
            max,
        }
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of a sample using linear
/// interpolation between order statistics. Returns `NaN` on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// The median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A fixed-width histogram over `[lo, hi)` with values clamped into range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds one observation; out-of-range values clamp to the edge bins.
    pub fn add(&mut self, v: f64) {
        let bins = self.counts.len();
        let idx = if v <= self.lo {
            0
        } else if v >= self.hi {
            bins - 1
        } else {
            (((v - self.lo) / (self.hi - self.lo)) * bins as f64) as usize
        };
        self.counts[idx.min(bins - 1)] += 1;
        self.total += 1;
    }

    /// Adds every observation in `values`.
    pub fn add_all(&mut self, values: &[f64]) {
        for &v in values {
            self.add(v);
        }
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The center of bin `i`.
    fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Renders `(bin_center, count)` rows for figure output.
    pub fn rows(&self) -> Vec<(f64, u64)> {
        (0..self.counts.len())
            .map(|i| (self.bin_center(i), self.counts[i]))
            .collect()
    }

    /// Draws a compact ASCII bar chart, `width` characters at the tallest bin.
    pub fn ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat((c as usize * width) / max as usize);
            out.push_str(&format!(
                "{:>10.3} | {:<8} {}\n",
                self.bin_center(i),
                c,
                bar
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_of_empty_sample() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(median(&v), 25.0);
        assert!((quantile(&v, 0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add_all(&[0.5, 1.5, 9.5, -3.0, 42.0]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts()[0], 2); // 0.5 and clamped -3.0
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[9], 2); // 9.5 and clamped 42.0
    }

    #[test]
    fn histogram_rows_cover_all_bins() {
        let h = Histogram::new(0.0, 1.0, 4);
        let rows = h.rows();
        assert_eq!(rows.len(), 4);
        assert!((rows[0].0 - 0.125).abs() < 1e-12);
        assert!((rows[3].0 - 0.875).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
