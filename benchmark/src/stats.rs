//! Order statistics the records and the metric definitions use.
//!
//! Percentiles are nearest-rank on a sorted sample (the convention the
//! legacy `farm_bench`/`store_bench` binaries use), so a reported value
//! is always one that was actually measured.

/// Sorts a sample in place; NaNs (never produced by a timer) sort last.
pub fn sort(sample: &mut [f64]) {
    sample.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
}

/// Nearest-rank percentile `p` (0–100) of a **sorted** sample; 0 when
/// the sample is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (mean of the two middle values for even sizes);
/// 0 when the sample is empty, so a stage that never happened reads 0.
pub fn median(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        simcore::stats::median(sample)
    }
}

/// `(q1, q2, q3)` by linear interpolation between closest ranks on the
/// exclusive method — the same numbers Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance driver computes spreads from. `None` below two samples.
pub fn quartiles(sample: &[f64]) -> Option<(f64, f64, f64)> {
    let mut s = sample.to_vec();
    sort(&mut s);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile range as a share of the median — the spread the
/// acceptance driver compares with a metric's bound.
pub fn iqr_share(sample: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(sample)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest percentile the tail may be: above it the value follows
/// the sandbox's scheduling bursts, not the system (p99 of the store
/// round trips moved by half between identical runs, p90 by a fiftieth).
pub const TAIL_CAP: u32 = 90;

/// The tail of a **sorted** sample: the highest whole percentile, up to
/// [`TAIL_CAP`], that still has at least ten samples beyond it, with
/// that percentile's value. Below twenty samples no percentile
/// qualifies: the sample has no tail to report, and the median stands
/// in, labelled percentile 50 (the maximum of three replays is one
/// sample of the host's noise, not a property of the system).
pub fn tail(sorted: &[f64]) -> (u32, f64) {
    let n = sorted.len();
    if n < 20 {
        return (50, median(sorted));
    }
    let beyond = |p: u32| n - ((p as f64 / 100.0) * n as f64).ceil() as usize;
    let best = (50..=TAIL_CAP)
        .rev()
        .find(|&p| beyond(p) >= 10)
        .unwrap_or(50);
    (best, percentile(sorted, best as f64))
}

/// The mean of the middle half of a **sorted** sample: what is left
/// after dropping the lowest and the highest quarter, rounded up (so
/// three or five samples give their median); 0 when the sample is
/// empty. It shrugs off outliers as the median does, but where latencies
/// come in clusters — the farm's wire stalls quantise them into steps of
/// 88 ms, the store's into one cluster per request kind — and the
/// median sits at a cluster's edge, a few samples changing cluster move
/// the median by the gap between clusters and this by their share of it.
pub fn midmean(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let trim = n.div_ceil(4).min((n - 1) / 2);
    let mid = &sorted[trim..n - trim];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Percentile of queue waits over **all submitted** jobs: a job still
/// queued at the horizon counts as having waited at least
/// `horizon - submit` (right-censored), so a policy cannot improve its
/// tail by never placing the jobs that waited longest.
pub fn censored_percentile(placed_waits: &[f64], censored_waits: &[f64], p: f64) -> f64 {
    let mut all: Vec<f64> = placed_waits.iter().chain(censored_waits).copied().collect();
    sort(&mut all);
    percentile(&all, p)
}

/// Min / median / max plus quartiles (reps ≥ 4) of one metric's repeated
/// values, as the records state them.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub quartiles: Option<(f64, f64, f64)>,
}

/// Summarises repeated values of one metric.
pub fn summarize(sample: &[f64]) -> Summary {
    let mut s = sample.to_vec();
    sort(&mut s);
    Summary {
        n: s.len(),
        min: s.first().copied().unwrap_or(0.0),
        median: median(&s),
        max: s.last().copied().unwrap_or(0.0),
        quartiles: if s.len() >= 4 { quartiles(&s) } else { None },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q2 - 5.5).abs() < 1e-12, "{q2}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (a, b, c) = quartiles(&[2.0, 1.0]).unwrap();
        assert_eq!((a, b, c), (0.75, 1.5, 2.25));
        assert!(quartiles(&[1.0]).is_none());
        assert!((iqr_share(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 80 samples: p87 has ceil(69.6)=70 at or below, 10 beyond; p88
        // would leave 9.
        let v: Vec<f64> = (1..=80).map(f64::from).collect();
        let (p, value) = tail(&v);
        assert_eq!((p, value), (87, 70.0));
        assert_eq!(v.len() - v.iter().filter(|&&x| x <= value).count(), 10);
        // 120 samples could carry p91, 10,000 could carry p99: both stop
        // at the cap.
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(tail(&v), (90, 108.0));
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&big), (90, 9_000.0));
        // Too few samples for any percentile: the median, labelled 50.
        assert_eq!(tail(&[1.0, 3.0, 5.0]), (50, 3.0));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), (50, 10.0));
        assert_eq!(tail(&[]), (50, 0.0));
    }

    #[test]
    fn midmean_is_the_mean_of_the_middle_half() {
        assert_eq!(midmean(&[]), 0.0);
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(midmean(&[1.0, 3.0]), 2.0);
        // Three and five samples: the median.
        assert_eq!(midmean(&[1.0, 2.0, 90.0]), 2.0);
        assert_eq!(midmean(&[1.0, 2.0, 3.0, 4.0, 90.0]), 3.0);
        assert_eq!(midmean(&[1.0, 2.0, 4.0, 90.0]), 3.0);
        // Eight samples: the middle four.
        assert_eq!(midmean(&[0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 99.0, 99.0]), 2.5);
        // Two clusters of latencies with the median at the edge: one
        // sample changing cluster moves the median by half the gap, the
        // midmean by a twelfth of it.
        let mut v = vec![100.0; 12];
        v.extend(vec![200.0; 11]);
        let (median_before, mid_before) = (median(&v), midmean(&v));
        v[11] = 200.0;
        assert_eq!(median(&v) - median_before, 100.0);
        assert!((midmean(&v) - mid_before - 100.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn censored_jobs_count_in_the_tail() {
        // 98 jobs placed instantly, 2 never placed and censored at 500 s:
        // survivorship-biased p99 would be 1 s; the censored p99 is 500.
        let placed = vec![1.0; 98];
        let censored = vec![500.0; 2];
        assert_eq!(censored_percentile(&placed, &[], 99.0), 1.0);
        assert_eq!(censored_percentile(&placed, &censored, 99.0), 500.0);
        assert_eq!(censored_percentile(&placed, &censored, 50.0), 1.0);
    }

    #[test]
    fn summary_reports_quartiles_only_from_four_reps() {
        let s3 = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s3.n, s3.min, s3.median, s3.max), (3, 1.0, 2.0, 3.0));
        assert!(s3.quartiles.is_none());
        assert!(summarize(&[1.0, 2.0, 3.0, 4.0]).quartiles.is_some());
    }
}
