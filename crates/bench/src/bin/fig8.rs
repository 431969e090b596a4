//! Figure 8: AA→CG feedback iteration time vs frames processed.
//!
//! "The figure shows that more than 97% of the feedback iterations
//! finished within 10 minutes on average. In the few cases where more than
//! 1600 frames had to be processed, we did not meet the target, but the
//! performance scaled linearly."

use campaign::FeedbackTimingModel;
use mummi_bench::print_series;
use simcore::{Histogram, SimDuration};

fn main() {
    mummi_bench::Flags::from_env(&[], &[]);
    let mut model = FeedbackTimingModel::campaign(42);
    // A campaign's worth of iterations: 10-minute cadence over ~3 months of
    // active 1000-node operation, at the 2400-AA-sims typical load.
    let iterations = model.series(4000, 700.0);

    // Scatter: frames vs minutes (the figure's dots), binned for printing.
    let rows: Vec<(f64, f64)> = iterations
        .iter()
        .map(|i| (i.frames as f64, i.duration.as_mins_f64()))
        .collect();
    let mut means: Vec<(f64, f64)> = Vec::new();
    for lo in (0..7000).step_by(500) {
        let in_bin: Vec<f64> = rows
            .iter()
            .filter(|(f, _)| *f >= lo as f64 && *f < (lo + 500) as f64)
            .map(|(_, m)| *m)
            .collect();
        if !in_bin.is_empty() {
            means.push((
                lo as f64 + 250.0,
                in_bin.iter().sum::<f64>() / in_bin.len() as f64,
            ));
        }
    }
    print_series(
        "Figure 8: AA→CG feedback time vs frames (bin means)",
        "aa_frames",
        "minutes",
        &means,
    );

    // Cumulative frequency of frames per iteration.
    let mut h = Histogram::new(0.0, 7000.0, 28);
    h.add_all(&rows.iter().map(|(f, _)| *f).collect::<Vec<f64>>());
    let total = h.total() as f64;
    let mut cum = 0.0;
    let mut cum_rows = Vec::new();
    for (x, c) in h.rows() {
        cum += c as f64;
        cum_rows.push((x, 100.0 * cum / total));
    }
    print_series(
        "Figure 8: cumulative frequency of iteration sizes",
        "aa_frames",
        "cumulative_pct",
        &cum_rows,
    );

    let frac = FeedbackTimingModel::fraction_within(&iterations, SimDuration::from_mins(10));
    println!(
        "iterations finishing within 10 minutes: {:.1}% (paper: >97%)",
        frac * 100.0
    );
    let worst = iterations
        .iter()
        .max_by_key(|i| i.duration)
        .expect("non-empty series");
    println!(
        "largest iteration: {} frames in {:.1} min (linear scaling beyond the target)",
        worst.frames,
        worst.duration.as_mins_f64()
    );
}
