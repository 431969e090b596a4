//! Figure 4: per-scale simulation performance through MuMMI.
//!
//! Left: continuum throughput distribution (modes per allocation size).
//! Middle: CG µs/day vs particle count, with the ddcMD-MPI slowdown
//! episode visible as a low shoulder. Right: AA ns/day vs atom count.

use campaign::{Campaign, CampaignConfig};
use mummi_bench::{print_histogram, print_series};
use simcore::{Histogram, Summary};

fn main() {
    mummi_bench::Flags::from_env(&[], &[]);
    let mut c = Campaign::new(CampaignConfig::default());
    // Mixed allocation sizes create the multi-modal continuum distribution.
    for &(nodes, hours) in &[(100u32, 6u64), (100, 12), (500, 12), (1000, 24), (1000, 24)] {
        c.execute_run(nodes, hours);
    }

    // Left: continuum performance histogram (ms/day).
    let mut h = Histogram::new(0.0, 1.1, 44);
    h.add_all(c.continuum_samples());
    print_histogram(
        &format!(
            "Figure 4 (left): continuum performance (ms/day), {} frames",
            c.continuum_samples().len()
        ),
        "ms_per_day",
        &h,
    );

    // Middle: CG performance vs system size (binned means).
    let cg = binned_stats(c.cg_samples(), 10);
    print_series(
        "Figure 4 (middle): CG performance vs system size",
        "particles",
        "us_per_day_mean",
        &cg.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>(),
    );
    print_series(
        "Figure 4 (middle, spread): CG performance min/max per size bin",
        "particles",
        "us_per_day_min_max",
        &cg.iter()
            .flat_map(|r| [(r.0, r.2), (r.0, r.3)])
            .collect::<Vec<_>>(),
    );
    let rates: Vec<f64> = c.cg_samples().iter().map(|s| s.1).collect();
    let s = Summary::of(&rates);
    println!(
        "CG overall: mean {:.3} µs/day (std {:.3}); paper benchmark 1.04 µs/day with a ~20% MPI-bug shoulder\n",
        s.mean, s.std
    );

    // Right: AA performance vs atoms.
    let aa = binned_stats(c.aa_samples(), 10);
    print_series(
        "Figure 4 (right): AA performance vs system size",
        "atoms",
        "ns_per_day_mean",
        &aa.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>(),
    );
    let rates: Vec<f64> = c.aa_samples().iter().map(|s| s.1).collect();
    let s = Summary::of(&rates);
    println!(
        "AA overall: mean {:.2} ns/day (std {:.2}); paper benchmark 13.98 ns/day",
        s.mean, s.std
    );
}

/// Bins (size, rate) samples by size; returns (bin center, mean, min, max).
fn binned_stats(samples: &[(f64, f64)], bins: usize) -> Vec<(f64, f64, f64, f64)> {
    if samples.is_empty() {
        return Vec::new();
    }
    let lo = samples.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
    let hi = samples
        .iter()
        .map(|s| s.0)
        .fold(f64::NEG_INFINITY, f64::max)
        + 1e-9;
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); bins];
    for &(size, rate) in samples {
        let b = (((size - lo) / (hi - lo)) * bins as f64) as usize;
        acc[b.min(bins - 1)].push(rate);
    }
    (0..bins)
        .filter(|&b| !acc[b].is_empty())
        .map(|b| {
            let center = lo + (b as f64 + 0.5) * (hi - lo) / bins as f64;
            let s = Summary::of(&acc[b]);
            (center, s.mean, s.min, s.max)
        })
        .collect()
}
