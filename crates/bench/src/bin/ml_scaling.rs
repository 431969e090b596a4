//! §1 contribution (2c): "more-efficient ML framework supporting almost
//! 165× more data for dynamic, real-time decision making."
//!
//! The patch selector's farthest-point sampling is capped at 5 × 35,000
//! candidates "for computational viability" (rank updates take 3–4 minutes
//! when full). The new binned sampler handles the CG-frame stream — 9 M
//! candidates over the campaign — with the same 3–4 minute update budget:
//! 9,837,316 / (5 × 35,000 ≈ 175,000 considering one queue: 35,000 × 165
//! ≈ 5.8 M…) the paper compares 9 M binned vs 35 K FPS ≈ 165×.
//!
//! We measure, for real: the FPS rank-update cost at its cap, and the
//! binned sampler's ingest+select cost at millions of candidates.

use dynim::{
    BinnedConfig, BinnedSampler, FarthestPointSampler, FpsConfig, HdPoint, KdTreeNn, Sampler,
};

fn main() {
    mummi_bench::Flags::from_env(&[], &[]);
    println!("# selector capacity at a fixed update budget\n");

    // FPS at the paper's per-queue cap.
    let cap = 35_000;
    let mut fps = FarthestPointSampler::new(FpsConfig { cap }, KdTreeNn::new());
    for i in 0..cap {
        let x = (i as f64 * 0.754877) % 1.0;
        let y = (i as f64 * 0.569840) % 1.0;
        fps.add(HdPoint::new(
            format!("p{i}"),
            vec![
                x,
                y,
                (x * 7.3) % 1.0,
                (y * 3.1) % 1.0,
                x * y,
                x - y,
                x + y,
                x * 2.0 % 1.0,
                y * 2.0 % 1.0,
            ],
        ));
    }
    // Seed the selected set so rank updates are non-trivial, then measure
    // a full rank update + selection.
    fps.select(8);
    let t0 = std::time::Instant::now();
    fps.update_ranks();
    let sel = fps.select(32);
    let fps_dt = t0.elapsed().as_secs_f64();
    assert_eq!(sel.len(), 32);
    println!(
        "farthest-point: {} candidates -> full rank update + 32 selections in {:.3} s",
        mummi_bench::group_digits(cap as u64),
        fps_dt
    );

    // Binned sampler at millions of candidates.
    let n: u64 = 5_000_000;
    let mut binned = BinnedSampler::new(BinnedConfig::cg_frames());
    let t0 = std::time::Instant::now();
    for i in 0..n {
        let x = (i % 97) as f64 / 97.0;
        let y = (i % 89) as f64 / 89.0;
        let z = (i % 83) as f64 / 83.0;
        binned.add(HdPoint::new(format!("f{i}"), vec![x, y, z]));
    }
    let ingest_dt = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let sel = binned.select(32);
    let select_dt = t0.elapsed().as_secs_f64();
    assert_eq!(sel.len(), 32);
    println!(
        "binned       : {} candidates ingested in {:.2} s; 32 selections in {:.4} s",
        mummi_bench::group_digits(n),
        ingest_dt,
        select_dt
    );

    // Capacity ratio at equal (or better) update latency.
    let ratio = n as f64 / cap as f64;
    println!("\ncapacity ratio at real-time budgets: {ratio:.0}× (paper: \"almost 165× more data\": 9 M frames vs 35 K patches/queue)");
    println!(
        "per-candidate cost: FPS {:.1} µs vs binned {:.3} µs",
        fps_dt * 1e6 / cap as f64,
        ingest_dt * 1e6 / n as f64
    );
}
