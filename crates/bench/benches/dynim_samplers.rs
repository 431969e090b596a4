//! Criterion microbenchmarks behind the 165× selector-capacity claim:
//! candidate ingestion and selection cost for the farthest-point sampler
//! (at its queue cap) vs the binned sampler (at much larger counts), and
//! the nearest-neighbor query the farthest-point rank updates are made of.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dynim::{
    BinnedConfig, BinnedSampler, ExactNn, FarthestPointSampler, FpsConfig, HdPoint, Sampler,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn point9(i: u64) -> HdPoint {
    let x = (i as f64 * 0.754877) % 1.0;
    let y = (i as f64 * 0.569840) % 1.0;
    HdPoint::new(
        format!("p{i}"),
        vec![
            x,
            y,
            (x * 7.3) % 1.0,
            (y * 3.1) % 1.0,
            x * y,
            x - y,
            x + y,
            x,
            y,
        ],
    )
}

fn point3(i: u64) -> HdPoint {
    HdPoint::new(
        format!("f{i}"),
        vec![
            (i % 97) as f64 / 97.0,
            (i % 89) as f64 / 89.0,
            (i % 83) as f64 / 83.0,
        ],
    )
}

fn bench_samplers(c: &mut Criterion) {
    let mut g = c.benchmark_group("dynim_samplers");

    // Ingest cost (the "negligible add" requirement).
    g.throughput(Throughput::Elements(1000));
    g.bench_function("fps_add_1000", |b| {
        b.iter(|| {
            let mut s = FarthestPointSampler::new(FpsConfig { cap: 0 }, ExactNn::new());
            for i in 0..1000 {
                s.add(point9(i));
            }
            assert_eq!(s.candidates(), 1000);
        })
    });
    g.bench_function("binned_add_1000", |b| {
        b.iter(|| {
            let mut s = BinnedSampler::new(BinnedConfig::cg_frames());
            for i in 0..1000 {
                s.add(point3(i));
            }
            assert_eq!(s.candidates(), 1000);
        })
    });

    // Selection cost at queue scale.
    for &n in &[5_000u64, 35_000] {
        g.bench_with_input(BenchmarkId::new("fps_select10", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let mut s = FarthestPointSampler::new(FpsConfig { cap: 0 }, ExactNn::new());
                    for i in 0..n {
                        s.add(point9(i));
                    }
                    s
                },
                |mut s| {
                    assert_eq!(s.select(10).len(), 10);
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    for &n in &[35_000u64, 1_000_000] {
        g.bench_with_input(BenchmarkId::new("binned_select10", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let mut s = BinnedSampler::new(BinnedConfig::cg_frames());
                    for i in 0..n {
                        s.add(point3(i));
                    }
                    s
                },
                |mut s| {
                    assert_eq!(s.select(10).len(), 10);
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }

    // The patch selector's hot operation: one nearest-neighbor query
    // against a queue's selected set, in the campaign's patch shape (a
    // constant state tag, then a uniform 9-D encoding as the campaign
    // draws it, not `point9`'s two-parameter family).
    let mut rng = StdRng::seed_from_u64(7);
    let mut tagged = || -> Vec<f64> {
        std::iter::once(2.0)
            .chain((0..9).map(|_| rng.gen_range(-1.0..1.0)))
            .collect()
    };
    g.throughput(Throughput::Elements(1));
    for &n in &[1_000u64, 8_000] {
        let mut index = ExactNn::new();
        for _ in 0..n {
            index.add(&tagged());
        }
        let queries: Vec<Vec<f64>> = (0..64).map(|_| tagged()).collect();
        let mut next = queries.iter().cycle();
        g.bench_with_input(BenchmarkId::new("nn_query", n), &index, |b, index| {
            let q = next.next().expect("cycle never ends");
            b.iter(|| index.nearest_dist_sq(std::hint::black_box(q)))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = bench_samplers
}
criterion_main!(benches);
