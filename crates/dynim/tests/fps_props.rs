//! The incremental FPS rank cache is *exactly* the naive recomputation.
//!
//! `FarthestPointSampler` never recomputes a candidate's min-distance to
//! the selected set from scratch once it is cached: new picks are folded
//! in incrementally (`min(old, d_new)`), stale entries are filled lazily,
//! and a stale-counter short-circuits warm scans. This file pins the claim
//! that none of that machinery is observable: against a deliberately naive
//! reference that recomputes every rank against every selected point on
//! every pick, the sampler must produce the same selections in the same
//! order with the same cached ranks — across adds, duplicate-id replaces,
//! `discard`, `take`, cap eviction, and interleavings thereof, in 2-D and
//! in the 10-D patch shape.

use proptest::prelude::*;

use dynim::{ExactNn, FarthestPointSampler, FpsConfig, HdPoint, Sampler};

/// Reference implementation: same queue mechanics (swap_remove order, cap
/// eviction), but every rank is recomputed in full at every use.
struct NaiveFps {
    cap: usize,
    queue: Vec<HdPoint>,
    selected: Vec<HdPoint>,
    evicted: u64,
}

impl NaiveFps {
    fn new(cap: usize) -> NaiveFps {
        NaiveFps {
            cap,
            queue: Vec::new(),
            selected: Vec::new(),
            evicted: 0,
        }
    }

    fn rank(&self, p: &HdPoint) -> Option<f64> {
        if self.selected.is_empty() {
            return None;
        }
        Some(
            self.selected
                .iter()
                .map(|s| p.dist_sq(&s.coords))
                .fold(f64::INFINITY, f64::min),
        )
    }

    fn add(&mut self, point: HdPoint) {
        if let Some(i) = self.queue.iter().position(|q| q.id == point.id) {
            self.queue[i] = point;
            return;
        }
        if self.cap > 0 && self.queue.len() >= self.cap {
            self.queue.swap_remove(0);
            self.evicted += 1;
        }
        self.queue.push(point);
    }

    fn select(&mut self, k: usize) -> Vec<HdPoint> {
        let mut out = Vec::new();
        for _ in 0..k {
            if self.queue.is_empty() {
                break;
            }
            // Argmax, earliest entry wins ties — O(N·S) on purpose.
            let (mut best, mut best_r) = (0usize, f64::NEG_INFINITY);
            for (i, q) in self.queue.iter().enumerate() {
                let r = self.rank(q).unwrap_or(f64::INFINITY);
                if r > best_r {
                    best_r = r;
                    best = i;
                }
            }
            let p = self.queue.swap_remove(best);
            self.selected.push(p.clone());
            out.push(p);
        }
        out
    }

    fn discard(&mut self, id: &str) -> bool {
        match self.queue.iter().position(|q| q.id == id) {
            Some(i) => {
                self.queue.swap_remove(i);
                true
            }
            None => false,
        }
    }

    fn take(&mut self, id: &str) -> Option<HdPoint> {
        let i = self.queue.iter().position(|q| q.id == id)?;
        let p = self.queue.swap_remove(i);
        self.selected.push(p.clone());
        Some(p)
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Add (or re-add, replacing coords) the id `slot` from a small pool.
    Add {
        slot: u8,
        xs: Vec<i16>,
    },
    Select {
        k: u8,
    },
    Discard {
        slot: u8,
    },
    Take {
        slot: u8,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..40, prop::collection::vec(-50i16..50, 9)).prop_map(|(slot, xs)| Op::Add { slot, xs }),
        (0u8..6).prop_map(|k| Op::Select { k }),
        (0u8..40).prop_map(|slot| Op::Discard { slot }),
        (0u8..40).prop_map(|slot| Op::Take { slot }),
    ]
}

/// A candidate of one of two shapes: 2-D from the first two values, or the
/// campaign's patch shape, 10-D with a constant first coordinate (the
/// queue's state tag). The 10-D values are sevenths, so distances round
/// and a summation order other than the reference's would show.
fn point(slot: u8, xs: &[i16], wide: bool) -> HdPoint {
    let coords = if wide {
        std::iter::once(3.0)
            .chain(xs.iter().map(|&x| x as f64 / 7.0))
            .collect()
    } else {
        xs[..2].iter().map(|&x| x as f64).collect()
    };
    HdPoint::new(format!("p{slot}"), coords)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Same op stream in, same observable behaviour out — selections (ids,
    /// order, coords), queue sizes, eviction counts, and, once the lazy
    /// entries are flushed, the cached ranks themselves.
    #[test]
    fn incremental_cache_equals_naive_recomputation(
        ops in prop::collection::vec(arb_op(), 1..100),
        cap in prop_oneof![Just(0usize), Just(8usize)],
        wide in prop_oneof![Just(false), Just(true)],
    ) {
        let mut fast = FarthestPointSampler::new(FpsConfig { cap }, ExactNn::new());
        let mut naive = NaiveFps::new(cap);

        for op in &ops {
            match *op {
                Op::Add { slot, ref xs } => {
                    fast.add(point(slot, xs, wide));
                    naive.add(point(slot, xs, wide));
                }
                Op::Select { k } => {
                    let a = fast.select(k as usize);
                    let b = naive.select(k as usize);
                    let ids_a: Vec<&str> = a.iter().map(|p| p.id.as_str()).collect();
                    let ids_b: Vec<&str> = b.iter().map(|p| p.id.as_str()).collect();
                    prop_assert_eq!(ids_a, ids_b, "selection diverged");
                    for (pa, pb) in a.iter().zip(&b) {
                        prop_assert_eq!(&pa.coords, &pb.coords);
                    }
                }
                Op::Discard { slot } => {
                    let id = format!("p{slot}");
                    prop_assert_eq!(fast.discard(&id), naive.discard(&id));
                }
                Op::Take { slot } => {
                    let id = format!("p{slot}");
                    let a = fast.take(&id);
                    let b = naive.take(&id);
                    prop_assert_eq!(a.map(|p| p.id), b.map(|p| p.id));
                }
            }
            prop_assert_eq!(fast.candidates(), naive.queue.len());
            prop_assert_eq!(fast.evicted(), naive.evicted);
            prop_assert_eq!(fast.selected_count(), naive.selected.len());
        }

        // Selection histories match in full.
        let sel_fast: Vec<&str> = fast.selected_ids().iter().map(String::as_str).collect();
        let sel_naive: Vec<&str> = naive.selected.iter().map(|p| p.id.as_str()).collect();
        prop_assert_eq!(sel_fast, sel_naive);

        // Flush lazy entries, then every cached rank must equal the naive
        // full recomputation — exactly, not approximately: the incremental
        // fold is min() over the identical set of distances. Queue order
        // itself must agree too (both sides applied the same swap_remove
        // sequence).
        fast.update_ranks();
        let ranks = fast.cached_ranks();
        prop_assert_eq!(ranks.len(), naive.queue.len());
        for ((id, rank), q) in ranks.iter().zip(&naive.queue) {
            prop_assert_eq!(*id, q.id.as_str(), "queue order diverged");
            prop_assert_eq!(*rank, naive.rank(q), "rank diverged for {}", id);
        }
    }
}
