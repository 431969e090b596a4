//! The nearest-neighbor index behind novelty ranking.
//!
//! The paper updates candidate ranks "using approximate nearest neighbor
//! queries (with L2 distances) powered by the FAISS framework". [`ExactNn`]
//! stands in for FAISS's exact baseline, the flat index: a brute-force L2
//! scan, blocked so that one pass over a block computes eight distances
//! side by side. A patch queue's selected set holds a few thousand ~10-D
//! points; at that size a tree prunes almost nothing and the scan is
//! faster.

/// Points per block: one accumulator each in [`ExactNn::nearest_dist_sq`].
const LANES: usize = 8;

/// Exact nearest-neighbor index: a blocked linear scan.
///
/// Every distance is summed over dimensions in order, as
/// [`HdPoint::dist_sq`](crate::HdPoint::dist_sq) sums it, so the index and
/// the sampler's incremental folds agree bit for bit.
#[derive(Debug, Clone, Default)]
pub struct ExactNn {
    dim: usize,
    len: usize,
    /// Dimension-major: block `b` holds points `b * LANES ..`, and entry
    /// `b * dim + d` holds their coordinate `d`. Lanes at or past `len`
    /// hold `f64::INFINITY`, whose distance to any query is infinite or
    /// NaN and so never below the running minimum.
    blocks: Vec<[f64; LANES]>,
}

/// Former name of the index. Its last user is the benchmark harness
/// (`benchmark/src/layers/batch.rs:8/119`), which names the type.
pub type KdTreeNn = ExactNn;

impl ExactNn {
    /// An empty index.
    pub fn new() -> ExactNn {
        ExactNn::default()
    }

    /// Inserts a point.
    ///
    /// # Panics
    /// Panics on a point without coordinates, or with a dimensionality
    /// other than the first point's.
    pub fn add(&mut self, coords: &[f64]) {
        if self.len == 0 {
            assert!(!coords.is_empty(), "points need at least one coordinate");
            self.dim = coords.len();
        }
        assert_eq!(coords.len(), self.dim, "dimensionality mismatch");
        let lane = self.len % LANES;
        if lane == 0 {
            let rows = self.blocks.len() + self.dim;
            self.blocks.resize(rows, [f64::INFINITY; LANES]);
        }
        let block = self.blocks.len() - self.dim;
        for (row, &x) in self.blocks[block..].iter_mut().zip(coords) {
            row[lane] = x;
        }
        self.len += 1;
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Squared L2 distance from `query` to the nearest stored point, or
    /// `f64::INFINITY` when the index is empty. NaN distances never win.
    pub fn nearest_dist_sq(&self, query: &[f64]) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        debug_assert_eq!(query.len(), self.dim);
        let mut best = f64::INFINITY;
        for block in self.blocks.chunks_exact(self.dim) {
            let mut acc = [0.0; LANES];
            for (row, &q) in block.iter().zip(query) {
                for (a, &x) in acc.iter_mut().zip(row) {
                    *a += (x - q) * (x - q);
                }
            }
            for d in acc {
                if d < best {
                    best = d;
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HdPoint;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_index_returns_infinity() {
        assert_eq!(ExactNn::new().nearest_dist_sq(&[0.0]), f64::INFINITY);
    }

    /// Every answer is the sampler's reference, `HdPoint::dist_sq` folded
    /// with `f64::min`, to the bit: across block boundaries, with
    /// duplicates, and for queries that are stored points.
    #[test]
    fn matches_the_naive_fold_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(99);
        for dim in [1, 3, 10, 14] {
            for n in [0, 1, 7, 8, 9, 17, 1000] {
                let mut index = ExactNn::new();
                let mut points: Vec<HdPoint> = Vec::new();
                for i in 0..n {
                    // Every third point repeats the one before it.
                    let coords = match points.last() {
                        Some(prev) if i % 3 == 2 => prev.coords.clone(),
                        _ => (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    };
                    index.add(&coords);
                    points.push(HdPoint::new(format!("p{i}"), coords));
                }
                assert_eq!(index.len(), n);
                let naive = |q: &[f64]| {
                    points
                        .iter()
                        .map(|p| p.dist_sq(q))
                        .fold(f64::INFINITY, f64::min)
                };
                for p in &points {
                    assert_eq!(index.nearest_dist_sq(&p.coords).to_bits(), 0.0f64.to_bits());
                }
                for _ in 0..100 {
                    let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.5..1.5)).collect();
                    assert_eq!(
                        index.nearest_dist_sq(&q).to_bits(),
                        naive(&q).to_bits(),
                        "{n} points of dim {dim}, query {q:?}"
                    );
                }
            }
        }
    }
}
