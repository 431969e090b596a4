//! The binned (histogram) sampler for the 3-D CG-frame encoding.
//!
//! "Unlike the encoding used for patches, the Frame Selector relies on a
//! 3-D encoding of CG frames that represents three disparate quantities;
//! therefore, the L2 distance is not meaningful. To support a functionally
//! useful sampling, a binned sampler was developed … The binned sampling
//! approach also facilitates control over the balance between importance
//! and randomness" (§4.4 Task 2). Rank updates are O(1) per candidate —
//! this is what lets the paper track 9 M candidates with 3–4 minute
//! updates, "almost 165× more data".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use crate::point::HdPoint;
use crate::Sampler;

/// Per-dimension binning plus the importance/randomness balance.
#[derive(Debug, Clone)]
pub struct BinnedConfig {
    /// `(lo, hi, bins)` for each encoding dimension; values clamp to range.
    pub dims: Vec<(f64, f64, usize)>,
    /// Probability of an importance-driven pick (least-sampled bin) versus
    /// a uniform random pick. 1.0 = pure importance, 0.0 = pure random.
    pub importance: f64,
    /// RNG seed.
    pub seed: u64,
}

impl BinnedConfig {
    /// The three-scale campaign's frame encoding: three disparate
    /// quantities, each binned into 10 bins over [0, 1].
    pub fn cg_frames() -> BinnedConfig {
        BinnedConfig {
            dims: vec![(0.0, 1.0, 10); 3],
            importance: 0.8,
            seed: 7,
        }
    }

    fn bin_of(&self, coords: &[f64]) -> usize {
        let mut idx = 0usize;
        for (d, &(lo, hi, bins)) in self.dims.iter().enumerate() {
            let v = coords.get(d).copied().unwrap_or(lo).clamp(lo, hi);
            let frac = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
            let b = ((frac * bins as f64) as usize).min(bins - 1);
            idx = idx * bins + b;
        }
        idx
    }

    fn total_bins(&self) -> usize {
        self.dims
            .iter()
            .map(|&(_, _, b)| b)
            .product::<usize>()
            .max(1)
    }
}

/// Histogram-based sampler: novelty = how rarely a bin has been sampled.
#[derive(Debug)]
pub struct BinnedSampler {
    cfg: BinnedConfig,
    /// Candidate ids per bin (points kept in a side table for O(1) discard).
    bins: Vec<Vec<String>>,
    points: HashMap<String, (HdPoint, usize)>,
    /// How many selections each bin has produced (the importance signal).
    sampled: Vec<u64>,
    rng: StdRng,
    total: usize,
}

impl BinnedSampler {
    /// Creates a sampler.
    ///
    /// # Panics
    /// Panics when a dimension has zero bins or `importance` is outside
    /// [0, 1].
    pub fn new(cfg: BinnedConfig) -> BinnedSampler {
        assert!(
            cfg.dims.iter().all(|&(_, _, b)| b > 0),
            "every dimension needs at least one bin"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.importance),
            "importance must be in [0, 1]"
        );
        let n = cfg.total_bins();
        BinnedSampler {
            rng: StdRng::seed_from_u64(cfg.seed),
            bins: vec![Vec::new(); n],
            points: HashMap::new(),
            sampled: vec![0; n],
            cfg,
            total: 0,
        }
    }

    /// Picks one candidate according to the importance/randomness policy.
    fn pick_one(&mut self) -> Option<HdPoint> {
        if self.total == 0 {
            return None;
        }
        let use_importance = self.rng.gen_bool(self.cfg.importance);
        let bin = if use_importance {
            // Least-sampled non-empty bin; ties broken by lowest index for
            // determinism.
            (0..self.bins.len())
                .filter(|&b| !self.bins[b].is_empty())
                .min_by_key(|&b| self.sampled[b])
                .expect("total > 0 implies a non-empty bin")
        } else {
            // Uniform over candidates: pick the k-th queued candidate.
            let mut k = self.rng.gen_range(0..self.total);
            let mut chosen = 0;
            for (b, slot) in self.bins.iter().enumerate() {
                if k < slot.len() {
                    chosen = b;
                    break;
                }
                k -= slot.len();
            }
            chosen
        };
        let slot = &mut self.bins[bin];
        let idx = self.rng.gen_range(0..slot.len());
        let id = slot.swap_remove(idx);
        let (point, _) = self.points.remove(&id).expect("points consistent");
        self.sampled[bin] += 1;
        self.total -= 1;
        Some(point)
    }
}

impl Sampler for BinnedSampler {
    fn add(&mut self, point: HdPoint) {
        let bin = self.cfg.bin_of(&point.coords);
        if let Some((_, old_bin)) = self.points.get(&point.id) {
            // Re-added id: drop the stale copy first.
            let old_bin = *old_bin;
            let slot = &mut self.bins[old_bin];
            if let Some(idx) = slot.iter().position(|x| x == &point.id) {
                slot.swap_remove(idx);
                self.total -= 1;
            }
        }
        self.bins[bin].push(point.id.clone());
        self.points.insert(point.id.clone(), (point, bin));
        self.total += 1;
    }

    fn select(&mut self, k: usize) -> Vec<HdPoint> {
        (0..k).map_while(|_| self.pick_one()).collect()
    }

    fn discard(&mut self, id: &str) -> bool {
        match self.points.remove(id) {
            Some((_, bin)) => {
                let slot = &mut self.bins[bin];
                if let Some(idx) = slot.iter().position(|x| x == id) {
                    slot.swap_remove(idx);
                }
                self.total -= 1;
                true
            }
            None => false,
        }
    }

    fn candidates(&self) -> usize {
        self.total
    }

    fn take(&mut self, id: &str) -> Option<HdPoint> {
        let (point, bin) = self.points.remove(id)?;
        let slot = &mut self.bins[bin];
        let idx = slot.iter().position(|x| x == id).expect("bin consistent");
        slot.swap_remove(idx);
        self.sampled[bin] += 1;
        self.total -= 1;
        Some(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(id: &str, coords: &[f64]) -> HdPoint {
        HdPoint::new(id, coords.to_vec())
    }

    fn config(importance: f64) -> BinnedConfig {
        BinnedConfig {
            dims: vec![(0.0, 1.0, 4); 3],
            importance,
            seed: 5,
        }
    }

    #[test]
    fn bin_assignment_clamps() {
        let cfg = config(1.0);
        assert_eq!(cfg.total_bins(), 64);
        assert_eq!(cfg.bin_of(&[-5.0, 0.0, 0.0]), cfg.bin_of(&[0.0, 0.0, 0.0]));
        assert_eq!(cfg.bin_of(&[9.0, 1.0, 1.0]), cfg.bin_of(&[1.0, 1.0, 1.0]));
        assert_ne!(cfg.bin_of(&[0.1, 0.1, 0.1]), cfg.bin_of(&[0.9, 0.9, 0.9]));
    }

    #[test]
    fn importance_mode_balances_bins() {
        // Bin A has 1000 candidates, bin B has 10. Pure importance sampling
        // must alternate between them rather than drown in A.
        let mut s = BinnedSampler::new(config(1.0));
        for i in 0..1000 {
            s.add(p(&format!("a{i}"), &[0.1, 0.1, 0.1]));
        }
        for i in 0..10 {
            s.add(p(&format!("b{i}"), &[0.9, 0.9, 0.9]));
        }
        let sel = s.select(20);
        let from_b = sel.iter().filter(|q| q.id.starts_with('b')).count();
        assert_eq!(from_b, 10, "importance mode must drain the rare bin");
    }

    #[test]
    fn random_mode_follows_occupancy() {
        let mut s = BinnedSampler::new(config(0.0));
        for i in 0..900 {
            s.add(p(&format!("a{i}"), &[0.1, 0.1, 0.1]));
        }
        for i in 0..100 {
            s.add(p(&format!("b{i}"), &[0.9, 0.9, 0.9]));
        }
        let sel = s.select(200);
        let from_a = sel.iter().filter(|q| q.id.starts_with('a')).count();
        // ~90% expected from the big bin.
        assert!(
            from_a > 150,
            "random mode should follow occupancy: {from_a}"
        );
    }

    #[test]
    fn scales_to_millions_of_candidates() {
        // The 165× headline: adds must stay O(1). One million candidates
        // (scaled from the paper's 9 M) must ingest and select promptly.
        let mut s = BinnedSampler::new(BinnedConfig {
            dims: vec![(0.0, 1.0, 10); 3],
            importance: 0.8,
            seed: 1,
        });
        for i in 0..1_000_000u64 {
            let x = (i % 97) as f64 / 97.0;
            let y = (i % 89) as f64 / 89.0;
            let z = (i % 83) as f64 / 83.0;
            s.add(HdPoint::new(format!("f{i}"), vec![x, y, z]));
        }
        assert_eq!(s.candidates(), 1_000_000);
        let sel = s.select(100);
        assert_eq!(sel.len(), 100);
        assert_eq!(s.candidates(), 999_900);
    }

    #[test]
    fn discard_and_take() {
        let mut s = BinnedSampler::new(config(1.0));
        s.add(p("x", &[0.5, 0.5, 0.5]));
        s.add(p("y", &[0.5, 0.5, 0.5]));
        assert!(s.discard("x"));
        assert!(!s.discard("x"));
        let t = s.take("y").unwrap();
        assert_eq!(t.id, "y");
        assert_eq!(s.candidates(), 0);
        // take() counts as a selection for importance purposes.
        let bin = config(1.0).bin_of(&[0.5, 0.5, 0.5]);
        assert_eq!(s.sampled[bin], 1);
    }

    #[test]
    fn readd_same_id_moves_bins() {
        let mut s = BinnedSampler::new(config(1.0));
        s.add(p("x", &[0.1, 0.1, 0.1]));
        s.add(p("x", &[0.9, 0.9, 0.9]));
        assert_eq!(s.candidates(), 1);
        let sel = s.select(1);
        assert_eq!(sel[0].coords, vec![0.9, 0.9, 0.9]);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut s = BinnedSampler::new(config(0.5));
            for i in 0..100 {
                let v = i as f64 / 100.0;
                s.add(p(&format!("p{i}"), &[v, 1.0 - v, 0.5]));
            }
            s.select(30).into_iter().map(|q| q.id).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "importance must be")]
    fn bad_importance_panics() {
        let mut cfg = config(0.5);
        cfg.importance = 1.5;
        let _ = BinnedSampler::new(cfg);
    }
}
