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

use crate::id::PayloadId;
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
///
/// Each queued candidate is one slot: its id, its bin and its place in
/// that bin, with its coordinates in one flat arena. Bins hold slot
/// indices, and an open-addressing table finds a slot by id. Removing a
/// candidate swap-removes its bin entry and its slot, and repairs the
/// place of whatever moved into either hole, so a bin's order — and with
/// it the pick order — is what a list of ids per bin would give. Adding
/// a candidate allocates nothing beyond amortised growth, and dropping
/// the sampler frees a few large buffers.
#[derive(Debug)]
pub struct BinnedSampler {
    cfg: BinnedConfig,
    slots: Vec<Slot>,
    /// Slot `i`'s coordinates start at `i * stride`.
    coords: Vec<f64>,
    /// The widest point seen; grows (and re-lays the arena) only when a
    /// wider one arrives.
    stride: usize,
    /// Slot indices per bin.
    bins: Vec<Vec<u32>>,
    /// The slot of each queued id.
    index: SlotIndex,
    /// How many selections each bin has produced (the importance signal).
    sampled: Vec<u64>,
    rng: StdRng,
}

/// One queued candidate.
#[derive(Debug)]
struct Slot {
    id: PayloadId,
    bin: u32,
    /// Position in `bins[bin]`.
    at: u32,
    dim: u32,
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
            slots: Vec::new(),
            coords: Vec::new(),
            stride: cfg.dims.len(),
            bins: vec![Vec::new(); n],
            index: SlotIndex::default(),
            sampled: vec![0; n],
            cfg,
        }
    }

    /// Picks one candidate according to the importance/randomness policy.
    fn pick_one(&mut self) -> Option<HdPoint> {
        if self.slots.is_empty() {
            return None;
        }
        let use_importance = self.rng.gen_bool(self.cfg.importance);
        let bin = if use_importance {
            // Least-sampled non-empty bin; ties broken by lowest index for
            // determinism.
            (0..self.bins.len())
                .filter(|&b| !self.bins[b].is_empty())
                .min_by_key(|&b| self.sampled[b])
                .expect("a queued slot implies a non-empty bin")
        } else {
            // Uniform over candidates: pick the k-th queued candidate.
            let mut k = self.rng.gen_range(0..self.slots.len());
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
        let at = self.rng.gen_range(0..self.bins[bin].len());
        let s = self.unbin(bin, at);
        self.sampled[bin] += 1;
        Some(self.release(s))
    }

    /// Swap-removes entry `at` of `bin`, repairs the place of the entry
    /// that moved into it, and returns the removed slot.
    fn unbin(&mut self, bin: usize, at: usize) -> usize {
        let entries = &mut self.bins[bin];
        let s = entries.swap_remove(at) as usize;
        if let Some(&moved) = entries.get(at) {
            self.slots[moved as usize].at = at as u32;
        }
        s
    }

    /// Swap-removes slot `s`, whose bin entry is already gone, moves the
    /// last slot into its place, and returns the candidate.
    fn release(&mut self, s: usize) -> HdPoint {
        let last = self.slots.len() - 1;
        if let Some(at) = self.index.find(&self.slots, self.slots[s].id.as_bytes()) {
            self.index.remove(at);
        }
        if s < last {
            if let Some(at) = self.index.find(&self.slots, self.slots[last].id.as_bytes()) {
                self.index.set(at, s);
            }
            let moved = &self.slots[last];
            self.bins[moved.bin as usize][moved.at as usize] = s as u32;
        }
        let slot = self.slots.swap_remove(s);
        let base = s * self.stride;
        let coords = self.coords[base..base + slot.dim as usize].to_vec();
        self.coords
            .copy_within(last * self.stride..(last + 1) * self.stride, base);
        self.coords.truncate(last * self.stride);
        HdPoint {
            id: slot.id,
            coords,
        }
    }

    /// Widens the arena's rows to `dim` coordinates.
    fn widen(&mut self, dim: usize) {
        let old = self.stride;
        let mut coords = vec![0.0; self.slots.len() * dim];
        for i in 0..self.slots.len() {
            coords[i * dim..i * dim + old].copy_from_slice(&self.coords[i * old..(i + 1) * old]);
        }
        self.coords = coords;
        self.stride = dim;
    }

    /// Writes `coords` into slot `s`'s row.
    fn store(&mut self, s: usize, coords: &[f64]) {
        let row = &mut self.coords[s * self.stride..(s + 1) * self.stride];
        row[..coords.len()].copy_from_slice(coords);
        row[coords.len()..].fill(0.0);
        self.slots[s].dim = coords.len() as u32;
    }

    /// Takes queued candidate `id` out, counting the pick when `select`.
    fn remove(&mut self, id: &str, select: bool) -> Option<HdPoint> {
        let s = self
            .index
            .slot(self.index.find(&self.slots, id.as_bytes())?);
        let (bin, at) = (self.slots[s].bin as usize, self.slots[s].at as usize);
        self.unbin(bin, at);
        if select {
            self.sampled[bin] += 1;
        }
        Some(self.release(s))
    }
}

impl Sampler for BinnedSampler {
    fn add(&mut self, point: HdPoint) {
        let bin = self.cfg.bin_of(&point.coords);
        if point.coords.len() > self.stride {
            self.widen(point.coords.len());
        }
        let s = match self.index.find(&self.slots, point.id.as_bytes()) {
            Some(at) => {
                // Re-added id: leave the old bin, keep the slot.
                let s = self.index.slot(at);
                let (old, at) = (self.slots[s].bin as usize, self.slots[s].at as usize);
                self.unbin(old, at);
                s
            }
            None => {
                let s = self.slots.len();
                self.index.insert(point.id.as_bytes(), s);
                self.slots.push(Slot {
                    id: point.id,
                    bin: 0,
                    at: 0,
                    dim: 0,
                });
                self.coords.resize((s + 1) * self.stride, 0.0);
                s
            }
        };
        let slot = &mut self.slots[s];
        slot.bin = bin as u32;
        slot.at = self.bins[bin].len() as u32;
        self.bins[bin].push(s as u32);
        self.store(s, &point.coords);
    }

    fn select(&mut self, k: usize) -> Vec<HdPoint> {
        (0..k).map_while(|_| self.pick_one()).collect()
    }

    fn discard(&mut self, id: &str) -> bool {
        self.remove(id, false).is_some()
    }

    fn candidates(&self) -> usize {
        self.slots.len()
    }

    fn take(&mut self, id: &str) -> Option<HdPoint> {
        self.remove(id, true)
    }
}

/// Finds a queued slot by its id: open addressing with linear probing
/// over the slots' own ids. A bucket is eight bytes, the id's 32-bit
/// hash above the slot index plus one (0 is empty), so the table stays
/// small, growing it rehashes no id, and a probe compares ids only when
/// the hashes match. Removal shifts the probe run back, leaving no
/// tombstones.
#[derive(Debug, Default)]
struct SlotIndex {
    buckets: Vec<u64>,
    len: usize,
}

impl SlotIndex {
    /// FNV-1a over the id's bytes, then a 64-bit finaliser so that ids
    /// differing in one digit spread over the whole table.
    fn hash(id: &[u8]) -> u32 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in id {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        (h ^ (h >> 33)) as u32
    }

    fn home(&self, bucket: u64) -> usize {
        (bucket >> 32) as usize & (self.buckets.len() - 1)
    }

    /// The bucket holding `id`, if it is queued.
    fn find(&self, slots: &[Slot], id: &[u8]) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let hash = Self::hash(id);
        let mask = self.buckets.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let bucket = self.buckets[at];
            if bucket == 0 {
                return None;
            }
            if (bucket >> 32) as u32 == hash && slots[self.slot(at)].id.as_bytes() == id {
                return Some(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// The slot bucket `at` points to.
    fn slot(&self, at: usize) -> usize {
        (self.buckets[at] as u32 - 1) as usize
    }

    /// Points bucket `at` at slot `s`.
    fn set(&mut self, at: usize, s: usize) {
        self.buckets[at] = (self.buckets[at] & !0xffff_ffff) | (s as u64 + 1);
    }

    /// Adds `id` (not yet present) at slot `s`, at most half full.
    fn insert(&mut self, id: &[u8], s: usize) {
        if (self.len + 1) * 2 > self.buckets.len() {
            let grown = vec![0; (self.buckets.len() * 2).max(16)];
            let old = std::mem::replace(&mut self.buckets, grown);
            for bucket in old.into_iter().filter(|&b| b != 0) {
                self.place(bucket);
            }
        }
        self.place(u64::from(Self::hash(id)) << 32 | (s as u64 + 1));
        self.len += 1;
    }

    fn place(&mut self, bucket: u64) {
        let mask = self.buckets.len() - 1;
        let mut at = self.home(bucket);
        while self.buckets[at] != 0 {
            at = (at + 1) & mask;
        }
        self.buckets[at] = bucket;
    }

    /// Empties bucket `hole`, moving back each later bucket of its probe
    /// run whose home does not lie between the hole and it.
    fn remove(&mut self, mut hole: usize) {
        let mask = self.buckets.len() - 1;
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let bucket = self.buckets[at];
            if bucket == 0 {
                break;
            }
            if (at.wrapping_sub(self.home(bucket)) & mask) >= (at.wrapping_sub(hole) & mask) {
                self.buckets[hole] = bucket;
                hole = at;
            }
        }
        self.buckets[hole] = 0;
        self.len -= 1;
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
