//! `BinnedSampler` (one slot per candidate, bins of slot indices, one
//! coordinate arena) against the design it replaced, kept here as a
//! test-only reference: a list of id strings per bin plus a map from id
//! to point. Over random add / re-add / select / take / discard streams,
//! with ids on both sides of the 30-byte inline bound and points of two
//! to four coordinates, both must pick the same candidates in the same
//! order with the same coordinates, and hold the same count.

use std::collections::HashMap;

use dynim::{BinnedConfig, BinnedSampler, HdPoint, Sampler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference sampler: every id kept as a `String` in its bin's list
/// and as the key of the point map.
struct ListRef {
    cfg: BinnedConfig,
    bins: Vec<Vec<String>>,
    points: HashMap<String, (HdPoint, usize)>,
    sampled: Vec<u64>,
    rng: StdRng,
    total: usize,
}

impl ListRef {
    fn new(cfg: BinnedConfig) -> ListRef {
        let n = cfg
            .dims
            .iter()
            .map(|&(_, _, b)| b)
            .product::<usize>()
            .max(1);
        ListRef {
            rng: StdRng::seed_from_u64(cfg.seed),
            bins: vec![Vec::new(); n],
            points: HashMap::new(),
            sampled: vec![0; n],
            cfg,
            total: 0,
        }
    }

    fn bin_of(&self, coords: &[f64]) -> usize {
        let mut idx = 0usize;
        for (d, &(lo, hi, bins)) in self.cfg.dims.iter().enumerate() {
            let v = coords.get(d).copied().unwrap_or(lo).clamp(lo, hi);
            let frac = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
            let b = ((frac * bins as f64) as usize).min(bins - 1);
            idx = idx * bins + b;
        }
        idx
    }

    fn pick_one(&mut self) -> Option<HdPoint> {
        if self.total == 0 {
            return None;
        }
        let bin = if self.rng.gen_bool(self.cfg.importance) {
            (0..self.bins.len())
                .filter(|&b| !self.bins[b].is_empty())
                .min_by_key(|&b| self.sampled[b])
                .expect("a candidate implies a non-empty bin")
        } else {
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

impl Sampler for ListRef {
    fn add(&mut self, point: HdPoint) {
        let bin = self.bin_of(&point.coords);
        let id = point.id.to_string();
        if let Some(&(_, old_bin)) = self.points.get(&id) {
            let slot = &mut self.bins[old_bin];
            if let Some(idx) = slot.iter().position(|x| *x == id) {
                slot.swap_remove(idx);
                self.total -= 1;
            }
        }
        self.bins[bin].push(id.clone());
        self.points.insert(id, (point, bin));
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

/// Id `i` of the stream's pool: short names, names of exactly 30 and 31
/// bytes, and two-byte characters that end at or straddle the bound.
fn name(i: u16) -> String {
    match i % 5 {
        0 => format!("aa-{i:010}"),
        1 => format!("{}{:02}", "x".repeat(28), i % 100),
        2 => format!("{}{:03}", "x".repeat(28), i % 1000),
        3 => format!("{}{:02}", "é".repeat(14), i % 100),
        _ => format!("{}{:02}", "é".repeat(15), i % 100),
    }
}

/// One stream step: `(op, id, coords, dim, k)`.
type Step = (u8, u16, (f64, f64, f64, f64), usize, usize);

fn step() -> impl Strategy<Value = Step> {
    (
        0u8..10,
        0u16..60,
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        2usize..5,
        1usize..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn picks_and_counts_match_the_list_reference(
        steps in prop::collection::vec(step(), 1..160),
        importance in prop_oneof![Just(0.0), Just(0.5), Just(1.0), 0.0f64..1.0],
        seed in 0u64..1_000,
        bins in 1usize..5,
    ) {
        let cfg = BinnedConfig { dims: vec![(0.0, 1.0, bins); 3], importance, seed };
        let mut fast = BinnedSampler::new(cfg.clone());
        let mut slow = ListRef::new(cfg);
        for (op, id, (x, y, z, w), dim, k) in steps {
            let id = name(id);
            match op {
                0..=4 => {
                    let p = HdPoint::new(&id, [x, y, z, w][..dim].to_vec());
                    fast.add(p.clone());
                    slow.add(p);
                }
                5 | 6 => prop_assert_eq!(fast.select(k), slow.select(k)),
                7 => prop_assert_eq!(fast.take(&id), slow.take(&id)),
                8 => prop_assert_eq!(fast.discard(&id), slow.discard(&id)),
                _ => prop_assert_eq!(fast.select(1), slow.select(1)),
            }
            prop_assert_eq!(fast.candidates(), slow.candidates());
        }
        let n = slow.candidates();
        prop_assert_eq!(fast.select(n + 1), slow.select(n + 1));
        prop_assert_eq!(fast.candidates(), 0);
    }
}
