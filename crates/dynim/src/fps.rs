//! Farthest-point sampling with lazy rank caching.

use std::collections::HashMap;

use crate::ann::ExactNn;
use crate::point::HdPoint;
use crate::Sampler;

/// Farthest-point sampler configuration.
#[derive(Debug, Clone, Copy)]
pub struct FpsConfig {
    /// Maximum queued candidates; the oldest is evicted beyond this. The
    /// paper caps each patch queue at 35,000 "for computational viability".
    /// Zero disables the cap.
    pub cap: usize,
}

impl Default for FpsConfig {
    fn default() -> Self {
        FpsConfig { cap: 35_000 }
    }
}

/// Rank cache entry: `None` = not yet computed against the selected set.
type Rank = Option<f64>;

/// Selects candidates farthest (L2) from everything already selected.
///
/// Adding candidates is O(1) — ranks are computed lazily at selection time
/// against the nearest-neighbor index of selected points, then maintained
/// incrementally as each pick lands. This mirrors the paper's "caching
/// scheme to postpone expensive computations until the time of a
/// selection, which makes the cost of adding new candidates negligible".
#[derive(Debug)]
pub struct FarthestPointSampler {
    cfg: FpsConfig,
    queue: Vec<(HdPoint, Rank)>,
    pos: HashMap<String, usize>,
    selected: ExactNn,
    evicted: u64,
    selected_ids: Vec<String>,
    /// Entries whose rank is `None`. Lets a warm [`Self::update_ranks`]
    /// return in O(1) instead of scanning the whole queue for stale
    /// entries on every pick of a multi-point selection.
    stale: usize,
}

impl FarthestPointSampler {
    /// Creates a sampler whose selected set starts as `index`, normally
    /// [`ExactNn::new`].
    pub fn new(cfg: FpsConfig, index: ExactNn) -> FarthestPointSampler {
        FarthestPointSampler {
            cfg,
            queue: Vec::new(),
            pos: HashMap::new(),
            selected: index,
            evicted: 0,
            selected_ids: Vec::new(),
            stale: 0,
        }
    }

    /// Candidates evicted by the cap so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Number of points selected over the sampler's lifetime.
    pub fn selected_count(&self) -> usize {
        self.selected.len()
    }

    /// IDs selected so far, in selection order.
    pub fn selected_ids(&self) -> &[String] {
        &self.selected_ids
    }

    /// Whether a candidate id is queued.
    pub fn contains(&self, id: &str) -> bool {
        self.pos.contains_key(id)
    }

    /// Diagnostic view of the rank cache: `(id, cached min-distance²)` per
    /// queued candidate in internal queue order; `None` marks a stale
    /// entry. The equivalence property test compares this against a naive
    /// recomputation.
    pub fn cached_ranks(&self) -> Vec<(&str, Option<f64>)> {
        self.queue
            .iter()
            .map(|(p, r)| (p.id.as_str(), *r))
            .collect()
    }

    /// Refreshes every stale rank against the full selected set — the
    /// expensive step the cache defers ("it takes 3–4 minutes to update
    /// the ranks of all candidates within all queues").
    pub fn update_ranks(&mut self) {
        // Warm cache: nothing stale, nothing to scan. This is what makes
        // the per-pick cost of `select` O(N) in the queue rather than
        // O(N·S) against the selected set.
        if self.selected.is_empty() || self.stale == 0 {
            return;
        }
        for (p, rank) in &mut self.queue {
            if rank.is_none() {
                *rank = Some(self.selected.nearest_dist_sq(&p.coords));
            }
        }
        self.stale = 0;
    }

    fn mark_selected(&mut self, point: &HdPoint) {
        self.selected.add(&point.coords);
        self.selected_ids.push(point.id.clone());
        // Incremental rank maintenance: a new selected point can only
        // lower ranks; fold it into every *computed* cache entry.
        for (p, rank) in &mut self.queue {
            if let Some(r) = rank {
                let d = p.dist_sq(&point.coords);
                if d < *r {
                    *r = d;
                }
            }
        }
    }

    /// swap_remove with position-map repair.
    fn remove_at(&mut self, idx: usize) -> (HdPoint, Rank) {
        let entry = self.queue.swap_remove(idx);
        if entry.1.is_none() {
            self.stale -= 1;
        }
        self.pos.remove(&entry.0.id);
        if idx < self.queue.len() {
            let moved_id = self.queue[idx].0.id.clone();
            self.pos.insert(moved_id, idx);
        }
        entry
    }
}

impl Sampler for FarthestPointSampler {
    fn add(&mut self, point: HdPoint) {
        if let Some(&idx) = self.pos.get(&point.id) {
            // Same id re-added: replace coordinates, invalidate rank.
            if self.queue[idx].1.is_some() {
                self.stale += 1;
            }
            self.queue[idx] = (point, None);
            return;
        }
        if self.cfg.cap > 0 && self.queue.len() >= self.cfg.cap {
            // Evict the oldest candidate (index 0 drifts under swap_remove;
            // "oldest" here is best-effort, which matches a bounded queue).
            self.remove_at(0);
            self.evicted += 1;
        }
        self.pos.insert(point.id.clone(), self.queue.len());
        self.queue.push((point, None));
        self.stale += 1;
    }

    fn select(&mut self, k: usize) -> Vec<HdPoint> {
        let mut out = Vec::with_capacity(k.min(self.queue.len()));
        for _ in 0..k {
            if self.queue.is_empty() {
                break;
            }
            // Compute any stale ranks (no-op once the cache is warm; after
            // the very first pick this is the full batch computation).
            self.update_ranks();
            // Argmax of cached rank; uncomputed ranks (empty selected set)
            // count as infinitely novel, ties broken by queue order.
            let best = self
                .queue
                .iter()
                .enumerate()
                .max_by(|(ia, (_, ra)), (ib, (_, rb))| {
                    let ra = ra.unwrap_or(f64::INFINITY);
                    let rb = rb.unwrap_or(f64::INFINITY);
                    ra.partial_cmp(&rb)
                        .expect("ranks are never NaN")
                        .then(ib.cmp(ia)) // prefer earlier entries on ties
                })
                .map(|(i, _)| i)
                .expect("non-empty queue");
            let (point, _) = self.remove_at(best);
            self.mark_selected(&point);
            out.push(point);
        }
        out
    }

    fn discard(&mut self, id: &str) -> bool {
        match self.pos.get(id) {
            Some(&idx) => {
                self.remove_at(idx);
                true
            }
            None => false,
        }
    }

    fn candidates(&self) -> usize {
        self.queue.len()
    }

    fn take(&mut self, id: &str) -> Option<HdPoint> {
        let idx = *self.pos.get(id)?;
        let (point, _) = self.remove_at(idx);
        self.mark_selected(&point);
        Some(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(id: &str, coords: &[f64]) -> HdPoint {
        HdPoint::new(id, coords.to_vec())
    }

    fn sampler() -> FarthestPointSampler {
        FarthestPointSampler::new(FpsConfig { cap: 0 }, ExactNn::new())
    }

    #[test]
    fn first_selection_is_fifo_then_farthest() {
        let mut s = sampler();
        s.add(p("origin", &[0.0, 0.0]));
        s.add(p("near", &[0.1, 0.0]));
        s.add(p("far", &[10.0, 0.0]));
        let sel = s.select(2);
        // First pick: all ranks infinite, earliest added wins.
        assert_eq!(sel[0].id, "origin");
        // Second pick: farthest from origin.
        assert_eq!(sel[1].id, "far");
        assert_eq!(s.candidates(), 1);
        assert_eq!(s.selected_count(), 2);
    }

    #[test]
    fn coverage_spreads_over_clusters() {
        // Three tight clusters; selecting 3 points must hit all clusters.
        let mut s = sampler();
        let centers = [[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]];
        let mut id = 0;
        for c in &centers {
            for dx in 0..5 {
                s.add(p(&format!("p{id}"), &[c[0] + dx as f64 * 0.01, c[1]]));
                id += 1;
            }
        }
        let sel = s.select(3);
        let mut hit = [false; 3];
        for q in &sel {
            for (ci, c) in centers.iter().enumerate() {
                if q.dist(c) < 1.0 {
                    hit[ci] = true;
                }
            }
        }
        assert_eq!(hit, [true, true, true], "selected {sel:?}");
    }

    #[test]
    fn duplicate_id_updates_coords() {
        let mut s = sampler();
        s.add(p("x", &[0.0]));
        s.add(p("x", &[5.0]));
        assert_eq!(s.candidates(), 1);
        let sel = s.select(1);
        assert_eq!(sel[0].coords, vec![5.0]);
    }

    #[test]
    fn cap_evicts_and_counts() {
        let mut s = FarthestPointSampler::new(FpsConfig { cap: 10 }, ExactNn::new());
        for i in 0..25 {
            s.add(p(&format!("p{i}"), &[i as f64]));
        }
        assert_eq!(s.candidates(), 10);
        assert_eq!(s.evicted(), 15);
    }

    #[test]
    fn discard_removes_candidate() {
        let mut s = sampler();
        s.add(p("a", &[0.0]));
        s.add(p("b", &[1.0]));
        assert!(s.discard("a"));
        assert!(!s.discard("a"));
        assert!(!s.contains("a"));
        assert_eq!(s.candidates(), 1);
        let sel = s.select(5);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].id, "b");
    }

    #[test]
    fn take_force_selects_for_replay() {
        let mut s = sampler();
        s.add(p("a", &[0.0]));
        s.add(p("b", &[100.0]));
        let t = s.take("a").unwrap();
        assert_eq!(t.id, "a");
        assert!(s.take("ghost").is_none());
        // "a" now influences novelty: a point at the origin ranks low.
        s.add(p("near-a", &[0.1]));
        let sel = s.select(1);
        assert_eq!(sel[0].id, "b");
    }

    #[test]
    fn select_more_than_available_drains_queue() {
        let mut s = sampler();
        for i in 0..3 {
            s.add(p(&format!("p{i}"), &[i as f64]));
        }
        assert_eq!(s.select(10).len(), 3);
        assert_eq!(s.candidates(), 0);
        assert!(s.select(1).is_empty());
    }
}
