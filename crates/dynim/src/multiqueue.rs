//! The multi-queue patch selector.
//!
//! "To support the application need, we incorporate five in-memory queues
//! in the Patch Selector for sampling different protein configurations"
//! (§4.4 Task 2). Each queue is an independent farthest-point sampler; a
//! router maps each incoming point to its queue (e.g. by RAS/RAF
//! configuration class), and selection round-robins across non-empty
//! queues so every configuration class keeps being explored.

use crate::ann::ExactNn;
use crate::fps::{FarthestPointSampler, FpsConfig};
use crate::point::HdPoint;
use crate::Sampler;

/// Routes a point to a queue index.
pub type Router = Box<dyn Fn(&HdPoint) -> usize + Send>;

/// Multiple farthest-point queues with routed ingestion and round-robin
/// selection.
pub struct MultiQueueSampler {
    queues: Vec<FarthestPointSampler>,
    router: Router,
    next_queue: usize,
}

impl std::fmt::Debug for MultiQueueSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiQueueSampler")
            .field("queues", &self.queues.len())
            .field("candidates", &self.candidates())
            .finish()
    }
}

impl MultiQueueSampler {
    /// Creates `n` queues, each capped at `cap` candidates (the paper uses
    /// five queues of 35,000).
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn new(n: usize, cap: usize, router: Router) -> MultiQueueSampler {
        assert!(n > 0, "need at least one queue");
        MultiQueueSampler {
            queues: (0..n)
                .map(|_| FarthestPointSampler::new(FpsConfig { cap }, ExactNn::new()))
                .collect(),
            router,
            next_queue: 0,
        }
    }

    /// Total evictions across queues.
    pub fn evicted(&self) -> u64 {
        self.queues.iter().map(|q| q.evicted()).sum()
    }
}

impl Sampler for MultiQueueSampler {
    fn add(&mut self, point: HdPoint) {
        let q = (self.router)(&point) % self.queues.len();
        self.queues[q].add(point);
    }

    fn select(&mut self, k: usize) -> Vec<HdPoint> {
        let mut out = Vec::with_capacity(k);
        let n = self.queues.len();
        let mut empty_streak = 0;
        while out.len() < k && empty_streak < n {
            let q = self.next_queue % n;
            self.next_queue = self.next_queue.wrapping_add(1);
            let picked = self.queues[q].select(1);
            if picked.is_empty() {
                empty_streak += 1;
            } else {
                empty_streak = 0;
                out.extend(picked);
            }
        }
        out
    }

    fn discard(&mut self, id: &str) -> bool {
        self.queues.iter_mut().any(|q| q.discard(id))
    }

    fn candidates(&self) -> usize {
        self.queues.iter().map(|q| q.candidates()).sum()
    }

    fn take(&mut self, id: &str) -> Option<HdPoint> {
        self.queues.iter_mut().find_map(|q| q.take(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selector() -> MultiQueueSampler {
        // Route by the integer part of the first coordinate.
        MultiQueueSampler::new(5, 100, Box::new(|p: &HdPoint| p.coords[0] as usize))
    }

    fn p(id: &str, q: usize, x: f64) -> HdPoint {
        HdPoint::new(id, vec![q as f64, x])
    }

    #[test]
    fn routing_distributes_by_class() {
        let mut s = selector();
        for q in 0..5 {
            for i in 0..10 {
                s.add(p(&format!("q{q}-p{i}"), q, i as f64));
            }
        }
        assert_eq!(s.candidates(), 50);
        for q in 0..5 {
            assert_eq!(s.queues[q].candidates(), 10);
        }
    }

    #[test]
    fn selection_round_robins_across_queues() {
        let mut s = selector();
        for q in 0..5 {
            for i in 0..10 {
                s.add(p(&format!("q{q}-p{i}"), q, i as f64));
            }
        }
        let sel = s.select(5);
        let classes: std::collections::HashSet<usize> =
            sel.iter().map(|x| x.coords[0] as usize).collect();
        assert_eq!(classes.len(), 5, "one pick per configuration class");
    }

    #[test]
    fn skips_empty_queues() {
        let mut s = selector();
        for i in 0..10 {
            s.add(p(&format!("p{i}"), 2, i as f64));
        }
        let sel = s.select(4);
        assert_eq!(sel.len(), 4);
        assert!(sel.iter().all(|x| x.coords[0] as usize == 2));
    }

    #[test]
    fn select_stops_when_all_queues_drain() {
        let mut s = selector();
        s.add(p("only", 0, 1.0));
        let sel = s.select(10);
        assert_eq!(sel.len(), 1);
        assert!(s.select(1).is_empty());
    }

    #[test]
    fn discard_and_take_search_all_queues() {
        let mut s = selector();
        s.add(p("a", 1, 0.0));
        s.add(p("b", 3, 0.0));
        assert!(s.discard("b"));
        assert!(!s.discard("b"));
        assert_eq!(s.take("a").unwrap().id, "a");
        assert_eq!(s.candidates(), 0);
    }
}
