//! Selection history logging and exact replay.
//!
//! "Key components (ML and job scheduling) also maintain elaborate history
//! files that may be replayed exactly, if necessary" (§4.4). [`History`]
//! records every sampler mutation as a line-oriented log; replaying the log
//! into a fresh sampler reproduces its selected set and queue contents.

use crate::point::HdPoint;
use crate::Sampler;

/// One sampler mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoryEvent {
    /// A candidate was added.
    Added(HdPoint),
    /// A candidate was selected (promoted to the finer scale).
    Selected(String),
    /// A candidate was discarded without selection.
    Discarded(String),
}

/// An append-only mutation log with text serialization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    events: Vec<HistoryEvent>,
}

impl History {
    /// An empty history.
    pub fn new() -> History {
        History::default()
    }

    /// Records an addition.
    pub fn record_add(&mut self, point: &HdPoint) {
        self.events.push(HistoryEvent::Added(point.clone()));
    }

    /// Records a selection.
    pub fn record_select(&mut self, id: &str) {
        self.events.push(HistoryEvent::Selected(id.to_string()));
    }

    /// All events in order.
    pub fn events(&self) -> &[HistoryEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes to the line format:
    /// `A <id> <c1,c2,…>` / `S <id>` / `D <id>`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            match ev {
                HistoryEvent::Added(p) => {
                    let coords: Vec<String> = p.coords.iter().map(|c| format!("{c:e}")).collect();
                    out.push_str(&format!("A {} {}\n", p.id, coords.join(",")));
                }
                HistoryEvent::Selected(id) => out.push_str(&format!("S {id}\n")),
                HistoryEvent::Discarded(id) => out.push_str(&format!("D {id}\n")),
            }
        }
        out
    }

    /// Parses the line format back; returns `None` on any malformed line.
    pub fn from_text(text: &str) -> Option<History> {
        let mut h = History::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            let tag = parts.next()?;
            let id = parts.next()?;
            match tag {
                "A" => {
                    let coords: Option<Vec<f64>> = parts
                        .next()?
                        .split(',')
                        .map(|c| c.parse::<f64>().ok())
                        .collect();
                    h.events
                        .push(HistoryEvent::Added(HdPoint::new(id, coords?)));
                }
                "S" => h.events.push(HistoryEvent::Selected(id.to_string())),
                "D" => h.events.push(HistoryEvent::Discarded(id.to_string())),
                _ => return None,
            }
        }
        Some(h)
    }

    /// Folds the log to its net effect: one `Added` per still-live
    /// candidate (latest coordinates, original relative order) and an
    /// `Added` + `Selected` pair per selection, in selection order.
    /// Replaying the compact history reproduces the same sampler state as
    /// replaying the full log, at O(live + selected) cost instead of
    /// O(every event ever) — this is what checkpoints store.
    pub fn compact(&self) -> History {
        use std::collections::HashMap;
        // id -> (coords, insertion sequence) for still-queued candidates.
        let mut live: HashMap<String, (Vec<f64>, usize)> = HashMap::new();
        let mut selected: Vec<(String, Vec<f64>)> = Vec::new();
        let mut seq = 0usize;
        for ev in &self.events {
            match ev {
                HistoryEvent::Added(p) => {
                    seq += 1;
                    live.insert(p.id.clone(), (p.coords.clone(), seq));
                }
                HistoryEvent::Selected(id) => {
                    if let Some((coords, _)) = live.remove(id) {
                        selected.push((id.clone(), coords));
                    }
                }
                HistoryEvent::Discarded(id) => {
                    live.remove(id);
                }
            }
        }
        let mut out = History::new();
        for (id, coords) in selected {
            out.events
                .push(HistoryEvent::Added(HdPoint::new(&*id, coords)));
            out.events.push(HistoryEvent::Selected(id));
        }
        let mut live: Vec<(String, (Vec<f64>, usize))> = live.into_iter().collect();
        live.sort_by_key(|(_, (_, s))| *s);
        for (id, (coords, _)) in live {
            out.events
                .push(HistoryEvent::Added(HdPoint::new(id, coords)));
        }
        out
    }

    /// Replays every event into `sampler` through its force-select hook.
    /// Returns the ids selected during replay, in order.
    pub fn replay(&self, sampler: &mut dyn Sampler) -> Vec<String> {
        let mut selected = Vec::new();
        for ev in &self.events {
            match ev {
                HistoryEvent::Added(p) => sampler.add(p.clone()),
                HistoryEvent::Selected(id) => {
                    if sampler.take(id).is_some() {
                        selected.push(id.clone());
                    }
                }
                HistoryEvent::Discarded(id) => {
                    sampler.discard(id);
                }
            }
        }
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ann::ExactNn;
    use crate::fps::{FarthestPointSampler, FpsConfig};

    /// Records a discard (no selector caller discards through the log).
    fn record_discard(h: &mut History, id: &str) {
        h.events.push(HistoryEvent::Discarded(id.to_string()));
    }

    fn p(id: &str, x: f64) -> HdPoint {
        HdPoint::new(id, vec![x, -x])
    }

    #[test]
    fn text_roundtrip() {
        let mut h = History::new();
        h.record_add(&p("a", 1.5));
        h.record_add(&p("b", -2.25));
        h.record_select("a");
        record_discard(&mut h, "b");
        let text = h.to_text();
        let back = History::from_text(&text).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert!(History::from_text("X nope").is_none());
        assert!(History::from_text("A id not-a-number").is_none());
        assert!(History::from_text("A idonly").is_none());
        // Empty input is a valid empty history.
        assert_eq!(History::from_text("").unwrap().len(), 0);
    }

    #[test]
    fn replay_reproduces_sampler_state() {
        // Drive a live sampler while recording, then replay into a fresh
        // one and compare selected sets and queue sizes.
        let mut live = FarthestPointSampler::new(FpsConfig { cap: 0 }, ExactNn::new());
        let mut h = History::new();
        for i in 0..20 {
            let q = p(&format!("p{i}"), i as f64 * 0.37 % 5.0);
            h.record_add(&q);
            live.add(q);
        }
        let picked = live.select(5);
        for q in &picked {
            h.record_select(&q.id);
        }
        record_discard(&mut h, "p3");
        live.discard("p3");

        let mut replayed = FarthestPointSampler::new(FpsConfig { cap: 0 }, ExactNn::new());
        let selected = h.replay(&mut replayed);
        assert_eq!(
            selected,
            picked.iter().map(|q| q.id.clone()).collect::<Vec<_>>()
        );
        assert_eq!(replayed.candidates(), live.candidates());
        assert_eq!(replayed.selected_ids(), live.selected_ids());
        // Both continue identically after replay.
        assert_eq!(
            live.select(3).into_iter().map(|q| q.id).collect::<Vec<_>>(),
            replayed
                .select(3)
                .into_iter()
                .map(|q| q.id)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn compact_replay_matches_full_replay() {
        let mut h = History::new();
        let mut live = FarthestPointSampler::new(FpsConfig { cap: 0 }, ExactNn::new());
        for i in 0..30 {
            let q = p(&format!("p{i}"), (i as f64 * 0.61) % 4.0);
            h.record_add(&q);
            live.add(q);
        }
        for q in live.select(7) {
            h.record_select(&q.id);
        }
        record_discard(&mut h, "p2");
        live.discard("p2");
        // Re-add a previously selected id with new coords.
        let fresh = p("p0", 9.0);
        h.record_add(&fresh);
        live.add(fresh);

        let compact = h.compact();
        assert!(compact.len() < h.len(), "compaction shrinks the log");

        let mut a = FarthestPointSampler::new(FpsConfig { cap: 0 }, ExactNn::new());
        let mut b = FarthestPointSampler::new(FpsConfig { cap: 0 }, ExactNn::new());
        h.replay(&mut a);
        compact.replay(&mut b);
        assert_eq!(a.candidates(), b.candidates());
        assert_eq!(a.selected_ids(), b.selected_ids());
        // Future behaviour is identical too.
        assert_eq!(
            a.select(5).into_iter().map(|q| q.id).collect::<Vec<_>>(),
            b.select(5).into_iter().map(|q| q.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn compact_of_compact_is_idempotent() {
        let mut h = History::new();
        for i in 0..10 {
            h.record_add(&p(&format!("x{i}"), i as f64));
        }
        h.record_select("x3");
        record_discard(&mut h, "x4");
        let c1 = h.compact();
        let c2 = c1.compact();
        assert_eq!(c1, c2);
    }

    #[test]
    fn replay_skips_unknown_selections() {
        let mut h = History::new();
        h.record_select("ghost");
        let mut s = FarthestPointSampler::new(FpsConfig { cap: 0 }, ExactNn::new());
        let selected = h.replay(&mut s);
        assert!(selected.is_empty());
    }
}
