//! In-memory spans around the harness's own calls into the layers.
//!
//! Nothing inside the product crates is instrumented: a span here is
//! "the harness called this public function and it took this long". A
//! span records its name, start, end, the span that caused it and a
//! request id shared by all spans of one request; spans stay in memory
//! during the run and are written out once at exit. A disabled recorder
//! reads no clock and stores nothing, so the untraced pass runs the
//! same code and the difference between the passes is the span overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::clock;

/// Index of a span inside its recorder.
pub type SpanId = u32;

/// One closed interval of harness-observed work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<function>`; the layer is the product crate called.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open on this thread when this one started.
    pub parent: Option<SpanId>,
    /// Spans of one request (replay, campaign, store call) share an id.
    pub request: u64,
}

impl Span {
    /// Length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span sink. Threads record into their own recorder over
/// a shared epoch and the results are [`Recorder::merge`]d afterwards.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Recorder {
    /// A recorder measuring from `epoch`; disabled recorders are no-ops.
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The epoch spans are measured from (for sibling recorders).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, request: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as SpanId;
        let start_ns = self.ns(clock::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Recorder::enter`] (and any span left
    /// open inside it).
    #[inline]
    pub fn exit(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let end_ns = self.ns(clock::now());
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span. For nested spans use `enter`/`exit`.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an interval whose ends were stamped elsewhere (an event
    /// received on another connection), as a child of the open span.
    pub fn closed(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.open.last().copied(),
            request,
        });
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&(id as SpanId)) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` on [20, 30): the union covers [10, 50).
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild shortens `c`, never `root`.
            span("d", 62, 66, Some(3)),
            // A child poking past its parent's end is clipped.
            span("e", 90, 130, Some(0)),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[0], 100 - (40 + 10 + 10));
        assert_eq!(st[1], 20);
        assert_eq!(st[3], 10 - 4);
        assert_eq!(st[4], 4);
    }

    #[test]
    fn enter_exit_link_parents_and_disabled_records_nothing() {
        let mut r = Recorder::new(true, clock::now());
        let outer = r.enter("outer", 7);
        r.span("inner", 7, || ());
        r.exit(outer);
        r.span("sibling", 8, || ());
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[1].request, s[2].request), (7, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Recorder::new(false, clock::now());
        let id = off.enter("x", 0);
        off.exit(id);
        assert_eq!(off.span("y", 0, || 5), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn merge_rebases_parent_links() {
        let epoch = clock::now();
        let mut a = Recorder::new(true, epoch);
        a.span("a0", 0, || ());
        let mut b = Recorder::new(true, epoch);
        let p = b.enter("b0", 1);
        b.span("b1", 1, || ());
        b.exit(p);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].parent, None);
    }
}
