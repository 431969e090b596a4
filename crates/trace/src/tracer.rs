//! The [`Tracer`] handle and trace exporters.
//!
//! A `Tracer` is a cheaply clonable handle that every instrumented
//! subsystem holds. The default handle is disabled — a no-op with no
//! allocation and no locking on the record path — so instrumentation costs
//! nothing unless a campaign opts in with `--trace`. An enabled handle
//! appends [`TraceEvent`]s (in deterministic emission order) and updates a
//! [`MetricsRegistry`] behind one mutex.
//!
//! Exports: JSONL (events in emission order followed by a name-ordered
//! metrics summary) and Chrome `trace_event` JSON for
//! `about:tracing`/Perfetto. Both are functions of the recorded state
//! only, so same-seed runs serialize byte-identically.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex; // lint: allow(L6: tracer sink lock import; the sink field carries the reason)
use simcore::{SimDuration, SimTime};

use crate::event::{Arg, TraceEvent};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// Recorded state behind an enabled tracer.
#[derive(Debug, Default)]
struct TraceSink {
    /// Events in emission order.
    events: Vec<TraceEvent>,
    /// Metrics registry.
    metrics: MetricsRegistry,
    /// Monotonic virtual clock for emitters that have no time parameter
    /// (datastore ops); advanced by the driving loop via
    /// [`Tracer::set_now`].
    now: SimTime,
}

/// A virtual-time tracer handle. `Clone` is cheap; all clones share one
/// sink. [`Tracer::disabled`] (also `Default`) is a no-op handle.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Mutex<TraceSink>>>, // lint: allow(L6: events append under one lock in emission order; never read back mid-run)
}

impl Tracer {
    /// A no-op tracer: every record call returns immediately.
    pub fn disabled() -> Tracer {
        Tracer { sink: None }
    }

    /// An enabled tracer with an empty sink.
    pub fn enabled() -> Tracer {
        Tracer {
            sink: Some(Arc::new(Mutex::new(TraceSink::default()))), // lint: allow(L6: see the sink field's reason)
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Advances the tracer's virtual clock (monotonic; earlier times are
    /// ignored). Emitters without a time parameter stamp events with this
    /// clock.
    pub fn set_now(&self, at: SimTime) {
        if let Some(sink) = &self.sink {
            let mut s = sink.lock();
            s.now = s.now.max(at);
        }
    }

    /// The tracer's current virtual clock.
    pub fn now(&self) -> SimTime {
        match &self.sink {
            Some(sink) => sink.lock().now,
            None => SimTime::ZERO,
        }
    }

    /// Records an instant event at the tracer clock.
    pub fn instant(&self, cat: &'static str, name: &str, args: &[(&'static str, Arg)]) {
        if let Some(sink) = &self.sink {
            let mut s = sink.lock();
            let at = s.now;
            s.events.push(TraceEvent {
                at,
                dur: None,
                cat,
                name: name.to_string(),
                args: args.to_vec(),
            });
        }
    }

    /// Records an instant event at an explicit virtual time.
    pub fn instant_at(
        &self,
        at: SimTime,
        cat: &'static str,
        name: &str,
        args: &[(&'static str, Arg)],
    ) {
        if let Some(sink) = &self.sink {
            sink.lock().events.push(TraceEvent {
                at,
                dur: None,
                cat,
                name: name.to_string(),
                args: args.to_vec(),
            });
        }
    }

    /// Records a complete span `[start, start+dur)`.
    pub fn span_at(
        &self,
        start: SimTime,
        dur: SimDuration,
        cat: &'static str,
        name: &str,
        args: &[(&'static str, Arg)],
    ) {
        if let Some(sink) = &self.sink {
            sink.lock().events.push(TraceEvent {
                at: start,
                dur: Some(dur),
                cat,
                name: name.to_string(),
                args: args.to_vec(),
            });
        }
    }

    /// Adds `delta` to counter `name`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.lock().metrics.counter_add(name, delta);
        }
    }

    /// Sets gauge `name`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(sink) = &self.sink {
            sink.lock().metrics.gauge_set(name, value);
        }
    }

    /// Records one histogram observation.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(sink) = &self.sink {
            sink.lock().metrics.observe(name, value);
        }
    }

    /// Number of recorded events (zero for a disabled tracer).
    pub fn event_count(&self) -> usize {
        match &self.sink {
            Some(sink) => sink.lock().events.len(),
            None => 0,
        }
    }

    /// A copy of all recorded events in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.sink {
            Some(sink) => sink.lock().events.clone(),
            None => Vec::new(),
        }
    }

    /// An ordered snapshot of the metrics registry (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.sink {
            Some(sink) => sink.lock().metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Serializes the full trace (events, then metrics summary) as JSONL.
    pub fn to_jsonl(&self) -> String {
        let (events, snapshot) = match &self.sink {
            Some(sink) => {
                let s = sink.lock();
                (s.events.clone(), s.metrics.snapshot())
            }
            None => (Vec::new(), MetricsSnapshot::default()),
        };
        let mut out = String::new();
        for e in &events {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        for line in snapshot.to_jsonl_lines() {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL trace to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut f = io::BufWriter::new(fs::File::create(path)?);
        f.write_all(self.to_jsonl().as_bytes())?;
        f.flush()
    }

    /// Serializes the events as a Chrome `trace_event` JSON document
    /// (openable in `about:tracing` or <https://ui.perfetto.dev>).
    /// Categories map to thread lanes so each subsystem renders as its own
    /// row; timestamps are virtual microseconds.
    pub fn to_chrome(&self) -> String {
        let events = self.events();
        // Deterministic lane assignment: categories in sorted order.
        let mut cats: Vec<&'static str> = events.iter().map(|e| e.cat).collect();
        cats.sort_unstable();
        cats.dedup();
        let lane = |cat: &str| -> usize { cats.iter().position(|c| *c == cat).unwrap_or(0) + 1 };
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (i, cat) in cats.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                cat
            ));
        }
        for e in &events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let mut line = String::from("{");
            match e.dur {
                Some(d) => line.push_str(&format!(
                    "\"ph\":\"X\",\"ts\":{},\"dur\":{}",
                    e.at.as_micros(),
                    d.as_micros()
                )),
                None => line.push_str(&format!(
                    "\"ph\":\"i\",\"ts\":{},\"s\":\"t\"",
                    e.at.as_micros()
                )),
            }
            line.push_str(&format!(",\"pid\":1,\"tid\":{}", lane(e.cat)));
            line.push_str(",\"cat\":\"");
            line.push_str(e.cat);
            line.push_str("\",\"name\":\"");
            crate::event::escape_json_into(&e.name, &mut line);
            line.push_str("\",\"args\":{");
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('"');
                crate::event::escape_json_into(k, &mut line);
                line.push_str("\":");
                match v {
                    Arg::U64(n) => line.push_str(&n.to_string()),
                    Arg::I64(n) => line.push_str(&n.to_string()),
                    Arg::F64(n) => {
                        if n.is_finite() {
                            line.push_str(&n.to_string());
                        } else {
                            line.push('0');
                        }
                    }
                    Arg::Str(s) => {
                        line.push('"');
                        crate::event::escape_json_into(s, &mut line);
                        line.push('"');
                    }
                }
            }
            line.push_str("}}");
            out.push_str(&line);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the Chrome `trace_event` document to `path`.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut f = io::BufWriter::new(fs::File::create(path)?);
        f.write_all(self.to_chrome().as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.instant("sched", "job.submit", &[("job", 1u64.into())]);
        t.counter_add("c", 5);
        t.set_now(SimTime::from_secs(9));
        assert!(!t.is_enabled());
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.now(), SimTime::ZERO);
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Tracer::default().is_enabled());
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Tracer::enabled();
        let u = t.clone();
        u.instant("wm", "tick", &[]);
        u.counter_add("n", 2);
        assert_eq!(t.event_count(), 1);
        assert_eq!(t.metrics_snapshot().counters, vec![("n".to_string(), 2)]);
    }

    #[test]
    fn clock_is_monotonic() {
        let t = Tracer::enabled();
        t.set_now(SimTime::from_secs(10));
        t.set_now(SimTime::from_secs(5));
        assert_eq!(t.now(), SimTime::from_secs(10));
        t.instant("datastore", "op.read", &[]);
        assert_eq!(t.events()[0].at, SimTime::from_secs(10));
    }

    #[test]
    fn jsonl_lists_events_then_metrics() {
        let t = Tracer::enabled();
        t.instant_at(SimTime::from_micros(5), "sched", "job.submit", &[]);
        t.span_at(
            SimTime::from_micros(5),
            SimDuration::from_micros(10),
            "sched",
            "job.run",
            &[("job", 1u64.into())],
        );
        t.counter_add("sched.submitted", 1);
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"ts\":5,\"ph\":\"i\""));
        assert!(lines[1].contains("\"ph\":\"X\",\"dur\":10"));
        assert!(lines[2].starts_with("{\"metric\":\"counter\""));
    }

    #[test]
    fn chrome_export_has_metadata_and_lanes() {
        let t = Tracer::enabled();
        t.instant_at(SimTime::from_micros(1), "wm", "tick", &[]);
        t.span_at(
            SimTime::from_micros(2),
            SimDuration::from_micros(3),
            "sched",
            "svc.ingest",
            &[],
        );
        let doc = t.to_chrome();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.trim_end().ends_with("]}"));
        assert!(doc.contains("\"thread_name\""));
        // Lanes assigned in sorted category order: sched=1, wm=2.
        assert!(doc.contains("{\"ph\":\"X\",\"ts\":2,\"dur\":3,\"pid\":1,\"tid\":1"));
        assert!(doc.contains("{\"ph\":\"i\",\"ts\":1,\"s\":\"t\",\"pid\":1,\"tid\":2"));
    }

    #[test]
    fn same_recording_serializes_identically() {
        let record = || {
            let t = Tracer::enabled();
            for i in 0..50u64 {
                t.instant_at(
                    SimTime::from_micros(i),
                    "sched",
                    "job.submit",
                    &[("job", i.into())],
                );
                t.observe("lat", i * 7);
            }
            t.counter_add("sched.submitted", 50);
            (t.to_jsonl(), t.to_chrome())
        };
        assert_eq!(record(), record());
    }

    #[test]
    fn write_jsonl_roundtrips_through_fs() {
        let t = Tracer::enabled();
        t.instant_at(SimTime::from_micros(3), "campaign", "run.start", &[]);
        let dir = std::env::temp_dir().join(format!("trace-io-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.jsonl");
        t.write_jsonl(&p).unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), t.to_jsonl());
        fs::remove_file(&p).unwrap();
    }
}
