//! Trace records and their JSONL wire format.
//!
//! Every record is stamped with virtual time ([`SimTime`]), never the wall
//! clock, so a same-seed campaign serializes to a byte-identical file. The
//! line format is a restricted JSON dialect emitted with a fixed field
//! order (`ts`, `ph`, `dur`, `cat`, `name`, `args`) and parsed back by a
//! scanner that accepts exactly what [`TraceEvent::to_jsonl`] produces.

use simcore::{SimDuration, SimTime};

/// A typed event argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Unsigned integer (ids, counts, resource totals).
    U64(u64),
    /// Signed integer (deltas).
    I64(i64),
    /// Float (percentages, couplings). Serialized via Rust's shortest
    /// round-trip formatting, which is deterministic, always with a `.`
    /// or an exponent so it reads back as a float.
    F64(f64),
    /// String (payload ids, class names, namespaces).
    Str(String),
}

impl From<u64> for Arg {
    fn from(v: u64) -> Arg {
        Arg::U64(v)
    }
}

impl From<u32> for Arg {
    fn from(v: u32) -> Arg {
        Arg::U64(v as u64)
    }
}

impl From<usize> for Arg {
    fn from(v: usize) -> Arg {
        Arg::U64(v as u64)
    }
}

impl From<i64> for Arg {
    fn from(v: i64) -> Arg {
        Arg::I64(v)
    }
}

impl From<f64> for Arg {
    fn from(v: f64) -> Arg {
        Arg::F64(v)
    }
}

impl From<&str> for Arg {
    fn from(v: &str) -> Arg {
        Arg::Str(v.to_string())
    }
}

impl From<String> for Arg {
    fn from(v: String) -> Arg {
        Arg::Str(v)
    }
}

impl From<bool> for Arg {
    fn from(v: bool) -> Arg {
        Arg::U64(v as u64)
    }
}

impl Arg {
    /// The argument as a `u64`, if it is one.
    fn as_u64(&self) -> Option<u64> {
        match *self {
            Arg::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The argument as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Arg::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Writes the argument as a JSON value (the JSONL and Chrome forms).
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            Arg::U64(v) => out.push_str(&v.to_string()),
            Arg::I64(v) => out.push_str(&v.to_string()),
            Arg::F64(v) => {
                if v.is_finite() {
                    // `{:?}` keeps the `.0` of an integral value and
                    // switches to an exponent for huge or tiny ones, so
                    // the reader never mistakes it for an integer.
                    out.push_str(&format!("{v:?}"));
                } else {
                    // JSON has no NaN/Inf; clamp to zero, still a float.
                    out.push_str("0.0");
                }
            }
            Arg::Str(s) => {
                out.push('"');
                escape_json_into(s, out);
                out.push('"');
            }
        }
    }
}

/// One trace record: an instant or a complete span at a virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual timestamp (span start for spans).
    pub at: SimTime,
    /// `Some(d)` makes this a complete span of duration `d`; `None` makes
    /// it an instant.
    pub dur: Option<SimDuration>,
    /// Category (one per subsystem: `sched`, `wm`, `feedback`,
    /// `datastore`, `campaign`).
    pub cat: &'static str,
    /// Event name, dot-scoped (`job.placed`, `wm.profile`, ...).
    pub name: String,
    /// Ordered arguments (emission order is preserved).
    pub args: Vec<(&'static str, Arg)>,
}

impl TraceEvent {
    /// Looks up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&Arg> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Convenience: a `u64` argument by key.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.arg(key).and_then(Arg::as_u64)
    }

    /// Serializes the event as one JSONL line (without trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"ts\":");
        s.push_str(&self.at.as_micros().to_string());
        match self.dur {
            Some(d) => {
                s.push_str(",\"ph\":\"X\",\"dur\":");
                s.push_str(&d.as_micros().to_string());
            }
            None => s.push_str(",\"ph\":\"i\""),
        }
        s.push_str(",\"cat\":\"");
        s.push_str(self.cat);
        s.push_str("\",\"name\":\"");
        escape_json_into(&self.name, &mut s);
        s.push_str("\",\"args\":{");
        for (i, (k, v)) in self.args.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            escape_json_into(k, &mut s);
            s.push_str("\":");
            v.write_json(&mut s);
        }
        s.push_str("}}");
        s
    }

    /// Parses a line produced by [`TraceEvent::to_jsonl`]. Returns `None`
    /// for lines that are not event records (e.g. metric summary lines).
    pub fn from_jsonl(line: &str) -> Option<TraceEvent> {
        let mut p = Scanner::new(line);
        p.expect("{\"ts\":")?;
        let ts = p.number_u64()?;
        let dur = if p.try_expect(",\"ph\":\"X\",\"dur\":") {
            Some(SimDuration::from_micros(p.number_u64()?))
        } else {
            p.expect(",\"ph\":\"i\"")?;
            None
        };
        p.expect(",\"cat\":\"")?;
        let cat = intern_cat(&p.raw_until_quote()?);
        p.expect(",\"name\":\"")?;
        let name = p.string_until_quote()?;
        p.expect(",\"args\":{")?;
        let mut args = Vec::new();
        if !p.try_expect("}") {
            loop {
                p.expect("\"")?;
                let key = intern_key(&p.string_until_quote()?);
                p.expect(":")?;
                let val = p.value()?;
                args.push((key, val));
                if p.try_expect(",") {
                    continue;
                }
                p.expect("}")?;
                break;
            }
        }
        p.expect("}")?;
        Some(TraceEvent {
            at: SimTime::from_micros(ts),
            dur,
            cat,
            name,
            args,
        })
    }
}

/// Maps a parsed category back to the static str used at emission time.
fn intern_cat(s: &str) -> &'static str {
    match s {
        "sched" => "sched",
        "wm" => "wm",
        "feedback" => "feedback",
        "datastore" => "datastore",
        "campaign" => "campaign",
        "chaos" => "chaos",
        _ => "other",
    }
}

/// Maps a parsed argument key back to a static str. Keys outside the known
/// vocabulary collapse to `"arg"`; emitters only use keys listed here.
fn intern_key(s: &str) -> &'static str {
    const KEYS: &[&str] = &[
        "job",
        "class",
        "payload",
        "success",
        "node",
        "requeued",
        "gpus_used",
        "gpus_total",
        "cpus_used",
        "cpus_total",
        "running",
        "pending",
        "manager",
        "processed",
        "corrupt",
        "ns",
        "key",
        "bytes",
        "retries",
        "backend",
        "op",
        "run",
        "seed",
        "sim",
        "coupling",
        "count",
        "visited",
        "reason",
        "attempt",
        "at",
        "keys",
        "nodes",
        "hours",
        "placed",
        "completed",
        "period",
        "from",
        "until",
        "lost",
        "requested",
    ];
    KEYS.iter().find(|k| **k == s).copied().unwrap_or("arg")
}

/// Escapes `s` into `out` per JSON string rules.
pub fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Minimal scanner for the fixed-format lines this module emits.
struct Scanner<'a> {
    rest: &'a str,
}

impl<'a> Scanner<'a> {
    fn new(s: &'a str) -> Scanner<'a> {
        Scanner { rest: s }
    }

    fn expect(&mut self, lit: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(lit)?;
        Some(())
    }

    fn try_expect(&mut self, lit: &str) -> bool {
        if let Some(r) = self.rest.strip_prefix(lit) {
            self.rest = r;
            true
        } else {
            false
        }
    }

    fn number_u64(&mut self) -> Option<u64> {
        let end = self
            .rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(self.rest.len());
        if end == 0 {
            return None;
        }
        let v = self.rest[..end].parse().ok()?;
        self.rest = &self.rest[end..];
        Some(v)
    }

    /// Consumes up to the closing quote, no escapes allowed (categories).
    fn raw_until_quote(&mut self) -> Option<String> {
        let end = self.rest.find('"')?;
        let s = self.rest[..end].to_string();
        self.rest = &self.rest[end + 1..];
        Some(s)
    }

    /// Consumes a JSON string body up to its closing quote, unescaping.
    fn string_until_quote(&mut self) -> Option<String> {
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        loop {
            let (i, c) = chars.next()?;
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Some(out);
                }
                '\\' => {
                    let (_, esc) = chars.next()?;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (_, h) = chars.next()?;
                                code = code * 16 + h.to_digit(16)?;
                            }
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                c => out.push(c),
            }
        }
    }

    /// Parses a JSON value: string or number (u64 / i64 / f64).
    fn value(&mut self) -> Option<Arg> {
        if self.try_expect("\"") {
            return Some(Arg::Str(self.string_until_quote()?));
        }
        let end = self
            .rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(self.rest.len());
        if end == 0 {
            return None;
        }
        let tok = &self.rest[..end];
        self.rest = &self.rest[end..];
        if tok.contains(['.', 'e', 'E']) {
            Some(Arg::F64(tok.parse().ok()?))
        } else if tok.starts_with('-') {
            Some(Arg::I64(tok.parse().ok()?))
        } else {
            Some(Arg::U64(tok.parse().ok()?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(dur: Option<u64>) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_micros(1234),
            dur: dur.map(SimDuration::from_micros),
            cat: "sched",
            name: "job.placed".into(),
            args: vec![
                ("job", Arg::U64(7)),
                ("class", Arg::Str("cg_sim".into())),
                ("coupling", Arg::F64(0.25)),
            ],
        }
    }

    #[test]
    fn jsonl_roundtrip_instant() {
        let e = ev(None);
        let line = e.to_jsonl();
        assert_eq!(
            line,
            "{\"ts\":1234,\"ph\":\"i\",\"cat\":\"sched\",\"name\":\"job.placed\",\
             \"args\":{\"job\":7,\"class\":\"cg_sim\",\"coupling\":0.25}}"
        );
        assert_eq!(TraceEvent::from_jsonl(&line), Some(e));
    }

    #[test]
    fn jsonl_roundtrip_span() {
        let e = ev(Some(500));
        let line = e.to_jsonl();
        assert!(line.contains("\"ph\":\"X\",\"dur\":500"));
        assert_eq!(TraceEvent::from_jsonl(&line), Some(e));
    }

    #[test]
    fn jsonl_roundtrip_escaped_strings() {
        let e = TraceEvent {
            at: SimTime::ZERO,
            dur: None,
            cat: "datastore",
            name: "op.write".into(),
            args: vec![("key", Arg::Str("we\"ird\\key\n\u{1}".into()))],
        };
        let line = e.to_jsonl();
        assert_eq!(TraceEvent::from_jsonl(&line), Some(e));
    }

    #[test]
    fn jsonl_roundtrip_empty_args() {
        let e = TraceEvent {
            at: SimTime::from_secs(1),
            dur: None,
            cat: "campaign",
            name: "run.start".into(),
            args: vec![],
        };
        assert_eq!(TraceEvent::from_jsonl(&e.to_jsonl()), Some(e));
    }

    #[test]
    fn non_event_lines_are_rejected() {
        assert_eq!(
            TraceEvent::from_jsonl("{\"metric\":\"counter\",\"name\":\"x\",\"value\":1}"),
            None
        );
        assert_eq!(TraceEvent::from_jsonl(""), None);
        assert_eq!(TraceEvent::from_jsonl("garbage"), None);
    }

    #[test]
    fn float_formatting_is_shortest_roundtrip() {
        let written = |v: f64| {
            let mut s = String::new();
            Arg::F64(v).write_json(&mut s);
            s
        };
        assert_eq!(written(98.33333333333333), "98.33333333333333");
        assert_eq!(written(1.0), "1.0");
        assert_eq!(written(-2.0), "-2.0");
        assert_eq!(written(1e20), "1e20");
        assert_eq!(written(f64::NAN), "0.0");
        assert_eq!(written(f64::NEG_INFINITY), "0.0");
        // Every float reads back as the same `F64`, never an integer;
        // NaN reads back as `F64(0.0)`.
        let event = |v: f64| TraceEvent {
            at: SimTime::ZERO,
            dur: None,
            cat: "campaign",
            name: "x".into(),
            args: vec![("coupling", Arg::F64(v))],
        };
        for v in [
            98.33333333333333,
            1.0,
            -2.0,
            0.0,
            -0.5,
            1e20,
            2.5e-7,
            f64::MAX,
        ] {
            assert_eq!(
                TraceEvent::from_jsonl(&event(v).to_jsonl()),
                Some(event(v)),
                "{v}"
            );
        }
        let nan = event(f64::NAN).to_jsonl();
        assert_eq!(TraceEvent::from_jsonl(&nan), Some(event(0.0)));
    }
}
