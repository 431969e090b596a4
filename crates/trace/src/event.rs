//! Trace records and their JSONL wire format.
//!
//! Every record is stamped with virtual time ([`SimTime`]), never the wall
//! clock, so a same-seed campaign serializes to a byte-identical file. A
//! line is one JSON object with a fixed field order (`ts`, `ph`, `dur`,
//! `cat`, `name`, `args`), read back through the crate's JSON lexer
//! ([`crate::json`]) in that order. The reader owns every string it reads,
//! so any category or argument key round-trips.

use std::borrow::Cow;

use simcore::{SimDuration, SimTime};

use crate::json::{parse_number, write_str, Lexer};

/// A typed event argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Unsigned integer (ids, counts, resource totals).
    U64(u64),
    /// Negative integer (deltas below zero). A value ≥ 0 is a `U64`:
    /// it writes as a bare integer, and the reader types a lexeme
    /// without a `-` as `U64`, so only negatives read back as `I64`.
    /// `Arg::from(i64)` picks the variant.
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
        match u64::try_from(v) {
            Ok(v) => Arg::U64(v),
            Err(_) => Arg::I64(v),
        }
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

    /// Writes the argument as a JSON value.
    fn write_json(&self, out: &mut String) {
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
            Arg::Str(s) => write_str(s, out),
        }
    }

    /// Reads a string or number value, typed by its lexeme: a fraction or
    /// exponent makes an `F64`, a leading `-` an `I64`, anything else a
    /// `U64`. A float that overflows to infinity and a `-0` are refused:
    /// no writer emits either, and neither would read back as itself.
    fn lex(lx: &mut Lexer) -> Result<Arg, String> {
        if lx.peek() == Some(b'"') {
            return Ok(Arg::Str(lx.string()?));
        }
        let tok = lx.number()?;
        let arg = if tok.contains(['.', 'e', 'E']) {
            Arg::F64(parse_number(tok)?)
        } else if tok.starts_with('-') {
            Arg::I64(parse_number(tok)?)
        } else {
            Arg::U64(parse_number(tok)?)
        };
        match arg {
            Arg::F64(v) if !v.is_finite() => Err(format!("float {tok:?} is out of range")),
            Arg::I64(v) if v >= 0 => Err(format!("integer {tok:?} is not negative")),
            _ => Ok(arg),
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
    /// `datastore`, `campaign`, `chaos`). Borrowed when recorded, owned
    /// when read back.
    pub cat: Cow<'static, str>,
    /// Event name, dot-scoped (`job.placed`, `wm.profile`, ...).
    pub name: String,
    /// Ordered arguments (emission order is preserved); keys borrowed
    /// when recorded, owned when read back.
    pub args: Vec<(Cow<'static, str>, Arg)>,
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
        s.push_str(",\"cat\":");
        write_str(&self.cat, &mut s);
        s.push_str(",\"name\":");
        write_str(&self.name, &mut s);
        s.push_str(",\"args\":");
        self.write_args(&mut s);
        s.push('}');
        s
    }

    /// Writes the arguments as a JSON object in emission order (the
    /// JSONL and Chrome forms share it).
    pub(crate) fn write_args(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(k, out);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }

    /// Parses a line produced by [`TraceEvent::to_jsonl`]: its fields in
    /// emission order (`dur` only on a span), each argument typed by its
    /// lexeme. Returns `None` for lines that are not event records (e.g.
    /// metric summary lines) and for damaged ones.
    pub fn from_jsonl(line: &str) -> Option<TraceEvent> {
        const FIELDS: [&str; 6] = ["ts", "ph", "dur", "cat", "name", "args"];
        let mut fields = FIELDS.iter();
        let mut span = false;
        let mut e = TraceEvent {
            at: SimTime::ZERO,
            dur: None,
            cat: Cow::Borrowed(""),
            name: String::new(),
            args: Vec::new(),
        };
        let mut lx = Lexer::new(line);
        lx.object(|lx, key| {
            let mut want = fields.next();
            if want == Some(&"dur") && !span {
                want = fields.next();
            }
            match (want, key.as_str()) {
                (Some(&"ts"), "ts") => e.at = SimTime::from_micros(parse_number(lx.number()?)?),
                (Some(&"ph"), "ph") => {
                    span = match &*lx.string()? {
                        "X" => true,
                        "i" => false,
                        ph => return Err(format!("unknown phase {ph:?}")),
                    }
                }
                (Some(&"dur"), "dur") => {
                    e.dur = Some(SimDuration::from_micros(parse_number(lx.number()?)?))
                }
                (Some(&"cat"), "cat") => e.cat = lx.string()?.into(),
                (Some(&"name"), "name") => e.name = lx.string()?,
                (Some(&"args"), "args") => lx.object(|lx, key| {
                    e.args.push((key.into(), Arg::lex(lx)?));
                    Ok(())
                })?,
                _ => return Err(format!("unexpected field {key:?}")),
            }
            Ok(())
        })
        .ok()?;
        lx.finish().ok()?;
        (fields.len() == 0).then_some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(dur: Option<u64>) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_micros(1234),
            dur: dur.map(SimDuration::from_micros),
            cat: "sched".into(),
            name: "job.placed".into(),
            args: vec![
                ("job".into(), Arg::U64(7)),
                ("class".into(), Arg::Str("cg_sim".into())),
                ("coupling".into(), Arg::F64(0.25)),
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
            cat: "datastore".into(),
            name: "op.write".into(),
            args: vec![("key".into(), Arg::Str("we\"ird\\key\n\u{1}".into()))],
        };
        let line = e.to_jsonl();
        assert_eq!(TraceEvent::from_jsonl(&line), Some(e));
    }

    #[test]
    fn jsonl_roundtrip_empty_args() {
        let e = TraceEvent {
            at: SimTime::from_secs(1),
            dur: None,
            cat: "campaign".into(),
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
            cat: "campaign".into(),
            name: "x".into(),
            args: vec![("coupling".into(), Arg::F64(v))],
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
