//! A trace line reads back as the event that wrote it.
//!
//! `TraceEvent::from_jsonl` is how every written trace is read (the
//! Figure 5/6 series are re-derived through it). It must give back any
//! event exactly, whatever its category, name or argument keys, and the
//! event must write back to the same bytes. A damaged line is `None` or
//! an event that itself round-trips, never a panic.

use proptest::prelude::*;
use simcore::{SimDuration, SimTime};
use trace::{Arg, TraceEvent};

/// Names, categories and keys: quotes, backslashes, every control
/// character, the escape letters and non-ASCII.
const TEXT: &str = "[a-z_./ \"\\\u{0}-\u{1f}\u{7f}é中😀]{0,12}";

fn arg() -> impl Strategy<Value = Arg> {
    prop_oneof![
        any::<u64>().prop_map(Arg::U64),
        Just(Arg::U64(u64::MAX)),
        // Every `i64` goes through `Arg::from`, which gives `U64` for a
        // value ≥ 0 (arguments are read back typed by their lexeme).
        any::<i64>().prop_map(Arg::from),
        Just(Arg::from(i64::MIN)),
        // Integral floats keep their `.0`; the wide exponents write as
        // `1e-300`-style lexemes.
        (-1e6f64..1e6).prop_map(|v| Arg::F64(v.trunc())),
        (-1.0f64..1.0, -300i32..300).prop_map(|(m, e)| Arg::F64(m * 10f64.powi(e))),
        TEXT.prop_map(Arg::Str),
    ]
}

fn event() -> impl Strategy<Value = TraceEvent> {
    (
        any::<u64>(),
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        TEXT,
        TEXT,
        prop::collection::vec((TEXT, arg()), 0..6),
    )
        .prop_map(|(ts, dur, cat, name, args)| TraceEvent {
            at: SimTime::from_micros(ts),
            dur: dur.map(SimDuration::from_micros),
            cat: cat.into(),
            name,
            args: args.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn every_event_round_trips_to_the_same_bytes(e in event()) {
        let line = e.to_jsonl();
        let back = TraceEvent::from_jsonl(&line);
        prop_assert_eq!(back.as_ref(), Some(&e));
        prop_assert_eq!(back.map(|b| b.to_jsonl()), Some(line));
    }

    fn truncated_and_nested_lines_are_refused(e in event(), nested in 0usize..2) {
        let line = e.to_jsonl();
        for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            prop_assert!(TraceEvent::from_jsonl(&line[..cut]).is_none(), "cut at {}", cut);
        }
        let body = line.strip_suffix("}}").expect("an event line ends its args and itself");
        let sep = if e.args.is_empty() { "" } else { "," };
        let value = ["{\"job\":1}", "[1]"][nested];
        let damaged = format!("{body}{sep}\"job\":{value}}}}}");
        prop_assert!(TraceEvent::from_jsonl(&damaged).is_none(), "{}", damaged);
    }
}

proptest! {
    // One case in a few hundred flips an exponent or sign digit into a
    // value the writer cannot give back; 4096 cases find one.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    fn a_flipped_byte_is_refused_or_reads_as_a_round_tripping_event(
        e in event(),
        at in any::<usize>(),
        byte in prop_oneof![32u8..127, Just(b'\n'), Just(0u8)],
    ) {
        let mut bytes = e.to_jsonl().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        // Replacing part of a multi-byte char leaves no `&str` to read.
        if let Ok(damaged) = String::from_utf8(bytes) {
            if let Some(d) = TraceEvent::from_jsonl(&damaged) {
                prop_assert_eq!(TraceEvent::from_jsonl(&d.to_jsonl()), Some(d));
            }
        }
    }
}

#[test]
fn a_category_and_key_no_emitter_used_before_round_trip() {
    let e = TraceEvent {
        at: SimTime::from_secs(3),
        dur: Some(SimDuration::from_micros(5)),
        cat: "farm".into(),
        name: "leg.done".into(),
        args: vec![("v".into(), Arg::F64(0.5)), ("tenant".into(), "t1".into())],
    };
    let line = e.to_jsonl();
    assert_eq!(
        line,
        "{\"ts\":3000000,\"ph\":\"X\",\"dur\":5,\"cat\":\"farm\",\"name\":\"leg.done\",\
         \"args\":{\"v\":0.5,\"tenant\":\"t1\"}}"
    );
    assert_eq!(TraceEvent::from_jsonl(&line), Some(e));
}

#[test]
fn a_value_that_would_not_read_back_as_itself_is_refused() {
    // `1e999` overflows to infinity, which writes as `0.0`; `-0` lexes as
    // an `I64` but writes as `0`, which reads back as a `U64`.
    let line = |v: &str| {
        format!("{{\"ts\":1,\"ph\":\"i\",\"cat\":\"farm\",\"name\":\"n\",\"args\":{{\"v\":{v}}}}}")
    };
    for v in ["-1", "1e300", "-0.0"] {
        assert!(TraceEvent::from_jsonl(&line(v)).is_some(), "{}", line(v));
    }
    for v in ["1e999", "-1e999", "5.3e999", "-0"] {
        assert_eq!(TraceEvent::from_jsonl(&line(v)), None, "{}", line(v));
    }
}

#[test]
fn a_signed_integer_from_zero_up_reads_back_as_itself() {
    for v in [0i64, 5, i64::MAX, -1, i64::MIN] {
        let e = TraceEvent {
            at: SimTime::from_secs(1),
            dur: None,
            cat: "sched".into(),
            name: "delta".into(),
            args: vec![("d".into(), Arg::from(v))],
        };
        assert_eq!(TraceEvent::from_jsonl(&e.to_jsonl()), Some(e), "{v}");
    }
}
