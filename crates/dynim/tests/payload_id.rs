//! `PayloadId` behaves exactly as the string it names: equality, order,
//! hash, `Display` (padding included) and `Debug`, for names on both
//! sides of the 30-byte inline bound, with multi-byte characters that
//! end at or straddle it, however the id was built. A `History` of such
//! ids round-trips through its text, and damaged text is refused or
//! parses to a history that round-trips itself.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use dynim::{HdPoint, History, PayloadId};
use proptest::prelude::*;

/// Short names, and names padded to just under the bound and finished
/// with one- to four-byte characters.
fn name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[aé€𝄞]{0,12}",
        ("[x]{24,30}", "[aé€𝄞]{0,3}").prop_map(|(pad, tail)| pad + &tail),
    ]
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// The ways an id is made: from a `&str`, an owned `String`, formatted
/// arguments.
fn builds(s: &str) -> [PayloadId; 3] {
    [
        PayloadId::new(s),
        PayloadId::from(s.to_string()),
        PayloadId::from_fmt(format_args!("{s}")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn an_id_is_its_string(a in name(), b in name()) {
        for (x, y) in builds(&a).iter().zip(builds(&b).iter()) {
            prop_assert_eq!(x.as_str(), a.as_str());
            prop_assert_eq!(x == y, a == b);
            prop_assert_eq!(x.cmp(y), a.cmp(&b));
            prop_assert_eq!(x.partial_cmp(y), a.partial_cmp(&b));
            prop_assert_eq!(hash_of(x), hash_of(a.as_str()));
            prop_assert_eq!(x.to_string(), a.clone());
            prop_assert_eq!(format!("{x:>40}|{x:<3}"), format!("{a:>40}|{a:<3}"));
            prop_assert_eq!(format!("{x:?}"), format!("{a:?}"));
            prop_assert!(*x == *a.as_str() && *x == a);
        }
    }

    fn formatted_pieces_join_across_the_bound(a in name(), b in name(), n in 0u64..1_000_000) {
        let joined = format!("{a}-{n:06}-{b}");
        let id = PayloadId::from_fmt(format_args!("{a}-{n:06}-{b}"));
        prop_assert_eq!(id.as_str(), joined.as_str());
        prop_assert_eq!(hash_of(&id), hash_of(joined.as_str()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn a_history_of_ids_round_trips_through_text(
        ops in prop::collection::vec((name(), any::<bool>(), -1.0e6f64..1.0e6), 0..12),
        cut in any::<usize>(),
        flip in any::<usize>(),
    ) {
        let mut h = History::new();
        for (id, select, x) in &ops {
            if *select {
                h.record_select(id);
            } else {
                h.record_add(&HdPoint::new(id.as_str(), vec![*x, -x]));
            }
        }
        let text = h.to_text();
        prop_assert_eq!(History::from_text(&text), Some(h));
        // Cut at a char boundary, or swap one byte for a space.
        let mut damaged = text.clone();
        if !damaged.is_empty() {
            let at = cut % damaged.len();
            if damaged.is_char_boundary(at) {
                damaged.truncate(at);
            }
            let at = flip % damaged.len().max(1);
            if damaged.is_char_boundary(at) && damaged.is_char_boundary(at + 1) && at < damaged.len() {
                damaged.replace_range(at..at + 1, " ");
            }
        }
        if let Some(back) = History::from_text(&damaged) {
            prop_assert_eq!(History::from_text(&back.to_text()), Some(back));
        }
    }
}
