//! `Shard::keys` against the plain definition of a listing: every stored
//! key, in key order, kept when the glob matches. The feedback loop lists
//! its live namespace every round; this property is what lets that
//! listing walk only the keys under the pattern's literal prefix, so a
//! round costs the live frames and not the processed history.

use std::collections::BTreeSet;

use proptest::prelude::*;

use kvstore::{glob_match, Shard};

/// Keys from a small alphabet with the hash-tag braces, the namespace
/// separator and one multibyte character; half of them behind a pad of
/// 24 to 28 bytes, so keys fall on both sides of the shard's 30-byte
/// inline bound and a two-byte character can straddle it.
fn key() -> impl Strategy<Value = String> {
    padded("[ab:{}é]{0,6}")
}

/// The same alphabet plus both glob metacharacters.
fn pattern() -> impl Strategy<Value = String> {
    padded("[ab:{}é*?]{0,6}")
}

fn padded(body: &'static str) -> impl Strategy<Value = String> {
    prop_oneof![
        body,
        ("[a]{24,28}", body).prop_map(|(pad, tail)| pad + &tail),
    ]
}

/// The reference: walk every key and filter.
fn full_walk(model: &BTreeSet<String>, pattern: &str) -> Vec<String> {
    model
        .iter()
        .filter(|k| glob_match(pattern, k))
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn keys_equals_the_full_filtered_walk(
        inserted in prop::collection::vec(key(), 0..24),
        deleted in prop::collection::vec(key(), 0..8),
        drawn in prop::collection::vec(pattern(), 1..6),
        tail in pattern(),
        pick in 0usize..64,
    ) {
        let shard = Shard::new();
        let mut model = BTreeSet::new();
        for k in &inserted {
            shard.set(k, &b"v"[..]);
            model.insert(k.clone());
        }
        for k in &deleted {
            shard.del(k);
            model.remove(k);
        }
        let mut patterns = drawn;
        patterns.extend([
            String::new(),
            format!("*{tail}"),
            format!("?{tail}"),
            // Sorts after every key the alphabet can spell.
            format!("\u{10FFFF}{tail}"),
        ]);
        if let Some(whole) = model.iter().nth(pick % model.len().max(1)) {
            patterns.push(whole.clone());
            patterns.push(format!("{whole}{tail}"));
            patterns.push(format!("{whole}*"));
        }
        for p in &patterns {
            prop_assert_eq!(shard.keys(p), full_walk(&model, p), "pattern {:?}", p);
        }
    }
}
