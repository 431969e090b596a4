//! Property-based placement contracts: hash tags pin co-location, and a
//! rename that would cross shards is a typed error (never a silent
//! partial mutation). These are the invariants the networked store tier
//! inherits — `storeserver` routes with this same `Cluster`, so a
//! placement bug here would surface as wire-level data loss there.
//! Store durability is the storeserver write-ahead log, not a snapshot
//! of the cluster.

use bytes::Bytes;
use proptest::prelude::*;

use kvstore::{Client, Cluster, KvError};

/// A key fragment: namespace-ish text without hash-tag braces.
fn frag() -> impl Strategy<Value = String> {
    "[a-z0-9:._-]{0,12}"
}

/// A hash tag body (non-empty — an empty tag falls back to whole-key
/// hashing by the Redis rule).
fn tag() -> impl Strategy<Value = String> {
    "[a-z0-9]{1,16}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any two keys sharing a `{tag}` land on the same shard, whatever
    /// surrounds the tag and however many shards the cluster has. This
    /// is what makes `move_ns` (rename across namespaces) single-shard
    /// and atomic for every frame of a simulation.
    fn same_tag_keys_co_shard(
        shards in 1usize..64,
        tag in tag(),
        pre_a in frag(), post_a in frag(),
        pre_b in frag(), post_b in frag(),
    ) {
        let cluster = Cluster::new(shards);
        let a = format!("{pre_a}{{{tag}}}{post_a}");
        let b = format!("{pre_b}{{{tag}}}{post_b}");
        prop_assert_eq!(
            cluster.shard_for(&a),
            cluster.shard_for(&b),
            "{} and {} share tag {{{}}} but split shards",
            a, b, tag
        );
    }

    /// A rename whose source and destination hash to different shards
    /// returns the typed `CrossShardRename` error carrying both key
    /// names, and mutates nothing: the source stays, the destination
    /// never appears. Same-shard renames succeed and move the value.
    fn cross_shard_rename_is_typed_and_mutation_free(
        shards in 2usize..32,
        from_tag in tag(),
        to_tag in tag(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let cluster = Cluster::new(shards);
        let client = Client::new(std::sync::Arc::clone(&cluster));
        let from = format!("src:{{{from_tag}}}");
        let to = format!("dst:{{{to_tag}}}");
        client.set(&from, Bytes::from(payload.clone()));
        let crosses = cluster.shard_for(&from) != cluster.shard_for(&to);
        match client.rename(&from, &to) {
            Ok(()) => {
                prop_assert!(!crosses, "cross-shard rename succeeded silently");
                if from != to {
                    prop_assert!(!client.exists(&from));
                }
                let moved = client.get(&to);
                prop_assert_eq!(moved.as_deref(), Some(&payload[..]));
            }
            Err(KvError::CrossShardRename { from: f, to: t }) => {
                prop_assert!(crosses, "same-shard rename bounced as cross-shard");
                prop_assert_eq!(&f, &from);
                prop_assert_eq!(&t, &to);
                // The failed rename is a no-op, not a partial move.
                let kept = client.get(&from);
                prop_assert_eq!(kept.as_deref(), Some(&payload[..]));
                prop_assert!(!client.exists(&to));
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }
}
