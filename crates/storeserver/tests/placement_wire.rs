//! The placement contract through the wire path: the same properties
//! `kvstore/tests/placement.rs` pins in-process must survive encode →
//! decode → engine dispatch. Runs over the loopback transport — every
//! op is a real wire frame, no sockets needed.

use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;

use storeserver::{StoreClient, StoreEngine, StoreError};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A cross-shard rename comes back as the typed `CrossShardRename`
    /// error with both key names intact after the wire round trip, and
    /// the store is unchanged; a same-shard rename moves the value.
    fn rename_shard_semantics_survive_the_wire(
        shards in 2usize..32,
        from_tag in "[a-z0-9]{1,16}",
        to_tag in "[a-z0-9]{1,16}",
        payload in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let engine = Arc::new(StoreEngine::in_memory(shards));
        let crosses = {
            let c = engine.cluster();
            c.shard_for(&format!("src:{{{from_tag}}}")) != c.shard_for(&format!("dst:{{{to_tag}}}"))
        };
        let mut client = StoreClient::loopback(engine);
        let from = format!("src:{{{from_tag}}}");
        let to = format!("dst:{{{to_tag}}}");
        client.put(&from, Bytes::from(payload.clone())).unwrap();
        match client.rename(&from, &to) {
            Ok(()) => {
                prop_assert!(!crosses, "cross-shard rename succeeded over the wire");
                let moved = client.get(&to).unwrap();
                prop_assert_eq!(moved.as_deref(), Some(&payload[..]));
            }
            Err(StoreError::CrossShardRename { from: f, to: t }) => {
                prop_assert!(crosses, "same-shard rename bounced as cross-shard");
                prop_assert_eq!(&f, &from);
                prop_assert_eq!(&t, &to);
                let kept = client.get(&from).unwrap();
                prop_assert_eq!(kept.as_deref(), Some(&payload[..]));
                prop_assert!(!client.exists(&to).unwrap());
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Same-tag keys written through the wire land on one shard: the
    /// stats shard count never moves, and a follow-up same-tag rename
    /// always succeeds regardless of the surrounding namespace text.
    fn same_tag_wire_writes_allow_namespace_renames(
        shards in 1usize..32,
        tag in "[a-z0-9]{1,16}",
        ns_a in "[a-z:]{0,8}",
        ns_b in "[a-z:]{0,8}",
    ) {
        let mut client = StoreClient::loopback(Arc::new(StoreEngine::in_memory(shards)));
        let from = format!("{ns_a}{{{tag}}}");
        let to = format!("{ns_b}x{{{tag}}}");
        client.put(&from, Bytes::from_static(b"frame")).unwrap();
        // Shared tag ⇒ co-shard ⇒ the feedback "tagging" rename can
        // never fail with a cross-shard error.
        client.rename(&from, &to).unwrap();
        prop_assert!(client.exists(&to).unwrap());
    }
}
