//! One key-value shard: a single "Redis server" in the cluster.

use bytes::Bytes;
use parking_lot::RwLock; // lint: allow(L6: shard storage lock import; the field carries the reason)
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

use crate::glob::{glob_match, literal_prefix};
use crate::{KvError, Result};

/// A thread-safe in-memory key-value shard.
///
/// Values are [`Bytes`], so handing a value to many readers is a cheap
/// refcount bump rather than a copy — important for feedback loops that
/// fetch thousands of RDF blobs per iteration.
///
/// Keys live in a [`BTreeMap`]: `keys`/`scan` results come back in key
/// order, so feedback iterations consume frames in the same order on
/// every run (determinism contract — no hash-ordered iteration leaks
/// into coordination decisions). Scan cursors are positions in that
/// stable order.
#[derive(Debug, Default)]
pub struct Shard {
    map: RwLock<BTreeMap<Key, Bytes>>, // lint: allow(L6: datastore leaf lock; no coordination decision happens under it)
}

/// Longest key held inline, in bytes.
const INLINE: usize = 30;

/// A stored key: up to 30 bytes inline (every key the campaign's frame
/// path writes, such as `rdf-new:{aa-0000000042}`), longer ones in one
/// heap string. Keys compare as bytes, which is `str`'s order, so a
/// write or a move of a short key allocates nothing, and a tree search
/// compares inline bytes with no pointer to follow and no UTF-8 check.
#[derive(Debug)]
enum Key {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Box<str>),
}

impl Key {
    fn new(key: &str) -> Key {
        if key.len() <= INLINE {
            let mut bytes = [0; INLINE];
            bytes[..key.len()].copy_from_slice(key.as_bytes());
            Key::Inline {
                len: key.len() as u8,
                bytes,
            }
        } else {
            Key::Heap(key.into())
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Key::Inline { len, bytes } => &bytes[..*len as usize],
            Key::Heap(s) => s.as_bytes(),
        }
    }

    /// The key as text, for glob matching and listing.
    fn as_str(&self) -> &str {
        match self {
            Key::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..*len as usize]).expect("keys are stored from strs")
            }
            Key::Heap(s) => s,
        }
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Shard {
    /// Creates an empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value` under `key`, returning true when the key was new.
    pub fn set(&self, key: &str, value: impl Into<Bytes>) -> bool {
        self.map
            .write()
            .insert(Key::new(key), value.into())
            .is_none()
    }

    /// Fetches the value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<Bytes> {
        self.map.read().get(key.as_bytes()).cloned()
    }

    /// Deletes `key`, returning true when it existed.
    pub fn del(&self, key: &str) -> bool {
        self.map.write().remove(key.as_bytes()).is_some()
    }

    /// Whether `key` exists.
    pub fn exists(&self, key: &str) -> bool {
        self.map.read().contains_key(key.as_bytes())
    }

    /// Renames `from` to `to` atomically (within this shard), overwriting
    /// any existing value at `to`. This is the feedback "tagging" primitive.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut map = self.map.write();
        match map.remove(from.as_bytes()) {
            Some(v) => {
                map.insert(Key::new(to), v);
                Ok(())
            }
            None => Err(KvError::NoSuchKey(from.to_string())),
        }
    }

    /// Returns all keys matching a Redis-style glob pattern, in key order
    /// ([`Shard::visit_keys`], collected).
    pub fn keys(&self, pattern: &str) -> Vec<String> {
        let mut keys = Vec::new();
        self.visit_keys(pattern, |k| keys.push(k.to_owned()));
        keys
    }

    /// Hands each key matching a Redis-style glob pattern to `visit`, in
    /// key order, under the shard's read lock.
    ///
    /// Only keys that start with the pattern's literal prefix (the bytes
    /// before its first `*` or `?`) can match, and in the key order they
    /// are one contiguous run. So the walk starts at that prefix and stops
    /// at the first key without it: listing `rdf-new` costs the live keys,
    /// not the `rdf-done` history beside them. This relies on `*` and `?`
    /// being the only metacharacters [`glob_match`] knows.
    pub fn visit_keys(&self, pattern: &str, visit: impl FnMut(&str)) {
        let prefix = literal_prefix(pattern).as_bytes();
        self.map
            .read()
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .map(|(k, _)| k)
            .take_while(|k| k.as_bytes().starts_with(prefix))
            .map(Key::as_str)
            .filter(|k| glob_match(pattern, k))
            .for_each(visit);
    }

    /// Number of keys in the shard.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when the shard holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Total bytes of stored values (not counting keys).
    pub fn memory_bytes(&self) -> usize {
        self.map.read().values().map(|v| v.len()).sum()
    }

    /// Cursor-based incremental scan (Redis `SCAN`): returns up to `count`
    /// matching keys starting at `cursor`, plus the next cursor (`None`
    /// when the scan completed). Unlike [`Shard::keys`], each call holds
    /// the lock only briefly, so a huge namespace never blocks writers —
    /// the behaviour production deployments need at the paper's frame
    /// volumes.
    ///
    /// The cursor is a position in the shard's key order; like Redis,
    /// the scan guarantees that keys present for the whole scan are
    /// returned at least once, not exactly once under concurrent
    /// mutation.
    pub fn scan(&self, pattern: &str, cursor: u64, count: usize) -> (Vec<String>, Option<u64>) {
        let map = self.map.read();
        let mut out = Vec::new();
        let mut seen = 0u64;
        let mut next = None;
        for k in map.keys() {
            if seen < cursor {
                seen += 1;
                continue;
            }
            if out.len() >= count {
                next = Some(seen);
                break;
            }
            seen += 1;
            if glob_match(pattern, k.as_str()) {
                out.push(k.as_str().to_owned());
            }
        }
        (out, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_del() {
        let s = Shard::new();
        assert!(s.set("k", &b"v"[..]));
        assert!(!s.set("k", &b"v2"[..]));
        assert_eq!(s.get("k").unwrap().as_ref(), b"v2");
        assert!(s.del("k"));
        assert!(!s.del("k"));
        assert!(s.get("k").is_none());
    }

    #[test]
    fn rename_moves_value() {
        let s = Shard::new();
        s.set("rdf:new:1", &b"data"[..]);
        s.rename("rdf:new:1", "rdf:done:1").unwrap();
        assert!(!s.exists("rdf:new:1"));
        assert_eq!(s.get("rdf:done:1").unwrap().as_ref(), b"data");
        assert_eq!(
            s.rename("rdf:new:1", "x"),
            Err(KvError::NoSuchKey("rdf:new:1".into()))
        );
    }

    #[test]
    fn keys_pattern_scan() {
        let s = Shard::new();
        for i in 0..10 {
            s.set(&format!("rdf:new:{i}"), &b"x"[..]);
            s.set(&format!("rdf:done:{i}"), &b"x"[..]);
        }
        let mut new_keys = s.keys("rdf:new:*");
        new_keys.sort();
        assert_eq!(new_keys.len(), 10);
        assert!(new_keys.iter().all(|k| k.starts_with("rdf:new:")));
        assert_eq!(s.keys("*").len(), 20);
        assert!(s.keys("nothing*").is_empty());
    }

    #[test]
    fn keys_on_both_sides_of_the_inline_bound_list_in_str_order() {
        let s = Shard::new();
        let long = "k".repeat(INLINE);
        let names = [
            long.clone(),
            format!("{long}a"),
            format!("{}é", &long[..INLINE - 1]),
            format!("{}a", &long[..INLINE - 1]),
            "k".to_string(),
        ];
        for k in &names {
            s.set(k, &b"v"[..]);
        }
        let mut want = names.to_vec();
        want.sort();
        assert_eq!(s.keys("*"), want);
        s.rename(&names[1], "short").unwrap();
        assert_eq!(s.get("short").unwrap().as_ref(), b"v");
        assert!(s.exists(&names[2]) && !s.exists(&names[1]));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        fn keys_compare_and_order_as_their_strings(
            a in "[x]{0,30}[aé€𝄞]{0,3}",
            b in "[x]{0,30}[aé€𝄞]{0,3}",
        ) {
            let (ka, kb) = (Key::new(&a), Key::new(&b));
            proptest::prop_assert_eq!(ka.as_str(), a.as_str());
            proptest::prop_assert_eq!(ka == kb, a == b);
            proptest::prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
            proptest::prop_assert_eq!(ka.partial_cmp(&kb), a.partial_cmp(&b));
            let inline = matches!(ka, Key::Inline { .. });
            proptest::prop_assert_eq!(inline, a.len() <= INLINE);
        }
    }

    #[test]
    fn memory_accounting() {
        let s = Shard::new();
        s.set("a", vec![0u8; 100]);
        s.set("b", vec![0u8; 50]);
        assert_eq!(s.memory_bytes(), 150);
        s.del("a");
        assert_eq!(s.memory_bytes(), 50);
    }

    #[test]
    fn scan_visits_every_key_exactly_once_when_quiescent() {
        let s = Shard::new();
        for i in 0..250 {
            s.set(&format!("rdf:new:{i}"), &b"x"[..]);
            s.set(&format!("other:{i}"), &b"x"[..]);
        }
        let mut cursor = 0u64;
        let mut found = Vec::new();
        let mut rounds = 0;
        loop {
            rounds += 1;
            let (batch, next) = s.scan("rdf:new:*", cursor, 64);
            found.extend(batch);
            match next {
                Some(c) => cursor = c,
                None => break,
            }
            assert!(rounds < 100, "scan must terminate");
        }
        found.sort();
        found.dedup();
        assert_eq!(found.len(), 250);
        assert!(rounds > 1, "scan was actually incremental: {rounds}");
    }

    #[test]
    fn scan_empty_shard_completes_immediately() {
        let s = Shard::new();
        let (batch, next) = s.scan("*", 0, 10);
        assert!(batch.is_empty());
        assert!(next.is_none());
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        use std::sync::Arc;
        let s = Arc::new(Shard::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    s.set(&format!("t{t}-k{i}"), &b"v"[..]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 8 * 500);
    }
}
