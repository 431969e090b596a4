//! WAL crash points: a shard log cut or damaged at any byte recovers
//! exactly the records before the damage.
//!
//! A scripted mix of mutations runs on a 3-shard durable engine. The test
//! derives each shard's records on its own — one [`WalOp`] per op of each
//! request, placed with `shard_for` and framed with `encode_into` — and
//! first checks that the written logs are exactly those bytes. Then, for
//! every shard log and every byte offset, it cuts the log there, and
//! separately flips the byte there, and reopens. Recovery must keep the
//! whole records before the offset and no others, count the rest as torn,
//! hold what a fresh in-memory engine holds after being fed only the
//! surviving ops, and take a new append that survives a second reopen.

use bytes::Bytes;
use std::path::PathBuf;

use storeserver::{Request, Response, StoreEngine, SyncMode, WalOp};

const SHARDS: usize = 3;

fn put(key: &str, value: &str) -> WalOp {
    let value = Bytes::copy_from_slice(value.as_bytes());
    WalOp::Put {
        key: key.into(),
        value,
    }
}

fn del(key: &str) -> WalOp {
    WalOp::Del { key: key.into() }
}

/// One request per entry, written as the records it logs: one per op, in
/// request order. Puts and overwrites, a rename, a rename and a delete of
/// missing keys, a put_many, and a del_many with a missing key. With 3
/// shards, tags {3} {5} {6} live on shard 0, {1} {2} on shard 1 and {7}
/// {11} on shard 2, so every shard gets several kinds.
fn script() -> Vec<Vec<WalOp>> {
    let rename = |from: &str, to: &str| WalOp::Rename {
        from: from.into(),
        to: to.into(),
    };
    let put_many = ["m:{1}", "m:{7}", "m:{3}", "m:{6}", "m:{7}"];
    vec![
        vec![put("a:{1}", "v1")],
        vec![put("b:{7}", "v2")],
        vec![put("c:{3}", "v3")],
        vec![put("a:{1}", "v1+")],
        vec![rename("a:{1}", "done:{1}")],
        vec![rename("gone:{11}", "done:{11}")],
        vec![del("gone:{5}")],
        put_many
            .iter()
            .zip(["x", "y", "z", "w", "y+"])
            .map(|(k, v)| put(k, v))
            .collect(),
        vec![del("b:{7}"), del("m:{3}"), del("gone:{2}")],
        vec![put("c:{3}", "v3+")],
    ]
}

/// The request that logs `ops`: a lone op's own request, else a
/// put_many or a del_many.
fn request(ops: &[WalOp]) -> Request {
    let (mut pairs, mut keys) = (Vec::new(), Vec::new());
    for op in ops.iter().cloned() {
        match op {
            WalOp::Put { key, value } if ops.len() == 1 => return Request::Put { key, value },
            WalOp::Del { key } if ops.len() == 1 => return Request::Del { key },
            WalOp::Rename { from, to } => return Request::Rename { from, to },
            WalOp::Put { key, value } => pairs.push((key, value)),
            WalOp::Del { key } => keys.push(key),
        }
    }
    if pairs.is_empty() {
        Request::DelMany { keys }
    } else {
        Request::PutMany { pairs }
    }
}

/// One shard's expected log: its records, where each ends, its bytes.
#[derive(Default)]
struct Log {
    ops: Vec<WalOp>,
    ends: Vec<usize>,
    bytes: Vec<u8>,
}

impl Log {
    /// How many whole records lie before byte `offset`, and where the
    /// first record after them starts.
    fn before(&self, offset: usize) -> (usize, usize) {
        let kept = self.ends.iter().take_while(|&&end| end <= offset).count();
        (kept, kept.checked_sub(1).map_or(0, |i| self.ends[i]))
    }
}

fn expected_logs() -> Vec<Log> {
    let placement = StoreEngine::in_memory(SHARDS);
    let mut logs: Vec<Log> = (0..SHARDS).map(|_| Log::default()).collect();
    for op in script().into_iter().flatten() {
        let key = match &op {
            WalOp::Put { key, .. } | WalOp::Del { key } => key,
            WalOp::Rename { from, .. } => from,
        };
        let log = &mut logs[placement.cluster().shard_for(key)];
        op.encode_into(&mut log.bytes);
        log.ends.push(log.bytes.len());
        log.ops.push(op);
    }
    logs
}

/// Every key with its value, in key order.
fn contents(engine: &StoreEngine) -> (Response, Response) {
    let keys = engine.handle(Request::Keys {
        pattern: "*".into(),
    });
    let Response::KeyList(list) = &keys else {
        panic!("KEYS answered {keys:?}");
    };
    let values = engine.handle(Request::GetMany { keys: list.clone() });
    (keys, values)
}

/// A directory of the script's logs, one of them damaged per check.
struct Crash {
    dir: PathBuf,
    manifest: Vec<u8>,
    logs: Vec<Log>,
}

impl Crash {
    /// Writes the logs with shard `shard`'s replaced by `damaged`,
    /// reopens, and checks recovery kept exactly that shard's first
    /// `kept` records and counted `torn` bytes past them.
    fn check(&self, shard: usize, damaged: &[u8], kept: usize, torn: usize) {
        let dir = &self.dir;
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join("wal.manifest"), &self.manifest).unwrap();
        let model = StoreEngine::in_memory(SHARDS);
        let mut survivors = 0u64;
        for (i, log) in self.logs.iter().enumerate() {
            let (bytes, n) = if i == shard {
                (damaged, kept)
            } else {
                (&log.bytes[..], log.ops.len())
            };
            std::fs::write(dir.join(format!("shard-{i}.wal")), bytes).unwrap();
            for op in &log.ops[..n] {
                model.handle(request(std::slice::from_ref(op)));
            }
            survivors += n as u64;
        }
        let at = format!("shard {shard}: {} bytes, {kept} kept", damaged.len());

        let engine = StoreEngine::open(dir, SHARDS, SyncMode::Virtual)
            .unwrap_or_else(|e| panic!("{at}: reopen failed: {e}"));
        assert_eq!(engine.recovery().torn_bytes, torn as u64, "{at}");
        assert_eq!(engine.recovery().records, survivors, "{at}");
        assert_eq!(contents(&engine), contents(&model), "{at}");

        // A write after recovery lands on the damaged shard, behind the cut.
        let key = (0..)
            .map(|i| format!("post:{{{i}}}"))
            .find(|k| engine.cluster().shard_for(k) == shard)
            .unwrap();
        for e in [&engine, &model] {
            e.handle(request(&[put(&key, "after")]));
        }
        engine.sync_dirty().unwrap();
        drop(engine);
        let again = StoreEngine::open(dir, SHARDS, SyncMode::Virtual).unwrap();
        assert_eq!(again.recovery().torn_bytes, 0, "{at}: second reopen");
        assert_eq!(again.recovery().records, survivors + 1, "{at}");
        assert_eq!(contents(&again), contents(&model), "{at}: second reopen");
    }
}

#[test]
fn every_cut_and_every_flipped_byte_recovers_the_records_before_it() {
    let root = std::env::temp_dir().join(format!("store-crash-{}", std::process::id()));
    let written = root.join("written");
    let _ = std::fs::remove_dir_all(&root);
    let engine = StoreEngine::open(&written, SHARDS, SyncMode::Virtual).unwrap();
    for ops in script() {
        engine.handle(request(&ops));
    }
    engine.sync_dirty().unwrap();
    drop(engine);

    let logs = expected_logs();
    for (shard, log) in logs.iter().enumerate() {
        assert!(
            log.ops.len() >= 5,
            "the script gives shard {shard} few records"
        );
        let on_disk = std::fs::read(written.join(format!("shard-{shard}.wal"))).unwrap();
        assert!(
            on_disk == log.bytes,
            "shard {shard}'s log is not one record per op, in order"
        );
    }
    let crash = Crash {
        dir: root.join("reopened"),
        manifest: std::fs::read(written.join("wal.manifest")).unwrap(),
        logs,
    };
    for (shard, log) in crash.logs.iter().enumerate() {
        for at in 0..=log.bytes.len() {
            let (kept, start) = log.before(at);
            crash.check(shard, &log.bytes[..at], kept, at - start);
        }
        for at in 0..log.bytes.len() {
            let mut flipped = log.bytes.clone();
            flipped[at] ^= 0xff;
            let (kept, start) = log.before(at);
            crash.check(shard, &flipped, kept, log.bytes.len() - start);
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}
