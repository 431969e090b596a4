//! The storage engine: a [`kvstore::Cluster`] fronted by per-shard WALs.
//!
//! The engine is transport-agnostic — the TCP server and the in-process
//! loopback transport both funnel decoded [`Request`]s through
//! [`StoreEngine::handle`], so the two paths cannot drift apart. Key
//! placement is exactly `kvstore`'s hash-tag routing: the engine holds a
//! zero-latency [`kvstore::Client`] and delegates reads/scans to it,
//! which keeps the ordered-scan and co-sharding contracts (and their
//! tests) shared with the in-process store.
//!
//! Durability discipline for mutations, per owning shard:
//!
//! 1. lock the shard's WAL handle,
//! 2. append the record (buffered),
//! 3. apply the mutation to the in-memory shard,
//! 4. unlock.
//!
//! Holding the WAL lock across the memory apply keeps log order and
//! memory order identical, so replay converges to the same state even
//! for racing writes to one key. The *ack* then waits for
//! [`StoreEngine::sync_dirty`], which the server calls once per drained
//! pipeline batch — group commit: one fsync amortized over every record
//! of the batch.

use bytes::Bytes;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex}; // lint: allow(L6: WAL handles are engine-internal; ordering is pinned by the log-then-apply discipline documented above)

use kvstore::{Client, Cluster, KvError};

use crate::proto::{Request, Response, StoreStats, WireError};
use crate::wal::{replay, SyncMode, WalOp, WalShard};

/// Manifest file recording the shard layout a WAL directory was written
/// with; reopening with a different count would scatter keys to the
/// wrong logs, so it is refused.
const MANIFEST: &str = "wal.manifest";

/// Errors opening or recovering an engine.
#[derive(Debug)]
pub enum EngineError {
    Io(std::io::Error),
    /// The WAL directory was written with a different shard count.
    ShardMismatch {
        on_disk: usize,
        requested: usize,
    },
    /// The manifest file exists but is not ours.
    BadManifest(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "wal io: {e}"),
            EngineError::ShardMismatch { on_disk, requested } => write!(
                f,
                "wal directory has {on_disk} shards, engine wants {requested}"
            ),
            EngineError::BadManifest(m) => write!(f, "bad wal manifest: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

/// Summary of a crash-recovery replay, one entry per shard.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records replayed into memory.
    pub records: u64,
    /// Torn tail bytes discarded across all shards (unacknowledged
    /// writes that died with the previous process).
    pub torn_bytes: u64,
}

/// A sharded store engine, optionally durable.
pub struct StoreEngine {
    client: Client,
    wal: Option<Vec<Mutex<WalShard>>>, // lint: allow(L6: per-shard WAL handle; lock covers append+apply so log order == memory order)
    recovery: RecoveryReport,
}

impl fmt::Debug for StoreEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreEngine")
            .field("shards", &self.shard_count())
            .field("durable", &self.wal.is_some())
            .finish()
    }
}

impl StoreEngine {
    /// A purely in-memory engine (no WAL) — what the deterministic
    /// campaign loopback path uses.
    pub fn in_memory(shards: usize) -> StoreEngine {
        StoreEngine {
            client: Client::new(Cluster::new(shards)),
            wal: None,
            recovery: RecoveryReport::default(),
        }
    }

    /// Opens a durable engine over `dir`, creating the WAL layout on
    /// first use and replaying existing logs into memory otherwise.
    pub fn open(dir: &Path, shards: usize, mode: SyncMode) -> Result<StoreEngine, EngineError> {
        std::fs::create_dir_all(dir)?;
        let shards = shards.max(1);
        check_or_write_manifest(dir, shards)?;
        let cluster = Cluster::new(shards);
        let client = Client::new(Arc::clone(&cluster));
        let mut handles = Vec::with_capacity(shards);
        let mut recovery = RecoveryReport::default();
        for i in 0..shards {
            let path = shard_wal_path(dir, i);
            let rep = replay(&path)?;
            recovery.torn_bytes += rep.torn_bytes;
            let shard = cluster.shard(i);
            for op in &rep.ops {
                recovery.records += 1;
                match op {
                    WalOp::Put { key, value } => {
                        shard.set(key, value.clone());
                    }
                    WalOp::Del { key } => {
                        shard.del(key);
                    }
                    // A rename whose source vanished can only mean the
                    // log predates a crash bug; tolerate it the way
                    // taridx tolerates stale sidecar entries.
                    WalOp::Rename { from, to } => {
                        let _ = shard.rename(from, to);
                    }
                }
            }
            let mut wal = WalShard::open_append(&path, mode, rep.clean_bytes)?;
            wal.records = rep.ops.len() as u64;
            handles.push(Mutex::new(wal)); // lint: allow(L6: constructing the per-shard WAL handle declared above; same lock discipline)
        }
        Ok(StoreEngine {
            client,
            wal: Some(handles),
            recovery,
        })
    }

    /// What recovery found when this engine was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The cluster behind the engine.
    pub fn cluster(&self) -> &Arc<Cluster> {
        self.client.cluster()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.cluster().shard_count()
    }

    /// Durability barrier: syncs every shard WAL that has unsynced
    /// records. Returns the number of shards that needed a sync.
    pub fn sync_dirty(&self) -> std::io::Result<u64> {
        let Some(wal) = &self.wal else { return Ok(0) };
        let mut synced = 0;
        for shard in wal {
            if shard.lock().expect("wal lock poisoned").sync()? {
                synced += 1;
            }
        }
        Ok(synced)
    }

    /// Logs `op` to the shard owning `routing_key` and applies `apply`
    /// under the same WAL lock (see the module docs for why).
    fn logged<T>(
        &self,
        routing_key: &str,
        op: WalOp,
        apply: impl FnOnce() -> T,
    ) -> Result<T, Response> {
        match &self.wal {
            None => Ok(apply()),
            Some(wal) => {
                let idx = self.cluster().shard_for(routing_key);
                let mut guard = wal[idx].lock().expect("wal lock poisoned");
                if let Err(e) = guard.append(&op) {
                    return Err(Response::Err(WireError::Server(format!("wal append: {e}"))));
                }
                Ok(apply())
            }
        }
    }

    /// Executes one request. Infallible at this layer: every failure
    /// mode is a typed [`Response`].
    pub fn handle(&self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Unit,
            Request::Put { key, value } => {
                let cluster = self.cluster();
                let shard = cluster.shard(cluster.shard_for(&key));
                let op = WalOp::Put {
                    key: key.clone(),
                    value: value.clone(),
                };
                match self.logged(&key, op, || shard.set(&key, value)) {
                    Ok(was_new) => Response::Bool(was_new),
                    Err(resp) => resp,
                }
            }
            Request::Get { key } => Response::Value(self.client.get(&key)),
            Request::Del { key } => {
                let cluster = self.cluster();
                let shard = cluster.shard(cluster.shard_for(&key));
                let op = WalOp::Del { key: key.clone() };
                match self.logged(&key, op, || shard.del(&key)) {
                    Ok(existed) => Response::Bool(existed),
                    Err(resp) => resp,
                }
            }
            Request::Exists { key } => Response::Bool(self.client.exists(&key)),
            Request::Rename { from, to } => {
                let cluster = self.cluster();
                let (sf, st) = (cluster.shard_for(&from), cluster.shard_for(&to));
                if sf != st {
                    return Response::Err(WireError::CrossShardRename { from, to });
                }
                let shard = cluster.shard(sf);
                let op = WalOp::Rename {
                    from: from.clone(),
                    to: to.clone(),
                };
                match self.logged(&from, op, || shard.rename(&from, &to)) {
                    Ok(Ok(())) => Response::Unit,
                    Ok(Err(KvError::NoSuchKey(k))) => Response::Err(WireError::NoSuchKey(k)),
                    Ok(Err(KvError::CrossShardRename { from, to })) => {
                        Response::Err(WireError::CrossShardRename { from, to })
                    }
                    Err(resp) => resp,
                }
            }
            Request::Keys { pattern } => Response::KeyList(self.client.keys(&pattern)),
            Request::Scan {
                pattern,
                cursor,
                count,
            } => {
                let (keys, next) = self.client.scan(&pattern, cursor, count as usize);
                Response::ScanPage { keys, next }
            }
            Request::PutMany { pairs } => {
                // Group by owning shard so each shard's WAL is locked
                // once per batch, preserving log-order == memory-order
                // while amortizing the locking.
                let cluster = self.cluster();
                let mut by_shard: Vec<Vec<(String, Bytes)>> =
                    (0..cluster.shard_count()).map(|_| Vec::new()).collect();
                for (k, v) in pairs {
                    by_shard[cluster.shard_for(&k)].push((k, v));
                }
                let mut new_keys = 0u64;
                for (idx, batch) in by_shard.into_iter().enumerate() {
                    if batch.is_empty() {
                        continue;
                    }
                    let shard = cluster.shard(idx);
                    let mut guard = self
                        .wal
                        .as_ref()
                        .map(|wal| wal[idx].lock().expect("wal lock poisoned"));
                    for (k, v) in batch {
                        if let Some(g) = guard.as_mut() {
                            let op = WalOp::Put {
                                key: k.clone(),
                                value: v.clone(),
                            };
                            if let Err(e) = g.append(&op) {
                                return Response::Err(WireError::Server(format!(
                                    "wal append: {e}"
                                )));
                            }
                        }
                        if shard.set(&k, v) {
                            new_keys += 1;
                        }
                    }
                }
                Response::Count(new_keys)
            }
            Request::GetMany { keys } => Response::Values(self.client.mget(&keys)),
            Request::DelMany { keys } => {
                let cluster = self.cluster();
                let mut by_shard: Vec<Vec<String>> =
                    (0..cluster.shard_count()).map(|_| Vec::new()).collect();
                for k in keys {
                    by_shard[cluster.shard_for(&k)].push(k);
                }
                let mut deleted = 0u64;
                for (idx, batch) in by_shard.into_iter().enumerate() {
                    if batch.is_empty() {
                        continue;
                    }
                    let shard = cluster.shard(idx);
                    let mut guard = self
                        .wal
                        .as_ref()
                        .map(|wal| wal[idx].lock().expect("wal lock poisoned"));
                    for k in batch {
                        if let Some(g) = guard.as_mut() {
                            if let Err(e) = g.append(&WalOp::Del { key: k.clone() }) {
                                return Response::Err(WireError::Server(format!(
                                    "wal append: {e}"
                                )));
                            }
                        }
                        if shard.del(&k) {
                            deleted += 1;
                        }
                    }
                }
                Response::Count(deleted)
            }
            Request::Stats => {
                let cluster = self.cluster();
                let (mut records, mut syncs) = (0u64, 0u64);
                if let Some(wal) = &self.wal {
                    for shard in wal {
                        let g = shard.lock().expect("wal lock poisoned");
                        records += g.records;
                        syncs += g.syncs;
                    }
                }
                Response::Stats(StoreStats {
                    shards: cluster.shard_count() as u32,
                    keys: cluster.len() as u64,
                    memory_bytes: cluster.memory_bytes() as u64,
                    wal_records: records,
                    wal_syncs: syncs,
                })
            }
            Request::Sync => match self.sync_dirty() {
                Ok(_) => Response::Unit,
                Err(e) => Response::Err(WireError::Server(format!("sync: {e}"))),
            },
        }
    }
}

fn shard_wal_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i}.wal"))
}

fn check_or_write_manifest(dir: &Path, shards: usize) -> Result<(), EngineError> {
    let path = dir.join(MANIFEST);
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let mut lines = text.lines();
            if lines.next() != Some("storeserver-wal v1") {
                return Err(EngineError::BadManifest("unknown header".into()));
            }
            let on_disk: usize = lines
                .next()
                .and_then(|l| l.strip_prefix("shards "))
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| EngineError::BadManifest("missing shard count".into()))?;
            if on_disk != shards {
                return Err(EngineError::ShardMismatch {
                    on_disk,
                    requested: shards,
                });
            }
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            // Same atomic tmp+rename discipline as taridx sidecar saves.
            let tmp = dir.join(format!("{MANIFEST}.tmp"));
            std::fs::write(&tmp, format!("storeserver-wal v1\nshards {shards}\n"))?;
            std::fs::rename(&tmp, &path)?;
            Ok(())
        }
        Err(e) => Err(EngineError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("engine-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_memory_handles_the_full_op_set() {
        let e = StoreEngine::in_memory(8);
        assert_eq!(e.handle(Request::Ping), Response::Unit);
        assert_eq!(
            e.handle(Request::Put {
                key: "ns:{k}".into(),
                value: Bytes::from_static(b"v1")
            }),
            Response::Bool(true)
        );
        assert_eq!(
            e.handle(Request::Put {
                key: "ns:{k}".into(),
                value: Bytes::from_static(b"v2")
            }),
            Response::Bool(false)
        );
        assert_eq!(
            e.handle(Request::Get {
                key: "ns:{k}".into()
            }),
            Response::Value(Some(Bytes::from_static(b"v2")))
        );
        assert_eq!(
            e.handle(Request::Rename {
                from: "ns:{k}".into(),
                to: "done:{k}".into()
            }),
            Response::Unit
        );
        assert_eq!(
            e.handle(Request::Keys {
                pattern: "done:*".into()
            }),
            Response::KeyList(vec!["done:{k}".into()])
        );
        assert_eq!(
            e.handle(Request::Del {
                key: "done:{k}".into()
            }),
            Response::Bool(true)
        );
        assert_eq!(
            e.handle(Request::Get {
                key: "done:{k}".into()
            }),
            Response::Value(None)
        );
    }

    #[test]
    fn rename_errors_are_typed_not_panics() {
        let e = StoreEngine::in_memory(64);
        // Find two untagged keys on different shards.
        let from = "alpha".to_string();
        let to = (0..10_000)
            .map(|i| format!("beta-{i}"))
            .find(|k| e.cluster().shard_for(k) != e.cluster().shard_for(&from))
            .unwrap();
        assert!(matches!(
            e.handle(Request::Rename {
                from: from.clone(),
                to
            }),
            Response::Err(WireError::CrossShardRename { .. })
        ));
        assert!(matches!(
            e.handle(Request::Rename {
                from: "missing:{x}".into(),
                to: "other:{x}".into()
            }),
            Response::Err(WireError::NoSuchKey(_))
        ));
    }

    #[test]
    fn durable_engine_recovers_after_drop() {
        let dir = tmpdir("recover");
        {
            let e = StoreEngine::open(&dir, 4, SyncMode::Virtual).unwrap();
            for i in 0..100 {
                e.handle(Request::Put {
                    key: format!("ns:{{k{i}}}"),
                    value: Bytes::from(vec![i as u8; 16]),
                });
            }
            e.handle(Request::Rename {
                from: "ns:{k0}".into(),
                to: "done:{k0}".into(),
            });
            e.handle(Request::Del {
                key: "ns:{k1}".into(),
            });
            e.sync_dirty().unwrap();
        }
        let e = StoreEngine::open(&dir, 4, SyncMode::Virtual).unwrap();
        assert_eq!(e.recovery().records, 102);
        assert_eq!(e.recovery().torn_bytes, 0);
        assert_eq!(e.cluster().len(), 99);
        assert_eq!(
            e.handle(Request::Get {
                key: "done:{k0}".into()
            }),
            Response::Value(Some(Bytes::from(vec![0u8; 16])))
        );
        assert_eq!(
            e.handle(Request::Get {
                key: "ns:{k1}".into()
            }),
            Response::Value(None)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_mismatch_is_refused() {
        let dir = tmpdir("mismatch");
        drop(StoreEngine::open(&dir, 4, SyncMode::Virtual).unwrap());
        assert!(matches!(
            StoreEngine::open(&dir, 8, SyncMode::Virtual),
            Err(EngineError::ShardMismatch {
                on_disk: 4,
                requested: 8
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_ops_group_commit_per_shard() {
        let dir = tmpdir("batch");
        let e = StoreEngine::open(&dir, 4, SyncMode::Virtual).unwrap();
        let pairs: Vec<(String, Bytes)> = (0..50)
            .map(|i| (format!("k{i}"), Bytes::from(vec![i as u8])))
            .collect();
        assert_eq!(
            e.handle(Request::PutMany {
                pairs: pairs.clone()
            }),
            Response::Count(50)
        );
        // One barrier syncs at most once per dirty shard, regardless of
        // how many records the batch appended.
        let synced = e.sync_dirty().unwrap();
        assert!((1..=4).contains(&synced), "synced {synced} shards");
        assert_eq!(e.sync_dirty().unwrap(), 0, "second barrier is a no-op");
        let keys: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(e.handle(Request::DelMany { keys }), Response::Count(50));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
