//! The storage engine: a [`kvstore::Cluster`] fronted by per-shard WALs.
//!
//! The TCP server and the in-process loopback transport both hand each
//! request frame to [`StoreEngine::serve`], which reads the request where
//! it lies and answers from the shard straight into the caller's buffer:
//! a listing writes each key, and a multi-get each value, as it is found;
//! every other reply is one [`ResponseView`]. Key placement is exactly
//! `kvstore`'s hash-tag routing, through a zero-latency
//! [`kvstore::Client`], so the ordered-scan and co-sharding contracts
//! (and their tests) are shared with the in-process store.
//! [`StoreEngine::handle`] is an owned adapter over `serve`.
//!
//! Every mutation becomes [`WalOpRef`]s, borrowed from the request, handed
//! to one `commit`, which per owning shard locks the WAL, appends each
//! op's record and applies it to memory in request order, then unlocks.
//! Each op is one record, even when it finds no key, so the log counts
//! the mutations the engine acknowledged. Memory changes only through
//! `apply`, live and on replay alike, and holding the WAL lock across the
//! apply keeps log order and memory order identical, even for racing
//! writes to one key. The *ack* waits for [`StoreEngine::sync_dirty`],
//! which the server calls once per drained pipeline batch: one fsync
//! amortized over every record of the batch (group commit).

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex}; // lint: allow(L6: WAL handles are engine-internal; ordering is pinned by the log-then-apply discipline documented above)

use kvstore::{Client, Cluster, Shard};

use bytes::Bytes;

use crate::proto::{
    Frame, List, Request, RequestView, Response, ResponseView, StoreStats, WireError,
};
use crate::wal::{replay_each, SyncMode, WalOpRef, WalShard};

/// Manifest file recording the shard layout a WAL directory was written
/// with; reopening with a different count would scatter keys to the
/// wrong logs, so it is refused.
const MANIFEST: &str = "wal.manifest";

/// Errors opening or recovering an engine.
#[derive(Debug)]
pub enum EngineError {
    Io(io::Error),
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

impl From<io::Error> for EngineError {
    fn from(e: io::Error) -> Self {
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
            let mut records = 0;
            let (clean_bytes, torn_bytes) = replay_each(&path, |op| {
                apply(cluster.shard(i), op);
                records += 1;
            })?;
            recovery.torn_bytes += torn_bytes;
            recovery.records += records;
            let mut wal = WalShard::open_append(&path, mode, clean_bytes)?;
            wal.records = records;
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
    pub fn sync_dirty(&self) -> io::Result<u64> {
        let Some(wal) = &self.wal else { return Ok(0) };
        let mut synced = 0;
        for shard in wal {
            if shard.lock().expect("wal lock poisoned").sync()? {
                synced += 1;
            }
        }
        Ok(synced)
    }

    /// Appends `ops` to their owning shards' logs and applies them to
    /// memory, and returns how many ops `apply` counted. Each shard's WAL
    /// lock is taken once and held across the append and the apply of
    /// all of that shard's ops, in request order. A failed append is a
    /// server error; the ops before it stay logged and applied. One op is
    /// placed where it stands; only a batch is gathered and sorted by
    /// shard.
    fn commit<'a>(
        &self,
        ops: impl IntoIterator<Item = WalOpRef<'a>, IntoIter: ExactSizeIterator>,
    ) -> Result<u64, WireError> {
        let cluster = self.cluster();
        let mut placed = ops
            .into_iter()
            .map(|op| (cluster.shard_for(op.routing_key()), op));
        let (one, mut many);
        let placed: &[(usize, WalOpRef)] = if placed.len() == 1 {
            one = placed.next();
            one.as_slice()
        } else {
            many = placed.collect::<Vec<_>>();
            // Stable: each shard's ops keep their request order.
            many.sort_by_key(|&(idx, _)| idx);
            &many
        };
        let mut counted = 0;
        for run in placed.chunk_by(|a, b| a.0 == b.0) {
            let idx = run[0].0;
            let mut wal = self
                .wal
                .as_ref()
                .map(|wal| wal[idx].lock().expect("wal lock poisoned"));
            for &(_, op) in run {
                if let Some(wal) = wal.as_mut() {
                    if let Err(e) = wal.append(op) {
                        return Err(WireError::Server(format!("wal append: {e}")));
                    }
                }
                counted += u64::from(apply(cluster.shard(idx), op));
            }
        }
        Ok(counted)
    }

    /// Serves one request frame: reads the request where it lies, runs
    /// it, and appends the reply frame under the same `seq` to `out`.
    /// The TCP server and the loopback transport both call this, and
    /// nothing else. A malformed body is answered with a bad-request
    /// error, a reply too large for one frame with a server error.
    pub fn serve(&self, frame: Frame<'_>, out: &mut Vec<u8>) {
        let done = match RequestView::parse(frame.tag, frame.body) {
            Ok(req) => self.execute(req, frame.seq, out),
            Err(e) => ResponseView::Err(WireError::BadRequest(&e)).encode(frame.seq, out),
        };
        if let Err(e) = done {
            ResponseView::Err(WireError::Server(&e.to_string()))
                .encode(frame.seq, out)
                .expect("an error reply fits in a frame");
        }
    }

    /// Serves one owned request and decodes the reply frame: an adapter
    /// over [`StoreEngine::serve`] for the benchmark harness and tests,
    /// which the deletion half of ROADMAP item 26 removes.
    pub fn handle(&self, req: Request) -> Response {
        let (request, mut out) = (req.encode_frame(0), Vec::new());
        let whole = |buf| Frame::split(buf).ok().flatten().expect("one whole frame").0;
        self.serve(whole(&request), &mut out);
        let reply = whole(&out);
        Response::decode(reply.tag, reply.body).expect("a reply frame parses")
    }

    /// Executes one request and appends its reply frame to `out`: a
    /// listing or a multi-get writes each key or value as it is found.
    /// Only a reply too large for one frame is an error.
    fn execute(&self, req: RequestView<'_>, seq: u64, out: &mut Vec<u8>) -> io::Result<()> {
        let cluster = self.cluster();
        let (value, page);
        let reply = match req {
            RequestView::Ping => Ok(ResponseView::Unit),
            RequestView::Put { key, value } => self
                .commit([WalOpRef::Put { key, value }])
                .map(|new| ResponseView::Bool(new == 1)),
            RequestView::Get { key } => {
                value = self.client.get(key);
                Ok(ResponseView::Value(value.as_deref()))
            }
            RequestView::Del { key } => self
                .commit([WalOpRef::Del { key }])
                .map(|existed| ResponseView::Bool(existed == 1)),
            RequestView::Exists { key } => Ok(ResponseView::Bool(self.client.exists(key))),
            RequestView::Rename { from, to } => {
                match cluster.shard_for(from) == cluster.shard_for(to) {
                    false => Ok(ResponseView::Err(WireError::CrossShardRename { from, to })),
                    true => self
                        .commit([WalOpRef::Rename { from, to }])
                        .map(|found| match found {
                            1 => ResponseView::Unit,
                            _ => ResponseView::Err(WireError::NoSuchKey(from)),
                        }),
                }
            }
            RequestView::Keys { pattern } => {
                return ResponseView::encode_key_list(seq, out, |put| {
                    for i in 0..cluster.shard_count() {
                        cluster.shard(i).visit_keys(pattern, &mut *put);
                    }
                })
            }
            RequestView::Scan {
                pattern,
                cursor,
                count,
            } => {
                page = self.client.scan(pattern, cursor, count as usize);
                Ok(ResponseView::ScanPage {
                    keys: List::Items(&page.0),
                    next: page.1,
                })
            }
            RequestView::PutMany { pairs } => self
                .commit(
                    pairs
                        .iter()
                        .map(|(key, value)| WalOpRef::Put { key, value }),
                )
                .map(ResponseView::Count),
            RequestView::GetMany { keys } => {
                return ResponseView::encode_values(seq, out, |put| {
                    keys.iter()
                        .for_each(|key| put(self.client.get(key).as_deref()))
                })
            }
            RequestView::DelMany { keys } => self
                .commit(keys.iter().map(|key| WalOpRef::Del { key }))
                .map(ResponseView::Count),
            RequestView::Stats => {
                let (mut records, mut syncs) = (0u64, 0u64);
                if let Some(wal) = &self.wal {
                    for shard in wal {
                        let g = shard.lock().expect("wal lock poisoned");
                        records += g.records;
                        syncs += g.syncs;
                    }
                }
                Ok(ResponseView::Stats(StoreStats {
                    shards: cluster.shard_count() as u32,
                    keys: cluster.len() as u64,
                    memory_bytes: cluster.memory_bytes() as u64,
                    wal_records: records,
                    wal_syncs: syncs,
                }))
            }
            RequestView::Sync => self
                .sync_dirty()
                .map(|_| ResponseView::Unit)
                .map_err(|e| WireError::Server(format!("sync: {e}"))),
        };
        match reply {
            Ok(reply) => reply.encode(seq, out),
            Err(e) => ResponseView::Err(e.map(String::as_str)).encode(seq, out),
        }
    }
}

/// Changes memory for one op, live or replayed: the only writer of a
/// shard. Returns whether the op found what its response counts: a put
/// made a new key, a del or rename found its key. A rename whose source
/// is missing is logged like any other op and changes nothing here.
fn apply(shard: &Shard, op: WalOpRef<'_>) -> bool {
    match op {
        WalOpRef::Put { key, value } => shard.set(key, Bytes::copy_from_slice(value)),
        WalOpRef::Del { key } => shard.del(key),
        WalOpRef::Rename { from, to } => shard.rename(from, to).is_ok(),
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
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
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

    /// The reply frames `out` holds, each with its sequence id.
    fn replies(out: &[u8]) -> Vec<(u64, Response)> {
        let mut rest = out;
        let mut got = Vec::new();
        while let Some((frame, after)) = Frame::split(rest).unwrap() {
            got.push((frame.seq, Response::decode(frame.tag, frame.body).unwrap()));
            rest = after;
        }
        assert!(rest.is_empty(), "a torn reply");
        got
    }

    #[test]
    fn serve_answers_a_malformed_frame_under_its_seq() {
        let e = StoreEngine::in_memory(4);
        let mut out = Vec::new();
        // An unknown opcode, then a GET whose body stops short of its key.
        e.serve(
            Frame {
                seq: 11,
                tag: 200,
                body: &[],
            },
            &mut out,
        );
        let get = Request::Get { key: "key".into() }.encode_frame(12);
        let (frame, _) = Frame::split(&get).unwrap().unwrap();
        let short = &frame.body[..frame.body.len() - 1];
        e.serve(
            Frame {
                body: short,
                ..frame
            },
            &mut out,
        );
        let got = replies(&out);
        assert_eq!(got.len(), 2);
        for ((seq, resp), want) in got.into_iter().zip([11, 12]) {
            assert_eq!(seq, want);
            assert!(
                matches!(resp, Response::Err(WireError::BadRequest(_))),
                "{resp:?}"
            );
        }
        assert_eq!(e.cluster().len(), 0, "a refused frame changes nothing");
    }

    #[test]
    fn serve_runs_frames_in_order_and_appends_each_reply() {
        let e = StoreEngine::in_memory(4);
        let v = |b: &'static [u8]| Bytes::from_static(b);
        let reqs = [
            Request::Put {
                key: "a:{t}".into(),
                value: v(b"one"),
            },
            Request::Put {
                key: "a:{t}".into(),
                value: v(b"two"),
            },
            Request::Rename {
                from: "a:{t}".into(),
                to: "b:{t}".into(),
            },
            Request::Get {
                key: "b:{t}".into(),
            },
            Request::Exists {
                key: "a:{t}".into(),
            },
            Request::Del {
                key: "b:{t}".into(),
            },
        ];
        let mut out = b"queued".to_vec();
        for (seq, req) in (100..).zip(&reqs) {
            let frame = req.encode_frame(seq);
            e.serve(Frame::split(&frame).unwrap().unwrap().0, &mut out);
        }
        assert!(out.starts_with(b"queued"));
        assert_eq!(
            replies(&out[6..]),
            vec![
                (100, Response::Bool(true)),
                (101, Response::Bool(false)),
                (102, Response::Unit),
                (103, Response::Value(Some(v(b"two")))),
                (104, Response::Bool(false)),
                (105, Response::Bool(true)),
            ]
        );
    }

    #[test]
    fn a_reply_past_max_frame_is_a_server_error() {
        let e = StoreEngine::in_memory(4);
        let big = Bytes::from(vec![7u8; 1 << 20]);
        e.handle(Request::Put {
            key: "big".into(),
            value: big,
        });
        // 65 copies of a 1 MiB value: one more than a frame holds.
        let get = Request::GetMany {
            keys: vec!["big".into(); 65],
        }
        .encode_frame(5);
        let mut out = b"queued".to_vec();
        e.serve(Frame::split(&get).unwrap().unwrap().0, &mut out);
        assert!(out.starts_with(b"queued"));
        let got = replies(&out[6..]);
        assert!(
            matches!(&got[..], [(5, Response::Err(WireError::Server(m)))] if m.contains("MAX_FRAME")),
            "{got:?}"
        );
    }

    /// The reply path as it stood before `serve` wrote into its buffer:
    /// an owned [`Response`] per request (`commit` answering through a
    /// `respond` closure, a listing merged from each shard's key list),
    /// then `encode_frame`. `serve` must reply with exactly its bytes.
    fn reference(e: &StoreEngine, frame: Frame<'_>) -> Vec<u8> {
        fn commit(done: Result<u64, WireError>, respond: impl FnOnce(u64) -> Response) -> Response {
            done.map_or_else(Response::Err, respond)
        }
        let Ok(req) = RequestView::parse(frame.tag, frame.body) else {
            let err = RequestView::parse(frame.tag, frame.body).unwrap_err();
            return Response::Err(WireError::BadRequest(err)).encode_frame(frame.seq);
        };
        let resp = match req {
            RequestView::Ping => Response::Unit,
            RequestView::Put { key, value } => {
                commit(e.commit([WalOpRef::Put { key, value }]), |new| {
                    Response::Bool(new == 1)
                })
            }
            RequestView::Get { key } => Response::Value(e.client.get(key)),
            RequestView::Del { key } => commit(e.commit([WalOpRef::Del { key }]), |existed| {
                Response::Bool(existed == 1)
            }),
            RequestView::Exists { key } => Response::Bool(e.client.exists(key)),
            RequestView::Rename { from, to } => {
                let cluster = e.cluster();
                if cluster.shard_for(from) != cluster.shard_for(to) {
                    Response::Err(WireError::CrossShardRename {
                        from: from.into(),
                        to: to.into(),
                    })
                } else {
                    commit(
                        e.commit([WalOpRef::Rename { from, to }]),
                        |found| match found {
                            1 => Response::Unit,
                            _ => Response::Err(WireError::NoSuchKey(from.into())),
                        },
                    )
                }
            }
            RequestView::Keys { pattern } => {
                let cluster = e.cluster();
                let mut keys = Vec::new();
                for i in 0..cluster.shard_count() {
                    keys.append(&mut cluster.shard(i).keys(pattern));
                }
                Response::KeyList(keys)
            }
            RequestView::Scan {
                pattern,
                cursor,
                count,
            } => {
                let (keys, next) = e.client.scan(pattern, cursor, count as usize);
                Response::ScanPage { keys, next }
            }
            RequestView::PutMany { pairs } => commit(
                e.commit(
                    pairs
                        .iter()
                        .map(|(key, value)| WalOpRef::Put { key, value }),
                ),
                Response::Count,
            ),
            RequestView::GetMany { keys } => {
                Response::Values(keys.iter().map(|key| e.client.get(key)).collect())
            }
            RequestView::DelMany { keys } => commit(
                e.commit(keys.iter().map(|key| WalOpRef::Del { key })),
                Response::Count,
            ),
            RequestView::Stats => {
                let cluster = e.cluster();
                let (mut records, mut syncs) = (0u64, 0u64);
                if let Some(wal) = &e.wal {
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
            RequestView::Sync => match e.sync_dirty() {
                Ok(_) => Response::Unit,
                Err(err) => Response::Err(WireError::Server(format!("sync: {err}"))),
            },
        };
        resp.encode_frame(frame.seq)
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Keys in four namespaces, tagged or not, 1 to 36 bytes long:
        /// on both sides of the shard's 30-byte inline bound and at it.
        fn arb_key() -> impl Strategy<Value = String> {
            (0usize..4, 0u8..6, any::<bool>(), any::<bool>()).prop_map(|(ns, i, long, tagged)| {
                let ns = ["a", "ab", "rdf-new", "rdf-done"][ns];
                let name = match long {
                    true => format!("{}{i}", "x".repeat(24)),
                    false => i.to_string(),
                };
                match tagged {
                    true => format!("{ns}:{{{name}}}"),
                    false => format!("{ns}:{name}"),
                }
            })
        }

        /// Patterns matching every key, none, one namespace, or one key.
        fn arb_pattern() -> impl Strategy<Value = String> {
            prop_oneof![
                (0usize..9).prop_map(|i| {
                    let fixed = [
                        "*",
                        "nothing*",
                        "a:*",
                        "ab:*",
                        "a*",
                        "rdf-*",
                        "rdf-new:{*",
                        "??:*",
                        "a:{x*",
                    ];
                    fixed[i].to_string()
                }),
                arb_key(),
            ]
        }

        fn arb_value() -> impl Strategy<Value = Bytes> {
            prop::collection::vec(any::<u8>(), 0..40).prop_map(Bytes::from)
        }

        fn arb_request() -> impl Strategy<Value = Request> {
            let keys = |n| prop::collection::vec(arb_key(), 0..n);
            prop_oneof![
                Just(Request::Ping),
                (arb_key(), arb_value()).prop_map(|(key, value)| Request::Put { key, value }),
                arb_key().prop_map(|key| Request::Get { key }),
                arb_key().prop_map(|key| Request::Del { key }),
                arb_key().prop_map(|key| Request::Exists { key }),
                (arb_key(), arb_key()).prop_map(|(from, to)| Request::Rename { from, to }),
                arb_pattern().prop_map(|pattern| Request::Keys { pattern }),
                (arb_pattern(), 0u64..3, 0u64..4, 1u32..5).prop_map(|(pattern, s, c, count)| {
                    Request::Scan {
                        pattern,
                        cursor: (s << 32) | c,
                        count,
                    }
                }),
                prop::collection::vec((arb_key(), arb_value()), 0..5)
                    .prop_map(|pairs| Request::PutMany { pairs }),
                // A repeated key, when asked for, repeats the first.
                (keys(6), any::<bool>()).prop_map(|(mut keys, repeat)| {
                    if let Some(first) = keys.first().filter(|_| repeat).cloned() {
                        keys.push(first);
                    }
                    Request::GetMany { keys }
                }),
                keys(4).prop_map(|keys| Request::DelMany { keys }),
                Just(Request::Stats),
                Just(Request::Sync),
            ]
        }

        /// A request frame, whole or with a malformed body: cut short,
        /// with a trailing byte, or under an unknown opcode.
        fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
            (arb_request(), 0u8..10).prop_map(|(req, damage)| {
                let mut frame = req.encode_frame(0);
                match damage.saturating_sub(6) {
                    1 if frame.len() > 13 => {
                        frame.pop();
                    }
                    2 | 1 => frame.push(0),
                    3 => frame[12] = 200,
                    _ => return frame,
                }
                let len = (frame.len() - 4) as u32;
                frame[..4].copy_from_slice(&len.to_le_bytes());
                frame
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Two engines fed the same frames: one answers through
            /// `serve`, the other through [`reference`]. Every reply frame
            /// is byte-equal.
            fn serve_replies_with_the_reference_bytes(
                shards in 1usize..6,
                store in prop::collection::vec((arb_key(), arb_value()), 0..30),
                frames in prop::collection::vec(arb_frame(), 1..40),
            ) {
                let (served, referred) = (StoreEngine::in_memory(shards), StoreEngine::in_memory(shards));
                for (key, value) in store {
                    let put = Request::Put { key, value };
                    served.handle(put.clone());
                    referred.handle(put);
                }
                let all = Request::Keys { pattern: "*".into() }.encode_frame(0);
                for (seq, mut frame) in (1u64..).zip(frames.into_iter().chain([all])) {
                    frame[4..12].copy_from_slice(&seq.to_le_bytes());
                    let (frame, _) = Frame::split(&frame).unwrap().unwrap();
                    let mut out = Vec::new();
                    served.serve(frame, &mut out);
                    prop_assert_eq!(
                        &out,
                        &reference(&referred, frame),
                        "{:?}",
                        RequestView::parse(frame.tag, frame.body)
                    );
                }
            }
        }
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
