//! Layer drives for the service path: `datastore`, `kvstore` and
//! `storeserver` (codec, engine dispatch, WAL, transports). Same rules
//! as [`super::batch`]: seeded inputs, the layer's public functions
//! only, nanosecond calls timed in batches.

use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;
use cg::analysis::CgFrame;
use datastore::{DataStore, KvDataStore, RemoteDataStore};
use kvstore::{Client, Cluster};
use storeserver::proto::read_frame;
use storeserver::wal::{self, WalShard};
use storeserver::{Request, Response, StoreClient, StoreEngine, StoreServer, SyncMode, WalOp};

use super::per_call_ns;
use crate::workloads::Layers;
use crate::{clock, gen, stats};

const SHARDS: usize = 20;
const BATCH: usize = 256;

/// One CG→continuum feedback round as the WM issues it — write the
/// analysed frames, list the namespace, read them back in one batch,
/// tag them processed, and delete them — returning the seconds per
/// store operation.
fn feedback_round(store: &mut dyn DataStore, frames: &[CgFrame]) -> f64 {
    let (new, done) = (mummi_core::ns::RDF_NEW, mummi_core::ns::RDF_DONE);
    let payloads: Vec<Vec<u8>> = frames.iter().map(CgFrame::encode).collect();
    let mut ops = 0usize;
    let ((), s) = clock::time(|| {
        for (f, bytes) in frames.iter().zip(&payloads) {
            store.write(new, &f.id, bytes).expect("write");
        }
        let keys = store.list(new).expect("list");
        assert_eq!(keys.len(), frames.len(), "list lost frames");
        let values = store.read_many(new, &keys).expect("read_many");
        assert!(values
            .iter()
            .zip(&keys)
            .all(|(v, k)| CgFrame::decode(k, v).is_ok()));
        store.move_ns_many(&keys, new, done).expect("move_ns_many");
        for k in &keys {
            assert!(store.delete(done, k).expect("delete"));
        }
        ops = frames.len() * 2 + 3;
    });
    s / ops as f64
}

/// `datastore`: the same feedback op stream against the in-process
/// backend and against the store tier's loopback transport.
pub fn datastore() -> Layers {
    let frames: Vec<CgFrame> = (0..500)
        .map(|i| CgFrame {
            id: format!("sim{}:f{i}", i % 360),
            time: i as f64,
            encoding: [0.1, 0.5, 0.9],
            rdfs: vec![vec![1.5; 64]; 4],
        })
        .collect();
    let (mut kv, mut remote) = (Vec::new(), Vec::new());
    let mut kv_store = KvDataStore::new(SHARDS);
    let mut remote_store = RemoteDataStore::loopback(SHARDS);
    for _ in 0..20 {
        kv.push(feedback_round(&mut kv_store, &frames) * 1e9);
        remote.push(feedback_round(&mut remote_store, &frames) * 1e9);
    }
    let (kv, remote) = (stats::median(&kv), stats::median(&remote));
    vec![
        ("datastore.kv_op_ns".into(), kv),
        ("datastore.remote_op_ns".into(), remote),
        ("datastore.loopback_over_kv_x".into(), remote / kv),
    ]
}

/// `kvstore`: the 20-shard cluster directly, 17 KiB values.
pub fn kvstore(seed: u64) -> Layers {
    const KEYS: usize = 8_192;
    let filler = gen::filler(seed);
    let client = Client::new(Cluster::new(SHARDS));
    let keys: Vec<String> = (0..KEYS).map(|i| gen::store_key("new", 0, i)).collect();
    let done: Vec<String> = (0..KEYS).map(|i| gen::store_key("done", 0, i)).collect();
    let (mut set, mut get, mut rename, mut scan) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (chunk, ids) in keys
        .chunks(BATCH)
        .zip((0..KEYS).collect::<Vec<_>>().chunks(BATCH))
    {
        let values: Vec<Bytes> = ids.iter().map(|&i| gen::store_value(&filler, i)).collect();
        let ((), s) = clock::time(|| {
            for (k, v) in chunk.iter().zip(values) {
                client.set(k, v);
            }
        });
        set.push((s, chunk.len()));
    }
    for chunk in keys.chunks(BATCH) {
        let (hits, s) = clock::time(|| chunk.iter().filter(|k| client.get(k).is_some()).count());
        assert_eq!(hits, chunk.len(), "kvstore lost keys");
        get.push((s, chunk.len()));
    }
    for _ in 0..5 {
        let (found, s) = clock::time(|| client.keys("rdf:new:c0:*").len());
        assert_eq!(found, KEYS);
        scan.push(s * 1e6 / (KEYS as f64 / 1_000.0));
    }
    for (from, to) in keys.chunks(BATCH).zip(done.chunks(BATCH)) {
        let ((), s) = clock::time(|| {
            for (f, t) in from.iter().zip(to) {
                client.rename(f, t).expect("same-shard rename");
            }
        });
        rename.push((s, from.len()));
    }
    vec![
        ("kvstore.set_ns".into(), per_call_ns(&set)),
        ("kvstore.get_ns".into(), per_call_ns(&get)),
        ("kvstore.keys_scan_us_per_1k".into(), stats::median(&scan)),
        ("kvstore.rename_ns".into(), per_call_ns(&rename)),
    ]
}

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

/// `storeserver` codec, in-memory dispatch and transports: frame
/// encode/decode on a 17 KiB put and a 256-key get_many (request and
/// reply), `StoreEngine::handle` on an in-memory engine, and `ping`
/// over TCP and over the loopback transport.
pub fn storeserver_codec(seed: u64) -> Layers {
    let filler = gen::filler(seed);
    let put = Request::Put {
        key: gen::store_key("new", 0, 1),
        value: gen::store_value(&filler, 1),
    };
    let get_many = Request::GetMany {
        keys: (0..BATCH).map(|i| gen::store_key("new", 0, i)).collect(),
    };
    let values = Response::Values(
        (0..BATCH)
            .map(|i| Some(gen::store_value(&filler, i)))
            .collect(),
    );

    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for round in 0..220 {
        let (frames, s) = clock::time(|| {
            [
                put.encode_frame(1),
                get_many.encode_frame(2),
                values.encode_frame(2),
            ]
        });
        let bytes: usize = frames.iter().map(Vec::len).sum();
        // The first rounds pay for first-touch allocation, not the codec.
        if round < 20 {
            continue;
        }
        enc.push(mb_per_s(bytes, s));
        let (ok, s) = clock::time(|| {
            let mut ok = true;
            for (i, frame) in frames.iter().enumerate() {
                let (_, tag, body) = read_frame(&mut &frame[..])
                    .expect("own frame")
                    .expect("one frame");
                ok &= if i < 2 {
                    Request::decode(tag, &body).is_ok()
                } else {
                    Response::decode(tag, &body).is_ok()
                };
            }
            ok
        });
        assert!(ok, "a frame the codec just wrote did not decode");
        dec.push(mb_per_s(bytes, s));
    }

    let engine = Arc::new(StoreEngine::in_memory(SHARDS));
    let handle_mem = handle_puts(&engine, &filler);

    let mut loopback = StoreClient::loopback(Arc::clone(&engine));
    let server = StoreServer::start(engine, "127.0.0.1:0").expect("bind loopback");
    let mut tcp = StoreClient::connect(server.addr()).expect("connect");
    let ping = |c: &mut StoreClient| {
        let samples: Vec<f64> = (0..2_000)
            .map(|_| {
                let (r, s) = clock::time(|| c.ping());
                r.expect("ping");
                s * 1e6
            })
            .collect();
        stats::median(&samples)
    };
    let (tcp_us, loopback_us) = (ping(&mut tcp), ping(&mut loopback));
    drop(tcp);
    server.stop();
    vec![
        (
            "storeserver.proto_encode_mb_per_s".into(),
            stats::median(&enc),
        ),
        (
            "storeserver.proto_decode_mb_per_s".into(),
            stats::median(&dec),
        ),
        ("storeserver.handle_put_us_mem".into(), handle_mem),
        ("storeserver.tcp_ping_rtt_us".into(), tcp_us),
        ("storeserver.loopback_ping_us".into(), loopback_us),
    ]
}

/// Median microseconds of `StoreEngine::handle` on a 17 KiB put.
fn handle_puts(engine: &StoreEngine, filler: &[u8]) -> f64 {
    let mut samples = Vec::new();
    for chunk in (0..4_096usize).collect::<Vec<_>>().chunks(64) {
        let reqs: Vec<Request> = chunk
            .iter()
            .map(|&i| Request::Put {
                key: gen::store_key("handle", 0, i),
                value: gen::store_value(filler, i),
            })
            .collect();
        let (fresh, s) = clock::time(|| {
            reqs.into_iter()
                .filter(|r| engine.handle(r.clone()) == Response::Bool(true))
                .count()
        });
        assert_eq!(fresh, chunk.len(), "handle(put) did not report a new key");
        samples.push((s, chunk.len()));
    }
    per_call_ns(&samples) / 1e3
}

/// `storeserver` WAL: dispatch on a durable engine without fsync
/// (`SyncMode::Virtual`), raw `WalShard::append`/`sync` with
/// `SyncMode::Real`, and `wal::replay` of what was appended. `dir` is a
/// scratch directory inside the checkout; it is removed afterwards.
pub fn storeserver_wal(seed: u64, dir: &Path) -> Layers {
    let filler = gen::filler(seed);
    let _ = std::fs::remove_dir_all(dir);
    let engine = StoreEngine::open(&dir.join("virtual"), SHARDS, SyncMode::Virtual).expect("open");
    let handle_wal = handle_puts(&engine, &filler);
    drop(engine);

    std::fs::create_dir_all(dir).expect("scratch directory");
    let path = dir.join("shard.wal");
    let mut shard = WalShard::open_append(&path, SyncMode::Real, 0).expect("open wal");
    let (mut append, mut fsync) = (Vec::new(), Vec::new());
    let mut user_bytes = 0usize;
    for round in 0..200usize {
        let ops: Vec<WalOp> = (0..16)
            .map(|k| WalOp::Put {
                key: gen::store_key("wal", 0, round * 16 + k),
                value: gen::store_value(&filler, round * 16 + k),
            })
            .collect();
        let ((), s) = clock::time(|| {
            for op in &ops {
                shard.append(op).expect("append");
            }
        });
        append.push(mb_per_s(16 * gen::VALUE_BYTES, s));
        user_bytes += 16 * gen::VALUE_BYTES;
        let (synced, s) = clock::time(|| shard.sync().expect("sync"));
        assert!(synced, "a dirty shard had nothing to sync");
        fsync.push(s * 1e6);
    }
    drop(shard);
    let wal_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) as usize;
    let mut replay = Vec::new();
    for _ in 0..5 {
        let (rep, s) = clock::time(|| wal::replay(&path).expect("replay"));
        assert_eq!(
            (rep.ops.len(), rep.torn_bytes),
            (3_200, 0),
            "replay lost records"
        );
        replay.push(mb_per_s(wal_bytes, s));
    }
    let _ = std::fs::remove_dir_all(dir);
    vec![
        ("storeserver.handle_put_us_wal".into(), handle_wal),
        (
            "storeserver.wal_append_mb_per_s".into(),
            stats::median(&append),
        ),
        ("storeserver.wal_fsync_us".into(), stats::median(&fsync)),
        (
            "storeserver.wal_replay_mb_per_s".into(),
            stats::median(&replay),
        ),
        (
            "storeserver.wal_bytes_per_user_byte".into(),
            wal_bytes as f64 / user_bytes as f64,
        ),
    ]
}
