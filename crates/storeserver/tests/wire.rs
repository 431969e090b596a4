//! Wire-level integration: TCP round trips, pipelining, typed errors,
//! TCP/loopback parity, and the exact round-trip counts behind the
//! pipelining and batching claims.

use bytes::Bytes;
use std::io;
use std::sync::{Arc, Mutex};

use storeserver::proto::{Frame, Request, Response};
use storeserver::{
    LoopbackTransport, StoreClient, StoreEngine, StoreError, StoreServer, SyncMode, TcpTransport,
    Transport,
};

fn serve(shards: usize) -> (StoreServer, StoreClient) {
    let engine = Arc::new(StoreEngine::in_memory(shards));
    let server = StoreServer::start(engine, "127.0.0.1:0").expect("bind loopback");
    let client = StoreClient::connect(server.addr()).expect("connect");
    (server, client)
}

#[test]
fn full_op_set_round_trips_over_tcp() {
    let (server, mut c) = serve(8);
    c.ping().unwrap();
    assert!(c.put("rdf:new:{s1}:f0", &b"payload"[..]).unwrap());
    assert!(!c.put("rdf:new:{s1}:f0", &b"payload2"[..]).unwrap());
    assert_eq!(
        c.get("rdf:new:{s1}:f0").unwrap().unwrap().as_ref(),
        b"payload2"
    );
    assert!(c.exists("rdf:new:{s1}:f0").unwrap());
    c.rename("rdf:new:{s1}:f0", "rdf:done:{s1}:f0").unwrap();
    assert_eq!(c.keys("rdf:done:*").unwrap(), vec!["rdf:done:{s1}:f0"]);
    assert!(c.del("rdf:done:{s1}:f0").unwrap());
    assert!(!c.del("rdf:done:{s1}:f0").unwrap());
    assert!(c.get("rdf:done:{s1}:f0").unwrap().is_none());

    let pairs: Vec<(String, Bytes)> = (0..100)
        .map(|i| (format!("k:{{t{i}}}"), Bytes::from(vec![i as u8; 32])))
        .collect();
    assert_eq!(c.put_many(pairs.clone()).unwrap(), 100);
    let keys: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
    let vals = c.get_many(keys.clone()).unwrap();
    assert_eq!(vals.len(), 100);
    assert!(vals.iter().all(Option::is_some));

    // Incremental scan agrees with KEYS.
    let mut scanned = Vec::new();
    let mut cursor = 0u64;
    loop {
        let (batch, next) = c.scan("k:*", cursor, 17).unwrap();
        scanned.extend(batch);
        match next {
            Some(n) => cursor = n,
            None => break,
        }
    }
    scanned.sort();
    let mut all = c.keys("k:*").unwrap();
    all.sort();
    assert_eq!(scanned, all);
    assert_eq!(scanned.len(), 100);

    let stats = c.stats().unwrap();
    assert_eq!(stats.shards, 8);
    assert_eq!(stats.keys, 100);
    assert_eq!(stats.memory_bytes, 100 * 32);

    assert_eq!(c.del_many(keys).unwrap(), 100);
    c.sync().unwrap();
    server.stop();
}

#[test]
fn typed_errors_cross_the_wire() {
    let (server, mut c) = serve(64);
    // Rename of a missing key: typed NoSuchKey, not a dropped connection.
    match c.rename("missing:{x}", "other:{x}") {
        Err(StoreError::NoSuchKey(k)) => assert_eq!(k, "missing:{x}"),
        other => panic!("wanted NoSuchKey, got {other:?}"),
    }
    // Cross-shard rename: the typed error arrives with both key names.
    let from = "alpha".to_string();
    let engine = Arc::clone(server.engine());
    let to = (0..10_000)
        .map(|i| format!("beta-{i}"))
        .find(|k| engine.cluster().shard_for(k) != engine.cluster().shard_for(&from))
        .expect("some key lands elsewhere");
    c.put(&from, &b"v"[..]).unwrap();
    match c.rename(&from, &to) {
        Err(StoreError::CrossShardRename { from: f, to: t }) => {
            assert_eq!(f, from);
            assert_eq!(t, to);
        }
        other => panic!("wanted CrossShardRename, got {other:?}"),
    }
    // The connection survives typed errors: the next op works.
    assert!(c.exists(&from).unwrap());
    server.stop();
}

#[test]
fn malformed_frames_bounce_without_killing_the_connection() {
    let (server, _c) = serve(4);
    use std::io::{BufReader, Write};
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // Unknown opcode 200 with an empty body: the 13-byte header alone,
    // a little-endian length (9: the sequence id and the tag), sequence
    // id 1 and the tag.
    let mut frame = Vec::new();
    frame.extend_from_slice(&9u32.to_le_bytes());
    frame.extend_from_slice(&1u64.to_le_bytes());
    frame.push(200);
    writer.write_all(&frame).unwrap();
    writer.flush().unwrap();
    let (seq, st, body) = storeserver::proto::read_frame(&mut reader)
        .unwrap()
        .unwrap();
    assert_eq!(seq, 1);
    assert!(matches!(
        Response::decode(st, &body).unwrap(),
        Response::Err(storeserver::WireError::BadRequest(_))
    ));
    // Connection still serves well-formed requests.
    writer.write_all(&Request::Ping.encode_frame(2)).unwrap();
    writer.flush().unwrap();
    let (seq, st, body) = storeserver::proto::read_frame(&mut reader)
        .unwrap()
        .unwrap();
    assert_eq!(seq, 2);
    assert_eq!(Response::decode(st, &body).unwrap(), Response::Unit);
    server.stop();
}

#[test]
fn pipelined_batch_matches_by_sequence_id() {
    let (server, mut c) = serve(8);
    let depth = 64;
    let reqs: Vec<Request> = (0..depth)
        .map(|i| Request::Put {
            key: format!("p:{{k{i}}}"),
            value: Bytes::from(vec![i as u8; 8]),
        })
        .collect();
    let resps = c.call_pipelined(&reqs).unwrap();
    assert_eq!(resps.len(), depth);
    assert!(resps.iter().all(|r| *r == Response::Bool(true)));

    // Mixed batch: reads come back positionally matched.
    let reqs: Vec<Request> = (0..depth)
        .map(|i| Request::Get {
            key: format!("p:{{k{i}}}"),
        })
        .collect();
    let resps = c.call_pipelined(&reqs).unwrap();
    for (i, r) in resps.iter().enumerate() {
        assert_eq!(*r, Response::Value(Some(Bytes::from(vec![i as u8; 8]))));
    }
    server.stop();
}

#[test]
fn loopback_and_tcp_agree_on_every_op() {
    let engine_tcp = Arc::new(StoreEngine::in_memory(16));
    let server = StoreServer::start(Arc::clone(&engine_tcp), "127.0.0.1:0").unwrap();
    let mut tcp = StoreClient::connect(server.addr()).unwrap();
    let mut loopback = StoreClient::loopback(Arc::new(StoreEngine::in_memory(16)));

    let script: Vec<Request> = (0..50)
        .map(|i| Request::Put {
            key: format!("ns:{{k{i}}}"),
            value: Bytes::from(vec![i as u8; 10]),
        })
        .chain((0..25).map(|i| Request::Rename {
            from: format!("ns:{{k{i}}}"),
            to: format!("done:{{k{i}}}"),
        }))
        .chain(std::iter::once(Request::Keys {
            pattern: "done:*".into(),
        }))
        .chain((0..10).map(|i| Request::Del {
            key: format!("done:{{k{i}}}"),
        }))
        .chain(std::iter::once(Request::Rename {
            from: "ns:{k99}".into(),
            to: "done:{k99}".into(),
        }))
        .chain(std::iter::once(Request::Stats))
        .collect();
    for req in &script {
        let a = tcp.call(req).unwrap();
        let b = loopback.call(req).unwrap();
        assert_eq!(a, b, "transports diverged on {req:?}");
    }
    server.stop();
}

/// Frames sent and flushes issued through one client.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Trips {
    frames: u64,
    flushes: u64,
}

/// A [`TcpTransport`] that counts what the client pushes through it. A
/// flush is one trip to the peer, so the counts are the latency story
/// with no host clock in it.
struct CountingTransport {
    inner: TcpTransport,
    trips: Arc<Mutex<Trips>>,
}

impl Transport for CountingTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.trips.lock().unwrap().frames += 1;
        self.inner.send(frame)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.trips.lock().unwrap().flushes += 1;
        self.inner.flush()
    }

    fn recv(&mut self) -> io::Result<Frame<'_>> {
        self.inner.recv()
    }
}

/// Runs `ops` against a fresh server through a counting client and
/// returns the frames and flushes it took.
fn trips(ops: impl FnOnce(&mut StoreClient)) -> Trips {
    let engine = Arc::new(StoreEngine::in_memory(4));
    let server = StoreServer::start(engine, "127.0.0.1:0").expect("bind loopback");
    let counts = Arc::new(Mutex::new(Trips::default()));
    let mut c = StoreClient::over(Box::new(CountingTransport {
        inner: TcpTransport::connect(server.addr()).expect("connect"),
        trips: Arc::clone(&counts),
    }));
    ops(&mut c);
    drop(c);
    server.stop();
    let got = *counts.lock().unwrap();
    got
}

#[test]
fn pipelining_and_batching_cost_one_round_trip() {
    let keys: Vec<String> = (0..64).map(|i| format!("k:{{t{i}}}")).collect();
    let gets: Vec<Request> = keys
        .iter()
        .map(|k| Request::Get { key: k.clone() })
        .collect();

    // Depth-64 pipelined GETs: every frame written, one flush.
    let pipelined = trips(|c| {
        let out = c.call_pipelined(&gets).unwrap();
        assert_eq!(out.len(), 64);
    });
    assert_eq!(
        pipelined,
        Trips {
            frames: 64,
            flushes: 1
        }
    );
    // The same GETs ping-pong: one flush each.
    let ping_pong = trips(|c| {
        for k in &keys {
            assert!(c.get(k).unwrap().is_none());
        }
    });
    assert_eq!(
        ping_pong,
        Trips {
            frames: 64,
            flushes: 64
        }
    );

    let pairs: Vec<(String, Bytes)> = (0..256)
        .map(|i| (format!("p:{{t{i}}}"), Bytes::from(vec![i as u8; 32])))
        .collect();
    // put_many: the whole batch is one frame and one flush.
    let batched = trips(|c| assert_eq!(c.put_many(pairs.clone()).unwrap(), 256));
    assert_eq!(
        batched,
        Trips {
            frames: 1,
            flushes: 1
        }
    );
    let single = trips(|c| {
        for (k, v) in &pairs {
            assert!(c.put(k, v.clone()).unwrap());
        }
    });
    assert_eq!(
        single,
        Trips {
            frames: 256,
            flushes: 256
        }
    );
}

/// A loopback transport whose replies come back under the next request's
/// sequence id, as a stale reply left in a reused buffer would.
struct SkewedTransport(LoopbackTransport);

impl Transport for SkewedTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.0.send(frame)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }

    fn recv(&mut self) -> io::Result<Frame<'_>> {
        let frame = self.0.recv()?;
        Ok(Frame {
            seq: frame.seq + 1,
            ..frame
        })
    }
}

#[test]
fn a_reply_under_another_seq_is_a_protocol_error() {
    let engine = Arc::new(StoreEngine::in_memory(4));
    let mut c = StoreClient::over(Box::new(SkewedTransport(LoopbackTransport::new(engine))));
    assert!(matches!(c.ping(), Err(StoreError::Protocol(_))));
    assert!(matches!(
        c.get("k"),
        Err(StoreError::Protocol(m)) if m.contains("seq")
    ));
    assert!(matches!(
        c.call_pipelined(&[Request::Ping, Request::Ping]),
        Err(StoreError::Protocol(_))
    ));
}

#[test]
fn loopback_sends_take_one_whole_frame() {
    let mut t = LoopbackTransport::new(Arc::new(StoreEngine::in_memory(4)));
    let ping = Request::Ping.encode_frame(1);
    let mut two = ping.clone();
    two.extend_from_slice(&Request::Ping.encode_frame(2));
    for bad in [&ping[..ping.len() - 1], &two[..], &[][..]] {
        let err = t.send(bad).unwrap_err();
        assert_eq!(
            err.kind(),
            io::ErrorKind::InvalidData,
            "{} bytes",
            bad.len()
        );
    }
    // Nothing refused was served, so nothing is waiting.
    assert_eq!(t.recv().unwrap_err().kind(), io::ErrorKind::WouldBlock);
    t.send(&ping).unwrap();
    assert_eq!(t.recv().unwrap().seq, 1);
    assert_eq!(t.recv().unwrap_err().kind(), io::ErrorKind::WouldBlock);
}

#[test]
fn borrowed_reads_see_what_owned_reads_see() {
    let (server, tcp) = serve(4);
    let loopback = StoreClient::loopback(Arc::new(StoreEngine::in_memory(4)));
    for mut c in [tcp, loopback] {
        let keys: Vec<String> = (0..6).map(|i| format!("r:{{t{i}}}")).collect();
        for (i, k) in keys.iter().enumerate().skip(1) {
            c.put(k, vec![i as u8; 10_000 * i]).unwrap();
        }
        for k in &keys {
            let owned = c.get(k).unwrap().map(|b| b.to_vec());
            assert_eq!(c.get_with(k, <[u8]>::to_vec).unwrap(), owned);
        }
        let mut listed = c.keys_with("r:*", |ks| {
            assert_eq!(ks.len(), 5);
            ks.map(str::to_owned).collect::<Vec<_>>()
        });
        listed.as_mut().unwrap().sort();
        assert_eq!(listed.unwrap(), keys[1..]);
        let owned: Vec<Option<Vec<u8>>> = c
            .get_many(keys.clone())
            .unwrap()
            .into_iter()
            .map(|v| v.map(|b| b.to_vec()))
            .collect();
        let borrowed = c
            .get_many_with(&keys, |vals| {
                vals.map(|v| v.map(<[u8]>::to_vec)).collect::<Vec<_>>()
            })
            .unwrap();
        assert_eq!(borrowed, owned);
        assert_eq!(borrowed[0], None);
        assert_eq!(borrowed[5].as_deref(), Some(&[5u8; 50_000][..]));
    }
    server.stop();
}

#[test]
fn a_durable_loopback_acks_only_synced_records() {
    let dir = std::env::temp_dir().join(format!("wire-loopback-sync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Arc::new(StoreEngine::open(&dir, 4, SyncMode::Virtual).unwrap());
    let mut c = StoreClient::loopback(Arc::clone(&engine));
    // Each ack comes back only after its record's barrier.
    let acked_synced = |c: &mut StoreClient, records: u64| {
        assert_eq!(
            engine.sync_dirty().unwrap(),
            0,
            "record {records} acked unsynced"
        );
        assert_eq!(c.stats().unwrap().wal_records, records);
    };
    assert!(c.put("a:{t}", b"v").unwrap());
    acked_synced(&mut c, 1);
    c.rename("a:{t}", "b:{t}").unwrap();
    acked_synced(&mut c, 2);
    let pairs = vec![("c:{u}".to_string(), Bytes::from_static(b"w"))];
    assert_eq!(c.put_many(pairs).unwrap(), 1);
    acked_synced(&mut c, 3);
    assert!(c.del("b:{t}").unwrap());
    acked_synced(&mut c, 4);
    drop(c);
    drop(engine);
    let reopened = StoreEngine::open(&dir, 4, SyncMode::Virtual).unwrap();
    assert_eq!(reopened.recovery().records, 4);
    std::fs::remove_dir_all(&dir).unwrap();
}
