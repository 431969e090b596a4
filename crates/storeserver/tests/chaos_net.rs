//! Seeded chaos against the real transport: connections severed in the
//! ack window, WAL tails torn — the store-tier faults that used to be
//! simulated by injected errors, now pointed at the genuine articles.
//! The server has no fault hooks; the lost acks come from a proxy that
//! lives in this file, between the client and an unmodified server.

use bytes::Bytes;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use chaos::StoreChaosPlan;
use storeserver::wal::replay;
use storeserver::{StoreClient, StoreEngine, StoreError, StoreServer, SyncMode};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One frame (`[u32 LE len][len bytes]`), or `None` once the peer closes.
fn read_frame_bytes(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame).ok()?;
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
    frame.resize(4 + len as usize, 0);
    stream.read_exact(&mut frame[4..]).ok()?;
    Some(frame)
}

/// Relays one client connection to a fresh connection to `upstream`
/// until the client closes, or until the server's response number
/// `answered` (counted across connections from 0) is one of `drops`:
/// that response is swallowed and both connections are cut. The server
/// answers only after the op is applied and synced, so the op landed
/// but the client cannot know it — the nastiest real-network window.
/// The client sends a request only after reading the previous answer,
/// so each request is followed by exactly one response.
fn relay(mut client: TcpStream, upstream: SocketAddr, drops: &[u64], answered: &mut u64) {
    let mut server = TcpStream::connect(upstream).unwrap();
    while let Some(request) = read_frame_bytes(&mut client) {
        server.write_all(&request).unwrap();
        let response = read_frame_bytes(&mut server).expect("the server answers");
        let cut = drops.contains(answered);
        *answered += 1;
        if cut || client.write_all(&response).is_err() {
            return;
        }
    }
}

/// A client that reconnects and retries when its connection is cut.
/// Every op the script uses except `rename` is idempotent, so a blind
/// retry is safe; a retried rename that answers `NoSuchKey` is resolved
/// by the destination: if `to` exists, the first attempt landed before
/// the cut.
struct Reconnecting {
    addr: SocketAddr,
    client: Option<StoreClient>,
    /// Connection cuts observed (and survived) so far.
    drops_seen: u64,
}

impl Reconnecting {
    /// Runs `op`, redialling and retrying after each cut, up to 8 tries.
    fn call<T>(
        &mut self,
        mut op: impl FnMut(&mut StoreClient) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        for _ in 0..8 {
            let client = match &mut self.client {
                Some(client) => client,
                None => self.client.insert(StoreClient::connect(self.addr)?),
            };
            match op(client) {
                Err(StoreError::Io(_)) => {
                    self.client = None;
                    self.drops_seen += 1;
                }
                done => return done,
            }
        }
        Err(StoreError::Protocol("retry budget exhausted".into()))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        let cuts_before = self.drops_seen;
        match self.call(|c| c.rename(from, to)) {
            Err(StoreError::NoSuchKey(_))
                if self.drops_seen > cuts_before && self.call(|c| c.exists(to))? =>
            {
                Ok(())
            }
            done => done,
        }
    }
}

/// A reconnecting client survives seeded connection drops and the final
/// state equals a fault-free model run: no acked mutation lost, no
/// retried mutation double-applied in a way the model can detect.
#[test]
fn seeded_connection_drops_conserve_the_ledger() {
    // The script below issues ~296 ops before any retries, so spreading
    // the drop points over [1, 280) guarantees every drop fires before
    // the audit asserts.
    let ops_total = 280u64;
    let plan = StoreChaosPlan::generate(42, ops_total, 5, 8, 0);
    assert!(!plan.conn_drops.is_empty());

    let engine = Arc::new(StoreEngine::in_memory(8));
    let server = StoreServer::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    // The proxy between the client and the server. Every cut makes the
    // client dial again, so it serves one connection per planned drop
    // plus the last one, which ends when the client is dropped.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy = listener.local_addr().unwrap();
    let (upstream, drops) = (server.addr(), plan.conn_drops.clone());
    let relays = thread::spawn(move || {
        let mut answered = 0;
        for client in listener.incoming().take(drops.len() + 1) {
            relay(client.unwrap(), upstream, &drops, &mut answered);
        }
    });

    // Model: the same script applied to a plain in-memory engine with
    // no faults.
    let model = Arc::new(StoreEngine::in_memory(8));
    let mut model_client = StoreClient::loopback(Arc::clone(&model));

    let mut c = Reconnecting {
        addr: proxy,
        client: None,
        drops_seen: 0,
    };
    for i in 0..200u64 {
        let key = format!("rdf:new:{{s{i}}}:f0");
        let value = Bytes::from(vec![(i % 251) as u8; 32]);
        c.call(|s| s.put(&key, value.clone())).unwrap();
        model_client.put(&key, value).unwrap();
        if i % 3 == 0 {
            let done = format!("rdf:done:{{s{i}}}:f0");
            c.rename(&key, &done).unwrap();
            model_client.rename(&key, &done).unwrap();
        }
        if i % 7 == 0 {
            let victim = format!("rdf:done:{{s{i}}}:f0");
            c.call(|s| s.del(&victim)).unwrap();
            model_client.del(&victim).unwrap();
        }
    }

    assert!(
        c.drops_seen >= plan.conn_drops.len() as u64,
        "survived {} drops, plan had {}",
        c.drops_seen,
        plan.conn_drops.len()
    );

    // Ledger audit: chaos state == model state, key for key, byte for
    // byte.
    let mut chaos_keys = c.call(|s| s.keys("*")).unwrap();
    chaos_keys.sort();
    let mut model_keys = model_client.keys("*").unwrap();
    model_keys.sort();
    assert_eq!(chaos_keys, model_keys, "key sets diverged under drops");
    for key in &model_keys {
        assert_eq!(
            c.call(|s| s.get(key)).unwrap(),
            model_client.get(key).unwrap(),
            "value diverged at {key}"
        );
    }
    drop(c);
    relays.join().unwrap();
    server.stop();
}

/// Seeded WAL truncations: recovery replays the intact prefix of every
/// shard log and never errors on a torn tail.
#[test]
fn seeded_wal_truncations_recover_to_a_prefix() {
    let shards = 4usize;
    let plan = StoreChaosPlan::generate(7, 0, 0, shards, 3);
    assert!(!plan.wal_truncations.is_empty());

    let dir = tmpdir("truncate");
    {
        let engine = StoreEngine::open(&dir, shards, SyncMode::Virtual).unwrap();
        let mut c = StoreClient::loopback(Arc::new(engine));
        for i in 0..400 {
            c.put(&format!("ns:{{k{i}}}"), Bytes::from(vec![i as u8; 24]))
                .unwrap();
        }
    }

    // Record each shard's intact op sequence, then tear the tails.
    let full: Vec<Vec<storeserver::WalOp>> = (0..shards)
        .map(|i| replay(&dir.join(format!("shard-{i}.wal"))).unwrap().ops)
        .collect();
    for t in &plan.wal_truncations {
        let path = dir.join(format!("shard-{}.wal", t.shard % shards));
        let bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len().saturating_sub(t.bytes as usize);
        std::fs::write(&path, &bytes[..keep]).unwrap();
    }

    // Replay each torn log: always a clean prefix of the full sequence.
    for (i, full_ops) in full.iter().enumerate().take(shards) {
        let rep = replay(&dir.join(format!("shard-{i}.wal"))).unwrap();
        assert!(rep.ops.len() <= full_ops.len());
        assert_eq!(
            rep.ops[..],
            full_ops[..rep.ops.len()],
            "shard {i} not a prefix"
        );
    }

    // And the engine recovers over the torn directory without error,
    // truncating tails so later appends are clean.
    let engine = StoreEngine::open(&dir, shards, SyncMode::Virtual).unwrap();
    let torn = engine.recovery().torn_bytes;
    assert!(
        torn > 0,
        "at least one truncation bit a record boundary asymmetrically or cut whole records"
    );
    let mut c = StoreClient::loopback(Arc::new(engine));
    c.put("post:{recovery}", Bytes::from_static(b"ok")).unwrap();
    drop(c);
    let reopened = StoreEngine::open(&dir, shards, SyncMode::Virtual).unwrap();
    assert_eq!(
        reopened.recovery().torn_bytes,
        0,
        "tails were cut on reopen"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
