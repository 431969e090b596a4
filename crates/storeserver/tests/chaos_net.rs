//! Seeded chaos against the real transport: connections severed in the
//! ack window, WAL tails torn — the store-tier faults that used to be
//! simulated by injected errors, now pointed at the genuine articles.

use bytes::Bytes;
use std::path::PathBuf;
use std::sync::Arc;

use chaos::StoreChaosPlan;
use storeserver::wal::replay;
use storeserver::{DropSchedule, RetryClient, StoreClient, StoreEngine, StoreServer, SyncMode};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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
    let server = StoreServer::start_with_drops(
        Arc::clone(&engine),
        "127.0.0.1:0",
        Some(DropSchedule::new(plan.conn_drops.iter().copied())),
    )
    .unwrap();

    // Model: the same script applied to a plain in-memory engine with
    // no faults.
    let model = Arc::new(StoreEngine::in_memory(8));
    let mut model_client = StoreClient::loopback(Arc::clone(&model));

    let mut c = RetryClient::connect(server.addr(), 8).unwrap();
    for i in 0..200u64 {
        let key = format!("rdf:new:{{s{i}}}:f0");
        let value = Bytes::from(vec![(i % 251) as u8; 32]);
        c.put(&key, value.clone()).unwrap();
        model_client.put(&key, value).unwrap();
        if i % 3 == 0 {
            let done = format!("rdf:done:{{s{i}}}:f0");
            c.rename(&key, &done).unwrap();
            model_client.rename(&key, &done).unwrap();
        }
        if i % 7 == 0 {
            let victim = format!("rdf:done:{{s{i}}}:f0");
            c.del(&victim).unwrap();
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
    let mut chaos_keys = c.keys("*").unwrap();
    chaos_keys.sort();
    let mut model_keys = model_client.keys("*").unwrap();
    model_keys.sort();
    assert_eq!(chaos_keys, model_keys, "key sets diverged under drops");
    for key in &model_keys {
        assert_eq!(
            c.get(key).unwrap(),
            model_client.get(key).unwrap(),
            "value diverged at {key}"
        );
    }
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
