//! WAL crash recovery, up to and including SIGKILLing a real server
//! process mid-write and auditing ledger conservation.
//!
//! The contract under test: **an acknowledged write is never lost.**
//! The server syncs a batch's WAL records before releasing the batch's
//! responses, so any response the client has seen refers to a record
//! that replay will find. Writes in flight at the kill may or may not
//! survive — both outcomes are legal — but acked ones must.

use bytes::Bytes;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use storeserver::proto::{read_frame, Request, Response};
use storeserver::{StoreClient, StoreEngine, StoreServer, SyncMode};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn server_restart_recovers_acked_state() {
    let dir = tmpdir("restart");
    {
        let engine = Arc::new(StoreEngine::open(&dir, 8, SyncMode::Virtual).unwrap());
        let server = StoreServer::start(engine, "127.0.0.1:0").unwrap();
        let mut c = StoreClient::connect(server.addr()).unwrap();
        let pairs: Vec<(String, Bytes)> = (0..500)
            .map(|i| {
                (
                    format!("ns:{{k{i}}}"),
                    Bytes::from(vec![(i % 251) as u8; 40]),
                )
            })
            .collect();
        c.put_many(pairs).unwrap();
        for i in 0..100 {
            c.rename(&format!("ns:{{k{i}}}"), &format!("done:{{k{i}}}"))
                .unwrap();
        }
        c.del_many((0..50).map(|i| format!("done:{{k{i}}}")).collect())
            .unwrap();
        server.stop();
    }
    let engine = Arc::new(StoreEngine::open(&dir, 8, SyncMode::Virtual).unwrap());
    assert_eq!(engine.recovery().records, 650);
    let mut c = StoreClient::loopback(Arc::clone(&engine));
    assert_eq!(c.keys("ns:*").unwrap().len(), 400);
    assert_eq!(c.keys("done:*").unwrap().len(), 50);
    assert_eq!(
        c.get("ns:{k400}").unwrap().unwrap(),
        Bytes::from(vec![(400 % 251) as u8; 40])
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

struct Daemon {
    child: Child,
    addr: std::net::SocketAddr,
}

fn spawn_daemon(dir: &std::path::Path, shards: usize, sync: &str) -> Daemon {
    spawn(
        Command::new(env!("CARGO_BIN_EXE_storeserverd")),
        dir,
        shards,
        sync,
    )
}

/// Runs `cmd` (the daemon, or a shell that execs it) with the daemon's
/// arguments and reads the address it prints.
fn spawn(mut cmd: Command, dir: &std::path::Path, shards: usize, sync: &str) -> Daemon {
    let mut child = cmd
        .args([
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            dir.to_str().unwrap(),
            "--shards",
            &shards.to_string(),
            "--sync",
            sync,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn storeserverd");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read discovery line");
    let addr = line
        .trim()
        .strip_prefix("listening ")
        .expect("discovery line")
        .parse()
        .expect("addr parses");
    Daemon { child, addr }
}

/// The acceptance test: a real `storeserverd` process is SIGKILLed while
/// a pipelined write stream is in flight. The client records exactly
/// which writes were acknowledged (responses it actually read back).
/// After recovery, every acknowledged write must be present with the
/// right value — zero lost acknowledged writes.
#[test]
fn sigkill_mid_write_loses_no_acknowledged_write() {
    let dir = tmpdir("sigkill");
    let shards = 8;
    let daemon = spawn_daemon(&dir, shards, "real");

    let stream = std::net::TcpStream::connect(daemon.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let value_of = |i: u64| Bytes::from(vec![(i % 251) as u8; 128]);
    let mut acked: Vec<u64> = Vec::new();
    let mut seq = 0u64;
    let mut killed = false;
    let mut child = daemon.child;

    // Batches of pipelined puts. After batch 20, kill the server with a
    // fresh batch already on the wire, so writes are genuinely in
    // flight — some will be acked, some not, none half-acked.
    'outer: for batch in 0..200u64 {
        let first = seq;
        let mut wire = Vec::new();
        for i in 0..16u64 {
            let id = batch * 16 + i;
            let req = Request::Put {
                key: format!("w:{{k{id}}}"),
                value: value_of(id),
            };
            wire.extend_from_slice(&req.encode_frame(seq));
            seq += 1;
        }
        if writer
            .write_all(&wire)
            .and_then(|()| writer.flush())
            .is_err()
        {
            break 'outer; // server already gone
        }
        if batch == 20 {
            // The batch is on the wire but unread: kill mid-write.
            child.kill().expect("SIGKILL the daemon");
            killed = true;
        }
        for i in 0..16u64 {
            match read_frame(&mut reader) {
                Ok(Some((got_seq, st, body))) => {
                    assert_eq!(got_seq, first + i);
                    match Response::decode(st, &body).unwrap() {
                        Response::Bool(_) => acked.push(batch * 16 + i),
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                _ => break 'outer, // connection died: everything later is unacked
            }
        }
    }
    assert!(killed, "the kill point must have been reached");
    child.wait().expect("reap the killed daemon");
    assert!(
        acked.len() >= 16 * 20,
        "expected at least the pre-kill batches acked, got {}",
        acked.len()
    );

    // Recover the WAL directory in-process and audit: every acked write
    // is present with the right bytes.
    let engine = StoreEngine::open(&dir, shards, SyncMode::Virtual).expect("recover");
    let mut lost = 0;
    for &id in &acked {
        let key = format!("w:{{k{id}}}");
        match engine.handle(Request::Get { key: key.clone() }) {
            Response::Value(Some(v)) => assert_eq!(v, value_of(id), "{key} has wrong bytes"),
            Response::Value(None) => lost += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(
        lost,
        0,
        "{lost} acknowledged writes lost out of {}",
        acked.len()
    );
    eprintln!(
        "sigkill audit: {} acked writes, 0 lost, {} torn tail bytes discarded",
        acked.len(),
        engine.recovery().torn_bytes
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// No ack leaves before its record is in the log. The daemon runs under a
/// small file-size limit with `SIGXFSZ` ignored, so once the log reaches
/// the limit the flush in the group-commit barrier fails (`EFBIG`) with
/// the op's record half written. That op must not have been acked: every
/// put the client saw acknowledged is whole in the log left behind.
#[test]
fn no_ack_leaves_before_its_record_is_written() {
    let dir = tmpdir("fsize");
    let mut sh = Command::new("sh");
    sh.args([
        "-c",
        "trap '' XFSZ; ulimit -f 8 && exec \"$0\" \"$@\"",
        env!("CARGO_BIN_EXE_storeserverd"),
    ]);
    let daemon = spawn(sh, &dir, 1, "virtual");
    let mut c = StoreClient::connect(daemon.addr).unwrap();
    let value = Bytes::from(vec![7u8; 100]);
    let mut acked = 0u64;
    while acked < 10_000 && c.put(&format!("k{acked}"), value.clone()).is_ok() {
        acked += 1;
    }
    let mut child = daemon.child;
    child.kill().unwrap();
    child.wait().unwrap();
    assert!(acked < 10_000, "the file-size limit never failed a flush");

    // Replay keeps a prefix, and the puts are distinct keys: the log
    // holds every acked put iff it holds `acked` whole records.
    let engine = StoreEngine::open(&dir, 1, SyncMode::Virtual).expect("recover");
    let recovered = engine.recovery();
    assert!(recovered.torn_bytes > 0, "no flush failed mid-record");
    assert_eq!(
        recovered.records, acked,
        "an acked put is not whole in the log"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Restarting the daemon over a dirty directory replays the log: the
/// same contract, exercised through the real process boundary twice.
#[test]
fn daemon_restart_serves_recovered_state() {
    let dir = tmpdir("daemon-restart");
    {
        let daemon = spawn_daemon(&dir, 4, "real");
        let mut c = StoreClient::connect(daemon.addr).unwrap();
        let pairs: Vec<(String, Bytes)> = (0..100)
            .map(|i| (format!("ns:{{k{i}}}"), Bytes::from(vec![i as u8; 16])))
            .collect();
        c.put_many(pairs).unwrap();
        c.sync().unwrap();
        let mut child = daemon.child;
        child.kill().unwrap();
        child.wait().unwrap();
    }
    let daemon = spawn_daemon(&dir, 4, "real");
    let mut c = StoreClient::connect(daemon.addr).unwrap();
    assert_eq!(c.keys("ns:*").unwrap().len(), 100);
    assert_eq!(
        c.get("ns:{k7}").unwrap().unwrap(),
        Bytes::from(vec![7u8; 16])
    );
    let stats = c.stats().unwrap();
    assert_eq!(stats.wal_records, 100);
    let mut child = daemon.child;
    child.kill().unwrap();
    child.wait().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
