//! The store daemon: a standalone sharded datastore server process.
//!
//! Prints `listening <addr>` on stdout once bound (so harnesses using
//! an ephemeral port can discover it), then serves until killed. The
//! WAL crash-recovery test SIGKILLs this process mid-write and audits
//! that every acknowledged write survives replay.
//!
//! Usage:
//!
//! ```text
//! storeserverd [--addr <host:port>] [--data-dir <path>] [--shards <n>]
//!              [--sync real|virtual]
//! ```
//!
//! Without `--data-dir` the store is memory-only (no WAL).

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

use storeserver::{StoreEngine, StoreServer, SyncMode};

struct Args {
    addr: String,
    data_dir: Option<PathBuf>,
    shards: usize,
    sync: SyncMode,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        data_dir: None,
        shards: 20,
        sync: SyncMode::Real,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = take("--addr"),
            "--data-dir" => args.data_dir = Some(PathBuf::from(take("--data-dir"))),
            "--shards" => args.shards = take("--shards").parse().expect("--shards"),
            "--sync" => {
                args.sync = match take("--sync").as_str() {
                    "real" => SyncMode::Real,
                    "virtual" => SyncMode::Virtual,
                    other => panic!("--sync must be real or virtual, got {other}"),
                }
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let engine = match &args.data_dir {
        None => Arc::new(StoreEngine::in_memory(args.shards)),
        Some(dir) => {
            let engine = StoreEngine::open(dir, args.shards, args.sync)
                .unwrap_or_else(|e| panic!("open {}: {e}", dir.display()));
            let rec = engine.recovery().clone();
            if rec.records > 0 || rec.torn_bytes > 0 {
                eprintln!(
                    "storeserverd: recovered {} records ({} torn tail bytes discarded)",
                    rec.records, rec.torn_bytes
                );
            }
            Arc::new(engine)
        }
    };
    let server = StoreServer::start(engine, &args.addr).expect("bind");
    // The discovery line the harness reads; flush so a pipe sees it now.
    println!("listening {}", server.addr());
    std::io::stdout().flush().expect("stdout");
    server.join();
}
