//! `store_durable_write` and `store_read_scan`: the store tier over TCP,
//! used both ways.
//!
//! Both run a real `storeserver::StoreServer` on `127.0.0.1:0` with 20
//! shards and 17 KiB values, driven by two client connections, each on
//! its own thread, closed loop (a client sends its next request when
//! the previous reply has arrived).
//!
//! `store_durable_write` opens the engine over a WAL directory, so
//! every acknowledged mutation paid `wal.append` and the durability
//! barrier ([`SYNC`] says what the barrier does); after a fixed number
//! of rounds it stops the server, reopens the directory, checks that
//! replay recovered exactly the acknowledged mutations, deletes the log
//! and starts the next engine lifetime.
//! `store_read_scan` preloads an in-memory engine far beyond the
//! last-level cache (the store has no cache of its own, so there is no
//! "fits in cache" variant) and only reads: the WAL is idle, so a WAL or
//! fsync change predicts no move here, and a read-path change predicts
//! no move on `store_durable_write`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use bytes::Bytes;
use storeserver::{Request, Response, StoreClient, StoreEngine, StoreServer, SyncMode};

use super::{Ctx, Measured};
use crate::spans::Recorder;
use crate::{clock, gen};

/// Shards of the engine: the paper's 20 Redis nodes.
pub const SHARDS: usize = 20;
/// Client connections (one thread each).
pub const CLIENTS: usize = 2;
/// Keys per batched round trip.
pub const BATCH: usize = 256;
/// Keys per `SCAN` page.
pub const SCAN_COUNT: u32 = 512;
/// Requests in flight per pipelined read.
pub const PIPELINE_DEPTH: usize = 64;
/// Frames `store_read_scan` preloads (× 17 KiB = 340 MB).
pub const PRELOAD_FRAMES: usize = 20_000;
/// Per client and round of `store_durable_write`: single `put`s …
pub const ROUND_PUTS: usize = 125;
/// … and `put_many` batches of [`BATCH`] keys.
pub const ROUND_BATCHES: usize = 1;
/// Rounds per client and engine lifetime (2 clients x 16 rounds x 381
/// values of 17 KiB = 212 MB of log).
pub const LIFE_ROUNDS: usize = 16;
/// The WAL's flush policy, on both sides of every comparison. Flush
/// without `fsync`: `sync_data` on this sandbox is a shared host's disk,
/// whose latency moved by half between identical runs and tenfold when a
/// neighbour wrote; `storeserver.wal_fsync_us` reports it on its own.
pub const SYNC: SyncMode = SyncMode::Virtual;

/// One client connection with its own span sink and tallies.
struct Client {
    id: usize,
    conn: StoreClient,
    rec: Recorder,
    requests: u64,
    keys: u64,
    rtts_ms: Vec<f64>,
    failures: Vec<String>,
}

impl Client {
    fn connect(id: usize, addr: SocketAddr, traced: bool, epoch: Instant) -> Client {
        Client {
            id,
            conn: StoreClient::connect(addr).expect("connect to the store server just started"),
            rec: Recorder::new(traced, epoch),
            requests: 0,
            keys: 0,
            rtts_ms: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// One request: a span, a client-edge round-trip sample, and the
    /// keys it moved when it succeeded.
    fn call<T>(
        &mut self,
        name: &'static str,
        keys: usize,
        f: impl FnOnce(&mut StoreClient) -> storeserver::Result<T>,
    ) -> Option<T> {
        self.requests += 1;
        let request = (self.id as u64) << 48 | self.requests;
        let span = self.rec.enter(name, request);
        let t0 = clock::now();
        let result = f(&mut self.conn);
        self.rtts_ms.push(clock::secs_since(t0) * 1e3);
        self.rec.exit(span);
        match result {
            Ok(v) => {
                self.keys += keys as u64;
                Some(v)
            }
            Err(e) => {
                self.failures
                    .push(format!("client {} {name}: {e}", self.id));
                None
            }
        }
    }

    fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            let why = why();
            self.failures.push(format!("client {}: {why}", self.id));
        }
    }
}

/// Folds the clients' tallies into the run's measurement and spans.
fn fold(clients: Vec<Client>, m: &mut Measured, rec: &mut Recorder) {
    for c in clients {
        m.attempted += c.requests;
        m.work += c.keys as f64;
        m.latencies_ms.extend(c.rtts_ms);
        m.failures.extend(c.failures);
        rec.merge(c.rec);
    }
}

/// Runs `body` once per client, each on its own thread.
fn on_clients(clients: Vec<Client>, body: impl Fn(&mut Client) + Sync) -> Vec<Client> {
    thread::scope(|s| {
        // lint: allow(L8: the two load-generating client connections of a closed-loop store workload; they share nothing but the server under test)
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                let body = &body;
                s.spawn(move || {
                    let root = c.rec.enter("bench.client", c.id as u64);
                    body(&mut c);
                    c.rec.exit(root);
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("store client thread panicked"))
            .collect()
    })
}

/// Stops a server and waits until its engine is gone. Connection
/// threads let go of the engine when they see their client hang up,
/// which is after `stop` returns; without the wait the next engine is
/// built while the old one is still resident and the peak resident set
/// depends on who wins.
fn stop_and_free(server: StoreServer) {
    let engine = Arc::downgrade(server.engine());
    server.stop();
    let t0 = clock::now();
    while engine.strong_count() > 0 && clock::secs_since(t0) < 5.0 {
        thread::yield_now();
    }
}

// ---------------------------------------------------------------- durable

/// What the reopen after `store_durable_write` found.
#[derive(Debug, Clone, Default)]
pub struct Reopen {
    /// Seconds `StoreEngine::open` took over the log of each lifetime.
    pub recovery_s: Vec<f64>,
    /// Bytes of WAL one lifetime leaves on disk (every lifetime writes
    /// the same records).
    pub wal_bytes: u64,
    /// Mutations the clients had acknowledged, and the requests that
    /// carried them, over all lifetimes.
    pub acked_mutations: u64,
    pub acked_requests: u64,
    /// WAL durability barriers, from `STATS` before each stop.
    pub wal_syncs: u64,
}

fn wal_dir(ctx: &Ctx, rep: usize) -> PathBuf {
    ctx.out_dir
        .join(format!("wal-{}-{rep}", std::process::id()))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Keys the set-up warm-up writes and deletes again.
const WARM_PUTS: usize = 64;

struct Durable {
    dir: PathBuf,
    server: StoreServer,
    filler: Vec<u8>,
    /// Mutations the warm-up left in the log.
    warm_mutations: u64,
}

impl Durable {
    fn discard(self) {
        stop_and_free(self.server);
        let _ = std::fs::remove_dir_all(self.dir);
    }
}

/// Set-up: a fresh WAL directory, the server, the payload filler, and a
/// warm-up that takes every request kind of the body through the log
/// once (its keys are deleted again, its records stay).
fn durable_set_up(ctx: &Ctx, rep: usize) -> Durable {
    let dir = wal_dir(ctx, rep);
    let _ = std::fs::remove_dir_all(&dir);
    let engine = StoreEngine::open(&dir, SHARDS, SYNC).expect("open a fresh WAL directory");
    let server = StoreServer::start(Arc::new(engine), "127.0.0.1:0").expect("bind loopback");
    let filler = gen::filler(ctx.seed);
    let mut warm = StoreClient::connect(server.addr()).expect("connect");
    warm.ping().expect("ping");
    let keys: Vec<String> = (0..WARM_PUTS + BATCH)
        .map(|i| gen::store_key("warm", 0, i))
        .collect();
    for (i, key) in keys.iter().enumerate().take(WARM_PUTS) {
        warm.put(key, gen::store_value(&filler, i))
            .expect("warm-up put");
    }
    let pairs = (WARM_PUTS..WARM_PUTS + BATCH)
        .map(|i| (keys[i].clone(), gen::store_value(&filler, i)))
        .collect();
    warm.put_many(pairs).expect("warm-up put_many");
    let gone = warm.del_many(keys.clone()).expect("warm-up del_many");
    assert_eq!(gone as usize, keys.len(), "warm-up keys went missing");
    Durable {
        dir,
        server,
        filler,
        warm_mutations: 2 * keys.len() as u64,
    }
}

/// One round of one client: single puts, batched puts, the feedback
/// "processed" rename of every key ([`PIPELINE_DEPTH`] renames in flight
/// per round trip), and the batched delete of this
/// round's single-put keys and the previous round's batch keys — so the
/// store holds one round of values however long the run lasts, and the
/// last round's batch keys are there to be found after the reopen.
/// Returns the mutations acknowledged.
fn durable_round(c: &mut Client, filler: &[u8], round: usize) -> u64 {
    let per_round = ROUND_PUTS + ROUND_BATCHES * BATCH;
    let base = round * per_round;
    let mut acked = 0u64;
    for i in base..base + ROUND_PUTS {
        let (key, value) = (gen::store_key("new", c.id, i), gen::store_value(filler, i));
        if let Some(fresh) = c.call("storeserver.put", 1, |s| s.put(&key, value)) {
            acked += 1;
            c.expect(fresh, || format!("put {key} found the key already there"));
        }
    }
    for b in 0..ROUND_BATCHES {
        let from = base + ROUND_PUTS + b * BATCH;
        let pairs: Vec<(String, Bytes)> = (from..from + BATCH)
            .map(|i| (gen::store_key("new", c.id, i), gen::store_value(filler, i)))
            .collect();
        if let Some(fresh) = c.call("storeserver.put_many", BATCH, |s| s.put_many(pairs)) {
            acked += BATCH as u64;
            c.expect(fresh as usize == BATCH, || {
                format!("put_many wrote {fresh} new keys of {BATCH}")
            });
        }
    }
    let ids: Vec<usize> = (base..base + per_round).collect();
    for chunk in ids.chunks(PIPELINE_DEPTH) {
        let batch: Vec<Request> = chunk
            .iter()
            .map(|&i| Request::Rename {
                from: gen::store_key("new", c.id, i),
                to: gen::store_key("done", c.id, i),
            })
            .collect();
        if let Some(replies) = c.call("storeserver.rename_pipelined", chunk.len(), |s| {
            s.call_pipelined(&batch)
        }) {
            let moved = replies.iter().filter(|r| **r == Response::Unit).count();
            acked += moved as u64;
            c.expect(moved == chunk.len(), || {
                format!("{moved} of {} pipelined renames succeeded", chunk.len())
            });
        }
    }
    let doomed: Vec<String> = (base.saturating_sub(ROUND_BATCHES * BATCH)..base + ROUND_PUTS)
        .map(|i| gen::store_key("done", c.id, i))
        .collect();
    for chunk in doomed.chunks(BATCH) {
        let n = chunk.len();
        if let Some(gone) = c.call("storeserver.del_many", n, |s| s.del_many(chunk.to_vec())) {
            acked += n as u64;
            c.expect(gone as usize == n, || {
                format!("del_many removed {gone} of {n}")
            });
        }
    }
    acked
}

/// One engine lifetime of `store_durable_write`: [`LIFE_ROUNDS`] write
/// rounds per client against `durable`, then stop the server, reopen the
/// directory, and check that replay gives back exactly what was
/// acknowledged. Returns the seconds the write phase took.
fn durable_life(durable: Durable, m: &mut Measured, out: &mut Reopen, rec: &mut Recorder) -> f64 {
    let Durable {
        dir,
        server,
        filler,
        warm_mutations,
    } = durable;
    let addr = server.addr();
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|id| Client::connect(id, addr, rec.is_enabled(), rec.epoch()))
        .collect();

    let t0 = clock::now();
    let mutations = std::sync::Mutex::new(0u64);
    let clients = on_clients(clients, |c| {
        let acked: u64 = (0..LIFE_ROUNDS)
            .map(|round| durable_round(c, &filler, round))
            .sum();
        *mutations.lock().expect("tally lock") += acked;
    });
    let wrote_s = clock::secs_since(t0);
    let mutations = mutations.into_inner().expect("tally lock");
    let requests_before = m.attempted;
    fold(clients, m, rec);

    let acked = warm_mutations + mutations;
    out.acked_mutations += acked;
    out.acked_requests += m.attempted - requests_before;
    let mut admin = StoreClient::connect(addr).expect("connect");
    match admin.stats() {
        Ok(st) => {
            out.wal_syncs += st.wal_syncs;
            if st.wal_records != acked {
                m.fail(format!(
                    "the server logged {} records, the clients had {acked} mutations acknowledged",
                    st.wal_records
                ));
            }
        }
        Err(e) => m.fail(format!("stats: {e}")),
    }
    drop(admin);
    stop_and_free(server);
    out.wal_bytes = dir_bytes(&dir);

    // Reopen: replay must give back exactly what was acknowledged.
    let span = rec.enter("storeserver.engine.open", 0);
    let (reopened, recovery_s) = clock::time(|| StoreEngine::open(&dir, SHARDS, SYNC));
    rec.exit(span);
    out.recovery_s.push(recovery_s);
    match reopened {
        Err(e) => m.fail(format!("reopen: {e}")),
        Ok(engine) => {
            let r = engine.recovery();
            if r.torn_bytes != 0 || r.records != acked {
                m.fail(format!(
                    "replay recovered {} records ({} torn bytes), {acked} mutations were acknowledged",
                    r.records, r.torn_bytes
                ));
            }
            let per_round = ROUND_PUTS + ROUND_BATCHES * BATCH;
            for client in 0..CLIENTS {
                for i in 0..LIFE_ROUNDS * per_round {
                    m.attempted += 1;
                    let kept_key = i / per_round == LIFE_ROUNDS - 1 && i % per_round >= ROUND_PUTS;
                    let done = engine.handle(Request::Get {
                        key: gen::store_key("done", client, i),
                    });
                    let new = engine.handle(Request::Get {
                        key: gen::store_key("new", client, i),
                    });
                    let ok = match (&done, &new) {
                        (Response::Value(Some(v)), Response::Value(None)) => {
                            kept_key && gen::value_index(v) == Some(i)
                        }
                        (Response::Value(None), Response::Value(None)) => !kept_key,
                        _ => false,
                    };
                    if !ok {
                        m.fail(format!(
                            "after reopen: client {client} key {i} is wrong (kept: {kept_key})"
                        ));
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    wrote_s
}

/// `store_durable_write`: engine lifetimes until the time is up. Each
/// lifetime writes a fixed number of rounds, is stopped, reopened and
/// verified, and its log is deleted, so the log a run leaves in the page
/// cache stays far below what the kernel starts writing back on its own.
pub fn run_durable(ctx: &Ctx, rec: &mut Recorder) -> (Measured, Reopen) {
    let mut m = Measured::default();
    let mut rep = 0;
    let mut build = || {
        rep += 1;
        durable_set_up(ctx, rep)
    };
    let mut durable = crate::repeat_set_up(ctx, &mut m, &mut build, Durable::discard);
    let mut out = Reopen::default();
    let t0 = clock::now();
    let mut lives = 0u64;
    loop {
        let keys_before = m.work;
        let wrote_s = durable_life(durable, &mut m, &mut out, rec);
        m.body_s += wrote_s;
        m.unit_rates.push((m.work - keys_before) / wrote_s);
        lives += 1;
        if !crate::fits(t0, ctx.seconds, lives) {
            break;
        }
        durable = build();
    }
    m.counts
        .push(("storeserver.wal_bytes".into(), out.wal_bytes as f64));
    (m, out)
}

// ------------------------------------------------------------------- read

fn share(client: usize) -> std::ops::Range<usize> {
    let per = PRELOAD_FRAMES / CLIENTS;
    client * per..(client + 1) * per
}

/// The preloaded server of `store_read_scan`, with the connections that
/// preloaded it.
struct ReadStore {
    server: StoreServer,
    loaders: Vec<Client>,
}

impl ReadStore {
    /// Empties the store for the next set-up repetition. The server and
    /// the loader connections stay: the same server threads then reuse
    /// the memory they freed, where a fresh server's threads would
    /// allocate theirs beside it and the resident set would depend on the
    /// allocator's arena assignment.
    fn emptied(mut self) -> ReadStore {
        self.loaders = on_clients(self.loaders, |c| {
            let keys: Vec<String> = share(c.id)
                .map(|i| gen::store_key("new", c.id, i))
                .collect();
            for chunk in keys.chunks(BATCH) {
                let gone = c.call("unload", chunk.len(), |s| s.del_many(chunk.to_vec()));
                assert_eq!(
                    gone,
                    Some(chunk.len() as u64),
                    "preloaded keys went missing"
                );
            }
        });
        self
    }
}

/// Set-up: start the server (first repetition only) and preload it with
/// every client's share in batched round trips.
fn read_set_up(ctx: &Ctx, recycled: Option<ReadStore>) -> ReadStore {
    let mut store = recycled.unwrap_or_else(|| {
        let engine = Arc::new(StoreEngine::in_memory(SHARDS));
        let server = StoreServer::start(engine, "127.0.0.1:0").expect("bind loopback");
        let loaders = (0..CLIENTS)
            .map(|id| Client::connect(id, server.addr(), false, clock::now()))
            .collect();
        ReadStore { server, loaders }
    });
    let filler = gen::filler(ctx.seed);
    store.loaders = on_clients(store.loaders, |c| {
        let ids: Vec<usize> = share(c.id).collect();
        for chunk in ids.chunks(BATCH) {
            let pairs: Vec<(String, Bytes)> = chunk
                .iter()
                .map(|&i| (gen::store_key("new", c.id, i), gen::store_value(&filler, i)))
                .collect();
            let fresh = c.call("preload", chunk.len(), |s| s.put_many(pairs));
            assert_eq!(fresh, Some(chunk.len() as u64), "preload keys collided");
        }
    });
    assert!(
        store.loaders.iter().all(|c| c.failures.is_empty()),
        "preload failed"
    );
    store
}

/// One read-only pass of one client over its share: scan pages, batched
/// fetches, pipelined fetches — every value checked for length and
/// position.
fn read_pass(c: &mut Client) {
    let ids: Vec<usize> = share(c.id).collect();
    let pattern = format!("rdf:new:c{}:*", c.id);
    let (mut seen, mut cursor) = (0usize, Some(0u64));
    while let Some(at) = cursor {
        let page = c.call("storeserver.scan", 0, |s| s.scan(&pattern, at, SCAN_COUNT));
        cursor = page.as_ref().and_then(|&(_, next)| next);
        let found = page.map_or(0, |(keys, _)| keys.len());
        seen += found;
        c.keys += found as u64;
    }
    c.expect(seen == ids.len(), || {
        format!("scan saw {seen} of {} keys", ids.len())
    });

    for chunk in ids.chunks(BATCH) {
        let keys: Vec<String> = chunk
            .iter()
            .map(|&i| gen::store_key("new", c.id, i))
            .collect();
        if let Some(values) = c.call("storeserver.get_many", chunk.len(), |s| s.get_many(keys)) {
            let ok = values.len() == chunk.len()
                && values
                    .iter()
                    .zip(chunk)
                    .all(|(v, &i)| v.as_ref().and_then(|b| gen::value_index(b)) == Some(i));
            c.expect(ok, || {
                format!(
                    "get_many at {} returned a missing, short or misplaced value",
                    chunk[0]
                )
            });
        }
    }

    for chunk in ids.chunks(PIPELINE_DEPTH) {
        let batch: Vec<Request> = chunk
            .iter()
            .map(|&i| Request::Get {
                key: gen::store_key("new", c.id, i),
            })
            .collect();
        if let Some(replies) = c.call("storeserver.call_pipelined", chunk.len(), |s| {
            s.call_pipelined(&batch)
        }) {
            let ok = replies.len() == chunk.len()
                && replies.iter().zip(chunk).all(|(r, &i)| {
                    matches!(r, Response::Value(Some(b)) if gen::value_index(b) == Some(i))
                });
            c.expect(ok, || {
                format!(
                    "pipelined GETs at {} returned a missing, short or misplaced value",
                    chunk[0]
                )
            });
        }
    }
}

/// `store_read_scan`: read passes until the time is up.
pub fn run_read(ctx: &Ctx, rec: &mut Recorder) -> Measured {
    let mut m = Measured::default();
    let spare = std::cell::RefCell::new(None);
    let ReadStore { server, loaders } = crate::repeat_set_up(
        ctx,
        &mut m,
        || read_set_up(ctx, spare.borrow_mut().take()),
        |used| *spare.borrow_mut() = Some(used.emptied()),
    );
    drop(loaders);
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|id| Client::connect(id, server.addr(), rec.is_enabled(), rec.epoch()))
        .collect();
    let seconds = ctx.seconds;
    let t0 = clock::now();
    let clients = on_clients(clients, |c| {
        let mut passes = 0u64;
        while passes == 0 || crate::fits(t0, seconds, passes) {
            read_pass(c);
            passes += 1;
        }
    });
    m.body_s = clock::secs_since(t0);
    fold(clients, &mut m, rec);
    let mut admin = StoreClient::connect(server.addr()).expect("connect");
    match admin.stats() {
        Ok(st) if st.keys as usize == PRELOAD_FRAMES => {}
        Ok(st) => m.fail(format!(
            "{} keys in the store after read-only passes, {PRELOAD_FRAMES} preloaded",
            st.keys
        )),
        Err(e) => m.fail(format!("stats: {e}")),
    }
    drop(admin);
    server.stop();
    m
}
