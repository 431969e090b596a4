//! The TCP front end: thread-per-connection, group-commit acks.
//!
//! Each connection drains request frames, executes them against the
//! shared [`StoreEngine`], and buffers the encoded responses. The
//! buffered responses are only released once [`StoreEngine::sync_dirty`]
//! has made the batch durable — so under pipelining one fsync covers a
//! whole burst of writes (group commit), and a response on the wire
//! always means the write survives a crash. A ping-pong client gets a
//! sync per op; a depth-64 pipeliner gets a sync per 64. That, not
//! protocol overhead, is where pipelining pays on the durable path: the
//! client side sends a depth-64 batch in one flush
//! (`tests/wire.rs::pipelining_and_batching_cost_one_round_trip`).
//!
//! Chaos hooks: a [`DropSchedule`] built from seeded global op indices
//! severs the connection *after* the victim op is applied and synced but
//! *before* its response is sent — the nastiest real-network window,
//! where the client cannot know whether the op landed and must resolve
//! the ambiguity on reconnect (see `RetryClient`).

use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering}; // lint: allow(L6: listener shutdown flag + chaos op counter; both are edge-side and off the replay path)
use std::sync::Arc;
use std::thread;

use crate::engine::StoreEngine;
use crate::proto::{read_frame, Request, Response, WireError};

/// Seeded connection-drop points on the server's global op counter.
#[derive(Debug, Default)]
pub struct DropSchedule {
    points: BTreeSet<u64>,
    counter: AtomicU64, // lint: allow(L6: chaos-only op counter; ordering across connections is the fault being injected, not simulated state)
}

impl DropSchedule {
    /// A schedule that severs the connection handling the `i`-th op for
    /// each `i` in `points`.
    pub fn new(points: impl IntoIterator<Item = u64>) -> DropSchedule {
        DropSchedule {
            points: points.into_iter().collect(),
            counter: AtomicU64::new(0), // lint: allow(L6: chaos-only op counter init; see the field's allow)
        }
    }

    /// Counts one op; true when this op's connection must drop.
    fn fires(&self) -> bool {
        let n = self.counter.fetch_add(1, Ordering::SeqCst);
        self.points.contains(&n)
    }
}

/// A listening store server.
pub struct StoreServer {
    engine: Arc<StoreEngine>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>, // lint: allow(L6: accept-loop stop flag, same idiom as FarmServer)
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl StoreServer {
    /// Binds `addr` (port 0 for ephemeral) and serves `engine`.
    pub fn start(engine: Arc<StoreEngine>, addr: &str) -> std::io::Result<StoreServer> {
        StoreServer::start_with_drops(engine, addr, None)
    }

    /// Same, with a chaos drop schedule.
    pub fn start_with_drops(
        engine: Arc<StoreEngine>,
        addr: &str,
        drops: Option<DropSchedule>,
    ) -> std::io::Result<StoreServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false)); // lint: allow(L6: accept-loop stop flag init; see the field's allow)
        let drops = drops.map(Arc::new);
        let accept_engine = Arc::clone(&engine);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                let conn_engine = Arc::clone(&accept_engine);
                let conn_drops = drops.clone();
                thread::spawn(move || {
                    let _ = handle_connection(conn_engine, stream, conn_drops);
                });
            }
        });
        Ok(StoreServer {
            engine,
            addr: local,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served engine.
    pub fn engine(&self) -> &Arc<StoreEngine> {
        &self.engine
    }

    /// Stops accepting and joins the accept loop. Connections already
    /// in flight finish their current batch.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // wake the blocked accept
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks the calling thread until the accept loop exits — what the
    /// `storeserverd` daemon does after printing its address.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn handle_connection(
    engine: Arc<StoreEngine>,
    stream: TcpStream,
    drops: Option<Arc<DropSchedule>>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Responses accumulate here and are only written after the batch's
    // durability barrier; a BufWriter would leak unsynced acks when its
    // internal buffer overflows mid-batch.
    let mut out: Vec<u8> = Vec::new();
    const FLUSH_HIGH_WATER: usize = 4 * 1024 * 1024;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => {
                // Clean EOF: make straggling work durable, send what we
                // owe (best effort — the peer may be gone).
                engine.sync_dirty()?;
                let _ = writer.write_all(&out);
                return Ok(());
            }
            Err(e) => {
                engine.sync_dirty()?;
                return Err(e);
            }
        };
        let (seq, op, body) = frame;
        let chaos_drop = drops.as_ref().is_some_and(|d| d.fires());
        let resp = match Request::decode(op, &body) {
            Ok(req) => engine.handle(req),
            Err(e) => Response::Err(WireError::BadRequest(e)),
        };
        if chaos_drop {
            // Apply-then-drop: the op (and everything queued before it)
            // becomes durable, but no ack escapes — the client must
            // resolve the ambiguity after reconnecting.
            engine.sync_dirty()?;
            return Ok(());
        }
        out.extend_from_slice(&resp.encode_frame(seq));
        // Group commit: when the read buffer is drained the client is
        // waiting on us — sync once for the whole batch, then release
        // every buffered ack. A mid-batch high-water flush keeps memory
        // bounded and still syncs before sending.
        if reader.buffer().is_empty() || out.len() >= FLUSH_HIGH_WATER {
            engine.sync_dirty()?;
            writer.write_all(&out)?;
            writer.flush()?;
            out.clear();
        }
    }
}
