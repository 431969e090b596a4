//! The TCP front end: thread-per-connection, group-commit acks.
//!
//! Each connection reads request frames into its own reused buffer,
//! hands each to [`StoreEngine::serve`] where it lies, and collects the
//! reply frames in a second reused buffer. The
//! buffered responses are only released once [`StoreEngine::sync_dirty`]
//! has made the batch durable — so under pipelining one fsync covers a
//! whole burst of writes (group commit), and a response on the wire
//! always means the write survives a crash. A ping-pong client gets a
//! sync per op; a depth-64 pipeliner gets a sync per 64. That, not
//! protocol overhead, is where pipelining pays on the durable path: the
//! client side sends a depth-64 batch in one flush
//! (`tests/wire.rs::pipelining_and_batching_cost_one_round_trip`).
//!
//! The server holds no test hooks. The only state its threads share
//! besides the engine is the accept loop's shutdown flag; a test that
//! needs a lost ack cuts the connection in its own proxy
//! (`tests/chaos_net.rs`).

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering}; // lint: allow(L6: listener shutdown flag, the only state the server's threads share besides the engine; off the replay path)
use std::sync::Arc;
use std::thread;

use crate::engine::StoreEngine;
use crate::proto::FrameReader;

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
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false)); // lint: allow(L6: accept-loop stop flag init; see the field's allow)
        let accept_engine = Arc::clone(&engine);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                let conn_engine = Arc::clone(&accept_engine);
                thread::spawn(move || {
                    let _ = handle_connection(conn_engine, stream);
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

fn handle_connection(engine: Arc<StoreEngine>, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = stream;
    let mut frames = FrameReader::default();
    // Responses accumulate here and are only written after the batch's
    // durability barrier; a BufWriter would leak unsynced acks when its
    // internal buffer overflows mid-batch.
    let mut out: Vec<u8> = Vec::new();
    const FLUSH_HIGH_WATER: usize = 4 * 1024 * 1024;
    loop {
        match frames.next(&mut reader) {
            Ok(Some(frame)) => engine.serve(frame, &mut out),
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
        }
        // Group commit: when every byte read has been served the client
        // is waiting on us — sync once for the whole batch, then release
        // every buffered ack. A mid-batch high-water flush keeps memory
        // bounded and still syncs before sending.
        if frames.is_drained() || out.len() >= FLUSH_HIGH_WATER {
            engine.sync_dirty()?;
            writer.write_all(&out)?;
            writer.flush()?;
            out.clear();
        }
    }
}
