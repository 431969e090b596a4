//! A networked, sharded datastore server — the paper's Redis cluster
//! promoted from in-process stand-in to a real service.
//!
//! MuMMI's coordination layer ran a 20-node Redis cluster as its
//! "short-term and highly responsive in-memory cache" (§4.2); Fig 7
//! measures exactly the key-scan / value-fetch / delete families that
//! gate feedback throughput. This crate gives the reproduction the same
//! tier as an actual server process:
//!
//! * [`proto`] — a length-prefixed binary-opcode wire protocol with
//!   **request pipelining**: many in-flight ops per connection, matched
//!   by sequence id. One encoder writes frames into a caller's reused
//!   buffer and one parser reads them in place, on every path.
//! * [`wal`] — per-shard write-ahead logs with CRC-framed records,
//!   group-commit fsync batching, and torn-tail-tolerant crash
//!   recovery (taridx's rescan discipline, applied to a log).
//! * [`engine`] — the transport-agnostic core: one handler
//!   ([`StoreEngine::serve`]) for TCP and loopback frames,
//!   `kvstore::Cluster` hash-tag placement, and one write path
//!   (`commit`) that logs then applies each op, the same `apply` replay
//!   uses.
//! * [`server`] — thread-per-connection TCP front end that only acks
//!   after the batch's durability barrier. It carries no fault hooks:
//!   the chaos tests inject lost acks from a proxy of their own.
//! * [`client`] — a typed client with batched ops (`put_many` /
//!   `get_many` / `scan`), explicit pipelining, and two transports: TCP
//!   and a deterministic in-process **loopback** (no sockets, no
//!   threads) that the batch campaign path rides so replay stays
//!   byte-identical.
//!
//! ```
//! use storeserver::{StoreClient, StoreEngine};
//! use std::sync::Arc;
//!
//! // Deterministic in-process path (what campaigns use):
//! let engine = Arc::new(StoreEngine::in_memory(20));
//! let mut client = StoreClient::loopback(engine);
//! client.put("rdf:new:{sim1}:f0", &b"rdf bytes"[..]).unwrap();
//! client.rename("rdf:new:{sim1}:f0", "rdf:done:{sim1}:f0").unwrap();
//! assert_eq!(client.keys("rdf:done:*").unwrap().len(), 1);
//! ```

pub mod client;
pub mod engine;
pub mod proto;
pub mod server;
pub mod wal;

pub use client::{LoopbackTransport, StoreClient, TcpTransport, Transport};
pub use engine::{EngineError, RecoveryReport, StoreEngine};
pub use proto::{Request, Response, StoreStats, WireError};
pub use server::StoreServer;
pub use wal::{SyncMode, WalOp};

use std::fmt;

/// Client-side errors: transport failures plus the typed store errors
/// mirrored from the wire statuses.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// Rename source does not exist.
    NoSuchKey(String),
    /// Rename would cross shards; callers must use hash tags.
    CrossShardRename {
        from: String,
        to: String,
    },
    /// Malformed request as judged by the server.
    BadRequest(String),
    /// Server-side failure (e.g. WAL I/O).
    Server(String),
    /// The reply violated the protocol (bad seq, wrong shape).
    Protocol(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "transport: {e}"),
            StoreError::NoSuchKey(k) => write!(f, "no such key: {k}"),
            StoreError::CrossShardRename { from, to } => {
                write!(f, "rename crosses shards: {from} -> {to}")
            }
            StoreError::BadRequest(m) => write!(f, "bad request: {m}"),
            StoreError::Server(m) => write!(f, "server error: {m}"),
            StoreError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::NoSuchKey(k) => StoreError::NoSuchKey(k),
            WireError::CrossShardRename { from, to } => StoreError::CrossShardRename { from, to },
            WireError::BadRequest(m) => StoreError::BadRequest(m),
            WireError::Server(m) => StoreError::Server(m),
        }
    }
}

/// Convenience alias for client results.
pub type Result<T> = std::result::Result<T, StoreError>;
