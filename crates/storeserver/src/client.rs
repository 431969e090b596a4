//! The store client: one API over two transports.
//!
//! [`TcpTransport`] speaks the wire protocol over a socket;
//! [`LoopbackTransport`] runs the *same encoded frames* through a
//! [`StoreEngine`] in-process — no sockets, no threads, no wall clock —
//! which is what lets the batch campaign path and tier-1 tests use the
//! networked backend deterministically. Because loopback frames go
//! through the full encode → decode → engine → encode → decode cycle,
//! the codec is exercised even where no network exists, and a request
//! that would fail on the wire fails identically in-process.
//!
//! Pipelining: [`StoreClient::call_pipelined`] writes every request
//! frame before reading any response, then matches responses back by
//! sequence id: one flush, so one round trip of latency, for the whole
//! batch — the same effect the paper got from Redis pipelining on
//! Summit's spine. `tests/wire.rs::pipelining_and_batching_cost_one_round_trip`
//! pins the counts exactly.

use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use crate::engine::StoreEngine;
use crate::proto::{read_frame, Request, Response, StoreStats, WireError};
use crate::StoreError;

/// A bidirectional frame pipe.
pub trait Transport: Send {
    /// Queues one encoded frame for sending.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;
    /// Pushes queued frames to the peer.
    fn flush(&mut self) -> io::Result<()>;
    /// Receives the next response frame `(seq, status, body)`, blocking.
    fn recv(&mut self) -> io::Result<(u64, u8, Vec<u8>)>;
}

/// Frames over a TCP socket.
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl TcpTransport {
    /// Connects to a store server.
    pub fn connect(addr: SocketAddr) -> io::Result<TcpTransport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(TcpTransport {
            reader: BufReader::new(stream),
            writer,
        })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.writer.write_all(frame)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn recv(&mut self) -> io::Result<(u64, u8, Vec<u8>)> {
        read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }
}

/// Frames through an in-process engine: deterministic, socket-free.
///
/// `send` executes the request immediately (decoding the same bytes a
/// server would read off the wire) and queues the encoded response;
/// `recv` dequeues. When the engine is durable, every mutation is
/// synced before its response is queued — the ack-after-durability
/// contract held with zero group-commit latency.
pub struct LoopbackTransport {
    engine: Arc<StoreEngine>,
    responses: VecDeque<Vec<u8>>,
}

impl LoopbackTransport {
    /// Wraps an engine.
    pub fn new(engine: Arc<StoreEngine>) -> LoopbackTransport {
        LoopbackTransport {
            engine,
            responses: VecDeque::new(),
        }
    }

    /// The engine behind this transport.
    pub fn engine(&self) -> &Arc<StoreEngine> {
        &self.engine
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let mut r = frame;
        let (seq, op, body) = read_frame(&mut r)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty frame"))?;
        let resp = match Request::decode(op, &body) {
            Ok(req) => self.engine.handle(req),
            Err(e) => Response::Err(WireError::BadRequest(e)),
        };
        self.engine.sync_dirty()?;
        self.responses.push_back(resp.encode_frame(seq));
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn recv(&mut self) -> io::Result<(u64, u8, Vec<u8>)> {
        let frame = self.responses.pop_front().ok_or_else(|| {
            io::Error::new(io::ErrorKind::WouldBlock, "no response queued on loopback")
        })?;
        let mut r = &frame[..];
        read_frame(&mut r)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response frame"))
    }
}

/// A typed client over any [`Transport`].
pub struct StoreClient {
    transport: Box<dyn Transport>,
    next_seq: u64,
}

impl StoreClient {
    /// A client over an arbitrary transport.
    pub fn over(transport: Box<dyn Transport>) -> StoreClient {
        StoreClient {
            transport,
            next_seq: 0,
        }
    }

    /// Connects over TCP.
    pub fn connect(addr: SocketAddr) -> io::Result<StoreClient> {
        Ok(StoreClient::over(Box::new(TcpTransport::connect(addr)?)))
    }

    /// A deterministic in-process client over `engine`.
    pub fn loopback(engine: Arc<StoreEngine>) -> StoreClient {
        StoreClient::over(Box::new(LoopbackTransport::new(engine)))
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// One request, one response (a full round trip on TCP).
    pub fn call(&mut self, req: &Request) -> Result<Response, StoreError> {
        let seq = self.next_seq();
        self.transport.send(&req.encode_frame(seq))?;
        self.transport.flush()?;
        let (got_seq, st, body) = self.transport.recv()?;
        if got_seq != seq {
            return Err(StoreError::Protocol(format!(
                "response seq {got_seq} does not match request seq {seq}"
            )));
        }
        Response::decode(st, &body).map_err(StoreError::Protocol)
    }

    /// Pipelined execution: all requests are written before any
    /// response is read, so the whole batch costs one round trip of
    /// latency instead of one per request. Responses come back
    /// positionally matched (and seq-verified) to `reqs`.
    pub fn call_pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>, StoreError> {
        let first = self.next_seq;
        for req in reqs {
            let seq = self.next_seq();
            self.transport.send(&req.encode_frame(seq))?;
        }
        self.transport.flush()?;
        let mut out = Vec::with_capacity(reqs.len());
        for i in 0..reqs.len() {
            let (seq, st, body) = self.transport.recv()?;
            let want = first + i as u64;
            if seq != want {
                return Err(StoreError::Protocol(format!(
                    "pipelined response seq {seq}, wanted {want}"
                )));
            }
            out.push(Response::decode(st, &body).map_err(StoreError::Protocol)?);
        }
        Ok(out)
    }

    fn unexpected(resp: Response) -> StoreError {
        match resp {
            Response::Err(e) => e.into(),
            other => StoreError::Protocol(format!("unexpected response {other:?}")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), StoreError> {
        match self.call(&Request::Ping)? {
            Response::Unit => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Stores one value; true when the key was new.
    pub fn put(&mut self, key: &str, value: impl Into<Bytes>) -> Result<bool, StoreError> {
        let req = Request::Put {
            key: key.to_string(),
            value: value.into(),
        };
        match self.call(&req)? {
            Response::Bool(b) => Ok(b),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Fetches one value.
    pub fn get(&mut self, key: &str) -> Result<Option<Bytes>, StoreError> {
        match self.call(&Request::Get {
            key: key.to_string(),
        })? {
            Response::Value(v) => Ok(v),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Deletes one key; true when it existed.
    pub fn del(&mut self, key: &str) -> Result<bool, StoreError> {
        match self.call(&Request::Del {
            key: key.to_string(),
        })? {
            Response::Bool(b) => Ok(b),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Whether `key` exists.
    pub fn exists(&mut self, key: &str) -> Result<bool, StoreError> {
        match self.call(&Request::Exists {
            key: key.to_string(),
        })? {
            Response::Bool(b) => Ok(b),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Renames `from` to `to` (same-shard only, per hash-tag routing).
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        match self.call(&Request::Rename {
            from: from.to_string(),
            to: to.to_string(),
        })? {
            Response::Unit => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// All keys matching a glob pattern.
    pub fn keys(&mut self, pattern: &str) -> Result<Vec<String>, StoreError> {
        match self.call(&Request::Keys {
            pattern: pattern.to_string(),
        })? {
            Response::KeyList(keys) => Ok(keys),
            other => Err(Self::unexpected(other)),
        }
    }

    /// One incremental scan page; `None` next-cursor means done.
    pub fn scan(
        &mut self,
        pattern: &str,
        cursor: u64,
        count: u32,
    ) -> Result<(Vec<String>, Option<u64>), StoreError> {
        match self.call(&Request::Scan {
            pattern: pattern.to_string(),
            cursor,
            count,
        })? {
            Response::ScanPage { keys, next } => Ok((keys, next)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Batched put; returns how many keys were new. One round trip.
    pub fn put_many(&mut self, pairs: Vec<(String, Bytes)>) -> Result<u64, StoreError> {
        match self.call(&Request::PutMany { pairs })? {
            Response::Count(n) => Ok(n),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Batched get, positionally matched. One round trip.
    pub fn get_many(&mut self, keys: Vec<String>) -> Result<Vec<Option<Bytes>>, StoreError> {
        match self.call(&Request::GetMany { keys })? {
            Response::Values(v) => Ok(v),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Batched delete; returns how many keys existed. One round trip.
    pub fn del_many(&mut self, keys: Vec<String>) -> Result<u64, StoreError> {
        match self.call(&Request::DelMany { keys })? {
            Response::Count(n) => Ok(n),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Server-side statistics.
    pub fn stats(&mut self) -> Result<StoreStats, StoreError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Explicit durability barrier.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        match self.call(&Request::Sync)? {
            Response::Unit => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }
}
