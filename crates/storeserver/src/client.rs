//! The store client: one API over two transports.
//!
//! [`TcpTransport`] speaks the wire protocol over a socket;
//! [`LoopbackTransport`] runs the *same encoded frames* through a
//! [`StoreEngine`] in-process — no sockets, no threads, no wall clock —
//! which is what lets the batch campaign path and tier-1 tests use the
//! networked backend deterministically. Because loopback frames go
//! through the full encode → parse → engine → encode → parse cycle,
//! the codec is exercised even where no network exists, and a request
//! that would fail on the wire fails identically in-process.
//!
//! Buffers are reused, not rebuilt: the client encodes each request into
//! one buffer it keeps, each transport receives replies into one buffer
//! it keeps, and a reply is read where it lies. [`StoreClient::get_with`]
//! and [`StoreClient::keys_with`] hand the reply's value or keys to the
//! caller in place, so the caller's copy is the only one made here.
//!
//! Pipelining: [`StoreClient::call_pipelined`] writes every request
//! frame before reading any response, then matches responses back by
//! sequence id: one flush, so one round trip of latency, for the whole
//! batch — the same effect the paper got from Redis pipelining on
//! Summit's spine. `tests/wire.rs::pipelining_and_batching_cost_one_round_trip`
//! pins the counts exactly.

use bytes::Bytes;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use crate::engine::StoreEngine;
use crate::proto::{
    Frame, FrameReader, List, ListIter, Request, RequestView, Response, ResponseView, StoreStats,
};
use crate::StoreError;

/// A bidirectional frame pipe.
pub trait Transport: Send {
    /// Queues one encoded frame for sending.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;
    /// Pushes queued frames to the peer.
    fn flush(&mut self) -> io::Result<()>;
    /// Receives the next response frame, blocking. The frame lies in the
    /// transport's receive buffer until the next call.
    fn recv(&mut self) -> io::Result<Frame<'_>>;
}

/// Frames over a TCP socket.
pub struct TcpTransport {
    stream: TcpStream,
    writer: BufWriter<TcpStream>,
    frames: FrameReader,
}

impl TcpTransport {
    /// Connects to a store server.
    pub fn connect(addr: SocketAddr) -> io::Result<TcpTransport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(TcpTransport {
            stream,
            writer,
            frames: FrameReader::default(),
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

    fn recv(&mut self) -> io::Result<Frame<'_>> {
        self.frames.next(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }
}

/// Frames through an in-process engine: deterministic, socket-free.
///
/// `send` serves the request frame at once (parsing the same bytes a
/// server would read off the wire) and appends the reply frame to one
/// reused buffer; `recv` reads the replies from it in order. When the
/// engine is durable, every mutation is synced before its response is
/// queued — the ack-after-durability contract held with zero
/// group-commit latency.
pub struct LoopbackTransport {
    engine: Arc<StoreEngine>,
    /// Reply frames not yet received start at `received`.
    replies: Vec<u8>,
    received: usize,
}

impl LoopbackTransport {
    /// Wraps an engine.
    pub fn new(engine: Arc<StoreEngine>) -> LoopbackTransport {
        LoopbackTransport {
            engine,
            replies: Vec::new(),
            received: 0,
        }
    }

    /// The engine behind this transport.
    pub fn engine(&self) -> &Arc<StoreEngine> {
        &self.engine
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let Some((frame, &[])) = Frame::split(frame)? else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "loopback sends take one whole frame",
            ));
        };
        if self.received == self.replies.len() {
            self.replies.clear();
            self.received = 0;
        }
        let queued = self.replies.len();
        self.engine.serve(frame, &mut self.replies);
        // No ack before its records are durable.
        if let Err(e) = self.engine.sync_dirty() {
            self.replies.truncate(queued);
            return Err(e);
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Frame<'_>> {
        let (frame, rest) = Frame::split(&self.replies[self.received..])?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::WouldBlock, "no response queued on loopback")
        })?;
        self.received = self.replies.len() - rest.len();
        Ok(frame)
    }
}

/// A typed client over any [`Transport`].
pub struct StoreClient {
    transport: Box<dyn Transport>,
    next_seq: u64,
    /// The current request's frame, encoded in place.
    out: Vec<u8>,
}

/// The error a reply of the wrong shape stands for.
fn unexpected(resp: ResponseView<'_>) -> StoreError {
    match resp {
        ResponseView::Err(e) => e.map(|m| m.to_string()).into(),
        other => StoreError::Protocol(format!("unexpected response {other:?}")),
    }
}

impl StoreClient {
    /// A client over an arbitrary transport.
    pub fn over(transport: Box<dyn Transport>) -> StoreClient {
        StoreClient {
            transport,
            next_seq: 0,
            out: Vec::new(),
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

    /// Sends `reqs` under consecutive sequence ids, each encoded into the
    /// reused request buffer, then flushes once. Returns the first id.
    fn send<'r>(
        &mut self,
        reqs: impl IntoIterator<Item = RequestView<'r>>,
    ) -> Result<u64, StoreError> {
        let first = self.next_seq;
        for req in reqs {
            self.out.clear();
            req.encode(self.next_seq, &mut self.out)?;
            self.next_seq += 1;
            self.transport.send(&self.out)?;
        }
        self.transport.flush()?;
        Ok(first)
    }

    /// Receives the next reply, read where it lies; it must answer `seq`.
    fn reply(&mut self, seq: u64) -> Result<ResponseView<'_>, StoreError> {
        let frame = self.transport.recv()?;
        if frame.seq != seq {
            return Err(StoreError::Protocol(format!(
                "response seq {}, wanted {seq}",
                frame.seq
            )));
        }
        ResponseView::parse(frame.tag, frame.body).map_err(StoreError::Protocol)
    }

    /// One request, one reply (a full round trip on TCP).
    fn exchange(&mut self, req: RequestView<'_>) -> Result<ResponseView<'_>, StoreError> {
        let seq = self.send([req])?;
        self.reply(seq)
    }

    /// One request, one response, owned.
    pub fn call(&mut self, req: &Request) -> Result<Response, StoreError> {
        Ok(self.exchange(req.view())?.to_response())
    }

    /// Pipelined execution: all requests are written before any
    /// response is read, so the whole batch costs one round trip of
    /// latency instead of one per request. Responses come back
    /// positionally matched (and seq-verified) to `reqs`.
    pub fn call_pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>, StoreError> {
        let first = self.send(reqs.iter().map(Request::view))?;
        (first..first + reqs.len() as u64)
            .map(|seq| Ok(self.reply(seq)?.to_response()))
            .collect()
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), StoreError> {
        match self.exchange(RequestView::Ping)? {
            ResponseView::Unit => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Stores one value; true when the key was new.
    pub fn put(&mut self, key: &str, value: impl AsRef<[u8]>) -> Result<bool, StoreError> {
        let value = value.as_ref();
        match self.exchange(RequestView::Put { key, value })? {
            ResponseView::Bool(b) => Ok(b),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches one value.
    pub fn get(&mut self, key: &str) -> Result<Option<Bytes>, StoreError> {
        self.get_with(key, Bytes::copy_from_slice)
    }

    /// Fetches one value and hands it to `read` where it lies in the reply.
    pub fn get_with<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&[u8]) -> T,
    ) -> Result<Option<T>, StoreError> {
        match self.exchange(RequestView::Get { key })? {
            ResponseView::Value(v) => Ok(v.map(read)),
            other => Err(unexpected(other)),
        }
    }

    /// Deletes one key; true when it existed.
    pub fn del(&mut self, key: &str) -> Result<bool, StoreError> {
        match self.exchange(RequestView::Del { key })? {
            ResponseView::Bool(b) => Ok(b),
            other => Err(unexpected(other)),
        }
    }

    /// Whether `key` exists.
    pub fn exists(&mut self, key: &str) -> Result<bool, StoreError> {
        match self.exchange(RequestView::Exists { key })? {
            ResponseView::Bool(b) => Ok(b),
            other => Err(unexpected(other)),
        }
    }

    /// Renames `from` to `to` (same-shard only, per hash-tag routing).
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        match self.exchange(RequestView::Rename { from, to })? {
            ResponseView::Unit => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// All keys matching a glob pattern.
    pub fn keys(&mut self, pattern: &str) -> Result<Vec<String>, StoreError> {
        self.keys_with(pattern, |keys| keys.map(str::to_owned).collect())
    }

    /// Lists the keys matching a glob pattern and hands them to `read`
    /// where they lie in the reply.
    pub fn keys_with<T>(
        &mut self,
        pattern: &str,
        read: impl FnOnce(ListIter<'_, String>) -> T,
    ) -> Result<T, StoreError> {
        match self.exchange(RequestView::Keys { pattern })? {
            ResponseView::KeyList(keys) => Ok(read(keys.iter())),
            other => Err(unexpected(other)),
        }
    }

    /// One incremental scan page; `None` next-cursor means done.
    pub fn scan(
        &mut self,
        pattern: &str,
        cursor: u64,
        count: u32,
    ) -> Result<(Vec<String>, Option<u64>), StoreError> {
        match self.exchange(RequestView::Scan {
            pattern,
            cursor,
            count,
        })? {
            ResponseView::ScanPage { keys, next } => {
                Ok((keys.iter().map(str::to_owned).collect(), next))
            }
            other => Err(unexpected(other)),
        }
    }

    /// Batched put; returns how many keys were new. One round trip.
    pub fn put_many(&mut self, pairs: Vec<(String, Bytes)>) -> Result<u64, StoreError> {
        let pairs = List::Items(&pairs);
        match self.exchange(RequestView::PutMany { pairs })? {
            ResponseView::Count(n) => Ok(n),
            other => Err(unexpected(other)),
        }
    }

    /// Batched get, positionally matched. One round trip.
    pub fn get_many(&mut self, keys: Vec<String>) -> Result<Vec<Option<Bytes>>, StoreError> {
        self.get_many_with(&keys, |vals| {
            vals.map(|v| v.map(Bytes::copy_from_slice)).collect()
        })
    }

    /// Batched get that hands the values, positionally matched, to `read`
    /// where they lie in the reply. One round trip.
    pub fn get_many_with<T>(
        &mut self,
        keys: &[String],
        read: impl FnOnce(ListIter<'_, Option<Bytes>>) -> T,
    ) -> Result<T, StoreError> {
        let keys = List::Items(keys);
        match self.exchange(RequestView::GetMany { keys })? {
            ResponseView::Values(vals) => Ok(read(vals.iter())),
            other => Err(unexpected(other)),
        }
    }

    /// Batched delete; returns how many keys existed. One round trip.
    pub fn del_many(&mut self, keys: Vec<String>) -> Result<u64, StoreError> {
        let keys = List::Items(&keys);
        match self.exchange(RequestView::DelMany { keys })? {
            ResponseView::Count(n) => Ok(n),
            other => Err(unexpected(other)),
        }
    }

    /// Server-side statistics.
    pub fn stats(&mut self) -> Result<StoreStats, StoreError> {
        match self.exchange(RequestView::Stats)? {
            ResponseView::Stats(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    /// Explicit durability barrier.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        match self.exchange(RequestView::Sync)? {
            ResponseView::Unit => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}
