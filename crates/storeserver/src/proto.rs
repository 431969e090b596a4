//! Length-prefixed binary wire protocol with request pipelining.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! | field  | bytes | meaning                                        |
//! |--------|-------|------------------------------------------------|
//! | len    | 4, LE | byte length of the rest of the frame           |
//! | seq    | 8, LE | client-chosen sequence id, echoed in the reply |
//! | tag    | 1     | request: opcode · response: status code        |
//! | body   | len−9 | tag-specific payload                           |
//!
//! The sequence id is what makes pipelining work: a client may have any
//! number of requests in flight on one connection and matches responses
//! back to requests by `seq` (the server answers in arrival order, so
//! `seq` also doubles as an ordering check). Strings and byte values are
//! encoded as `[u32 LE len][bytes]`; strings must be UTF-8.
//!
//! Ok responses carry a one-byte *kind* tag before the payload so the
//! body is self-describing; error statuses carry their detail strings
//! directly. Decoding is strict: trailing bytes, bad tags, or non-UTF-8
//! strings bounce with a description rather than being ignored.
//!
//! One codec serves every path. [`RequestView::encode`] and
//! [`ResponseView::encode`] append a frame to a caller-owned buffer,
//! from borrowed keys and values; [`ResponseView::encode_key_list`] and
//! [`ResponseView::encode_values`] append a list reply whose elements
//! the caller writes as it finds them. Every list goes through one
//! writer, which puts the count in place after the last element.
//! [`RequestView::parse`] and [`ResponseView::parse`] read a body where
//! it lies, as `&str` keys, `&[u8]` values and [`List`]s walked in place.
//! [`FrameReader`] is the reused receive buffer those bodies lie in. The
//! owned [`Request`] and [`Response`] are wrappers: encoding one encodes
//! its view, and decoding one is a parse plus a copy.

use bytes::Bytes;
use std::io::{self, BufRead, Read};

/// Hard upper bound on a frame body; anything larger is a protocol error
/// (protects the server from a garbage length prefix).
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// A [`FrameReader`] reads in chunks of at least this many bytes.
const READ_CHUNK: usize = 8 * 1024;

/// Request opcodes (the `tag` byte of a request frame).
mod opcode {
    pub(super) const PING: u8 = 1;
    pub(super) const PUT: u8 = 2;
    pub(super) const GET: u8 = 3;
    pub(super) const DEL: u8 = 4;
    pub(super) const EXISTS: u8 = 5;
    pub(super) const RENAME: u8 = 6;
    pub(super) const KEYS: u8 = 7;
    pub(super) const SCAN: u8 = 8;
    pub(super) const PUT_MANY: u8 = 9;
    pub(super) const GET_MANY: u8 = 10;
    pub(super) const DEL_MANY: u8 = 11;
    pub(super) const STATS: u8 = 12;
    pub(super) const SYNC: u8 = 13;
}

/// Response status codes (the `tag` byte of a response frame).
mod status {
    pub(super) const OK: u8 = 0;
    pub(super) const NO_SUCH_KEY: u8 = 1;
    pub(super) const CROSS_SHARD_RENAME: u8 = 2;
    pub(super) const BAD_REQUEST: u8 = 3;
    pub(super) const SERVER_ERROR: u8 = 4;
}

/// Kind tags distinguishing Ok-response payload shapes.
mod kind {
    pub(super) const UNIT: u8 = 0;
    pub(super) const BOOL: u8 = 1;
    pub(super) const VALUE: u8 = 2;
    pub(super) const KEY_LIST: u8 = 3;
    pub(super) const SCAN_PAGE: u8 = 4;
    pub(super) const COUNT: u8 = 5;
    pub(super) const VALUES: u8 = 6;
    pub(super) const STATS: u8 = 7;
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Ping,
    Put {
        key: String,
        value: Bytes,
    },
    Get {
        key: String,
    },
    Del {
        key: String,
    },
    Exists {
        key: String,
    },
    Rename {
        from: String,
        to: String,
    },
    Keys {
        pattern: String,
    },
    Scan {
        pattern: String,
        cursor: u64,
        count: u32,
    },
    PutMany {
        pairs: Vec<(String, Bytes)>,
    },
    GetMany {
        keys: Vec<String>,
    },
    DelMany {
        keys: Vec<String>,
    },
    Stats,
    Sync,
}

/// Server-side store statistics returned by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    pub shards: u32,
    pub keys: u64,
    pub memory_bytes: u64,
    pub wal_records: u64,
    pub wal_syncs: u64,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Ping, Rename, Sync.
    Unit,
    /// Put (key was new), Del (key existed), Exists.
    Bool(bool),
    /// Get; `None` means the key does not exist.
    Value(Option<Bytes>),
    /// Keys.
    KeyList(Vec<String>),
    /// Scan; `next == None` means the scan completed.
    ScanPage {
        keys: Vec<String>,
        next: Option<u64>,
    },
    /// PutMany (new keys), DelMany (keys that existed).
    Count(u64),
    /// GetMany, positionally matching the request keys.
    Values(Vec<Option<Bytes>>),
    Stats(StoreStats),
    /// Any non-Ok status.
    Err(WireError),
}

/// Typed wire-level errors (non-Ok statuses): owned in a [`Response`],
/// borrowed (`WireError<&str>`) in a [`ResponseView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError<S = String> {
    NoSuchKey(S),
    CrossShardRename { from: S, to: S },
    BadRequest(S),
    Server(S),
}

impl<S: std::fmt::Display> std::fmt::Display for WireError<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::NoSuchKey(k) => write!(f, "no such key: {k}"),
            WireError::CrossShardRename { from, to } => {
                write!(f, "rename crosses shards: {from} -> {to}")
            }
            WireError::BadRequest(m) => write!(f, "bad request: {m}"),
            WireError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl<S> WireError<S> {
    /// The same error with each detail string passed through `f`.
    pub(crate) fn map<'a, T>(&'a self, f: impl Fn(&'a S) -> T) -> WireError<T> {
        match self {
            WireError::NoSuchKey(k) => WireError::NoSuchKey(f(k)),
            WireError::CrossShardRename { from, to } => WireError::CrossShardRename {
                from: f(from),
                to: f(to),
            },
            WireError::BadRequest(m) => WireError::BadRequest(f(m)),
            WireError::Server(m) => WireError::Server(f(m)),
        }
    }
}

// ---------------------------------------------------------------- framing

/// One frame as it lies in a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The sequence id a reply echoes.
    pub seq: u64,
    /// Request opcode or response status.
    pub tag: u8,
    /// Everything after the tag byte.
    pub body: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Splits the first frame off `buf`, returning it and the bytes after
    /// it: `Ok(None)` while `buf` holds only part of a frame, an error for
    /// a length prefix no frame can have.
    pub fn split(buf: &'a [u8]) -> io::Result<Option<(Frame<'a>, &'a [u8])>> {
        let want = frame_len(buf)?;
        Ok(buf
            .split_at_checked(want)
            .map(|(whole, rest)| (Frame::at(whole), rest)))
    }

    /// The frame `whole` holds, its length prefix already checked.
    fn at(whole: &'a [u8]) -> Frame<'a> {
        let seq = whole[4..12]
            .try_into()
            .expect("a checked frame has a header");
        Frame {
            seq: u64::from_le_bytes(seq),
            tag: whole[12],
            body: &whole[13..],
        }
    }
}

/// The byte length of the frame at the front of `buf`, length prefix
/// included (4 while the prefix has not all arrived). A length outside
/// `9..=MAX_FRAME` is an error.
fn frame_len(buf: &[u8]) -> io::Result<usize> {
    let Some(&prefix) = buf.first_chunk::<4>() else {
        return Ok(4);
    };
    let len = u32::from_le_bytes(prefix);
    if !(9..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    Ok(4 + len as usize)
}

/// A reused receive buffer over one byte stream. Frames are read into it
/// and parsed where they land, so receiving allocates only when a frame
/// is larger than every frame before it. The buffer grows at most to
/// twice the bytes of a frame that have arrived.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of the bytes not yet handed out as frames.
    start: usize,
    /// End of the bytes read so far.
    end: usize,
}

impl FrameReader {
    /// Reads until a whole frame is buffered and returns it; the frame
    /// borrows the buffer until the next call. `Ok(None)` is a clean EOF
    /// at a frame boundary; EOF mid-frame is an error (a torn frame means
    /// the peer died mid-send).
    pub fn next(&mut self, r: &mut impl Read) -> io::Result<Option<Frame<'_>>> {
        loop {
            let want = frame_len(&self.buf[self.start..self.end])?;
            if self.end - self.start >= want {
                let at = self.start;
                self.start += want;
                return Ok(Some(Frame::at(&self.buf[at..self.start])));
            }
            if self.end == self.buf.len() {
                // Full: move the partial frame to the front, and grow only
                // as far as the bytes already here justify, so a forged
                // length prefix is not given memory it was never sent.
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
                if self.end == self.buf.len() {
                    let grown = (2 * self.buf.len()).min(want).max(READ_CHUNK);
                    self.buf.resize(grown, 0);
                }
            }
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if self.start == self.end => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "the stream ended mid-frame",
                    ))
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether every byte read so far went out in a frame: a peer that
    /// sends whole frames and has nothing more in flight is waiting.
    pub fn is_drained(&self) -> bool {
        self.start == self.end
    }
}

/// Reads exactly one frame from `r`, returning `(seq, tag, body)` with
/// the body copied out. Returns `None` on a clean EOF at a frame
/// boundary; EOF mid-frame, length prefix included, is an error.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<(u64, u8, Vec<u8>)>> {
    loop {
        match r.fill_buf() {
            Ok([]) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let mut head = [0u8; 13];
    r.read_exact(&mut head[..4])?;
    let mut body = vec![0u8; frame_len(&head)? - head.len()];
    r.read_exact(&mut head[4..])?;
    r.read_exact(&mut body)?;
    let header = Frame::at(&head);
    Ok(Some((header.seq, header.tag, body)))
}

/// Appends a frame header with a placeholder length; returns where the
/// frame starts, for [`end_frame`].
fn begin_frame(out: &mut Vec<u8>, seq: u64, tag: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    put_u64(out, seq);
    out.push(tag);
    start
}

/// Writes the length of the frame begun at `start`. A frame past
/// `MAX_FRAME` is removed again and refused.
fn end_frame(out: &mut Vec<u8>, start: usize) -> io::Result<()> {
    let len = out.len() - start - 4;
    if len > MAX_FRAME as usize {
        out.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

// ------------------------------------------------------------- primitives

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_option(out: &mut Vec<u8>, v: Option<&[u8]>) {
    match v {
        None => out.push(0),
        Some(b) => {
            out.push(1);
            put_bytes(out, b);
        }
    }
}

// ------------------------------------------------------------------ lists

type DecodeResult<T> = std::result::Result<T, String>;

/// The cursor and the list element trait, reachable from public
/// signatures but not nameable outside this module.
mod sealed {
    use super::{DecodeResult, List};

    /// Strict little-endian cursor over a frame body.
    #[derive(Debug, Clone)]
    pub struct Cur<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Cur<'a> {
        pub(super) fn new(buf: &'a [u8]) -> Cur<'a> {
            Cur { buf, pos: 0 }
        }

        pub(super) fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
            if self.buf.len() - self.pos < n {
                return Err(format!(
                    "truncated body: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len() - self.pos
                ));
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        pub(super) fn u8(&mut self) -> DecodeResult<u8> {
            Ok(self.take(1)?[0])
        }

        pub(super) fn u32(&mut self) -> DecodeResult<u32> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }

        pub(super) fn u64(&mut self) -> DecodeResult<u64> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }

        pub(super) fn bytes(&mut self) -> DecodeResult<&'a [u8]> {
            let n = self.u32()? as usize;
            self.take(n)
        }

        pub(super) fn str(&mut self) -> DecodeResult<&'a str> {
            std::str::from_utf8(self.bytes()?).map_err(|_| "non-UTF-8 string".to_string())
        }

        /// A bool is 0 or 1: any other byte would not encode back to itself.
        pub(super) fn bool(&mut self) -> DecodeResult<bool> {
            match self.u8()? {
                0 => Ok(false),
                1 => Ok(true),
                other => Err(format!("bad bool {other}")),
            }
        }

        pub(super) fn option(&mut self) -> DecodeResult<Option<&'a [u8]>> {
            match self.u8()? {
                0 => Ok(None),
                1 => Ok(Some(self.bytes()?)),
                other => Err(format!("bad option tag {other}")),
            }
        }

        /// A list: a `u32` count, refused when the rest of the body cannot
        /// hold that many elements (so a forged count sizes nothing), then
        /// each element, checked here and walked again in place later.
        pub(super) fn list<T: Item>(&mut self) -> DecodeResult<List<'a, T>> {
            let len = self.u32()? as usize;
            let left = self.buf.len() - self.pos;
            if len.saturating_mul(T::MIN_LEN) > left {
                return Err(format!("count {len} cannot fit in the {left} bytes left"));
            }
            let start = self.pos;
            for _ in 0..len {
                T::take(self)?;
            }
            Ok(List::Wire {
                len,
                bytes: &self.buf[start..self.pos],
            })
        }

        pub(super) fn finish(&self) -> DecodeResult<()> {
            if self.pos != self.buf.len() {
                return Err(format!(
                    "{} trailing bytes after message",
                    self.buf.len() - self.pos
                ));
            }
            Ok(())
        }
    }

    /// What a [`super::List`] can hold: a key, a key and its value, or a
    /// value that may be missing.
    pub trait Item: Sized {
        /// One element as it is borrowed.
        type View<'a>: Copy;
        /// The fewest body bytes one element takes.
        const MIN_LEN: usize;
        fn view(&self) -> Self::View<'_>;
        fn own(view: Self::View<'_>) -> Self;
        fn put(view: Self::View<'_>, out: &mut Vec<u8>);
        fn take<'a>(c: &mut Cur<'a>) -> DecodeResult<Self::View<'a>>;
    }
}

use sealed::{Cur, Item};

impl Item for String {
    type View<'a> = &'a str;
    const MIN_LEN: usize = 4;
    fn view(&self) -> &str {
        self
    }
    fn own(key: &str) -> String {
        key.to_owned()
    }
    fn put(key: &str, out: &mut Vec<u8>) {
        put_str(out, key);
    }
    fn take<'a>(c: &mut Cur<'a>) -> DecodeResult<&'a str> {
        c.str()
    }
}

impl Item for (String, Bytes) {
    type View<'a> = (&'a str, &'a [u8]);
    const MIN_LEN: usize = 8;
    fn view(&self) -> (&str, &[u8]) {
        (&self.0, &self.1)
    }
    fn own((key, value): (&str, &[u8])) -> (String, Bytes) {
        (key.to_owned(), Bytes::copy_from_slice(value))
    }
    fn put((key, value): (&str, &[u8]), out: &mut Vec<u8>) {
        put_str(out, key);
        put_bytes(out, value);
    }
    fn take<'a>(c: &mut Cur<'a>) -> DecodeResult<(&'a str, &'a [u8])> {
        Ok((c.str()?, c.bytes()?))
    }
}

impl Item for Option<Bytes> {
    type View<'a> = Option<&'a [u8]>;
    const MIN_LEN: usize = 1;
    fn view(&self) -> Option<&[u8]> {
        self.as_deref()
    }
    fn own(value: Option<&[u8]>) -> Option<Bytes> {
        value.map(Bytes::copy_from_slice)
    }
    fn put(value: Option<&[u8]>, out: &mut Vec<u8>) {
        put_option(out, value);
    }
    fn take<'a>(c: &mut Cur<'a>) -> DecodeResult<Option<&'a [u8]>> {
        c.option()
    }
}

/// A list field: the caller's items on the way out, or `len` elements
/// lying in a parsed body (each checked when the body was parsed), read
/// where they lie.
#[derive(Debug)]
pub enum List<'a, T> {
    Items(&'a [T]),
    Wire { len: usize, bytes: &'a [u8] },
}

impl<T> Clone for List<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for List<'_, T> {}

impl<'a, T: Item> List<'a, T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            List::Items(items) => items.len(),
            List::Wire { len, .. } => *len,
        }
    }

    /// True for a list of no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The elements, borrowed.
    pub fn iter(&self) -> ListIter<'a, T> {
        match *self {
            List::Items(items) => ListIter {
                items: items.iter(),
                wire: Cur::new(&[]),
                left: 0,
            },
            List::Wire { len, bytes } => ListIter {
                items: [].iter(),
                wire: Cur::new(bytes),
                left: len,
            },
        }
    }

    fn put(&self, out: &mut Vec<u8>) {
        put_list::<T>(out, |put| self.iter().for_each(put));
    }

    fn to_vec(self) -> Vec<T> {
        self.iter().map(T::own).collect()
    }
}

/// Appends a list field: a `u32` count, then each element `walk` hands
/// to the writer it is lent. The count is written after the last
/// element, so a list can be written as its elements are found.
fn put_list<T: Item>(out: &mut Vec<u8>, walk: impl FnOnce(&mut dyn FnMut(T::View<'_>))) {
    let at = out.len();
    put_u32(out, 0);
    let mut len = 0u32;
    walk(&mut |item| {
        T::put(item, out);
        len += 1;
    });
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// The elements of a [`List`], borrowed.
#[derive(Debug, Clone)]
pub struct ListIter<'a, T> {
    items: std::slice::Iter<'a, T>,
    wire: Cur<'a>,
    left: usize,
}

impl<'a, T: Item> Iterator for ListIter<'a, T> {
    type Item = T::View<'a>;

    fn next(&mut self) -> Option<T::View<'a>> {
        if let Some(item) = self.items.next() {
            return Some(item.view());
        }
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        T::take(&mut self.wire).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.items.len() + self.left;
        (n, Some(n))
    }
}

impl<T: Item> ExactSizeIterator for ListIter<'_, T> {}

// --------------------------------------------------------------- requests

/// A request with its keys and values borrowed: read in place from a
/// body, or about to be encoded.
#[derive(Debug, Clone, Copy)]
pub enum RequestView<'a> {
    Ping,
    Put {
        key: &'a str,
        value: &'a [u8],
    },
    Get {
        key: &'a str,
    },
    Del {
        key: &'a str,
    },
    Exists {
        key: &'a str,
    },
    Rename {
        from: &'a str,
        to: &'a str,
    },
    Keys {
        pattern: &'a str,
    },
    Scan {
        pattern: &'a str,
        cursor: u64,
        count: u32,
    },
    PutMany {
        pairs: List<'a, (String, Bytes)>,
    },
    GetMany {
        keys: List<'a, String>,
    },
    DelMany {
        keys: List<'a, String>,
    },
    Stats,
    Sync,
}

impl<'a> RequestView<'a> {
    /// The opcode this request travels under.
    fn opcode(&self) -> u8 {
        match self {
            RequestView::Ping => opcode::PING,
            RequestView::Put { .. } => opcode::PUT,
            RequestView::Get { .. } => opcode::GET,
            RequestView::Del { .. } => opcode::DEL,
            RequestView::Exists { .. } => opcode::EXISTS,
            RequestView::Rename { .. } => opcode::RENAME,
            RequestView::Keys { .. } => opcode::KEYS,
            RequestView::Scan { .. } => opcode::SCAN,
            RequestView::PutMany { .. } => opcode::PUT_MANY,
            RequestView::GetMany { .. } => opcode::GET_MANY,
            RequestView::DelMany { .. } => opcode::DEL_MANY,
            RequestView::Stats => opcode::STATS,
            RequestView::Sync => opcode::SYNC,
        }
    }

    /// Appends this request's frame, under `seq`, to `out`. A frame past
    /// `MAX_FRAME` is refused and leaves `out` as it was.
    pub fn encode(&self, seq: u64, out: &mut Vec<u8>) -> io::Result<()> {
        let start = begin_frame(out, seq, self.opcode());
        match *self {
            RequestView::Ping | RequestView::Stats | RequestView::Sync => {}
            RequestView::Put { key, value } => {
                put_str(out, key);
                put_bytes(out, value);
            }
            RequestView::Get { key } | RequestView::Del { key } | RequestView::Exists { key } => {
                put_str(out, key)
            }
            RequestView::Rename { from, to } => {
                put_str(out, from);
                put_str(out, to);
            }
            RequestView::Keys { pattern } => put_str(out, pattern),
            RequestView::Scan {
                pattern,
                cursor,
                count,
            } => {
                put_str(out, pattern);
                put_u64(out, cursor);
                put_u32(out, count);
            }
            RequestView::PutMany { pairs } => pairs.put(out),
            RequestView::GetMany { keys } | RequestView::DelMany { keys } => keys.put(out),
        }
        end_frame(out, start)
    }

    /// Reads a request body under its opcode, in place.
    pub fn parse(op: u8, body: &'a [u8]) -> DecodeResult<RequestView<'a>> {
        let mut c = Cur::new(body);
        let req = match op {
            opcode::PING => RequestView::Ping,
            opcode::PUT => RequestView::Put {
                key: c.str()?,
                value: c.bytes()?,
            },
            opcode::GET => RequestView::Get { key: c.str()? },
            opcode::DEL => RequestView::Del { key: c.str()? },
            opcode::EXISTS => RequestView::Exists { key: c.str()? },
            opcode::RENAME => RequestView::Rename {
                from: c.str()?,
                to: c.str()?,
            },
            opcode::KEYS => RequestView::Keys { pattern: c.str()? },
            opcode::SCAN => RequestView::Scan {
                pattern: c.str()?,
                cursor: c.u64()?,
                count: c.u32()?,
            },
            opcode::PUT_MANY => RequestView::PutMany { pairs: c.list()? },
            opcode::GET_MANY => RequestView::GetMany { keys: c.list()? },
            opcode::DEL_MANY => RequestView::DelMany { keys: c.list()? },
            opcode::STATS => RequestView::Stats,
            opcode::SYNC => RequestView::Sync,
            other => return Err(format!("unknown opcode {other}")),
        };
        c.finish()?;
        Ok(req)
    }

    /// Copies the view into an owned [`Request`].
    pub fn to_request(&self) -> Request {
        match *self {
            RequestView::Ping => Request::Ping,
            RequestView::Put { key, value } => Request::Put {
                key: key.into(),
                value: Bytes::copy_from_slice(value),
            },
            RequestView::Get { key } => Request::Get { key: key.into() },
            RequestView::Del { key } => Request::Del { key: key.into() },
            RequestView::Exists { key } => Request::Exists { key: key.into() },
            RequestView::Rename { from, to } => Request::Rename {
                from: from.into(),
                to: to.into(),
            },
            RequestView::Keys { pattern } => Request::Keys {
                pattern: pattern.into(),
            },
            RequestView::Scan {
                pattern,
                cursor,
                count,
            } => Request::Scan {
                pattern: pattern.into(),
                cursor,
                count,
            },
            RequestView::PutMany { pairs } => Request::PutMany {
                pairs: pairs.to_vec(),
            },
            RequestView::GetMany { keys } => Request::GetMany {
                keys: keys.to_vec(),
            },
            RequestView::DelMany { keys } => Request::DelMany {
                keys: keys.to_vec(),
            },
            RequestView::Stats => Request::Stats,
            RequestView::Sync => Request::Sync,
        }
    }
}

impl Request {
    /// The request, borrowed.
    pub(crate) fn view(&self) -> RequestView<'_> {
        match self {
            Request::Ping => RequestView::Ping,
            Request::Put { key, value } => RequestView::Put { key, value },
            Request::Get { key } => RequestView::Get { key },
            Request::Del { key } => RequestView::Del { key },
            Request::Exists { key } => RequestView::Exists { key },
            Request::Rename { from, to } => RequestView::Rename { from, to },
            Request::Keys { pattern } => RequestView::Keys { pattern },
            Request::Scan {
                pattern,
                cursor,
                count,
            } => RequestView::Scan {
                pattern,
                cursor: *cursor,
                count: *count,
            },
            Request::PutMany { pairs } => RequestView::PutMany {
                pairs: List::Items(pairs),
            },
            Request::GetMany { keys } => RequestView::GetMany {
                keys: List::Items(keys),
            },
            Request::DelMany { keys } => RequestView::DelMany {
                keys: List::Items(keys),
            },
            Request::Stats => RequestView::Stats,
            Request::Sync => RequestView::Sync,
        }
    }

    /// Encodes a complete frame for this request.
    pub fn encode_frame(&self, seq: u64) -> Vec<u8> {
        let mut frame = Vec::new();
        self.view()
            .encode(seq, &mut frame)
            .expect("request frame within MAX_FRAME");
        frame
    }

    /// Decodes a request from its opcode and body.
    pub fn decode(op: u8, body: &[u8]) -> DecodeResult<Request> {
        RequestView::parse(op, body).map(|req| req.to_request())
    }
}

// -------------------------------------------------------------- responses

/// A response with its keys and values borrowed: read in place from a
/// body, or about to be encoded.
#[derive(Debug, Clone, Copy)]
pub enum ResponseView<'a> {
    Unit,
    Bool(bool),
    Value(Option<&'a [u8]>),
    KeyList(List<'a, String>),
    ScanPage {
        keys: List<'a, String>,
        next: Option<u64>,
    },
    Count(u64),
    Values(List<'a, Option<Bytes>>),
    Stats(StoreStats),
    Err(WireError<&'a str>),
}

impl<'a> ResponseView<'a> {
    /// The status byte this response travels under.
    pub fn status(&self) -> u8 {
        match self {
            ResponseView::Err(WireError::NoSuchKey(_)) => status::NO_SUCH_KEY,
            ResponseView::Err(WireError::CrossShardRename { .. }) => status::CROSS_SHARD_RENAME,
            ResponseView::Err(WireError::BadRequest(_)) => status::BAD_REQUEST,
            ResponseView::Err(WireError::Server(_)) => status::SERVER_ERROR,
            _ => status::OK,
        }
    }

    /// Appends this response's frame, under `seq`, to `out`. A frame past
    /// `MAX_FRAME` is refused and leaves `out` as it was.
    pub fn encode(&self, seq: u64, out: &mut Vec<u8>) -> io::Result<()> {
        let start = begin_frame(out, seq, self.status());
        match *self {
            ResponseView::Unit => out.push(kind::UNIT),
            ResponseView::Bool(b) => out.extend_from_slice(&[kind::BOOL, b as u8]),
            ResponseView::Value(v) => {
                out.push(kind::VALUE);
                put_option(out, v);
            }
            ResponseView::KeyList(keys) => {
                out.push(kind::KEY_LIST);
                keys.put(out);
            }
            ResponseView::ScanPage { keys, next } => {
                out.push(kind::SCAN_PAGE);
                put_u64(out, next.unwrap_or(u64::MAX));
                keys.put(out);
            }
            ResponseView::Count(n) => {
                out.push(kind::COUNT);
                put_u64(out, n);
            }
            ResponseView::Values(vals) => {
                out.push(kind::VALUES);
                vals.put(out);
            }
            ResponseView::Stats(s) => {
                out.push(kind::STATS);
                put_u32(out, s.shards);
                put_u64(out, s.keys);
                put_u64(out, s.memory_bytes);
                put_u64(out, s.wal_records);
                put_u64(out, s.wal_syncs);
            }
            ResponseView::Err(e) => match e {
                WireError::NoSuchKey(k) => put_str(out, k),
                WireError::CrossShardRename { from, to } => {
                    put_str(out, from);
                    put_str(out, to);
                }
                WireError::BadRequest(m) | WireError::Server(m) => put_str(out, m),
            },
        }
        end_frame(out, start)
    }

    /// Appends a [`ResponseView::KeyList`] frame like
    /// [`ResponseView::encode`], its keys written one by one as `keys`
    /// hands them to the writer it is lent.
    pub fn encode_key_list(
        seq: u64,
        out: &mut Vec<u8>,
        keys: impl FnOnce(&mut dyn FnMut(&str)),
    ) -> io::Result<()> {
        let start = begin_frame(out, seq, status::OK);
        out.push(kind::KEY_LIST);
        put_list::<String>(out, keys);
        end_frame(out, start)
    }

    /// Appends a [`ResponseView::Values`] frame like
    /// [`ResponseView::encode`], its values written one by one as
    /// `values` hands them to the writer it is lent.
    pub fn encode_values(
        seq: u64,
        out: &mut Vec<u8>,
        values: impl FnOnce(&mut dyn FnMut(Option<&[u8]>)),
    ) -> io::Result<()> {
        let start = begin_frame(out, seq, status::OK);
        out.push(kind::VALUES);
        put_list::<Option<Bytes>>(out, values);
        end_frame(out, start)
    }

    /// Reads a response body under its status byte, in place.
    pub fn parse(st: u8, body: &'a [u8]) -> DecodeResult<ResponseView<'a>> {
        let mut c = Cur::new(body);
        let resp = match st {
            status::NO_SUCH_KEY => ResponseView::Err(WireError::NoSuchKey(c.str()?)),
            status::CROSS_SHARD_RENAME => ResponseView::Err(WireError::CrossShardRename {
                from: c.str()?,
                to: c.str()?,
            }),
            status::BAD_REQUEST => ResponseView::Err(WireError::BadRequest(c.str()?)),
            status::SERVER_ERROR => ResponseView::Err(WireError::Server(c.str()?)),
            status::OK => match c.u8()? {
                kind::UNIT => ResponseView::Unit,
                kind::BOOL => ResponseView::Bool(c.bool()?),
                kind::VALUE => ResponseView::Value(c.option()?),
                kind::KEY_LIST => ResponseView::KeyList(c.list()?),
                kind::SCAN_PAGE => {
                    let raw = c.u64()?;
                    ResponseView::ScanPage {
                        next: (raw != u64::MAX).then_some(raw),
                        keys: c.list()?,
                    }
                }
                kind::COUNT => ResponseView::Count(c.u64()?),
                kind::VALUES => ResponseView::Values(c.list()?),
                kind::STATS => ResponseView::Stats(StoreStats {
                    shards: c.u32()?,
                    keys: c.u64()?,
                    memory_bytes: c.u64()?,
                    wal_records: c.u64()?,
                    wal_syncs: c.u64()?,
                }),
                other => return Err(format!("unknown response kind {other}")),
            },
            other => return Err(format!("unknown status {other}")),
        };
        c.finish()?;
        Ok(resp)
    }

    /// Copies the view into an owned [`Response`].
    pub fn to_response(&self) -> Response {
        match *self {
            ResponseView::Unit => Response::Unit,
            ResponseView::Bool(b) => Response::Bool(b),
            ResponseView::Value(v) => Response::Value(v.map(Bytes::copy_from_slice)),
            ResponseView::KeyList(keys) => Response::KeyList(keys.to_vec()),
            ResponseView::ScanPage { keys, next } => Response::ScanPage {
                keys: keys.to_vec(),
                next,
            },
            ResponseView::Count(n) => Response::Count(n),
            ResponseView::Values(vals) => Response::Values(vals.to_vec()),
            ResponseView::Stats(s) => Response::Stats(s),
            ResponseView::Err(e) => Response::Err(e.map(|m| m.to_string())),
        }
    }
}

impl Response {
    /// The response, borrowed.
    pub(crate) fn view(&self) -> ResponseView<'_> {
        match self {
            Response::Unit => ResponseView::Unit,
            Response::Bool(b) => ResponseView::Bool(*b),
            Response::Value(v) => ResponseView::Value(v.as_deref()),
            Response::KeyList(keys) => ResponseView::KeyList(List::Items(keys)),
            Response::ScanPage { keys, next } => ResponseView::ScanPage {
                keys: List::Items(keys),
                next: *next,
            },
            Response::Count(n) => ResponseView::Count(*n),
            Response::Values(vals) => ResponseView::Values(List::Items(vals)),
            Response::Stats(s) => ResponseView::Stats(*s),
            Response::Err(e) => ResponseView::Err(e.map(String::as_str)),
        }
    }

    /// The status byte this response travels under.
    pub fn status(&self) -> u8 {
        self.view().status()
    }

    /// Encodes a complete frame for this response.
    pub fn encode_frame(&self, seq: u64) -> Vec<u8> {
        let mut frame = Vec::new();
        self.view()
            .encode(seq, &mut frame)
            .expect("response frame within MAX_FRAME");
        frame
    }

    /// Decodes a response from its status byte and body.
    pub fn decode(st: u8, body: &[u8]) -> DecodeResult<Response> {
        ResponseView::parse(st, body).map(|resp| resp.to_response())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let frame = req.encode_frame(42);
        let mut r = &frame[..];
        let (seq, op, body) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(seq, 42);
        assert_eq!(op, req.view().opcode());
        assert_eq!(Request::decode(op, &body).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let frame = resp.encode_frame(7);
        let mut r = &frame[..];
        let (seq, st, body) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(seq, 7);
        assert_eq!(st, resp.status());
        assert_eq!(Response::decode(st, &body).unwrap(), resp);
    }

    #[test]
    fn every_request_roundtrips() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Put {
            key: "ns:{k}".into(),
            value: Bytes::from_static(b"value"),
        });
        roundtrip_req(Request::Get { key: "k".into() });
        roundtrip_req(Request::Del { key: "k".into() });
        roundtrip_req(Request::Exists { key: "k".into() });
        roundtrip_req(Request::Rename {
            from: "a:{t}".into(),
            to: "b:{t}".into(),
        });
        roundtrip_req(Request::Keys {
            pattern: "rdf:*".into(),
        });
        roundtrip_req(Request::Scan {
            pattern: "*".into(),
            cursor: (3 << 32) | 17,
            count: 64,
        });
        roundtrip_req(Request::PutMany {
            pairs: (0..5)
                .map(|i| (format!("k{i}"), Bytes::from(vec![i as u8; i])))
                .collect(),
        });
        roundtrip_req(Request::GetMany {
            keys: vec!["a".into(), "b".into()],
        });
        roundtrip_req(Request::DelMany { keys: vec![] });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Sync);
    }

    #[test]
    fn every_response_roundtrips() {
        roundtrip_resp(Response::Unit);
        roundtrip_resp(Response::Bool(true));
        roundtrip_resp(Response::Bool(false));
        roundtrip_resp(Response::Value(None));
        roundtrip_resp(Response::Value(Some(Bytes::from_static(b"payload"))));
        roundtrip_resp(Response::KeyList(vec!["a".into(), "b".into()]));
        roundtrip_resp(Response::ScanPage {
            keys: vec!["k".into()],
            next: Some(99),
        });
        roundtrip_resp(Response::ScanPage {
            keys: vec![],
            next: None,
        });
        roundtrip_resp(Response::Count(1234));
        roundtrip_resp(Response::Values(vec![Some(Bytes::from_static(b"x")), None]));
        roundtrip_resp(Response::Stats(StoreStats {
            shards: 20,
            keys: 1,
            memory_bytes: 2,
            wal_records: 3,
            wal_syncs: 4,
        }));
        roundtrip_resp(Response::Err(WireError::NoSuchKey("k".into())));
        roundtrip_resp(Response::Err(WireError::CrossShardRename {
            from: "a".into(),
            to: "b".into(),
        }));
        roundtrip_resp(Response::Err(WireError::BadRequest("nope".into())));
        roundtrip_resp(Response::Err(WireError::Server("disk on fire".into())));
    }

    #[test]
    fn pipelined_frames_parse_in_order() {
        let mut wire = Vec::new();
        for seq in 0..10u64 {
            let req = Request::Put {
                key: format!("k{seq}"),
                value: Bytes::from(vec![seq as u8; 3]),
            };
            wire.extend_from_slice(&req.encode_frame(seq));
        }
        let mut r = &wire[..];
        for seq in 0..10u64 {
            let (got_seq, op, body) = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(got_seq, seq);
            assert!(matches!(
                Request::decode(op, &body).unwrap(),
                Request::Put { .. }
            ));
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn torn_frame_is_an_error_not_eof() {
        let frame = Request::Ping.encode_frame(1);
        let mut r = &frame[..frame.len() - 1];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn eof_inside_the_length_prefix_is_a_torn_frame() {
        let frame = Request::Ping.encode_frame(1);
        for cut in 1..4 {
            let torn = &frame[..cut];
            let err = read_frame(&mut &torn[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
            let err = FrameReader::default().next(&mut &torn[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        assert!(read_frame(&mut &frame[..0]).unwrap().is_none());
        assert!(FrameReader::default()
            .next(&mut &frame[..0])
            .unwrap()
            .is_none());
    }

    #[test]
    fn frame_reader_ends_cleanly_only_between_frames() {
        let mut wire = Request::Get { key: "k".into() }.encode_frame(3);
        wire.extend_from_slice(&Request::Sync.encode_frame(4));
        let mut r = &wire[..];
        let mut frames = FrameReader::default();
        assert!(frames.is_drained());
        let first = frames.next(&mut r).unwrap().unwrap();
        assert_eq!((first.seq, first.tag), (3, opcode::GET));
        // One read took both frames; the second is buffered, not handed out.
        assert!(!frames.is_drained());
        let second = frames.next(&mut r).unwrap().unwrap();
        assert_eq!(
            (second.seq, second.tag, second.body),
            (4, opcode::SYNC, &[][..])
        );
        assert!(frames.is_drained());
        assert!(frames.next(&mut r).unwrap().is_none());
    }

    /// Hands out one byte per read, with an interrupted read before each.
    struct Stutter<'a> {
        rest: &'a [u8],
        interrupt: bool,
    }

    impl Read for Stutter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.rest.len()).min(1);
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    #[test]
    fn both_readers_retry_interrupted_reads() {
        let req = Request::Put {
            key: "k".into(),
            value: Bytes::from_static(b"value"),
        };
        let wire = req.encode_frame(9);
        let stutter = || Stutter {
            rest: &wire,
            interrupt: false,
        };
        let mut r = stutter();
        let mut frames = FrameReader::default();
        let frame = frames.next(&mut r).unwrap().unwrap();
        assert_eq!(frame.seq, 9);
        assert_eq!(Request::decode(frame.tag, frame.body), Ok(req.clone()));
        assert!(frames.next(&mut r).unwrap().is_none());

        let mut r = io::BufReader::new(stutter());
        let (seq, op, body) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((seq, Request::decode(op, &body)), (9, Ok(req)));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn frame_reader_keeps_its_buffer_for_frames_no_larger() {
        let put = |seq: u64, n: usize| {
            Request::Put {
                key: "k".into(),
                value: Bytes::from(vec![7; n]),
            }
            .encode_frame(seq)
        };
        let mut wire = put(0, 20_000);
        let largest = wire.len();
        for seq in 1..20u64 {
            wire.extend_from_slice(&put(seq, 20_000 - 997 * seq as usize));
        }
        let mut r = &wire[..];
        let mut frames = FrameReader::default();
        assert_eq!(frames.next(&mut r).unwrap().unwrap().seq, 0);
        let grown = frames.buf.len();
        assert!((largest..2 * largest).contains(&grown), "{grown}");
        for seq in 1..20u64 {
            assert_eq!(frames.next(&mut r).unwrap().unwrap().seq, seq);
        }
        assert!(frames.next(&mut r).unwrap().is_none());
        assert_eq!(frames.buf.len(), grown);
    }

    #[test]
    fn split_waits_for_a_whole_frame() {
        let mut wire = Request::Get { key: "key".into() }.encode_frame(5);
        let one = wire.len();
        wire.extend_from_slice(&Request::Ping.encode_frame(6));
        for cut in 0..one {
            assert!(
                Frame::split(&wire[..cut]).unwrap().is_none(),
                "cut at {cut}"
            );
        }
        let (first, rest) = Frame::split(&wire).unwrap().unwrap();
        assert_eq!(
            (first.seq, first.tag, first.body),
            (5, opcode::GET, &wire[13..one])
        );
        let (second, rest) = Frame::split(rest).unwrap().unwrap();
        assert_eq!((second.seq, second.tag), (6, opcode::PING));
        assert!(rest.is_empty());
        // A length no frame can have is refused, not waited on.
        assert!(Frame::split(&8u32.to_le_bytes()).is_err());
        assert!(Frame::split(&(MAX_FRAME + 1).to_le_bytes()).is_err());
    }

    #[test]
    fn encode_appends_after_what_the_buffer_holds() {
        let mut out = b"kept".to_vec();
        RequestView::Rename { from: "a", to: "b" }
            .encode(1, &mut out)
            .unwrap();
        ResponseView::Bool(true).encode(2, &mut out).unwrap();
        assert_eq!(&out[..4], b"kept");
        let (req, rest) = Frame::split(&out[4..]).unwrap().unwrap();
        assert_eq!(req.seq, 1);
        assert_eq!(
            Request::decode(req.tag, req.body),
            Ok(Request::Rename {
                from: "a".into(),
                to: "b".into()
            })
        );
        let (resp, rest) = Frame::split(rest).unwrap().unwrap();
        assert_eq!(resp.seq, 2);
        assert_eq!(
            Response::decode(resp.tag, resp.body),
            Ok(Response::Bool(true))
        );
        assert!(rest.is_empty());
    }

    #[test]
    fn a_streamed_list_counts_its_elements_and_refuses_past_max_frame() {
        let mut out = b"kept".to_vec();
        ResponseView::encode_key_list(1, &mut out, |put| ["a", "b"].into_iter().for_each(put))
            .unwrap();
        let (frame, _) = Frame::split(&out[4..]).unwrap().unwrap();
        assert_eq!(
            Response::decode(frame.tag, frame.body),
            Ok(Response::KeyList(vec!["a".into(), "b".into()]))
        );
        out.truncate(4);
        // 65 elements of 1 MiB: one more than a frame holds.
        let big = vec![b'k'; 1 << 20];
        let key = std::str::from_utf8(&big).unwrap();
        let err = ResponseView::encode_key_list(2, &mut out, |put| (0..65).for_each(|_| put(key)))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(out, b"kept");
        let err =
            ResponseView::encode_values(3, &mut out, |put| (0..65).for_each(|_| put(Some(&big))))
                .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(out, b"kept");
    }

    #[test]
    fn a_forged_frame_length_is_not_given_its_memory() {
        // A prefix claiming a 64 MiB frame, then 20 KiB of it, then EOF.
        let mut stream = MAX_FRAME.to_le_bytes().to_vec();
        stream.resize(4 + 20 * 1024, 7);
        let mut frames = FrameReader::default();
        let err = frames.next(&mut &stream[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(frames.buf.len() <= 2 * stream.len(), "{}", frames.buf.len());
    }

    #[test]
    fn strict_decoding_rejects_garbage() {
        assert!(Request::decode(200, &[]).is_err(), "unknown opcode");
        // Trailing bytes after a complete message.
        let mut body = Request::Get { key: "k".into() }.encode_frame(0)[13..].to_vec();
        body.push(0);
        assert!(Request::decode(opcode::GET, &body).is_err());
        // Truncated string length.
        assert!(Request::decode(opcode::GET, &[5, 0, 0, 0, b'x']).is_err());
        // Non-UTF-8 key.
        assert!(Request::decode(opcode::GET, &[1, 0, 0, 0, 0xff]).is_err());
        // Bad frame length prefix.
        let mut r = &[0u8, 0, 0, 0][..];
        assert!(read_frame(&mut r).is_err());
    }
}
