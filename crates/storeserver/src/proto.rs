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

use bytes::Bytes;
use std::io::{self, BufRead, Write};

/// Hard upper bound on a frame body; anything larger is a protocol error
/// (protects the server from a garbage length prefix).
const MAX_FRAME: u32 = 64 * 1024 * 1024;

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

/// Typed wire-level errors (non-Ok statuses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    NoSuchKey(String),
    CrossShardRename { from: String, to: String },
    BadRequest(String),
    Server(String),
}

impl std::fmt::Display for WireError {
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

// ---------------------------------------------------------------- framing

/// Writes one frame. Does not flush: pipelining clients batch many
/// frames per flush.
pub fn write_frame(w: &mut impl Write, seq: u64, tag: u8, body: &[u8]) -> io::Result<()> {
    let len = 8 + 1 + body.len();
    if len as u64 > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&seq.to_le_bytes())?;
    w.write_all(&[tag])?;
    w.write_all(body)
}

/// Reads one frame, returning `(seq, tag, body)`. Returns `None` on a
/// clean EOF at a frame boundary; EOF mid-frame is an error (a torn
/// frame means the peer died mid-send).
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<(u64, u8, Vec<u8>)>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if !(9..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let mut seq_buf = [0u8; 8];
    r.read_exact(&mut seq_buf)?;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let mut body = vec![0u8; len as usize - 9];
    r.read_exact(&mut body)?;
    Ok(Some((u64::from_le_bytes(seq_buf), tag[0], body)))
}

// ------------------------------------------------------------- primitives

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Strict little-endian cursor over a frame body.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecodeResult<T> = std::result::Result<T, String>;

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
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

    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> DecodeResult<Bytes> {
        let n = self.u32()? as usize;
        Ok(Bytes::copy_from_slice(self.take(n)?))
    }

    /// A `u32` element count, refused when the rest of the body cannot
    /// hold that many elements of at least `min_len` bytes each, so a
    /// forged count never sizes an allocation.
    fn count(&mut self, min_len: usize) -> DecodeResult<usize> {
        let n = self.u32()? as usize;
        let left = self.buf.len() - self.pos;
        if n.saturating_mul(min_len) > left {
            return Err(format!("count {n} cannot fit in the {left} bytes left"));
        }
        Ok(n)
    }

    fn str(&mut self) -> DecodeResult<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "non-UTF-8 string".to_string())
    }

    fn finish(&self) -> DecodeResult<()> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

// --------------------------------------------------------------- requests

impl Request {
    /// The opcode this request travels under.
    fn opcode(&self) -> u8 {
        match self {
            Request::Ping => opcode::PING,
            Request::Put { .. } => opcode::PUT,
            Request::Get { .. } => opcode::GET,
            Request::Del { .. } => opcode::DEL,
            Request::Exists { .. } => opcode::EXISTS,
            Request::Rename { .. } => opcode::RENAME,
            Request::Keys { .. } => opcode::KEYS,
            Request::Scan { .. } => opcode::SCAN,
            Request::PutMany { .. } => opcode::PUT_MANY,
            Request::GetMany { .. } => opcode::GET_MANY,
            Request::DelMany { .. } => opcode::DEL_MANY,
            Request::Stats => opcode::STATS,
            Request::Sync => opcode::SYNC,
        }
    }

    /// Encodes the body (everything after the tag byte).
    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping | Request::Stats | Request::Sync => {}
            Request::Put { key, value } => {
                put_str(&mut out, key);
                put_bytes(&mut out, value);
            }
            Request::Get { key } | Request::Del { key } | Request::Exists { key } => {
                put_str(&mut out, key);
            }
            Request::Rename { from, to } => {
                put_str(&mut out, from);
                put_str(&mut out, to);
            }
            Request::Keys { pattern } => put_str(&mut out, pattern),
            Request::Scan {
                pattern,
                cursor,
                count,
            } => {
                put_str(&mut out, pattern);
                put_u64(&mut out, *cursor);
                put_u32(&mut out, *count);
            }
            Request::PutMany { pairs } => {
                put_u32(&mut out, pairs.len() as u32);
                for (k, v) in pairs {
                    put_str(&mut out, k);
                    put_bytes(&mut out, v);
                }
            }
            Request::GetMany { keys } | Request::DelMany { keys } => {
                put_u32(&mut out, keys.len() as u32);
                for k in keys {
                    put_str(&mut out, k);
                }
            }
        }
        out
    }

    /// Encodes a complete frame for this request.
    pub fn encode_frame(&self, seq: u64) -> Vec<u8> {
        let body = self.encode_body();
        let mut frame = Vec::with_capacity(13 + body.len());
        write_frame(&mut frame, seq, self.opcode(), &body).expect("Vec write cannot fail");
        frame
    }

    /// Decodes a request from its opcode and body.
    pub fn decode(op: u8, body: &[u8]) -> DecodeResult<Request> {
        let mut c = Cur::new(body);
        let req = match op {
            opcode::PING => Request::Ping,
            opcode::PUT => Request::Put {
                key: c.str()?,
                value: c.bytes()?,
            },
            opcode::GET => Request::Get { key: c.str()? },
            opcode::DEL => Request::Del { key: c.str()? },
            opcode::EXISTS => Request::Exists { key: c.str()? },
            opcode::RENAME => Request::Rename {
                from: c.str()?,
                to: c.str()?,
            },
            opcode::KEYS => Request::Keys { pattern: c.str()? },
            opcode::SCAN => Request::Scan {
                pattern: c.str()?,
                cursor: c.u64()?,
                count: c.u32()?,
            },
            opcode::PUT_MANY => {
                let n = c.count(8)?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    pairs.push((c.str()?, c.bytes()?));
                }
                Request::PutMany { pairs }
            }
            opcode::GET_MANY | opcode::DEL_MANY => {
                let n = c.count(4)?;
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(c.str()?);
                }
                if op == opcode::GET_MANY {
                    Request::GetMany { keys }
                } else {
                    Request::DelMany { keys }
                }
            }
            opcode::STATS => Request::Stats,
            opcode::SYNC => Request::Sync,
            other => return Err(format!("unknown opcode {other}")),
        };
        c.finish()?;
        Ok(req)
    }
}

// -------------------------------------------------------------- responses

impl Response {
    /// The status byte this response travels under.
    pub fn status(&self) -> u8 {
        match self {
            Response::Err(WireError::NoSuchKey(_)) => status::NO_SUCH_KEY,
            Response::Err(WireError::CrossShardRename { .. }) => status::CROSS_SHARD_RENAME,
            Response::Err(WireError::BadRequest(_)) => status::BAD_REQUEST,
            Response::Err(WireError::Server(_)) => status::SERVER_ERROR,
            _ => status::OK,
        }
    }

    /// Encodes the body (everything after the tag byte).
    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Unit => out.push(kind::UNIT),
            Response::Bool(b) => {
                out.push(kind::BOOL);
                out.push(*b as u8);
            }
            Response::Value(v) => {
                out.push(kind::VALUE);
                match v {
                    None => out.push(0),
                    Some(b) => {
                        out.push(1);
                        put_bytes(&mut out, b);
                    }
                }
            }
            Response::KeyList(keys) => {
                out.push(kind::KEY_LIST);
                put_u32(&mut out, keys.len() as u32);
                for k in keys {
                    put_str(&mut out, k);
                }
            }
            Response::ScanPage { keys, next } => {
                out.push(kind::SCAN_PAGE);
                put_u64(&mut out, next.unwrap_or(u64::MAX));
                put_u32(&mut out, keys.len() as u32);
                for k in keys {
                    put_str(&mut out, k);
                }
            }
            Response::Count(n) => {
                out.push(kind::COUNT);
                put_u64(&mut out, *n);
            }
            Response::Values(vals) => {
                out.push(kind::VALUES);
                put_u32(&mut out, vals.len() as u32);
                for v in vals {
                    match v {
                        None => out.push(0),
                        Some(b) => {
                            out.push(1);
                            put_bytes(&mut out, b);
                        }
                    }
                }
            }
            Response::Stats(s) => {
                out.push(kind::STATS);
                put_u32(&mut out, s.shards);
                put_u64(&mut out, s.keys);
                put_u64(&mut out, s.memory_bytes);
                put_u64(&mut out, s.wal_records);
                put_u64(&mut out, s.wal_syncs);
            }
            Response::Err(e) => match e {
                WireError::NoSuchKey(k) => put_str(&mut out, k),
                WireError::CrossShardRename { from, to } => {
                    put_str(&mut out, from);
                    put_str(&mut out, to);
                }
                WireError::BadRequest(m) | WireError::Server(m) => put_str(&mut out, m),
            },
        }
        out
    }

    /// Encodes a complete frame for this response.
    pub fn encode_frame(&self, seq: u64) -> Vec<u8> {
        let body = self.encode_body();
        let mut frame = Vec::with_capacity(13 + body.len());
        write_frame(&mut frame, seq, self.status(), &body).expect("Vec write cannot fail");
        frame
    }

    /// Decodes a response from its status byte and body.
    pub fn decode(st: u8, body: &[u8]) -> DecodeResult<Response> {
        let mut c = Cur::new(body);
        let resp = match st {
            status::NO_SUCH_KEY => Response::Err(WireError::NoSuchKey(c.str()?)),
            status::CROSS_SHARD_RENAME => Response::Err(WireError::CrossShardRename {
                from: c.str()?,
                to: c.str()?,
            }),
            status::BAD_REQUEST => Response::Err(WireError::BadRequest(c.str()?)),
            status::SERVER_ERROR => Response::Err(WireError::Server(c.str()?)),
            status::OK => match c.u8()? {
                kind::UNIT => Response::Unit,
                kind::BOOL => Response::Bool(c.u8()? != 0),
                kind::VALUE => match c.u8()? {
                    0 => Response::Value(None),
                    1 => Response::Value(Some(c.bytes()?)),
                    other => return Err(format!("bad option tag {other}")),
                },
                kind::KEY_LIST => {
                    let n = c.count(4)?;
                    let mut keys = Vec::with_capacity(n);
                    for _ in 0..n {
                        keys.push(c.str()?);
                    }
                    Response::KeyList(keys)
                }
                kind::SCAN_PAGE => {
                    let raw = c.u64()?;
                    let next = (raw != u64::MAX).then_some(raw);
                    let n = c.count(4)?;
                    let mut keys = Vec::with_capacity(n);
                    for _ in 0..n {
                        keys.push(c.str()?);
                    }
                    Response::ScanPage { keys, next }
                }
                kind::COUNT => Response::Count(c.u64()?),
                kind::VALUES => {
                    let n = c.count(1)?;
                    let mut vals = Vec::with_capacity(n);
                    for _ in 0..n {
                        vals.push(match c.u8()? {
                            0 => None,
                            1 => Some(c.bytes()?),
                            other => return Err(format!("bad option tag {other}")),
                        });
                    }
                    Response::Values(vals)
                }
                kind::STATS => Response::Stats(StoreStats {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let frame = req.encode_frame(42);
        let mut r = &frame[..];
        let (seq, op, body) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(seq, 42);
        assert_eq!(op, req.opcode());
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
    fn strict_decoding_rejects_garbage() {
        assert!(Request::decode(200, &[]).is_err(), "unknown opcode");
        // Trailing bytes after a complete message.
        let mut body = Request::Get { key: "k".into() }.encode_body();
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
