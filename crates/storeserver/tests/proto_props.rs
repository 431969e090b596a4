//! Structure-aware fuzzing of the store's frame decoders.
//!
//! Two sources of bodies, under any opcode or status byte: the encoding
//! of a well-formed message, left whole or damaged (truncated, a byte
//! flipped, a forged `u32` count or length written over it, bytes
//! appended), and bodies assembled from the pieces the wire format is
//! made of (counts and length prefixes, strings behind their true length,
//! tags, 64-bit words, loose bytes). Decoding must give a typed `Err` or
//! a value whose encoded frame decodes back to itself. It must never
//! panic, and never reserve memory the frame does not carry: sized from
//! a forged count, that reservation aborts the server.
//!
//! Every body is also parsed as a borrowed view. The view and the owned
//! decode agree with [`reference`], the strict copying decoder the views
//! replaced, or all three refuse. A view that parses allocated nothing
//! (a counting allocator watches each parse) and re-encodes to exactly
//! the bytes it was read from. The pinned tests fix one frame per opcode,
//! status and response kind byte for byte, and [`FrameReader`] is fed
//! streams of frames cut into arbitrary reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use proptest::prelude::*;
use storeserver::proto::{read_frame, Frame, FrameReader, RequestView, ResponseView};
use storeserver::{Request, Response, StoreStats, WireError};

/// Counts the bytes each thread asks the allocator for.
struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn charge(n: usize) {
    let _ = BYTES.try_with(|b| b.set(b.get() + n));
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the heap bytes it asked for on this thread.
fn heap_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// What a refused parse may allocate: its error message, never room for
/// the elements a forged count claims.
const ERROR_BYTES: usize = 1024;

#[derive(Debug, Clone)]
enum Piece {
    /// A bare length or element-count prefix.
    Len(u32),
    /// A string body behind its true length prefix.
    Str(Vec<u8>),
    /// A one-byte tag (response kind, option, bool).
    Tag(u8),
    /// A little-endian 64-bit word (scan cursor, counters).
    Word(u64),
    /// Loose bytes with no prefix.
    Raw(Vec<u8>),
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    let byte = prop_oneof![Just(b'k'), Just(b':'), Just(0xffu8), any::<u8>()];
    prop::collection::vec(byte, 0..6)
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    let len = prop_oneof![0u32..4, 0u32..4, Just(u32::MAX), any::<u32>()];
    prop_oneof![
        len.prop_map(Piece::Len),
        arb_bytes().prop_map(Piece::Str),
        arb_bytes().prop_map(Piece::Str),
        (0u8..9).prop_map(Piece::Tag),
        any::<u64>().prop_map(Piece::Word),
        arb_bytes().prop_map(Piece::Raw),
    ]
}

fn arb_body() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(arb_piece(), 0..10).prop_map(|pieces| {
        let mut out = Vec::new();
        for p in pieces {
            match p {
                Piece::Len(n) => out.extend_from_slice(&n.to_le_bytes()),
                Piece::Str(s) => {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(&s);
                }
                Piece::Tag(t) => out.push(t),
                Piece::Word(w) => out.extend_from_slice(&w.to_le_bytes()),
                Piece::Raw(b) => out.extend_from_slice(&b),
            }
        }
        out
    })
}

/// Opcodes and statuses: mostly the defined ones, sometimes any byte.
fn arb_tag() -> impl Strategy<Value = u8> {
    prop_oneof![0u8..15, 0u8..15, any::<u8>()]
}

fn arb_key() -> impl Strategy<Value = String> {
    "[a-z:{}]{0,6}"
}

fn arb_value() -> impl Strategy<Value = Bytes> {
    arb_bytes().prop_map(Bytes::from)
}

fn arb_keys() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_key(), 0..4)
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Stats),
        Just(Request::Sync),
        (arb_key(), arb_value()).prop_map(|(key, value)| Request::Put { key, value }),
        arb_key().prop_map(|key| Request::Get { key }),
        arb_key().prop_map(|key| Request::Del { key }),
        arb_key().prop_map(|key| Request::Exists { key }),
        (arb_key(), arb_key()).prop_map(|(from, to)| Request::Rename { from, to }),
        arb_key().prop_map(|pattern| Request::Keys { pattern }),
        (arb_key(), any::<u64>(), any::<u32>()).prop_map(|(pattern, cursor, count)| {
            Request::Scan {
                pattern,
                cursor,
                count,
            }
        }),
        prop::collection::vec((arb_key(), arb_value()), 0..4)
            .prop_map(|pairs| Request::PutMany { pairs }),
        arb_keys().prop_map(|keys| Request::GetMany { keys }),
        arb_keys().prop_map(|keys| Request::DelMany { keys }),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    let maybe = prop_oneof![Just(None), arb_value().prop_map(Some)];
    prop_oneof![
        Just(Response::Unit),
        any::<bool>().prop_map(Response::Bool),
        maybe.clone().prop_map(Response::Value),
        arb_keys().prop_map(Response::KeyList),
        (
            arb_keys(),
            prop_oneof![Just(None), (0u64..9).prop_map(Some)]
        )
            .prop_map(|(keys, next)| Response::ScanPage { keys, next }),
        any::<u64>().prop_map(Response::Count),
        prop::collection::vec(maybe, 0..4).prop_map(Response::Values),
        (any::<u32>(), any::<u64>()).prop_map(|(shards, keys)| {
            Response::Stats(StoreStats {
                shards,
                keys,
                ..StoreStats::default()
            })
        }),
        arb_key().prop_map(|k| Response::Err(WireError::NoSuchKey(k))),
        (arb_key(), arb_key())
            .prop_map(|(from, to)| Response::Err(WireError::CrossShardRename { from, to })),
        arb_key().prop_map(|m| Response::Err(WireError::BadRequest(m))),
        arb_key().prop_map(|m| Response::Err(WireError::Server(m))),
    ]
}

/// What happens to a well-formed body on its way in.
#[derive(Debug, Clone)]
enum Damage {
    None,
    Truncate(usize),
    Flip(usize, u8),
    /// Overwrite four bytes at an offset with a forged count or length.
    Forge(usize, u32),
    Append(Vec<u8>),
}

impl Damage {
    fn apply(self, mut body: Vec<u8>) -> Vec<u8> {
        let len = body.len().max(1);
        match self {
            Damage::None => {}
            Damage::Truncate(k) => body.truncate(k % len),
            Damage::Flip(at, b) if !body.is_empty() => body[at % len] ^= b,
            Damage::Forge(at, n) if body.len() >= 4 => {
                let at = at % (body.len() - 3);
                body[at..at + 4].copy_from_slice(&n.to_le_bytes());
            }
            Damage::Append(extra) => body.extend(extra),
            _ => {}
        }
        body
    }
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    let at = any::<usize>();
    prop_oneof![
        Just(Damage::None),
        at.prop_map(Damage::Truncate),
        (at, 1u8..=255).prop_map(|(i, b)| Damage::Flip(i, b)),
        (at, prop_oneof![Just(u32::MAX), any::<u32>()]).prop_map(|(i, n)| Damage::Forge(i, n)),
        arb_bytes().prop_map(Damage::Append),
    ]
}

/// `(opcode, body)`: a damaged or whole request, or assembled pieces.
fn arb_request_frame() -> impl Strategy<Value = (u8, Vec<u8>)> {
    prop_oneof![
        (arb_request(), arb_damage()).prop_map(|(req, d)| {
            let (op, body) = unframe(&req.encode_frame(0));
            (op, d.apply(body))
        }),
        (arb_tag(), arb_body()),
    ]
}

/// `(status, body)`: a damaged or whole response, or assembled pieces.
fn arb_response_frame() -> impl Strategy<Value = (u8, Vec<u8>)> {
    prop_oneof![
        (arb_response(), arb_damage()).prop_map(|(resp, d)| {
            let (st, body) = unframe(&resp.encode_frame(0));
            (st, d.apply(body))
        }),
        (arb_tag(), arb_body()),
    ]
}

/// Splits an encoded frame back into its tag and body.
fn unframe(frame: &[u8]) -> (u8, Vec<u8>) {
    let mut r = frame;
    let (_, tag, body) = read_frame(&mut r)
        .expect("an encoded frame reads back")
        .expect("one frame");
    (tag, body)
}

/// Appends `view`'s frame under seq 1 and returns its tag and body.
fn reencode(encode: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> (u8, Vec<u8>) {
    let mut frame = b"kept".to_vec();
    encode(&mut frame).expect("a parsed view re-encodes");
    assert_eq!(&frame[..4], b"kept", "encoding appends");
    unframe(&frame[4..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    fn a_request_body_decodes_to_an_error_or_round_trips((op, body) in arb_request_frame()) {
        let want = reference::request(op, &body);
        let (view, bytes) = heap_bytes(|| RequestView::parse(op, &body));
        match &view {
            Ok(view) => {
                prop_assert_eq!(bytes, 0, "a parsed view allocated");
                prop_assert_eq!(Ok(view.to_request()), want.clone());
                prop_assert_eq!(reencode(|out| view.encode(1, out)), (op, body.clone()));
            }
            Err(e) => {
                prop_assert!(bytes <= ERROR_BYTES, "refusing took {} bytes", bytes);
                prop_assert_eq!(Err(e.clone()), want.clone());
            }
        }
        prop_assert_eq!(Request::decode(op, &body), want);
        if let Ok(req) = Request::decode(op, &body) {
            let (tag, again) = unframe(&req.encode_frame(1));
            prop_assert_eq!(tag, op);
            prop_assert_eq!(Request::decode(tag, &again), Ok(req));
        }
    }

    fn a_response_body_decodes_to_an_error_or_round_trips((st, body) in arb_response_frame()) {
        let want = reference::response(st, &body);
        let (view, bytes) = heap_bytes(|| ResponseView::parse(st, &body));
        match &view {
            Ok(view) => {
                prop_assert_eq!(bytes, 0, "a parsed view allocated");
                prop_assert_eq!(Ok(view.to_response()), want.clone());
                prop_assert_eq!(reencode(|out| view.encode(1, out)), (st, body.clone()));
            }
            Err(e) => {
                prop_assert!(bytes <= ERROR_BYTES, "refusing took {} bytes", bytes);
                prop_assert_eq!(Err(e.clone()), want.clone());
            }
        }
        prop_assert_eq!(Response::decode(st, &body), want);
        if let Ok(resp) = Response::decode(st, &body) {
            let (tag, again) = unframe(&resp.encode_frame(1));
            prop_assert_eq!(tag, st);
            prop_assert_eq!(Response::decode(tag, &again), Ok(resp));
        }
    }

    fn frames_cut_into_any_reads_come_back_whole(
        mut reqs in prop::collection::vec(arb_request(), 0..6),
        big in prop::collection::vec(0usize..6, 0..2),
        cuts in prop::collection::vec(prop_oneof![1usize..40, 1usize..40_000], 1..8),
        torn in prop_oneof![0usize..3, 0usize..16],
    ) {
        // Frames past the reader's first 8 KiB chunk grow its buffer.
        for at in big {
            let value = Bytes::from(vec![b'v'; 20_000]);
            reqs.insert(at.min(reqs.len()), Request::Put { key: "big".into(), value });
        }
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for (seq, req) in reqs.iter().enumerate() {
            stream.extend_from_slice(&req.encode_frame(seq as u64));
            ends.push(stream.len());
        }
        // A torn tail may end anywhere, inside a length prefix too.
        stream.truncate(stream.len().saturating_sub(torn));
        // The owned reader, one exact frame at a time, is the reference.
        let mut want = Vec::new();
        let mut r = &stream[..];
        let end = loop {
            match read_frame(&mut r) {
                Ok(Some(frame)) => want.push(frame),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e.kind()),
            }
        };
        let mut chunks = Chunked { rest: &stream, cuts: &cuts, at: 0 };
        let mut frames = FrameReader::default();
        let mut got = Vec::new();
        let got_end = loop {
            match frames.next(&mut chunks) {
                Ok(Some(f)) => got.push((f.seq, f.tag, f.body.to_vec())),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e.kind()),
            }
        };
        prop_assert_eq!(got, want);
        prop_assert_eq!(got_end, end);
        // The same bytes split in place give the same frames.
        let mut rest = &stream[..];
        let mut split = 0;
        while let Ok(Some((frame, after))) = Frame::split(rest) {
            prop_assert_eq!(frame.seq, split as u64);
            split += 1;
            rest = after;
        }
        prop_assert_eq!(split, ends.iter().filter(|&&end| end <= stream.len()).count());
    }
}

/// A reader that hands out its bytes in reads of the sizes in `cuts`,
/// round and round.
struct Chunked<'a> {
    rest: &'a [u8],
    cuts: &'a [usize],
    at: usize,
}

impl std::io::Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.cuts[self.at % self.cuts.len()]
            .min(buf.len())
            .min(self.rest.len());
        self.at += 1;
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// A four-byte body claiming `u32::MAX` elements is refused without
/// reserving room for them (opcode 9 is `PUT_MANY`, response kinds 3 and
/// 6 are a key list and a value list).
#[test]
fn a_forged_element_count_is_an_error_not_an_allocation() {
    for op in 9..=11 {
        assert!(Request::decode(op, &[0xff; 4]).is_err(), "opcode {op}");
        assert!(RequestView::parse(op, &[0xff; 4]).is_err(), "opcode {op}");
    }
    for kind in [3u8, 6] {
        let mut body = vec![kind];
        body.extend_from_slice(&[0xff; 4]);
        assert!(Response::decode(0, &body).is_err(), "kind {kind}");
        assert!(ResponseView::parse(0, &body).is_err(), "kind {kind}");
    }
    let mut page = vec![4u8];
    page.extend_from_slice(&[0; 8]);
    page.extend_from_slice(&[0xff; 4]);
    assert!(Response::decode(0, &page).is_err(), "scan page");
    assert!(ResponseView::parse(0, &page).is_err(), "scan page");
}

/// The strict, copying decoder the borrowed views replaced, kept as the
/// reference they are checked against. One difference: it refuses a bool
/// byte other than 0 or 1, as the views do. The old decoder read any
/// nonzero byte as true, so such a frame did not encode back to itself.
mod reference {
    use bytes::Bytes;
    use storeserver::{Request, Response, StoreStats, WireError};

    type DecodeResult<T> = Result<T, String>;

    struct Cur<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Cur<'a> {
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

        fn strs(&mut self) -> DecodeResult<Vec<String>> {
            let n = self.count(4)?;
            (0..n).map(|_| self.str()).collect()
        }

        fn option(&mut self) -> DecodeResult<Option<Bytes>> {
            match self.u8()? {
                0 => Ok(None),
                1 => Ok(Some(self.bytes()?)),
                other => Err(format!("bad option tag {other}")),
            }
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

    pub fn request(op: u8, body: &[u8]) -> DecodeResult<Request> {
        let mut c = Cur { buf: body, pos: 0 };
        let req = match op {
            1 => Request::Ping,
            2 => Request::Put {
                key: c.str()?,
                value: c.bytes()?,
            },
            3 => Request::Get { key: c.str()? },
            4 => Request::Del { key: c.str()? },
            5 => Request::Exists { key: c.str()? },
            6 => Request::Rename {
                from: c.str()?,
                to: c.str()?,
            },
            7 => Request::Keys { pattern: c.str()? },
            8 => Request::Scan {
                pattern: c.str()?,
                cursor: c.u64()?,
                count: c.u32()?,
            },
            9 => {
                let n = c.count(8)?;
                let pairs = (0..n)
                    .map(|_| Ok((c.str()?, c.bytes()?)))
                    .collect::<DecodeResult<_>>()?;
                Request::PutMany { pairs }
            }
            10 => Request::GetMany { keys: c.strs()? },
            11 => Request::DelMany { keys: c.strs()? },
            12 => Request::Stats,
            13 => Request::Sync,
            other => return Err(format!("unknown opcode {other}")),
        };
        c.finish()?;
        Ok(req)
    }

    pub fn response(st: u8, body: &[u8]) -> DecodeResult<Response> {
        let mut c = Cur { buf: body, pos: 0 };
        let resp = match st {
            1 => Response::Err(WireError::NoSuchKey(c.str()?)),
            2 => Response::Err(WireError::CrossShardRename {
                from: c.str()?,
                to: c.str()?,
            }),
            3 => Response::Err(WireError::BadRequest(c.str()?)),
            4 => Response::Err(WireError::Server(c.str()?)),
            0 => match c.u8()? {
                0 => Response::Unit,
                1 => match c.u8()? {
                    b @ (0 | 1) => Response::Bool(b == 1),
                    other => return Err(format!("bad bool {other}")),
                },
                2 => Response::Value(c.option()?),
                3 => Response::KeyList(c.strs()?),
                4 => {
                    let raw = c.u64()?;
                    let next = (raw != u64::MAX).then_some(raw);
                    Response::ScanPage {
                        keys: c.strs()?,
                        next,
                    }
                }
                5 => Response::Count(c.u64()?),
                6 => {
                    let n = c.count(1)?;
                    let vals = (0..n).map(|_| c.option()).collect::<DecodeResult<_>>()?;
                    Response::Values(vals)
                }
                7 => Response::Stats(StoreStats {
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

// ------------------------------------------------------------ pinned frames

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
        .collect()
}

/// `req` under seq 7 encodes to `hex`, and `hex` parses back to `req`,
/// as a view and owned.
fn pinned_request(req: Request, hex: &str) {
    let bytes = unhex(hex);
    assert_eq!(req.encode_frame(7), bytes, "{req:?}");
    let (frame, rest) = Frame::split(&bytes).unwrap().unwrap();
    assert!(rest.is_empty());
    assert_eq!(frame.seq, 7);
    let view = RequestView::parse(frame.tag, frame.body).unwrap();
    assert_eq!(view.to_request(), req);
    let mut again = Vec::new();
    view.encode(7, &mut again).unwrap();
    assert_eq!(again, bytes);
    assert_eq!(Request::decode(frame.tag, frame.body), Ok(req));
}

/// `resp` under seq 7 encodes to `hex`, and `hex` parses back to `resp`,
/// as a view and owned.
fn pinned_response(resp: Response, hex: &str) {
    let bytes = unhex(hex);
    assert_eq!(resp.encode_frame(7), bytes, "{resp:?}");
    let (frame, rest) = Frame::split(&bytes).unwrap().unwrap();
    assert!(rest.is_empty());
    assert_eq!((frame.seq, frame.tag), (7, resp.status()));
    let view = ResponseView::parse(frame.tag, frame.body).unwrap();
    assert_eq!(view.to_response(), resp);
    let mut again = Vec::new();
    view.encode(7, &mut again).unwrap();
    assert_eq!(again, bytes);
    assert_eq!(Response::decode(frame.tag, frame.body), Ok(resp));
}

/// One test per opcode, status and response kind: the frame bytes are
/// the protocol's, fixed before the codec was rewritten around views.
macro_rules! pinned {
    ($check:ident: $($name:ident: $msg:expr => $hex:literal;)*) => {
        $(
            #[test]
            fn $name() {
                $check($msg, $hex);
            }
        )*
    };
}

pinned! { pinned_request:
    pinned_ping: Request::Ping => "09000000070000000000000001";
    pinned_put: Request::Put { key: "ns:{k}".into(), value: Bytes::from_static(b"v1") }
        => "19000000070000000000000002060000006e733a7b6b7d020000007631";
    pinned_get: Request::Get { key: "k".into() } => "0e000000070000000000000003010000006b";
    pinned_del: Request::Del { key: "k".into() } => "0e000000070000000000000004010000006b";
    pinned_exists: Request::Exists { key: "k".into() } => "0e000000070000000000000005010000006b";
    pinned_rename: Request::Rename { from: "a:{t}".into(), to: "b:{t}".into() }
        => "1b00000007000000000000000605000000613a7b747d05000000623a7b747d";
    pinned_keys: Request::Keys { pattern: "rdf:*".into() }
        => "12000000070000000000000007050000007264663a2a";
    pinned_scan: Request::Scan { pattern: "*".into(), cursor: (3 << 32) | 17, count: 64 }
        => "1a000000070000000000000008010000002a110000000300000040000000";
    pinned_put_many: Request::PutMany {
        pairs: vec![("a".into(), Bytes::from_static(b"x")), ("b".into(), Bytes::new())],
    } => "200000000700000000000000090200000001000000610100000078010000006200000000";
    pinned_get_many: Request::GetMany { keys: vec!["a".into(), "b".into()] }
        => "1700000007000000000000000a0200000001000000610100000062";
    pinned_del_many: Request::DelMany { keys: vec!["a".into()] }
        => "1200000007000000000000000b010000000100000061";
    pinned_stats: Request::Stats => "0900000007000000000000000c";
    pinned_sync: Request::Sync => "0900000007000000000000000d";
}

pinned! { pinned_response:
    pinned_ok_unit: Response::Unit => "0a00000007000000000000000000";
    pinned_ok_bool: Response::Bool(true) => "0b0000000700000000000000000101";
    pinned_ok_value_missing: Response::Value(None) => "0b0000000700000000000000000200";
    pinned_ok_value: Response::Value(Some(Bytes::from_static(b"xy")))
        => "110000000700000000000000000201020000007879";
    pinned_ok_key_list: Response::KeyList(vec!["a".into(), "b".into()])
        => "18000000070000000000000000030200000001000000610100000062";
    pinned_ok_scan_page: Response::ScanPage { keys: vec!["k".into()], next: Some(99) }
        => "1b00000007000000000000000004630000000000000001000000010000006b";
    pinned_ok_scan_done: Response::ScanPage { keys: vec![], next: None }
        => "1600000007000000000000000004ffffffffffffffff00000000";
    pinned_ok_count: Response::Count(1234) => "1200000007000000000000000005d204000000000000";
    pinned_ok_values: Response::Values(vec![Some(Bytes::from_static(b"x")), None])
        => "15000000070000000000000000060200000001010000007800";
    pinned_ok_stats: Response::Stats(StoreStats {
        shards: 1, keys: 2, memory_bytes: 3, wal_records: 4, wal_syncs: 5,
    }) => "2e00000007000000000000000007010000000200000000000000030000000000000004000000000000000500000000000000";
    pinned_no_such_key: Response::Err(WireError::NoSuchKey("k".into()))
        => "0e000000070000000000000001010000006b";
    pinned_cross_shard_rename: Response::Err(WireError::CrossShardRename {
        from: "a".into(), to: "b".into(),
    }) => "1300000007000000000000000201000000610100000062";
    pinned_bad_request: Response::Err(WireError::BadRequest("m".into()))
        => "0e000000070000000000000003010000006d";
    pinned_server_error: Response::Err(WireError::Server("m".into()))
        => "0e000000070000000000000004010000006d";
}
