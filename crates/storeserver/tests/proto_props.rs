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

use bytes::Bytes;
use proptest::prelude::*;
use storeserver::proto::read_frame;
use storeserver::{Request, Response, StoreStats, WireError};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn a_request_body_decodes_to_an_error_or_round_trips((op, body) in arb_request_frame()) {
        if let Ok(req) = Request::decode(op, &body) {
            let (tag, again) = unframe(&req.encode_frame(1));
            prop_assert_eq!(tag, op);
            prop_assert_eq!(Request::decode(tag, &again), Ok(req));
        }
    }

    #[test]
    fn a_response_body_decodes_to_an_error_or_round_trips((st, body) in arb_response_frame()) {
        if let Ok(resp) = Response::decode(st, &body) {
            let (tag, again) = unframe(&resp.encode_frame(1));
            prop_assert_eq!(tag, st);
            prop_assert_eq!(Response::decode(tag, &again), Ok(resp));
        }
    }
}

/// A four-byte body claiming `u32::MAX` elements is refused without
/// reserving room for them (opcode 9 is `PUT_MANY`, response kinds 3 and
/// 6 are a key list and a value list).
#[test]
fn a_forged_element_count_is_an_error_not_an_allocation() {
    for op in 9..=11 {
        assert!(Request::decode(op, &[0xff; 4]).is_err(), "opcode {op}");
    }
    for kind in [3u8, 6] {
        let mut body = vec![kind];
        body.extend_from_slice(&[0xff; 4]);
        assert!(Response::decode(0, &body).is_err(), "kind {kind}");
    }
    let mut page = vec![4u8];
    page.extend_from_slice(&[0; 8]);
    page.extend_from_slice(&[0xff; 4]);
    assert!(Response::decode(0, &page).is_err(), "scan page");
}
