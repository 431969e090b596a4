//! Structure-aware fuzzing of the records reader, the format every frame,
//! patch and snapshot in the data store is written in.
//!
//! Any bundle round-trips. Damaged encodings (every truncation, every
//! byte flipped, a forged entry count) and bundles assembled from the
//! format's pieces must parse to an error or to a bundle that re-encodes
//! to exactly the bytes it came from: the reader accepts the writer's
//! output and nothing else. It must never panic, and an entry count the
//! body cannot hold is refused before anything is sized by it.

use datastore::codec::{Array, ArrayView, Records, RecordsView, RecordsWriter};
use proptest::prelude::*;

fn arb_array() -> impl Strategy<Value = Array> {
    let value = prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (-4i32..4).prop_map(f64::from),
    ];
    // At most two dimensions of at most two: four values cover any shape.
    (
        prop::collection::vec(0usize..3, 0..3),
        prop::collection::vec(value, 4..=4),
    )
        .prop_map(|(shape, values)| {
            let n = shape.iter().product::<usize>();
            Array::new(shape, values[..n].to_vec())
        })
}

/// Names from a small alphabet, so bundles often hold names one flipped
/// bit apart (`rdf0`/`rdf1`).
fn arb_records() -> impl Strategy<Value = Records> {
    prop::collection::vec(("(rdf|meta|)[0-3]{0,2}", arb_array()), 0..5).prop_map(|entries| {
        let mut r = Records::new();
        for (name, array) in entries {
            r.insert(&name, array);
        }
        r
    })
}

/// The one acceptance rule: an error, or a bundle whose encoding is the
/// input; the borrowed view agrees with the owned decode.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let view = RecordsView::parse(bytes);
    match Records::decode(bytes) {
        Ok(r) => {
            prop_assert_eq!(r.encode(), bytes);
            let view = view.map_err(|e| TestCaseError::fail(format!("view refused: {e}")))?;
            prop_assert_eq!(view.iter().count(), r.len());
            for ((name, a), owned) in view.iter().zip(r.names()) {
                prop_assert_eq!(name, owned);
                prop_assert_eq!(
                    a.to_array().encode(),
                    r.get(owned).map(Array::encode).unwrap_or_default()
                );
            }
        }
        Err(_) => prop_assert!(view.is_err(), "the view accepted what decode refused"),
    }
    Ok(())
}

#[derive(Debug, Clone)]
enum Piece {
    /// A bare `u16` name length or `u32` count/ndim.
    Short(u16),
    Count(u32),
    /// A `u64` payload size or dimension.
    Word(u64),
    /// A name behind its true length.
    Name(Vec<u8>),
    /// An array behind its true payload size.
    Entry(Vec<u8>),
    Magic(bool),
    Raw(Vec<u8>),
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    let bytes = prop::collection::vec(prop_oneof![Just(b'r'), Just(0xffu8), any::<u8>()], 0..6);
    prop_oneof![
        prop_oneof![0u16..4, Just(u16::MAX)].prop_map(Piece::Short),
        prop_oneof![0u32..4, Just(u32::MAX), any::<u32>()].prop_map(Piece::Count),
        prop_oneof![0u64..40, Just(u64::MAX), any::<u64>()].prop_map(Piece::Word),
        bytes.clone().prop_map(Piece::Name),
        arb_array().prop_map(|a| Piece::Entry(a.encode())),
        any::<bool>().prop_map(Piece::Magic),
        bytes.prop_map(Piece::Raw),
    ]
}

/// A records header and a count, then pieces.
fn arb_assembled() -> impl Strategy<Value = Vec<u8>> {
    (0u32..4, prop::collection::vec(arb_piece(), 0..12)).prop_map(|(count, pieces)| {
        let mut out = b"MMR1".to_vec();
        out.extend_from_slice(&count.to_le_bytes());
        for p in pieces {
            match p {
                Piece::Short(n) => out.extend_from_slice(&n.to_le_bytes()),
                Piece::Count(n) => out.extend_from_slice(&n.to_le_bytes()),
                Piece::Word(n) => out.extend_from_slice(&n.to_le_bytes()),
                Piece::Name(b) => {
                    out.extend_from_slice(&(b.len() as u16).to_le_bytes());
                    out.extend_from_slice(&b);
                }
                Piece::Entry(b) => {
                    out.extend_from_slice(&(b.len() as u64).to_le_bytes());
                    out.extend_from_slice(&b);
                }
                Piece::Magic(records) => {
                    out.extend_from_slice(if records { b"MMR1" } else { b"MMA1" })
                }
                Piece::Raw(b) => out.extend_from_slice(&b),
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn any_bundle_round_trips(r in arb_records()) {
        let bytes = r.encode();
        let back = Records::decode(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(back.encode(), bytes.clone());
        check(&bytes)?;
    }

    fn every_truncation_and_flipped_byte_is_refused_or_exact(
        r in arb_records(),
        mask in 1u8..=255,
    ) {
        let bytes = r.encode();
        for cut in 0..bytes.len() {
            prop_assert!(Records::decode(&bytes[..cut]).is_err(), "cut at {}", cut);
            check(&bytes[..cut])?;
        }
        // Each byte flipped by the drawn mask and by one of its bits.
        for at in 0..bytes.len() {
            for m in [mask, 1 << (mask % 8)] {
                let mut flipped = bytes.clone();
                flipped[at] ^= m;
                check(&flipped)?;
            }
        }
    }

    fn a_forged_count_or_appended_bytes_are_refused_or_exact(
        r in arb_records(),
        count in prop_oneof![0u32..8, Just(u32::MAX), any::<u32>()],
        extra in prop::collection::vec(any::<u8>(), 1..4),
    ) {
        let mut forged = r.encode();
        forged[4..8].copy_from_slice(&count.to_le_bytes());
        check(&forged)?;
        let mut appended = r.encode();
        appended.extend(extra);
        prop_assert!(Records::decode(&appended).is_err());
    }

    fn assembled_bundles_are_refused_or_exact(bytes in arb_assembled()) {
        check(&bytes)?;
    }

    fn an_array_decodes_to_an_error_or_itself(
        a in arb_array(),
        cut in any::<usize>(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let bytes = a.encode();
        for damaged in [
            bytes[..cut % (bytes.len() + 1)].to_vec(),
            {
                let mut b = bytes.clone();
                b[at % bytes.len()] ^= mask;
                b
            },
        ] {
            if let Ok(back) = Array::decode(&damaged) {
                prop_assert_eq!(back.encode(), damaged.clone());
            }
            prop_assert_eq!(ArrayView::parse(&damaged).is_ok(), Array::decode(&damaged).is_ok());
        }
    }
}

/// A header claiming `u32::MAX` entries over a nine-byte body is refused
/// without reserving room for them (the owned decode sizes its entry
/// list by the count only after the view has accepted it).
#[test]
fn a_count_the_body_cannot_hold_is_an_error_not_an_allocation() {
    let mut bytes = b"MMR1".to_vec();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0; 9]);
    assert!(RecordsView::parse(&bytes).is_err());
    assert!(Records::decode(&bytes).is_err());
    // An array shape whose element count overflows is refused too.
    let mut array = b"MMA1\x02\x00\x00\x00".to_vec();
    array.extend_from_slice(&u64::MAX.to_le_bytes());
    array.extend_from_slice(&2u64.to_le_bytes());
    assert!(Array::decode(&array).is_err());
}

/// A repeated name is refused: the owned bundle cannot hold one, so it
/// could not re-encode to the input.
#[test]
fn a_repeated_name_is_refused() {
    let mut r = Records::new();
    r.insert("rdf0", Array::from_vec(vec![1.0]));
    r.insert("rdf1", Array::from_vec(vec![2.0]));
    let mut bytes = r.encode();
    let second = bytes
        .windows(4)
        .rposition(|w| w == b"rdf1")
        .expect("the second name");
    bytes[second + 3] = b'0';
    assert!(Records::decode(&bytes).is_err());
}

/// A bundle of 50,000 short distinct names parses in one sorted pass,
/// not one comparison per pair of names (which took seconds), and one
/// repeat among them is still refused.
#[test]
fn a_bundle_of_many_short_names_parses_and_a_repeat_among_them_is_refused() {
    const N: usize = 50_000;
    let encode = |name: &dyn Fn(usize) -> String| {
        let names: Vec<String> = (0..N).map(name).collect();
        let len = names
            .iter()
            .map(|n| RecordsWriter::entry_len(n.len(), 1, 0))
            .sum();
        let mut bytes = Vec::new();
        let mut w = RecordsWriter::new(&mut bytes, N, len);
        for n in &names {
            w.entry(n, &[0], &[]);
        }
        w.finish();
        bytes
    };
    let distinct = encode(&|i| format!("n{i}"));
    let view = RecordsView::parse(&distinct).expect("distinct names parse");
    assert_eq!(view.iter().count(), N);
    assert!(view.get("n49999").is_some());
    let repeated = encode(&|i| format!("n{}", if i == N - 1 { 17 } else { i }));
    assert!(RecordsView::parse(&repeated).is_err());
    assert!(Records::decode(&repeated).is_err());
}
