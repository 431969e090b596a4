//! The CG frame format the feedback store holds, pinned byte for byte.
//!
//! `cg` is not a default member, so this tier-1 suite is where the
//! frame encoder meets a fixed expectation: the campaign writes these
//! bytes and the CG→continuum feedback parses them.

use cg::analysis::{encode_frame, CgFrame, CgFrameView};

fn frame() -> CgFrame {
    CgFrame {
        id: "s:f0".into(),
        time: 2.0,
        encoding: [0.5, 0.25, 1.0],
        rdfs: vec![vec![1.0, -2.0]],
    }
}

/// `meta` (time, encoding, species count), then `rdf0`.
const PINNED: &[u8] = b"MMR1\x02\x00\x00\x00\
    \x04\x00meta\x38\x00\x00\x00\x00\x00\x00\x00\
    MMA1\x01\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x00\x00\x00\x40\x00\x00\x00\x00\x00\x00\xe0\x3f\
    \x00\x00\x00\x00\x00\x00\xd0\x3f\x00\x00\x00\x00\x00\x00\xf0\x3f\
    \x00\x00\x00\x00\x00\x00\xf0\x3f\
    \x04\x00rdf0\x20\x00\x00\x00\x00\x00\x00\x00\
    MMA1\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00\x00\x00\x00\x00\x00\xc0";

#[test]
fn a_frame_encodes_to_the_pinned_bytes_and_back() {
    assert_eq!(frame().encode(), PINNED);
    assert_eq!(CgFrame::decode("s:f0", PINNED).unwrap(), frame());
}

#[test]
fn encoding_from_slices_writes_the_same_bytes() {
    let mut out = b"stale".to_vec();
    encode_frame(&mut out, 2.0, [0.5, 0.25, 1.0], &[[1.0, -2.0]]);
    assert_eq!(out, PINNED);
}

#[test]
fn the_view_reads_what_the_frame_holds() {
    let f = CgFrame {
        rdfs: (0..12).map(|s| vec![s as f64; 3]).collect(),
        ..frame()
    };
    let bytes = f.encode();
    let view = CgFrameView::parse(&bytes).unwrap();
    assert_eq!(view.time(), f.time);
    assert_eq!(view.encoding(), f.encoding);
    let rdfs: Vec<Vec<f64>> = view.rdfs().map(|r| r.values().collect()).collect();
    assert_eq!(rdfs, f.rdfs);
}
