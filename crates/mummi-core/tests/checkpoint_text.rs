//! `WmCheckpoint::from_text` against generated input. The checkpoint text
//! is what a campaign farm restores a recovered tenant from:
//! - generated checkpoints (counters, ready ids, compacted selector
//!   histories) round-trip exactly through the text, and through
//!   `restore` into a fresh three-scale workflow manager and `checkpoint`
//!   back out;
//! - the same text with lines dropped, duplicated or swapped, or bytes
//!   flipped, is refused with a `CheckpointError` or parses to a
//!   checkpoint that itself round-trips and restores with its counters
//!   and ready queues intact. Never a panic.

use dynim::{HdPoint, History};
use mummi_core::{app3, CheckpointError, WmCheckpoint, WmConfig, WmStats, WorkflowManager};
use proptest::prelude::*;
use resources::{MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};
use sched::{Costs, Coupling, SchedEngine};

/// A selector mutation: add a candidate (id, coordinates) or select one.
#[derive(Debug, Clone)]
enum Mutation {
    Add(usize, Vec<f64>),
    Select(usize),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..12, proptest::collection::vec(-1.0e6f64..1.0e6, 4))
            .prop_map(|(id, coords)| Mutation::Add(id, coords)),
        (0usize..12).prop_map(Mutation::Select),
    ]
}

/// A selector log folded the way `WorkflowManager::checkpoint` stores it.
/// A selector places every point in one space, so all points of one
/// history have the same number of coordinates.
fn arb_history(prefix: &'static str) -> impl Strategy<Value = String> {
    (1usize..=4, proptest::collection::vec(arb_mutation(), 0..16)).prop_map(move |(dim, ops)| {
        let mut h = History::new();
        for op in ops {
            match op {
                Mutation::Add(id, mut coords) => {
                    coords.truncate(dim);
                    h.record_add(&HdPoint::new(format!("{prefix}{id}"), coords))
                }
                Mutation::Select(id) => h.record_select(&format!("{prefix}{id}")),
            }
        }
        h.compact().to_text()
    })
}

fn arb_ids() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z0-9:._-]{1,12}", 0..6)
}

fn arb_checkpoint() -> impl Strategy<Value = WmCheckpoint> {
    (
        proptest::collection::vec(any::<u64>(), 12),
        arb_ids(),
        arb_ids(),
        arb_history("p"),
        arb_history("f"),
    )
        .prop_map(|(n, cg_ready, aa_ready, patch_history, frame_history)| {
            let stats = WmStats {
                patches_ingested: n[0],
                frames_ingested: n[1],
                cg_selected: n[2],
                aa_selected: n[3],
                cg_sims_started: n[4],
                aa_sims_started: n[5],
                cg_sims_completed: n[6],
                aa_sims_completed: n[7],
                feedback_iterations: n[8],
                feedback_frames: n[9],
                jobs_timed_out: n[10],
                jobs_abandoned: n[11],
            };
            WmCheckpoint {
                stats,
                cg_ready,
                aa_ready,
                patch_history,
                frame_history,
            }
        })
}

/// One damage to the text; indices are reduced modulo the current size.
#[derive(Debug, Clone)]
enum Damage {
    Drop(usize),
    Duplicate(usize),
    Swap(usize, usize),
    /// XOR one byte with a mask; both are ASCII, so the text stays UTF-8.
    Flip(usize, u8),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(Damage::Drop),
        any::<usize>().prop_map(Damage::Duplicate),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Damage::Swap(a, b)),
        (any::<usize>(), 1u8..0x80).prop_map(|(at, mask)| Damage::Flip(at, mask)),
    ]
}

fn damage(text: &str, how: &Damage) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let n = lines.len();
    match *how {
        Damage::Drop(i) => {
            lines.remove(i % n);
        }
        Damage::Duplicate(i) => lines.insert(i % n, lines[i % n]),
        Damage::Swap(a, b) => lines.swap(a % n, b % n),
        Damage::Flip(at, mask) => {
            let mut bytes = text.as_bytes().to_vec();
            let at = at % bytes.len();
            bytes[at] ^= mask;
            return String::from_utf8(bytes).expect("ASCII stays UTF-8");
        }
    }
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// A fresh workflow manager with the three-scale selectors, as a farm
/// worker builds before restoring a recovered tenant.
fn fresh_wm() -> WorkflowManager {
    let launcher = SchedEngine::new(
        ResourceGraph::new(MachineSpec::custom("ckpt", 2, NodeSpec::summit())),
        MatchPolicy::FirstMatch,
        Coupling::Asynchronous,
        Costs::free(),
    );
    app3::build_three_scale_wm(WmConfig::test_scale(), launcher, 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_checkpoints_round_trip(ckpt in arb_checkpoint()) {
        let text = ckpt.to_text();
        prop_assert_eq!(WmCheckpoint::from_text(&text), Ok(ckpt));
    }

    #[test]
    fn restore_then_checkpoint_is_the_identity(ckpt in arb_checkpoint()) {
        let mut wm = fresh_wm();
        wm.restore(&ckpt);
        prop_assert_eq!(wm.checkpoint(), ckpt);
    }

    #[test]
    fn damaged_text_is_refused_or_round_trips(
        ckpt in arb_checkpoint(),
        harm in proptest::collection::vec(arb_damage(), 1..4),
    ) {
        let mut text = ckpt.to_text();
        for how in &harm {
            text = damage(&text, how);
        }
        // An `Err` is a typed `CheckpointError`; what parses must be a
        // checkpoint in its own right.
        if let Ok(c) = WmCheckpoint::from_text(&text) {
            prop_assert_eq!(WmCheckpoint::from_text(&c.to_text()), Ok(c.clone()));
            let mut wm = fresh_wm();
            wm.restore(&c);
            let back = wm.checkpoint();
            prop_assert_eq!(back.stats, c.stats);
            prop_assert_eq!(back.cg_ready, c.cg_ready);
            prop_assert_eq!(back.aa_ready, c.aa_ready);
        }
    }
}

#[test]
fn a_history_mixing_dimensionalities_is_refused() {
    // One flipped byte (`.` to `,`) turns a 2-coordinate point into a
    // 3-coordinate one; the selector it replays into would panic on it.
    let text = "stats 0 0 0 0 0 0 0 0 0 0 0 0\n\
                ph A p1 1.5e0,2e0\n\
                ph A p2 1,5e0,2e0\n\
                end 3\n";
    match WmCheckpoint::from_text(text) {
        Err(CheckpointError::BadLine { line, reason, .. }) => {
            assert_eq!(line, 3);
            assert!(reason.contains("dimensionality"), "{reason}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    // Each history has its own space: patches and frames may differ.
    let ok = "stats 0 0 0 0 0 0 0 0 0 0 0 0\n\
              ph A p1 1.5e0,2e0\n\
              fh A f1 1e-1,2e-1,3e-1\n\
              end 3\n";
    let ckpt = WmCheckpoint::from_text(ok).expect("one dimensionality per history");
    let mut wm = fresh_wm();
    wm.restore(&ckpt);
    assert_eq!(wm.checkpoint(), ckpt);
}
