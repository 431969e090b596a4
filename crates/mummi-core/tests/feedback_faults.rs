//! A store fault in the middle of a CG→continuum feedback round.
//!
//! The round reads and moves one key at a time and aborts at the first
//! store error. So a read fault leaves everything before it folded and
//! moved to `rdf-done`, and the faulted frame and everything after it in
//! `rdf-new`, where the next round takes them. The folded aggregate ends
//! where a fault-free round over the same frames ends, and the store sees
//! the same `datastore.kv.*` operation counts.

use cg::analysis::CgFrame;
use datastore::{DataStore, FaultWindow, KvDataStore, Op, ScheduledFaultStore};
use mummi_core::{ns, CgToContinuumFeedback, FeedbackManager};
use simcore::{SimDuration, SimTime};
use trace::Tracer;

/// Ten frames `s:f0`…`s:f9` (list order is key order); `s:f1` is not a
/// frame at all.
fn seed(store: &mut dyn DataStore) {
    for i in 0..10 {
        let key = format!("s:f{i}");
        if i == 1 {
            store.write(ns::RDF_NEW, &key, b"garbage").unwrap();
            continue;
        }
        let v = i as f64;
        let frame = CgFrame {
            id: key.clone(),
            time: v,
            encoding: [0.1 * v, 0.2, 0.3],
            rdfs: vec![vec![0.5 + v; 6], vec![2.0 - 0.1 * v; 6]],
        };
        store.write(ns::RDF_NEW, &key, &frame.encode()).unwrap();
    }
}

fn keys(store: &mut dyn DataStore, namespace: &str) -> Vec<String> {
    store.list(namespace).unwrap()
}

fn kv_counters(tracer: &Tracer) -> Vec<(String, u64)> {
    tracer
        .metrics_snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("datastore.kv."))
        .collect()
}

#[test]
fn a_read_fault_leaves_the_rest_of_the_round_for_the_next() {
    let tracer = Tracer::enabled();
    let mut inner = KvDataStore::new(20);
    inner.set_tracer(tracer.clone());
    // Inside the first hour the fourth read fails.
    let window = FaultWindow {
        from: SimTime::from_hours(1),
        until: SimTime::from_hours(2),
        op: Op::Read,
        period: 4,
        extra_latency: SimDuration::ZERO,
    };
    let mut store = ScheduledFaultStore::new(inner, vec![window]);
    seed(&mut store);
    let mut fb = CgToContinuumFeedback::new(2);

    store.set_now(SimTime::from_hours(1));
    assert!(fb.iterate(&mut store).is_err(), "the fourth read faults");
    assert_eq!(store.injected(), 1);
    // f0 and f2 folded, f1 corrupt, all three moved; f3 faulted.
    assert_eq!(fb.total_processed(), 2);
    assert_eq!(keys(&mut store, ns::RDF_DONE), ["s:f0", "s:f1", "s:f2"]);
    assert_eq!(
        keys(&mut store, ns::RDF_NEW),
        ["s:f3", "s:f4", "s:f5", "s:f6", "s:f7", "s:f8", "s:f9"]
    );

    store.set_now(SimTime::from_hours(2));
    let out = fb.iterate(&mut store).unwrap();
    assert_eq!((out.processed, out.corrupt), (7, 0));
    assert_eq!(fb.total_processed(), 9);
    assert!(keys(&mut store, ns::RDF_NEW).is_empty());
    assert_eq!(keys(&mut store, ns::RDF_DONE).len(), 10);
    // The faulted read never reached the store: ten writes, ten reads,
    // ten moves.
    assert_eq!(
        kv_counters(&tracer),
        [
            ("datastore.kv.moves".to_string(), 10),
            ("datastore.kv.reads".to_string(), 10),
            ("datastore.kv.writes".to_string(), 10),
        ]
    );

    // One fault-free round over the same frames folds to the same bits.
    let mut clean = KvDataStore::new(20);
    seed(&mut clean);
    let mut reference = CgToContinuumFeedback::new(2);
    let out = reference.iterate(&mut clean).unwrap();
    assert_eq!((out.processed, out.corrupt), (9, 1));
    assert_eq!(fb.report(), reference.report());
}

#[test]
fn a_move_fault_leaves_the_faulted_frame_live_and_folds_it_again() {
    // A failed move happens after the fold: the frame stays in
    // `rdf-new`, so the next round reads and folds it a second time.
    let window = FaultWindow {
        from: SimTime::from_hours(1),
        until: SimTime::from_hours(2),
        op: Op::MoveNs,
        period: 3,
        extra_latency: SimDuration::ZERO,
    };
    let mut store = ScheduledFaultStore::new(KvDataStore::new(20), vec![window]);
    seed(&mut store);
    let mut fb = CgToContinuumFeedback::new(2);

    store.set_now(SimTime::from_hours(1));
    assert!(fb.iterate(&mut store).is_err(), "the third move faults");
    // f0 and f2 folded, f1 corrupt; f0 and f1 moved, f2's move faulted.
    assert_eq!(fb.total_processed(), 2);
    assert_eq!(keys(&mut store, ns::RDF_DONE), ["s:f0", "s:f1"]);
    assert_eq!(keys(&mut store, ns::RDF_NEW).len(), 8);

    store.set_now(SimTime::from_hours(2));
    let out = fb.iterate(&mut store).unwrap();
    assert_eq!((out.processed, out.corrupt), (8, 0));
    assert_eq!(fb.total_processed(), 10, "f2 is folded twice");
    assert_eq!(keys(&mut store, ns::RDF_DONE).len(), 10);
}
