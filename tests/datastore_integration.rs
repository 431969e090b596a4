//! Backend interchangeability: the paper's "single configuration switch".
//!
//! The same operation sequence against every data-store backend must
//! produce the same visible state, and payloads written by one subsystem
//! must decode identically regardless of the backend that carried them.

use mummi::cg::analysis::CgFrame;
use mummi::datastore::{DataStore, FsStore, KvDataStore, TarStore};

/// Every backend, each labelled for assertion messages.
fn backends(tag: &str) -> Vec<(&'static str, Box<dyn DataStore>)> {
    let base = std::env::temp_dir().join(format!("ds-int-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    vec![
        ("kv", Box::new(KvDataStore::new(4))),
        ("kv-loopback", Box::new(KvDataStore::loopback(4))),
        (
            "filesystem",
            Box::new(FsStore::open(base.join("fs")).expect("fs store")),
        ),
        (
            "taridx",
            Box::new(TarStore::open(base.join("tar")).expect("tar store")),
        ),
    ]
}

/// Runs a representative workflow I/O script against a store and returns
/// its observable final state.
fn run_script(store: &mut dyn DataStore) -> (usize, usize, Vec<u8>, bool) {
    for i in 0..20 {
        store
            .write(
                "rdf-new",
                &format!("f{i}"),
                format!("payload-{i}").as_bytes(),
            )
            .expect("write");
    }
    // Overwrite one, delete one, move half to the processed namespace.
    store.write("rdf-new", "f3", b"updated").expect("overwrite");
    store.delete("rdf-new", "f19").expect("delete");
    for i in 0..10 {
        store
            .move_ns(&format!("f{i}"), "rdf-new", "rdf-done")
            .expect("move");
    }
    store.flush().expect("flush");
    let live = store.count("rdf-new").expect("count");
    let done = store.count("rdf-done").expect("count");
    let f3 = store.read("rdf-done", "f3").expect("read moved");
    let f19_gone = !store.exists("rdf-new", "f19");
    (live, done, f3, f19_gone)
}

#[test]
fn all_backends_agree_on_the_same_script() {
    let mut results = Vec::new();
    for (name, mut store) in backends("script") {
        results.push((name, run_script(store.as_mut())));
    }
    let reference = &results[0].1;
    for (name, state) in &results {
        assert_eq!(state, reference, "backend {name} diverged");
    }
    assert_eq!(reference.0, 9); // 20 - 10 moved - 1 deleted
    assert_eq!(reference.1, 10);
    assert_eq!(reference.2, b"updated");
    assert!(reference.3);
}

#[test]
fn frames_decode_identically_from_every_backend() {
    let frame = CgFrame {
        id: "sim1:f0".into(),
        time: 3.25,
        encoding: [0.1, 0.2, 0.3],
        rdfs: vec![vec![1.0, 2.0, 3.0], vec![0.5; 8]],
    };
    for (name, mut store) in backends("frames") {
        store
            .write("frames", &frame.id, &frame.encode())
            .expect("write");
        store.flush().expect("flush");
        let bytes = store.read("frames", &frame.id).expect("read");
        let back = CgFrame::decode(&frame.id, &bytes).expect("decode");
        assert_eq!(back, frame, "backend {name}");
    }
}

#[test]
fn read_many_matches_sequential_reads_on_all_backends() {
    for (_, mut store) in backends("readmany") {
        let keys: Vec<String> = (0..15).map(|i| format!("k{i}")).collect();
        for (i, k) in keys.iter().enumerate() {
            store.write("ns", k, &[i as u8; 32]).expect("write");
        }
        let bulk = store.read_many("ns", &keys).expect("bulk");
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(bulk[i], store.read("ns", k).expect("read"));
        }
    }
}

#[test]
fn list_order_is_lexicographic_on_every_backend() {
    // The `DataStore::list` ordering contract: ascending lexicographic,
    // independent of insertion order, shard placement, directory
    // enumeration order, or archive append order. Keys are written in a
    // deliberately shuffled order with shapes that would diverge under
    // numeric or insertion ordering ("f10" < "f2" lexicographically).
    let written = [
        "f10", "f2", "zeta", "alpha", "f1", "mid:sub", "f20", "beta", "f3", "alpha:0",
    ];
    let mut expected: Vec<String> = written.iter().map(|s| s.to_string()).collect();
    expected.sort_unstable();
    for (name, mut store) in backends("order") {
        for k in &written {
            store.write("ns", k, k.as_bytes()).expect("write");
        }
        assert_eq!(
            store.list("ns").expect("list"),
            expected,
            "backend {name} violated the list ordering contract"
        );
        // Deleting and re-inserting must not disturb the order.
        store.delete("ns", "beta").expect("delete");
        store.write("ns", "beta", b"again").expect("rewrite");
        assert_eq!(store.list("ns").expect("list"), expected);
    }
}

#[test]
fn missing_items_behave_alike_on_every_backend() {
    // The trait's edge contract: an absent namespace is empty, reading or
    // moving an absent key fails, and `delete` reports whether the key was
    // there instead of failing.
    for (name, mut store) in backends("missing") {
        assert_eq!(store.count("void").expect("count"), 0, "backend {name}");
        assert!(
            store.list("void").expect("list").is_empty(),
            "backend {name}"
        );
        assert!(!store.exists("void", "k"), "backend {name}");
        assert!(store.read("void", "k").is_err(), "backend {name}");
        assert!(
            store.move_ns("k", "void", "elsewhere").is_err(),
            "backend {name}"
        );
        assert!(
            !store.delete("void", "k").expect("delete"),
            "backend {name}"
        );

        store.write("ns", "k", b"v").expect("write");
        assert!(store.delete("ns", "k").expect("delete"), "backend {name}");
        assert!(!store.exists("ns", "k"), "backend {name}");
        assert!(store.read("ns", "k").is_err(), "backend {name}");
    }
}

#[test]
fn tar_backend_archives_are_readable_by_standard_tar_layout() {
    // The taridx backend's files are plain ustar: verify the magic at the
    // canonical offset of the first member.
    let base = std::env::temp_dir().join(format!("ds-ustar-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut store = TarStore::open(&base).expect("tar store");
    store.write("archive", "member", b"data").expect("write");
    store.flush().expect("flush");
    let bytes = std::fs::read(base.join("archive.tar")).expect("raw read");
    assert_eq!(&bytes[257..262], b"ustar");
    std::fs::remove_dir_all(&base).ok();
}
