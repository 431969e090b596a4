//! §1 / §5.2: the ≥12× faster feedback mechanism.
//!
//! The prior MuMMI performed feedback through the filesystem and provided
//! "an unsatisfactory frequency of two hours"; the new design targets <10
//! minutes by moving the feedback namespace into the in-memory database.
//! We run the *same* CG→continuum feedback iteration (same frames, same
//! aggregation code) over the filesystem backend and the KV backend and
//! compare, adding each backend's modeled access latencies (GPFS metadata
//!+ read costs vs the interconnect model).

use cg::analysis::CgFrame;
use datastore::{DataStore, FsStore, KvDataStore};
use kvstore::{Cluster, LatencyModel};
use mummi_core::{CgToContinuumFeedback, FeedbackManager};

/// GPFS costs per operation under contention (directory locking, metadata
/// scans, small reads), from the paper's motivation for throttling I/O.
const GPFS_MD_OP_SECS: f64 = 0.004; // per-file metadata op (list/rename)
const GPFS_READ_SECS: f64 = 0.006; // per small-file open+read

fn frame(i: usize) -> CgFrame {
    CgFrame {
        id: format!("sim{}:f{i}", i % 3600),
        time: i as f64,
        encoding: [0.1, 0.5, 0.9],
        rdfs: vec![vec![1.5; 64]; 4],
    }
}

fn main() {
    mummi_bench::Flags::from_env(&[], &[]);
    let n_frames = 4000; // one iteration at 3600 running CG sims
    println!("# CG→continuum feedback: one iteration over {n_frames} frames\n");

    // Filesystem backend (the prior design).
    let dir = std::env::temp_dir().join(format!("fb-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench dir");
    let mut fs = FsStore::open(&dir).expect("open fs store");
    for i in 0..n_frames {
        let f = frame(i);
        fs.write(mummi_core::ns::RDF_NEW, &f.id, &f.encode())
            .expect("write");
    }
    let mut fb = CgToContinuumFeedback::new(4);
    let t0 = std::time::Instant::now();
    let out = fb.iterate(&mut fs).expect("iterate");
    let fs_measured = t0.elapsed().as_secs_f64();
    // Modeled GPFS costs: list + read + rename per frame.
    let fs_modeled = n_frames as f64 * (GPFS_MD_OP_SECS * 2.0 + GPFS_READ_SECS);
    let fs_total = fs_measured + fs_modeled;
    assert_eq!(out.processed, n_frames);
    std::fs::remove_dir_all(&dir).ok();

    // KV backend (this work).
    let cluster = Cluster::new(20);
    let mut kv = KvDataStore::over_with_latency(cluster, LatencyModel::SUMMIT_IB);
    for i in 0..n_frames {
        let f = frame(i);
        kv.write(mummi_core::ns::RDF_NEW, &f.id, &f.encode())
            .expect("write");
    }
    kv.client().reset_virtual();
    let mut fb = CgToContinuumFeedback::new(4);
    let t0 = std::time::Instant::now();
    let out = fb.iterate(&mut kv).expect("iterate");
    let kv_measured = t0.elapsed().as_secs_f64();
    let kv_total = kv_measured + kv.client().virtual_ns() as f64 * 1e-9;
    assert_eq!(out.processed, n_frames);

    println!("backend     measured     +modeled access     total");
    println!("filesystem  {fs_measured:>8.3} s   {fs_modeled:>13.3} s   {fs_total:>8.3} s");
    println!(
        "redis       {kv_measured:>8.3} s   {:>13.3} s   {kv_total:>8.3} s",
        kv_total - kv_measured
    );
    println!(
        "\nspeedup: {:.1}×   (paper: more than 12× faster feedback)",
        fs_total / kv_total
    );
    println!(
        "per-iteration cost: filesystem {:.1} min vs redis {:.2} min (target: <10 min per iteration)",
        fs_total / 60.0,
        kv_total / 60.0
    );
}
