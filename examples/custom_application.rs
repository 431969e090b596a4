//! Swapping the application: the coordination layer is generic.
//!
//! §4.5: "other applications can swap out our domain-specific components
//! in exchange for other suitable components via the same interfaces."
//! This example targets a different (toy) science problem — a
//! two-scale parameter study of damped oscillators — while reusing the
//! whole coordination stack unchanged:
//!
//! - a *different encoder* (plain PCA over trajectory statistics),
//! - a *different selector* (one farthest-point queue instead of five),
//! - *different job classes* and runtimes,
//! - the *same* WorkflowManager, scheduler, data stores, and feedback API.
//!
//! Run with: `cargo run --release --example custom_application`

use mummi::core::{WmConfig, WorkflowManager};
use mummi::datastore::FsStore;
use mummi::dynim::{ExactNn, FarthestPointSampler, FpsConfig, HdPoint, Sampler};
use mummi::ml::{Matrix, Pca};
use mummi::resources::{MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};
use mummi::sched::{Costs, Coupling, SchedEngine};
use mummi::simcore::{SimDuration, SimTime};

/// The "coarse model" of this application: a cheap closed-form oscillator
/// x(t) = e^{-γt} cos(ωt), summarized by sampled statistics.
fn oscillator_features(gamma: f64, omega: f64) -> Vec<f64> {
    (0..16)
        .map(|i| {
            let t = i as f64 * 0.5;
            (-gamma * t).exp() * (omega * t).cos()
        })
        .collect()
}

fn main() {
    // Application part 1: generate coarse candidates over parameter space.
    let mut raw: Vec<(String, Vec<f64>)> = Vec::new();
    for gi in 0..20 {
        for wi in 0..20 {
            let gamma = 0.05 + gi as f64 * 0.05;
            let omega = 0.5 + wi as f64 * 0.25;
            raw.push((
                format!("osc-g{gi}-w{wi}"),
                oscillator_features(gamma, omega),
            ));
        }
    }

    // Application part 2: a PCA encoder instead of the membrane DNN.
    let flat: Vec<f64> = raw.iter().flat_map(|(_, f)| f.clone()).collect();
    let pca = Pca::fit(&Matrix::from_vec(raw.len(), 16, flat), 4);
    println!(
        "PCA encoder: 16-D trajectories -> 4-D, explained variance {:?}",
        pca.explained_variance()
            .iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    // Application part 3: a single farthest-point queue as the selector.
    let selector: Box<dyn Sampler + Send> = Box::new(FarthestPointSampler::new(
        FpsConfig { cap: 0 },
        ExactNn::new(),
    ));
    // The "fine scale" selector is unused by this two-scale study; a
    // second empty queue satisfies the interface.
    let fine_selector: Box<dyn Sampler + Send> = Box::new(FarthestPointSampler::new(
        FpsConfig { cap: 0 },
        ExactNn::new(),
    ));

    // The *same* coordination layer, configured for the new study.
    let launcher = SchedEngine::new(
        ResourceGraph::new(MachineSpec::custom("cluster", 4, NodeSpec::lassen())),
        MatchPolicy::FirstMatch,
        Coupling::Asynchronous,
        Costs::free(),
    );
    let mut cfg = WmConfig::test_scale();
    cfg.cg_gpu_fraction = 1.0; // all GPUs to the one simulation scale
    cfg.cg_sim_runtime = SimDuration::from_mins(15);
    cfg.cg_setup_runtime = SimDuration::from_mins(2);
    let poll = cfg.poll_interval;
    let mut wm = WorkflowManager::new(cfg, launcher, selector, fine_selector, 1);

    // Feed candidates through the standard ingestion path.
    let points: Vec<HdPoint> = raw
        .iter()
        .map(|(id, f)| HdPoint::new(id.clone(), pca.transform(f)))
        .collect();
    wm.add_patch_candidates(points);

    // Drive the study; a filesystem store this time (one config switch).
    let dir = std::env::temp_dir().join(format!("custom-app-{}", std::process::id()));
    let mut store = FsStore::open(&dir).expect("store dir");
    let mut t = SimTime::ZERO;
    while t <= SimTime::from_hours(2) {
        wm.tick(t, &mut store);
        t += poll;
    }

    let stats = wm.stats();
    println!("parameter study over 2 virtual hours on 4 Lassen nodes:");
    println!("  candidates ingested : {}", stats.patches_ingested);
    println!("  selected (novel)    : {}", stats.cg_selected);
    println!("  simulations started : {}", stats.cg_sims_started);
    println!("  simulations finished: {}", stats.cg_sims_completed);
    assert!(stats.cg_sims_started > 0);
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "\nsame WorkflowManager, scheduler, and data interfaces — zero coordination-code changes"
    );
}
