//! The full three-scale loop at laptop scale — real physics end to end.
//!
//! This is the paper's Figure 1 pipeline in miniature, with every coupling
//! path exercised by the actual substrates:
//!
//! continuum (DDFT) ─snapshots→ patch creator ─ML encoding→ patch selector
//!   ─createsim→ CG systems ─Martini MD + analysis→ RDFs & frame encodings
//!   ─binned selection→ backmapping → AA systems ─AA MD + secondary
//!   structure→ feedback:
//!     • CG→continuum: aggregated RDFs hot-reload the coupling parameters;
//!     • AA→CG: secondary-structure consensus stiffens the CG protein.
//!
//! The workflow manager coordinates everything through the same scheduler
//! and data-store abstractions the Summit campaign simulator uses.
//!
//! Run with: `cargo run --release --example three_scale_minicampaign`

use std::collections::HashMap;

use mummi::aa::{assign_ss, AaFrame};
use mummi::cg::analysis::analyze_frame;
use mummi::continuum::{ContinuumConfig, ContinuumSim, Patch, PatchConfig};
use mummi::core::app3::{self, EncoderKind};
use mummi::core::{ns, PatchCreator, WmConfig, WmEvent};
use mummi::datastore::{DataStore, KvDataStore};
use mummi::dynim::HdPoint;
use mummi::mapping::{backmap, createsim, BackmapConfig, CreatesimConfig};
use mummi::resources::{MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};
use mummi::sched::{Costs, Coupling, SchedEngine};
use mummi::simcore::SimTime;

fn main() {
    // ---- the macro scale -------------------------------------------------
    let mut continuum = ContinuumSim::new(ContinuumConfig {
        nx: 96,
        ny: 96,
        h: 1.0,
        inner_species: 2,
        outer_species: 1,
        n_proteins: 6,
        ..ContinuumConfig::laptop()
    });
    continuum.run(50);
    let n_species = continuum.config().species();

    // ---- the ML encoder: train on the first snapshot's patches -----------
    let patch_cfg = PatchConfig {
        size_nm: 12.0,
        resolution: 13,
        feature_grid: 3,
    };
    let first = mummi::continuum::extract_patches(&continuum.snapshot(), &patch_cfg);
    let training: Vec<Vec<f64>> = first.iter().map(|p| p.feature_vector(&patch_cfg)).collect();
    let encoder = app3::train_patch_encoder(EncoderKind::Pca, &training, 7);
    let mut patch_creator = PatchCreator::new(patch_cfg, encoder);

    // ---- the coordination layer ------------------------------------------
    let launcher = SchedEngine::new(
        ResourceGraph::new(MachineSpec::custom("laptop", 2, NodeSpec::summit())),
        MatchPolicy::FirstMatch,
        Coupling::Asynchronous,
        Costs::free(),
    );
    let mut wm = app3::build_three_scale_wm(WmConfig::test_scale(), launcher, n_species);
    let mut store = KvDataStore::new(4);

    // Application state the driver owns: live particle systems per sim id.
    let mut patches: HashMap<String, Patch> = HashMap::new();
    let mut cg_systems: HashMap<String, mummi::cg::system::CgSystem> = HashMap::new();
    let mut aa_systems: HashMap<String, mummi::aa::AaSystem> = HashMap::new();
    let mut coupling_updates = 0;
    let mut cg_param_updates = 0;
    let mut frame_counter = 0u64;

    // ---- the campaign loop (virtual time) --------------------------------
    let poll = WmConfig::test_scale().poll_interval;
    let mut t = SimTime::ZERO;
    let end = SimTime::from_hours(3);
    while t <= end {
        // The continuum delivers a snapshot every poll; patches become
        // selection candidates tagged by protein configuration state.
        continuum.run(5);
        let snap = continuum.snapshot();
        let candidates = patch_creator
            .process(&snap, &mut store)
            .expect("patch creation");
        let mut points = Vec::with_capacity(candidates.len());
        for (point, patch) in candidates {
            points.push(app3::state_tagged_point(
                &point.id,
                patch.state,
                point.coords,
            ));
            patches.insert(patch.id.clone(), patch);
        }
        wm.add_patch_candidates_from(&mut points);

        for event in wm.tick(t, &mut store) {
            match event {
                WmEvent::SetupDone {
                    stage: 0,
                    payload: patch_id,
                } => {
                    // createsim: patch -> equilibrated CG system.
                    let patch = patches.get(&*patch_id).expect("selected patch exists");
                    let (cgs, _) = createsim(
                        patch,
                        &CreatesimConfig {
                            side: 12.0,
                            lipids_per_density: 25.0,
                            relax_steps: 30,
                            ..CreatesimConfig::default()
                        },
                    );
                    cg_systems.insert(patch_id.to_string(), cgs);
                }
                WmEvent::SimStarted {
                    stage: 0, sim_id, ..
                } => {
                    // Run the Martini surrogate and publish analyzed frames.
                    let cgs = cg_systems.get_mut(&*sim_id).expect("prepared CG system");
                    let mut frame_points = Vec::new();
                    for burst in 0..3 {
                        cgs.run(150);
                        let frame = analyze_frame(cgs, &sim_id, burst, 16);
                        store
                            .write(ns::RDF_NEW, &frame.id, &frame.encode())
                            .expect("frame write");
                        frame_counter += 1;
                        frame_points.push(HdPoint::new(frame.id.clone(), frame.encoding.to_vec()));
                    }
                    wm.add_frame_candidates_from(&mut frame_points);
                }
                WmEvent::SetupDone {
                    stage: 1,
                    payload: frame_id,
                } => {
                    // backmapping: promote the frame's CG system to AA.
                    let source_sim = frame_id.split(':').next().expect("frame id format");
                    if let Some(cgs) = cg_systems.get(source_sim) {
                        let (aas, _) = backmap(cgs, &BackmapConfig::default());
                        aa_systems.insert(frame_id.to_string(), aas);
                    }
                }
                WmEvent::SimStarted {
                    stage: 1, sim_id, ..
                } => {
                    if let Some(aas) = aa_systems.get_mut(&*sim_id) {
                        aas.run(100);
                        let frame = AaFrame {
                            id: format!("{sim_id}:f0"),
                            time: aas.time(),
                            ss: assign_ss(&aas.backbone_positions()),
                        };
                        store
                            .write(ns::SS_NEW, &frame.id, &frame.encode())
                            .expect("ss write");
                    }
                }
                WmEvent::CouplingUpdated(params) => {
                    // CG→continuum feedback lands in the running macro model.
                    continuum.set_coupling(params);
                    coupling_updates += 1;
                }
                WmEvent::CgParamsUpdated(params) => {
                    // AA→CG feedback stiffens the CG protein bonds.
                    for cgs in cg_systems.values_mut() {
                        for bond in &mut cgs.ff.bonds {
                            bond.2 *= params.bond_k_factor.clamp(1.0, 2.0);
                        }
                    }
                    cg_param_updates += 1;
                }
                _ => {}
            }
        }
        t += poll;
    }

    // ---- summary ----------------------------------------------------------
    let stats = wm.stats();
    println!(
        "three-scale mini-campaign over {:.1} virtual hours:",
        end.as_hours_f64()
    );
    println!("  snapshots processed : {}", patch_creator.snapshots());
    println!("  patches created     : {}", patch_creator.created());
    println!("  patches selected    : {}", stats.cg_selected);
    println!("  CG sims started     : {}", stats.cg_sims_started);
    println!("  CG frames analyzed  : {frame_counter}");
    println!("  frames selected     : {}", stats.aa_selected);
    println!("  AA sims started     : {}", stats.aa_sims_started);
    println!("  feedback iterations : {}", stats.feedback_iterations);
    println!("  coupling updates    : {coupling_updates} (CG→continuum)");
    println!("  CG param updates    : {cg_param_updates} (AA→CG)");
    println!(
        "  continuum coupling now: {:?}",
        continuum.coupling().strength[0]
            .iter()
            .map(|v| (v * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    assert!(stats.cg_sims_started > 0, "CG scale must have run");
    assert!(coupling_updates > 0, "feedback must have closed the loop");
}
