//! End-to-end integration: the three scales coupled through the real
//! coordination stack, with real physics on every path.

use std::collections::HashMap;

use mummi::aa::{assign_ss, AaFrame, SsClass};
use mummi::cg::analysis::analyze_frame;
use mummi::continuum::{ContinuumConfig, ContinuumSim, CouplingParams, Patch, PatchConfig};
use mummi::core::app3::{self, EncoderKind};
use mummi::core::{ns, PatchCreator, WmConfig, WmEvent, WorkflowManager};
use mummi::datastore::{DataStore, KvDataStore};
use mummi::dynim::HdPoint;
use mummi::mapping::{backmap, createsim, BackmapConfig, CreatesimConfig};
use mummi::resources::{MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};
use mummi::sched::{Costs, Coupling, SchedEngine};
use mummi::simcore::SimTime;

fn continuum() -> ContinuumSim {
    ContinuumSim::new(ContinuumConfig {
        nx: 64,
        ny: 64,
        h: 1.0,
        inner_species: 2,
        outer_species: 1,
        n_proteins: 5,
        ..ContinuumConfig::laptop()
    })
}

fn wm(n_species: usize) -> WorkflowManager<SchedEngine> {
    let launcher = SchedEngine::new(
        ResourceGraph::new(MachineSpec::custom("t", 2, NodeSpec::summit())),
        MatchPolicy::FirstMatch,
        Coupling::Asynchronous,
        Costs::free(),
    );
    app3::build_three_scale_wm(WmConfig::test_scale(), launcher, n_species)
}

/// Drives the full pipeline for `hours` of virtual time, running real
/// createsim / CG MD / backmapping / AA MD on the workflow's schedule.
struct MiniCampaign {
    continuum: ContinuumSim,
    wm: WorkflowManager<SchedEngine>,
    store: KvDataStore,
    patch_creator: PatchCreator,
    patches: HashMap<String, Patch>,
    cg_systems: HashMap<String, mummi::cg::system::CgSystem>,
    coupling_updates: Vec<CouplingParams>,
    cg_param_updates: usize,
    aa_started: usize,
}

impl MiniCampaign {
    fn new() -> MiniCampaign {
        let continuum = continuum();
        let n_species = continuum.config().species();
        let patch_cfg = PatchConfig {
            size_nm: 12.0,
            resolution: 13,
            feature_grid: 3,
        };
        let first = mummi::continuum::extract_patches(&continuum.snapshot(), &patch_cfg);
        let training: Vec<Vec<f64>> = first.iter().map(|p| p.feature_vector(&patch_cfg)).collect();
        let encoder = app3::train_patch_encoder(EncoderKind::Pca, &training, 3);
        MiniCampaign {
            wm: wm(n_species),
            continuum,
            store: KvDataStore::new(8),
            patch_creator: PatchCreator::new(patch_cfg, encoder),
            patches: HashMap::new(),
            cg_systems: HashMap::new(),
            coupling_updates: Vec::new(),
            cg_param_updates: 0,
            aa_started: 0,
        }
    }

    fn run(&mut self, hours: u64) {
        let poll = WmConfig::test_scale().poll_interval;
        let mut t = SimTime::ZERO;
        let end = SimTime::from_hours(hours);
        while t <= end {
            self.continuum.run(3);
            let snap = self.continuum.snapshot();
            let cands = self
                .patch_creator
                .process(&snap, &mut self.store)
                .expect("patch creation");
            let mut points = Vec::new();
            for (point, patch) in cands {
                points.push(app3::state_tagged_point(
                    &point.id,
                    patch.state,
                    point.coords,
                ));
                self.patches.insert(patch.id.clone(), patch);
            }
            self.wm.add_patch_candidates_from(&mut points);

            for ev in self.wm.tick(t, &mut self.store) {
                self.handle(ev);
            }
            t += poll;
        }
    }

    fn handle(&mut self, ev: WmEvent) {
        match ev {
            WmEvent::SetupDone {
                stage: 0,
                payload: patch_id,
            } => {
                let patch = self.patches.get(&*patch_id).expect("patch exists");
                let (cgs, report) = createsim(
                    patch,
                    &CreatesimConfig {
                        side: 12.0,
                        lipids_per_density: 20.0,
                        relax_steps: 20,
                        ..CreatesimConfig::default()
                    },
                );
                assert!(report.energy_after <= report.energy_before);
                self.cg_systems.insert(patch_id.to_string(), cgs);
            }
            WmEvent::SimStarted {
                stage: 0, sim_id, ..
            } => {
                let cgs = self.cg_systems.get_mut(&*sim_id).expect("prepared system");
                let mut frame_points = Vec::new();
                for burst in 0..2 {
                    cgs.run(100);
                    let frame = analyze_frame(cgs, &sim_id, burst, 12);
                    self.store
                        .write(ns::RDF_NEW, &frame.id, &frame.encode())
                        .expect("frame write");
                    frame_points.push(HdPoint::new(frame.id.clone(), frame.encoding.to_vec()));
                }
                self.wm.add_frame_candidates_from(&mut frame_points);
            }
            WmEvent::SetupDone {
                stage: 1,
                payload: frame_id,
            } => {
                let source = frame_id.split(':').next().expect("id format");
                if let Some(cgs) = self.cg_systems.get(source) {
                    let (mut aas, report) = backmap(cgs, &BackmapConfig::default());
                    assert_eq!(report.n_protein_residues, cgs.protein.len());
                    aas.run(30);
                    let frame = AaFrame {
                        id: format!("{frame_id}:f0"),
                        time: aas.time(),
                        ss: assign_ss(&aas.backbone_positions()),
                    };
                    self.store
                        .write(ns::SS_NEW, &frame.id, &frame.encode())
                        .expect("ss write");
                }
            }
            WmEvent::SimStarted { stage: 1, .. } => {
                self.aa_started += 1;
            }
            WmEvent::CouplingUpdated(params) => {
                self.continuum.set_coupling(params.clone());
                self.coupling_updates.push(params);
            }
            WmEvent::CgParamsUpdated(params) => {
                assert!(params.helix_fraction >= 0.0 && params.helix_fraction <= 1.0);
                assert!(!params.consensus.is_empty());
                self.cg_param_updates += 1;
            }
            _ => {}
        }
    }
}

#[test]
fn full_three_scale_loop_closes() {
    let mut mc = MiniCampaign::new();
    mc.run(3);

    let stats = mc.wm.stats();
    assert!(stats.cg_selected >= 5, "patch selection ran: {stats:?}");
    assert!(stats.cg_sims_started >= 5, "CG scale ran: {stats:?}");
    assert!(stats.aa_selected >= 1, "frame selection ran: {stats:?}");
    assert!(mc.aa_started >= 1, "AA scale ran");
    assert!(
        !mc.coupling_updates.is_empty(),
        "CG→continuum feedback closed the loop"
    );
    assert!(mc.cg_param_updates >= 1, "AA→CG feedback closed the loop");

    // Feedback namespaces were drained (tagging by namespace move).
    assert_eq!(mc.store.count(ns::RDF_NEW).unwrap(), 0);
    assert!(mc.store.count(ns::RDF_DONE).unwrap() > 0);

    // The learned coupling is physically sensible: species 0 is the
    // protein-attractive lipid in the CG force field, so the aggregated
    // RDFs must make it the most attractive continuum species.
    let last = mc.coupling_updates.last().unwrap();
    let s0 = last.strength[0][0];
    assert!(s0 < 0.0, "species 0 should attract: {:?}", last.strength);
    assert!(
        (1..3).all(|s| last.strength[0][0] <= last.strength[0][s]),
        "species 0 should be the most attractive: {:?}",
        last.strength
    );
}

#[test]
fn secondary_structure_flows_into_consensus() {
    // The AA→CG payload format survives the store round trip and the
    // consensus operator accepts it.
    let mut store = KvDataStore::new(4);
    use mummi::core::{AaToCgFeedback, FeedbackManager};
    for i in 0..5 {
        let frame = AaFrame {
            id: format!("aa{i}:f0"),
            time: i as f64,
            ss: vec![SsClass::Coil, SsClass::Helix, SsClass::Helix, SsClass::Coil],
        };
        store.write(ns::SS_NEW, &frame.id, &frame.encode()).unwrap();
    }
    let mut fb = AaToCgFeedback::new();
    let out = fb.iterate(&mut store).unwrap();
    assert_eq!(out.processed, 5);
    let report = fb.report().unwrap();
    assert_eq!(report.helix_fraction, 0.5);
}
