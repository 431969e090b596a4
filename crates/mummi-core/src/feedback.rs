//! In-situ feedback managers (§4.4 Task 4).
//!
//! "Generically, a feedback iteration collects data from all running
//! simulations, processes it, and reports the analysis. A new abstract API,
//! the Feedback Manager was developed to allow controlling the specific
//! details." Processed frames are **moved out of the live namespace**
//! rather than tracked in memory, so iteration cost "scales only with the
//! number of ongoing simulations, and not with the total simulation frames
//! ever generated".

use aa::{consensus, AaFrame, SsClass};
use cg::analysis::CgFrame;
use continuum::CouplingParams;
use datastore::DataStore;

/// Result of one feedback iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackOutcome {
    /// Frames folded in during this iteration.
    pub processed: usize,
    /// Frames skipped because they failed to decode (left in place would
    /// wedge the loop, so they are moved out too and counted here).
    pub corrupt: usize,
}

/// The abstract feedback API: scan the live namespace, process everything
/// new, move it out, and expose an aggregated report.
pub trait FeedbackManager {
    /// The aggregated product of this feedback (coupling parameters,
    /// force-field refinements, …).
    type Report;

    /// Runs one iteration against the store.
    fn iterate(&mut self, store: &mut dyn DataStore) -> datastore::Result<FeedbackOutcome>;

    /// The current aggregate, if any data has been folded in yet.
    fn report(&self) -> Option<Self::Report>;

    /// Total frames processed over the manager's lifetime.
    fn total_processed(&self) -> u64;
}

/// CG→continuum feedback: aggregates protein–lipid RDFs from CG frames and
/// converts them into updated continuum coupling parameters.
#[derive(Debug, Clone)]
pub struct CgToContinuumFeedback {
    /// Running mean RDF per species.
    mean_rdfs: Vec<Vec<f64>>,
    count: u64,
    /// Scale from contact enrichment to coupling strength.
    strength_scale: f64,
    /// Gaussian range passed through to the continuum model.
    range: f64,
}

impl CgToContinuumFeedback {
    /// A fresh aggregator for `n_species` species.
    pub fn new(n_species: usize) -> CgToContinuumFeedback {
        CgToContinuumFeedback {
            mean_rdfs: vec![Vec::new(); n_species],
            count: 0,
            strength_scale: 0.5,
            range: 2.5,
        }
    }

    fn fold(&mut self, frame: &CgFrame) {
        self.count += 1;
        let k = self.count as f64;
        for (s, rdf) in frame.rdfs.iter().enumerate() {
            if s >= self.mean_rdfs.len() {
                break;
            }
            let mean = &mut self.mean_rdfs[s];
            if mean.is_empty() {
                *mean = rdf.clone();
            } else {
                for (m, &v) in mean.iter_mut().zip(rdf) {
                    *m += (v - *m) / k;
                }
            }
        }
    }

    /// Converts aggregated RDFs to coupling strengths: species whose
    /// contact-region g(r) exceeds 1 are enriched near the protein, so the
    /// continuum model should attract them (negative strength), and vice
    /// versa. Applied identically to both protein kinds.
    fn to_coupling(&self) -> CouplingParams {
        let n_species = self.mean_rdfs.len();
        let mut strength = vec![vec![0.0; n_species]; 2];
        for (s, rdf) in self.mean_rdfs.iter().enumerate() {
            if rdf.is_empty() {
                continue;
            }
            let contact = &rdf[..(rdf.len() / 3).max(1)];
            let g: f64 = contact.iter().sum::<f64>() / contact.len() as f64;
            let w = (-(g - 1.0) * self.strength_scale).clamp(-1.0, 1.0);
            strength[0][s] = w;
            strength[1][s] = w;
        }
        CouplingParams {
            strength,
            range: self.range,
        }
    }
}

impl FeedbackManager for CgToContinuumFeedback {
    type Report = CouplingParams;

    fn iterate(&mut self, store: &mut dyn DataStore) -> datastore::Result<FeedbackOutcome> {
        let keys = store.list(crate::ns::RDF_NEW)?;
        let mut processed = 0;
        let mut corrupt = 0;
        for key in keys {
            let bytes = store.read(crate::ns::RDF_NEW, &key)?;
            match CgFrame::decode(&key, &bytes) {
                Ok(frame) => {
                    self.fold(&frame);
                    processed += 1;
                }
                Err(_) => corrupt += 1,
            }
            // Tag as processed by moving out of the live namespace.
            store.move_ns(&key, crate::ns::RDF_NEW, crate::ns::RDF_DONE)?;
        }
        Ok(FeedbackOutcome { processed, corrupt })
    }

    fn report(&self) -> Option<CouplingParams> {
        if self.count == 0 {
            None
        } else {
            Some(self.to_coupling())
        }
    }

    fn total_processed(&self) -> u64 {
        self.count
    }
}

/// The CG force-field refinement the AA→CG feedback produces.
#[derive(Debug, Clone, PartialEq)]
pub struct CgParams {
    /// Consensus secondary structure per residue.
    pub consensus: Vec<SsClass>,
    /// Helix fraction of the consensus.
    pub helix_fraction: f64,
    /// Multiplier for the CG protein bond stiffness (helical content makes
    /// the CG chain stiffer — "the force field parameters of the CG
    /// protein model depend on the secondary structure").
    pub bond_k_factor: f64,
}

/// AA→CG feedback: secondary-structure consensus over AA frames.
///
/// "Each frame requires longer processing: … processing each frame needs
/// two system calls to an external module, taking ∽2 s in isolation" — in
/// the DES that cost is modeled by the campaign; here the manager does the
/// actual aggregation work.
#[derive(Debug, Clone, Default)]
pub struct AaToCgFeedback {
    patterns: Vec<Vec<SsClass>>,
    count: u64,
}

impl AaToCgFeedback {
    /// A fresh aggregator.
    pub fn new() -> AaToCgFeedback {
        AaToCgFeedback::default()
    }
}

impl FeedbackManager for AaToCgFeedback {
    type Report = CgParams;

    fn iterate(&mut self, store: &mut dyn DataStore) -> datastore::Result<FeedbackOutcome> {
        let keys = store.list(crate::ns::SS_NEW)?;
        let mut processed = 0;
        let mut corrupt = 0;
        for key in keys {
            let bytes = store.read(crate::ns::SS_NEW, &key)?;
            match AaFrame::decode(&key, &bytes) {
                Ok(frame) => {
                    self.patterns.push(frame.ss);
                    self.count += 1;
                    processed += 1;
                }
                Err(_) => corrupt += 1,
            }
            store.move_ns(&key, crate::ns::SS_NEW, crate::ns::SS_DONE)?;
        }
        Ok(FeedbackOutcome { processed, corrupt })
    }

    fn report(&self) -> Option<CgParams> {
        if self.patterns.is_empty() {
            return None;
        }
        let cons = consensus(&self.patterns);
        let helix =
            cons.iter().filter(|&&c| c == SsClass::Helix).count() as f64 / cons.len().max(1) as f64;
        Some(CgParams {
            helix_fraction: helix,
            bond_k_factor: 1.0 + helix,
            consensus: cons,
        })
    }

    fn total_processed(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::KvDataStore;

    fn cg_frame(id: &str, enrich: f64) -> CgFrame {
        CgFrame {
            id: id.to_string(),
            time: 1.0,
            encoding: [0.5, 0.5, 0.5],
            // Species 0 enriched at contact, species 1 depleted.
            rdfs: vec![vec![enrich; 12], vec![0.2; 12]],
        }
    }

    #[test]
    fn cg_feedback_aggregates_and_tags() {
        let mut store = KvDataStore::new(4);
        let mut fb = CgToContinuumFeedback::new(2);
        assert!(fb.report().is_none());
        for i in 0..10 {
            let f = cg_frame(&format!("s1:f{i}"), 2.0);
            store.write(crate::ns::RDF_NEW, &f.id, &f.encode()).unwrap();
        }
        let out = fb.iterate(&mut store).unwrap();
        assert_eq!(out.processed, 10);
        assert_eq!(store.count(crate::ns::RDF_NEW).unwrap(), 0);
        assert_eq!(store.count(crate::ns::RDF_DONE).unwrap(), 10);

        let params = fb.report().unwrap();
        assert!(
            params.strength[0][0] < 0.0,
            "enriched species becomes attractive: {:?}",
            params.strength
        );
        assert!(
            params.strength[0][1] > 0.0,
            "depleted species becomes repulsive"
        );
        // Second iteration with nothing new is a no-op.
        let out = fb.iterate(&mut store).unwrap();
        assert_eq!(out.processed, 0);
        assert_eq!(fb.total_processed(), 10);
    }

    #[test]
    fn cg_feedback_running_mean_converges() {
        let mut store = KvDataStore::new(2);
        let mut fb = CgToContinuumFeedback::new(2);
        for i in 0..4 {
            let f = cg_frame(&format!("a:f{i}"), 1.0);
            store.write(crate::ns::RDF_NEW, &f.id, &f.encode()).unwrap();
        }
        for i in 0..4 {
            let f = cg_frame(&format!("b:f{i}"), 3.0);
            store.write(crate::ns::RDF_NEW, &f.id, &f.encode()).unwrap();
        }
        fb.iterate(&mut store).unwrap();
        let m = &fb.mean_rdfs[0];
        assert!((m[0] - 2.0).abs() < 1e-9, "mean of 1.0s and 3.0s: {}", m[0]);
    }

    #[test]
    fn corrupt_frames_are_moved_out_not_wedged() {
        let mut store = KvDataStore::new(2);
        store.write(crate::ns::RDF_NEW, "bad", b"garbage").unwrap();
        let mut fb = CgToContinuumFeedback::new(2);
        let out = fb.iterate(&mut store).unwrap();
        assert_eq!(out.corrupt, 1);
        assert_eq!(out.processed, 0);
        assert_eq!(store.count(crate::ns::RDF_NEW).unwrap(), 0);
    }

    #[test]
    fn aa_feedback_builds_consensus() {
        use SsClass::*;
        let mut store = KvDataStore::new(2);
        let frames = [
            vec![Coil, Helix, Helix, Sheet],
            vec![Coil, Helix, Helix, Coil],
            vec![Helix, Helix, Coil, Coil],
        ];
        for (i, ss) in frames.iter().enumerate() {
            let f = AaFrame {
                id: format!("aa1:f{i}"),
                time: i as f64,
                ss: ss.clone(),
            };
            store.write(crate::ns::SS_NEW, &f.id, &f.encode()).unwrap();
        }
        let mut fb = AaToCgFeedback::new();
        let out = fb.iterate(&mut store).unwrap();
        assert_eq!(out.processed, 3);
        let params = fb.report().unwrap();
        assert_eq!(params.consensus, vec![Coil, Helix, Helix, Coil]);
        assert!((params.helix_fraction - 0.5).abs() < 1e-12);
        assert!((params.bond_k_factor - 1.5).abs() < 1e-12);
        assert_eq!(store.count(crate::ns::SS_DONE).unwrap(), 3);
    }

    #[test]
    fn feedback_cost_scales_with_live_frames_only() {
        // After 100 frames are processed, an iteration with 5 new frames
        // must only touch 5 keys — the namespace-move design.
        let mut store = KvDataStore::new(4);
        let mut fb = CgToContinuumFeedback::new(2);
        for i in 0..100 {
            let f = cg_frame(&format!("x:f{i}"), 1.5);
            store.write(crate::ns::RDF_NEW, &f.id, &f.encode()).unwrap();
        }
        fb.iterate(&mut store).unwrap();
        for i in 100..105 {
            let f = cg_frame(&format!("x:f{i}"), 1.5);
            store.write(crate::ns::RDF_NEW, &f.id, &f.encode()).unwrap();
        }
        let out = fb.iterate(&mut store).unwrap();
        assert_eq!(out.processed, 5);
    }
}
