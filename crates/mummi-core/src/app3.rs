//! The three-scale RAS-RAF-membrane application (the paper's §4.1).
//!
//! This module is MuMMI's *application* half for the campaign: which
//! encoders map patches and frames into selector space, how patches route
//! into the five configuration queues, and how the pieces assemble into a
//! ready-to-run [`WorkflowManager`]. Another science problem swaps this
//! module; the coordination layer is untouched.

use dynim::{BinnedConfig, BinnedSampler, HdPoint, MultiQueueSampler, Sampler};
use ml::{Autoencoder, AutoencoderConfig, Matrix, Pca};
use sched::Launcher;

use crate::config::WmConfig;
use crate::patches::PatchEncoder;
use crate::wm::WorkflowManager;

/// Which dimensionality reduction encodes patches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// The metric-learning DNN stand-in: an autoencoder with a 9-D latent.
    Autoencoder,
    /// The "simpler dimensionality reduction" option.
    Pca,
}

/// Number of patch queues ("five in-memory queues in the Patch Selector
/// for sampling different protein configurations").
pub const PATCH_QUEUES: usize = 5;

/// Per-queue candidate cap ("each queue is capped at 35,000 patches").
const PATCH_QUEUE_CAP: usize = 35_000;

/// Latent dimensionality of the patch encoding (9-D in the campaign).
pub const PATCH_LATENT_DIM: usize = 9;

/// Trains a patch encoder on sample feature vectors.
///
/// The returned closure maps a feature vector to selector coordinates.
/// Training is deterministic for a seed.
pub fn train_patch_encoder(kind: EncoderKind, samples: &[Vec<f64>], seed: u64) -> PatchEncoder {
    assert!(!samples.is_empty(), "encoder training needs samples");
    let dim = samples[0].len();
    let flat: Vec<f64> = samples.iter().flatten().copied().collect();
    let m = Matrix::from_vec(samples.len(), dim, flat);
    match kind {
        EncoderKind::Autoencoder => {
            let mut cfg = AutoencoderConfig::small(dim);
            cfg.latent_dim = PATCH_LATENT_DIM.min(dim);
            cfg.seed = seed;
            cfg.epochs = 20;
            let mut ae = Autoencoder::new(cfg);
            ae.train(&m);
            Box::new(move |features: &[f64]| ae.encode(features))
        }
        EncoderKind::Pca => {
            let k = PATCH_LATENT_DIM.min(dim);
            let pca = Pca::fit(&m, k);
            Box::new(move |features: &[f64]| pca.transform(features))
        }
    }
}

/// Builds the five-queue patch selector. Candidates must carry the
/// protein's configurational state as their **first coordinate** (see
/// [`state_tagged_point`]); within a queue that coordinate is constant, so
/// farthest-point distances are unaffected.
pub fn patch_selector(cap: usize) -> Box<dyn Sampler + Send> {
    Box::new(MultiQueueSampler::new(
        PATCH_QUEUES,
        cap,
        Box::new(|p: &HdPoint| p.coords.first().map(|&s| s as usize).unwrap_or(0)),
    ))
}

/// Builds the binned CG-frame selector over the 3-D conformational
/// encoding.
pub fn frame_selector(importance: f64, seed: u64) -> Box<dyn Sampler + Send> {
    let mut cfg = BinnedConfig::cg_frames();
    cfg.importance = importance;
    cfg.seed = seed;
    Box::new(BinnedSampler::new(cfg))
}

/// Tags an encoded patch with its routing state: `[state, z1..z9]`.
pub fn state_tagged_point(id: &str, state: usize, encoded: Vec<f64>) -> HdPoint {
    let mut coords = Vec::with_capacity(encoded.len() + 1);
    coords.push((state % PATCH_QUEUES) as f64);
    coords.extend(encoded);
    HdPoint::new(id, coords)
}

/// Assembles the full three-scale workflow manager over any launcher.
pub fn build_three_scale_wm<L: Launcher>(
    cfg: WmConfig,
    launcher: L,
    n_species: usize,
) -> WorkflowManager<L> {
    let seed = cfg.seed;
    WorkflowManager::new(
        cfg,
        launcher,
        vec![patch_selector(PATCH_QUEUE_CAP), frame_selector(0.8, seed)],
        n_species,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn synthetic_features(n: usize, dim: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(3);
        (0..n)
            .map(|_| {
                let a: f64 = rng.gen_range(-1.0..1.0);
                (0..dim)
                    .map(|i| a * ((i as f64 + 1.0) * 0.37).sin() + rng.gen_range(-0.05..0.05))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn autoencoder_encoder_yields_9d() {
        let samples = synthetic_features(128, 24);
        let enc = train_patch_encoder(EncoderKind::Autoencoder, &samples, 1);
        let z = enc(&samples[0]);
        assert_eq!(z.len(), 9);
        assert_eq!(z, enc(&samples[0]), "deterministic encoding");
    }

    #[test]
    fn pca_encoder_yields_9d() {
        let samples = synthetic_features(64, 24);
        let enc = train_patch_encoder(EncoderKind::Pca, &samples, 1);
        assert_eq!(enc(&samples[0]).len(), 9);
    }

    #[test]
    fn state_routing_separates_queues() {
        let mut sel = patch_selector(100);
        for state in 0..5 {
            for i in 0..4 {
                sel.add(state_tagged_point(
                    &format!("s{state}-p{i}"),
                    state,
                    vec![i as f64; 9],
                ));
            }
        }
        assert_eq!(sel.candidates(), 20);
        // One selection round-robin pass draws from all five states.
        let picks = sel.select(5);
        let states: std::collections::HashSet<usize> =
            picks.iter().map(|p| p.coords[0] as usize).collect();
        assert_eq!(states.len(), 5);
    }

    #[test]
    fn state_tag_wraps_beyond_queue_count() {
        let p = state_tagged_point("x", 7, vec![0.0; 9]);
        assert_eq!(p.coords[0], 2.0);
        assert_eq!(p.dim(), 10);
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empty_training_set_panics() {
        let _ = train_patch_encoder(EncoderKind::Pca, &[], 1);
    }
}
