//! The patch autoencoder: metric-learning stand-in producing the latent
//! representation the patch selector samples in.
//!
//! The paper encodes each 30 nm × 30 nm patch into 9 dimensions with a deep
//! metric-learning network. We train a plain autoencoder with a 9-D (by
//! default) bottleneck on patch vectors; [`Autoencoder::encode`] then maps
//! any patch into the latent space. An autoencoder bottleneck preserves the
//! property the workflow relies on: nearby configurations encode nearby,
//! so farthest-point sampling in latent space favors novel patches.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::matrix::Matrix;
use crate::net::{Activation, Adam, Mlp};

/// Autoencoder hyperparameters.
#[derive(Debug, Clone)]
pub struct AutoencoderConfig {
    /// Input dimensionality (flattened patch length).
    pub input_dim: usize,
    /// Hidden layer width (encoder and decoder mirror each other).
    pub hidden_dim: usize,
    /// Bottleneck (latent) dimensionality; the paper uses 9.
    pub latent_dim: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Training epochs over the dataset.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl AutoencoderConfig {
    /// A small default suitable for tests and the examples.
    pub fn small(input_dim: usize) -> AutoencoderConfig {
        AutoencoderConfig {
            input_dim,
            hidden_dim: 32,
            latent_dim: 9,
            lr: 1e-3,
            epochs: 30,
            batch: 32,
            seed: 20201214, // campaign start date
        }
    }
}

/// A trained (or trainable) patch autoencoder.
#[derive(Debug, Clone)]
pub struct Autoencoder {
    encoder: Mlp,
    decoder: Mlp,
    cfg: AutoencoderConfig,
}

impl Autoencoder {
    /// Builds an untrained autoencoder.
    pub fn new(cfg: AutoencoderConfig) -> Autoencoder {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let encoder = Mlp::new(
            &[cfg.input_dim, cfg.hidden_dim, cfg.latent_dim],
            Activation::Tanh,
            &mut rng,
        );
        let decoder = Mlp::new(
            &[cfg.latent_dim, cfg.hidden_dim, cfg.input_dim],
            Activation::Tanh,
            &mut rng,
        );
        Autoencoder {
            encoder,
            decoder,
            cfg,
        }
    }

    /// Latent dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.cfg.latent_dim
    }

    /// Trains on `samples` (rows = patch vectors); returns per-epoch losses.
    ///
    /// The full network (encoder ∘ decoder) is trained end-to-end by
    /// backpropagating the reconstruction MSE through a stacked MLP, then
    /// splitting the learned layers back into encoder and decoder halves.
    pub fn train(&mut self, samples: &Matrix) -> Vec<f64> {
        let mut stacked = stack(&self.encoder, &self.decoder);
        let mut adam = Adam::new(&stacked, self.cfg.lr);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xae);
        let n = samples.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut losses = Vec::with_capacity(self.cfg.epochs);
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(self.cfg.batch.max(1)) {
                let mut data = Vec::with_capacity(chunk.len() * self.cfg.input_dim);
                for &r in chunk {
                    data.extend_from_slice(samples.row(r));
                }
                let x = Matrix::from_vec(chunk.len(), self.cfg.input_dim, data);
                let (loss, grads) = stacked.mse_gradients(&x, &x);
                adam.step(&mut stacked, &grads);
                epoch_loss += loss;
                batches += 1;
            }
            losses.push(epoch_loss / batches.max(1) as f64);
        }
        let (enc, dec) = unstack(&stacked, self.encoder.layers().len());
        self.encoder = enc;
        self.decoder = dec;
        losses
    }

    /// Encodes one patch vector into latent space.
    ///
    /// # Panics
    /// Panics when `x.len()` differs from the configured input dim.
    pub fn encode(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cfg.input_dim, "patch dimension mismatch");
        let m = Matrix::row_vector(x.to_vec());
        self.encoder.forward(&m).data().to_vec()
    }
}

/// Concatenates encoder and decoder layers into one MLP for joint training.
fn stack(encoder: &Mlp, decoder: &Mlp) -> Mlp {
    let mut layers = encoder.layers().to_vec();
    layers.extend_from_slice(decoder.layers());
    Mlp::from_layers(layers)
}

/// Splits a stacked MLP back into encoder (first `enc_layers`) and decoder.
fn unstack(stacked: &Mlp, enc_layers: usize) -> (Mlp, Mlp) {
    let layers = stacked.layers();
    (
        Mlp::from_layers(layers[..enc_layers].to_vec()),
        Mlp::from_layers(layers[enc_layers..].to_vec()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Synthetic "patches": smooth 2-mode fields with 2 latent factors.
    fn synthetic_patches(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * dim);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            for i in 0..dim {
                let x = i as f64 / dim as f64;
                let v = a * (std::f64::consts::TAU * x).sin()
                    + b * (std::f64::consts::TAU * 2.0 * x).cos();
                data.push(v * 0.5);
            }
        }
        Matrix::from_vec(n, dim, data)
    }

    /// Mean reconstruction error over a batch.
    fn reconstruction_error(ae: &Autoencoder, xs: &Matrix) -> f64 {
        let z = ae.encoder.forward(xs);
        ae.decoder.forward(&z).sub(xs).mean_sq()
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let patches = synthetic_patches(256, 16, 1);
        let mut cfg = AutoencoderConfig::small(16);
        cfg.epochs = 40;
        cfg.latent_dim = 4;
        let mut ae = Autoencoder::new(cfg);
        let before = reconstruction_error(&ae, &patches);
        let losses = ae.train(&patches);
        let after = reconstruction_error(&ae, &patches);
        assert!(
            after < before * 0.2,
            "reconstruction error {before} -> {after}"
        );
        assert!(losses.last().unwrap() < &losses[0]);
    }

    #[test]
    fn encode_has_latent_dim_and_is_deterministic() {
        let patches = synthetic_patches(64, 16, 2);
        let mut cfg = AutoencoderConfig::small(16);
        cfg.epochs = 5;
        let mut ae = Autoencoder::new(cfg);
        ae.train(&patches);
        let z1 = ae.encode(patches.row(0));
        let z2 = ae.encode(patches.row(0));
        assert_eq!(z1.len(), 9);
        assert_eq!(z1, z2);
    }

    #[test]
    fn similar_patches_encode_nearby() {
        let patches = synthetic_patches(256, 16, 3);
        let mut cfg = AutoencoderConfig::small(16);
        cfg.epochs = 40;
        cfg.latent_dim = 4;
        let mut ae = Autoencoder::new(cfg);
        ae.train(&patches);

        let base: Vec<f64> = patches.row(0).to_vec();
        let mut nearby = base.clone();
        for v in &mut nearby {
            *v += 0.01;
        }
        let far: Vec<f64> = base.iter().map(|v| -v).collect();

        let d_near = dist(&ae.encode(&base), &ae.encode(&nearby));
        let d_far = dist(&ae.encode(&base), &ae.encode(&far));
        assert!(
            d_near < d_far,
            "near {d_near} should encode closer than far {d_far}"
        );
    }

    fn dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }
}
