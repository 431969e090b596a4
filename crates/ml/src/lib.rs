//! A small dense neural-network and PCA library.
//!
//! The paper's patch pipeline evaluates 30 nm × 30 nm patches "for 'novelty'
//! in a reduced, 9-D representation generated by a metric learning approach
//! implemented using a deep neural network" (§4.1(6)). This crate provides
//! that ML substrate from scratch:
//!
//! - [`Matrix`] — a row-major f64 matrix with the linear algebra the
//!   networks need;
//! - [`Dense`], [`Activation`], [`Mlp`] — fully-connected layers with
//!   backpropagation and an [`Adam`] optimizer;
//! - [`Autoencoder`] — the patch encoder: train on patch vectors, then
//!   [`Autoencoder::encode`] yields the latent (9-D) representation used by
//!   the sampler;
//! - [`Pca`] — principal component analysis (power iteration with
//!   deflation), the paper's "simpler dimensionality reduction" alternative
//!   encoder.

mod encoder;
mod matrix;
mod net;
mod pca;

pub use encoder::{Autoencoder, AutoencoderConfig};
pub use matrix::Matrix;
pub use net::{Activation, Adam, Dense, Mlp};
pub use pca::Pca;
