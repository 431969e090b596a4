//! The continuum (macro) scale: a DDFT lipid model with protein particles.
//!
//! The paper's macro model "is a continuum description of lipids that uses
//! DDFT for representing lipid dynamics in terms of their density fields.
//! Proteins (positions and configurational states) are represented as
//! particles that interact with each other and with the lipids. This model
//! comprises a 1 µm × 1 µm bilayer discretized as a 2400×2400 grid, with 8
//! lipid types in the inner and 6 types in the outer leaflet" (§4.1(1)).
//!
//! This crate is the GridSim2D stand-in:
//!
//! - [`Grid2`] — periodic 2-D scalar fields with bilinear sampling,
//!   finite-difference gradients and Gaussian footprints;
//! - [`ContinuumSim`] — dynamic density functional theory time stepping
//!   for every lipid species (rayon-parallel over species and rows), Langevin dynamics for protein particles, and
//!   protein–lipid coupling parameters that can be **hot-reloaded** — the
//!   CG→continuum feedback path ("the ongoing continuum simulation …
//!   reads and updates these parameters on the fly");
//! - [`Snapshot`] — the custom binary snapshot format (via
//!   [`datastore::codec`]) delivered at a fixed I/O interval;
//! - [`patch`] — cutting 30 nm × 30 nm patches around proteins out of a
//!   snapshot, the input to createsim and the patch selector.
//!
//! Default configurations are laptop-scaled (e.g. 240×240 grids); the full
//! 2400×2400 campaign shape is just a parameter choice.

mod grid;
pub mod patch;
mod sim;
mod snapshot;

pub use grid::Grid2;
pub use patch::{extract_patches, Patch, PatchConfig};
pub use sim::{ContinuumConfig, ContinuumSim, CouplingParams, Protein, ProteinKind};
pub use snapshot::Snapshot;
