//! The coarse-grained (micro) scale: a Martini-like particle MD surrogate.
//!
//! The campaign's CG scale runs "CG simulations with the Martini force
//! field … using the CUDA-enabled version of ddcMD", one GPU and one CPU
//! core each, with a Python analysis sharing the node (§4.1(3)). This crate
//! is that substrate, and also hosts the generic particle engine the AA
//! scale reuses:
//!
//! - [`engine`] — periodic-box Langevin MD: typed particles, pair
//!   Lennard-Jones via cell lists (rayon-parallel), harmonic bonds, energy
//!   minimization, checkpoint/restore;
//! - [`system`] — membrane builders: lipid bilayer patches with per-species
//!   head/tail beads plus RAS / RAS-RAF protein bead chains;
//! - [`analysis`] — the online analysis MuMMI runs next to each simulation:
//!   protein–lipid radial distribution functions (the CG→continuum feedback
//!   payload) and the 3-D conformational-state encoding of the RAS-RAF
//!   complex (the frame-selector input).

pub mod analysis;
pub mod engine;
pub mod system;

pub use analysis::CgFrame;
pub use engine::{ForceField, Integrator, MdSystem, PairTable};
pub use system::{build_membrane, CgSystem, MembraneConfig};
