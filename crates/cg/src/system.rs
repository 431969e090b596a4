//! Membrane system construction: bilayer patches with proteins.
//!
//! Bead-type layout: types `0..n_species` are lipid **head** beads (one
//! type per lipid species, matching the continuum fields), `n_species` is
//! the shared lipid **tail** bead, and `n_species + 1` is the protein
//! backbone bead. The insane-style placement from density fields lives in
//! the `mapping` crate; this module provides the raw builders and the
//! [`CgSystem`] wrapper the workflow manages.

// Numeric kernels below index several arrays along a shared axis;
// indexed loops are clearer than zipped iterators there.
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::engine::{ForceField, Integrator, MdSystem, PairTable};

/// Membrane construction parameters.
#[derive(Debug, Clone)]
pub struct MembraneConfig {
    /// Box side in x/y (nm); z is `thickness * 3`.
    pub side: f64,
    /// Bilayer thickness (nm).
    pub thickness: f64,
    /// Lipid species count (head-bead types).
    pub n_species: usize,
    /// Lipids per leaflet per species.
    pub lipids_per_species: usize,
    /// Protein bead-chain length (0 = no protein).
    pub protein_beads: usize,
    /// RNG seed for placement jitter.
    pub seed: u64,
}

impl MembraneConfig {
    /// A small test membrane.
    pub fn small() -> MembraneConfig {
        MembraneConfig {
            side: 10.0,
            thickness: 2.0,
            n_species: 3,
            lipids_per_species: 16,
            protein_beads: 6,
            seed: 11,
        }
    }
}

/// A CG membrane simulation: the engine system plus bead bookkeeping.
#[derive(Debug, Clone)]
pub struct CgSystem {
    /// The particle system.
    pub sys: MdSystem,
    /// Force field.
    pub ff: ForceField,
    /// Lipid species count.
    pub n_species: usize,
    /// Particle indices of protein beads (a contiguous chain).
    pub protein: Vec<usize>,
    /// Integrator defaults for this system.
    pub integrator: Integrator,
    rng: StdRng,
}

impl CgSystem {
    /// Assembles a CG system from parts (used by createsim and tests).
    pub fn from_parts(
        sys: MdSystem,
        ff: ForceField,
        n_species: usize,
        protein: Vec<usize>,
        integrator: Integrator,
        seed: u64,
    ) -> CgSystem {
        CgSystem {
            sys,
            ff,
            n_species,
            protein,
            integrator,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Particle indices of the head beads of one lipid species.
    pub fn heads_of(&self, species: usize) -> Vec<usize> {
        self.sys
            .typ
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t as usize == species)
            .map(|(i, _)| i)
            .collect()
    }

    /// Advances `n` Langevin steps.
    pub fn run(&mut self, n: u64) {
        let ig = self.integrator;
        let ff = self.ff.clone();
        self.sys.run(&ff, &ig, &mut self.rng, n);
    }

    /// Steepest-descent relaxation; returns (initial, final) energy.
    pub fn relax(&mut self, steps: usize) -> (f64, f64) {
        let ff = self.ff.clone();
        self.sys.minimize(&ff, steps, 0.05)
    }

    /// Simulated time.
    pub fn time(&self) -> f64 {
        self.sys.time
    }
}

/// Builds a bilayer membrane with an embedded protein bead chain.
///
/// Each lipid is two beads (head at the leaflet surface, tail toward the
/// bilayer mid-plane) bonded harmonically. The protein chain sits at the
/// box center spanning the bilayer.
pub fn build_membrane(cfg: &MembraneConfig) -> CgSystem {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let box_l = [cfg.side, cfg.side, cfg.thickness * 3.0];
    let z_mid = box_l[2] / 2.0;
    let z_head_top = z_mid + cfg.thickness / 2.0;
    let z_head_bot = z_mid - cfg.thickness / 2.0;
    let z_tail_top = z_mid + cfg.thickness / 6.0;
    let z_tail_bot = z_mid - cfg.thickness / 6.0;

    let mut pos: Vec<[f64; 3]> = Vec::new();
    let mut typ: Vec<u16> = Vec::new();
    let mut bonds: Vec<(u32, u32, f64, f64)> = Vec::new();

    let n_lipids = cfg.n_species * cfg.lipids_per_species;
    let per_row = (n_lipids as f64).sqrt().ceil() as usize;
    let spacing = cfg.side / per_row.max(1) as f64;

    for (leaflet, (z_head, z_tail)) in [(z_head_top, z_tail_top), (z_head_bot, z_tail_bot)]
        .into_iter()
        .enumerate()
    {
        // Species are interleaved across the lattice so every species is
        // geometrically equivalent at t=0 (a mixed membrane); any later
        // enrichment near the protein comes from the force field alone.
        for placed in 0..n_lipids {
            let s = placed % cfg.n_species;
            let gx = (placed % per_row) as f64;
            let gy = (placed / per_row) as f64;
            // Offset the two leaflets to avoid perfect stacking.
            let off = if leaflet == 0 { 0.25 } else { 0.75 };
            let mut jitter = || rng.gen_range(-0.05..0.05) * spacing;
            let x = (gx + off) * spacing + jitter();
            let y = (gy + off) * spacing + jitter();
            let head_idx = pos.len() as u32;
            pos.push([x.rem_euclid(cfg.side), y.rem_euclid(cfg.side), z_head]);
            typ.push(s as u16);
            pos.push([x.rem_euclid(cfg.side), y.rem_euclid(cfg.side), z_tail]);
            typ.push(cfg.n_species as u16);
            bonds.push((head_idx, head_idx + 1, 20.0, cfg.thickness / 3.0));
        }
    }

    // Protein chain through the bilayer at the box center.
    let mut protein = Vec::with_capacity(cfg.protein_beads);
    if cfg.protein_beads > 0 {
        let z0 = z_mid - 0.4 * (cfg.protein_beads as f64 - 1.0) / 2.0;
        for b in 0..cfg.protein_beads {
            let idx = pos.len();
            pos.push([cfg.side / 2.0, cfg.side / 2.0, z0 + 0.4 * b as f64]);
            typ.push((cfg.n_species + 1) as u16);
            protein.push(idx);
            if b > 0 {
                bonds.push((idx as u32 - 1, idx as u32, 50.0, 0.4));
            }
        }
    }

    // Force field: heads repel softly, tails attract (hydrophobic
    // clustering), protein mildly attracts heads of species 0 (the
    // lipid-fingerprint species).
    let n_types = cfg.n_species + 2;
    let mut pairs = PairTable::uniform(n_types, 0.47, 0.05);
    let tail = cfg.n_species;
    let prot = cfg.n_species + 1;
    pairs.set(tail, tail, 0.47, 0.5);
    for s in 0..cfg.n_species {
        pairs.set(s, tail, 0.47, 0.1);
        pairs.set(s, prot, 0.47, if s == 0 { 0.4 } else { 0.05 });
    }
    pairs.set(prot, prot, 0.47, 0.2);

    let ff = ForceField {
        pairs,
        cutoff: 1.2,
        bonds,
    };
    let sys = MdSystem::new(pos, typ, box_l);
    CgSystem {
        sys,
        ff,
        n_species: cfg.n_species,
        protein,
        integrator: Integrator {
            dt: 0.01,
            gamma: 1.0,
            kt: 0.3,
        },
        rng: StdRng::seed_from_u64(cfg.seed ^ 0x5eed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membrane_has_expected_composition() {
        let cfg = MembraneConfig::small();
        let m = build_membrane(&cfg);
        // 3 species × 16 lipids × 2 leaflets × 2 beads + 6 protein beads.
        assert_eq!(m.sys.len(), 3 * 16 * 2 * 2 + 6);
        assert_eq!(m.protein.len(), 6);
        for s in 0..3 {
            assert_eq!(m.heads_of(s).len(), 32);
        }
        // Bonds: one per lipid + protein chain.
        assert_eq!(m.ff.bonds.len(), 96 + 5);
    }

    #[test]
    fn leaflets_are_separated_in_z() {
        let m = build_membrane(&MembraneConfig::small());
        let z_mid = m.sys.box_l[2] / 2.0;
        let heads_above = m
            .sys
            .typ
            .iter()
            .enumerate()
            .filter(|&(i, &t)| (t as usize) < 3 && m.sys.pos[i][2] > z_mid)
            .count();
        assert_eq!(heads_above, 48, "half the heads in the upper leaflet");
    }

    #[test]
    fn relax_reduces_energy_and_keeps_bilayer() {
        let mut m = build_membrane(&MembraneConfig::small());
        let (e0, e1) = m.relax(100);
        assert!(e1 <= e0);
        // Protein must still span the mid-plane region.
        let z_mid = m.sys.box_l[2] / 2.0;
        let pz: Vec<f64> = m.protein.iter().map(|&i| m.sys.pos[i][2]).collect();
        assert!(pz.iter().any(|&z| z < z_mid) || pz.iter().any(|&z| z >= z_mid));
    }

    #[test]
    fn dynamics_run_and_time_advances() {
        let mut m = build_membrane(&MembraneConfig::small());
        m.relax(50);
        m.run(100);
        assert!((m.time() - 1.0).abs() < 1e-9); // 100 × dt=0.01
                                                // Everything still inside the box.
        for p in &m.sys.pos {
            for k in 0..3 {
                assert!(p[k] >= 0.0 && p[k] <= m.sys.box_l[k]);
            }
        }
    }

    #[test]
    fn tails_stay_nearer_midplane_than_heads() {
        let mut m = build_membrane(&MembraneConfig::small());
        m.relax(50);
        let z_mid = m.sys.box_l[2] / 2.0;
        let tails: Vec<usize> = m
            .sys
            .typ
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t == m.n_species as u16)
            .map(|(i, _)| i)
            .collect();
        let heads: Vec<usize> = (0..3).flat_map(|s| m.heads_of(s)).collect();
        // Time-average over the trajectory: the instantaneous ordering at
        // any single late frame is noise-dominated (nothing tethers the
        // bilayer plane), but tails must hug the mid-plane on average.
        let (mut tail_dev, mut head_dev) = (0.0, 0.0);
        for _ in 0..20 {
            m.run(10);
            let mean_dev = |idx: &[usize]| -> f64 {
                idx.iter()
                    .map(|&i| (m.sys.pos[i][2] - z_mid).abs())
                    .sum::<f64>()
                    / idx.len().max(1) as f64
            };
            tail_dev += mean_dev(&tails);
            head_dev += mean_dev(&heads);
        }
        assert!(
            tail_dev < head_dev,
            "tails should hug the mid-plane: tail dev {} vs head dev {}",
            tail_dev / 20.0,
            head_dev / 20.0
        );
    }
}
