//! The DDFT simulation: lipid density fields plus protein particles.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::grid::{periodic_delta, Grid2};
use crate::snapshot::Snapshot;

/// Protein particle kind — the campaign tracks RAS and RAS-RAF complexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProteinKind {
    /// A lone RAS protein.
    Ras,
    /// A RAS-RAF complex.
    RasRaf,
}

impl ProteinKind {
    /// Stable integer code used in snapshots.
    pub fn code(self) -> usize {
        match self {
            ProteinKind::Ras => 0,
            ProteinKind::RasRaf => 1,
        }
    }
}

/// A protein particle: position, kind, and configurational state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Protein {
    /// Position (nm), periodic in the domain.
    pub x: f64,
    /// Position (nm), periodic in the domain.
    pub y: f64,
    /// RAS or RAS-RAF.
    pub kind: ProteinKind,
    /// Configurational state index (0-based; the paper distinguishes
    /// multiple orientation states that route patches to the five queues).
    pub state: usize,
}

/// Protein–lipid coupling parameters — the quantity the CG→continuum
/// feedback refines.
///
/// `strength[kind][species]` scales a Gaussian potential well each protein
/// imprints on that species' free energy: negative values attract the
/// species toward the protein (lipid-fingerprint formation), positive repel.
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingParams {
    /// Coupling strengths per protein kind (rows) and species (cols).
    pub strength: Vec<Vec<f64>>,
    /// Gaussian range of the protein footprint (nm).
    pub range: f64,
}

impl CouplingParams {
    /// Neutral (no coupling) parameters for `kinds` × `species`.
    pub fn neutral(kinds: usize, species: usize) -> CouplingParams {
        CouplingParams {
            strength: vec![vec![0.0; species]; kinds],
            range: 2.5,
        }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct ContinuumConfig {
    /// Grid cells per side.
    pub nx: usize,
    /// Grid cells per side.
    pub ny: usize,
    /// Cell size (nm). The campaign grid is 2400×2400 at ~0.42 nm.
    pub h: f64,
    /// Lipid species in the inner leaflet (campaign: 8).
    pub inner_species: usize,
    /// Lipid species in the outer leaflet (campaign: 6).
    pub outer_species: usize,
    /// Diffusion constant per species (nm²/µs).
    pub diffusion: f64,
    /// Time step (µs).
    pub dt: f64,
    /// Number of protein particles.
    pub n_proteins: usize,
    /// Configurational states per protein.
    pub n_states: usize,
    /// Protein mobility (nm²/µs per unit force).
    pub protein_mobility: f64,
    /// Thermal noise amplitude for protein Langevin dynamics.
    pub protein_noise: f64,
    /// Per-step probability of a configurational state transition.
    pub state_flip_prob: f64,
    /// Relative amplitude of initial density fluctuations (thermal noise
    /// seed; required for spontaneous domain formation).
    pub density_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ContinuumConfig {
    /// Laptop-scale default: 96 nm × 96 nm, 14 species, 8 proteins.
    pub fn laptop() -> ContinuumConfig {
        ContinuumConfig {
            nx: 192,
            ny: 192,
            h: 0.5,
            inner_species: 8,
            outer_species: 6,
            diffusion: 0.1,
            dt: 0.25,
            n_proteins: 8,
            n_states: 5,
            protein_mobility: 0.5,
            protein_noise: 0.05,
            state_flip_prob: 0.002,
            density_noise: 0.0,
            seed: 1,
        }
    }

    /// The campaign shape: 1 µm × 1 µm on a 2400×2400 grid. (Heavy; used
    /// by the benchmarks that measure per-step cost, not by tests.)
    pub fn campaign() -> ContinuumConfig {
        ContinuumConfig {
            nx: 2400,
            ny: 2400,
            h: 1000.0 / 2400.0,
            n_proteins: 300,
            ..ContinuumConfig::laptop()
        }
    }

    /// Total species count across leaflets.
    pub fn species(&self) -> usize {
        self.inner_species + self.outer_species
    }
}

/// The running DDFT simulation.
#[derive(Debug, Clone)]
pub struct ContinuumSim {
    cfg: ContinuumConfig,
    /// One density field per species (inner leaflet first).
    fields: Vec<Grid2>,
    proteins: Vec<Protein>,
    coupling: CouplingParams,
    /// Per-species protein potential, rebuilt each step.
    potential: Vec<Grid2>,
    time_us: f64,
    step: u64,
    rng: StdRng,
}

impl ContinuumSim {
    /// Initializes fields at uniform densities (with species-dependent
    /// levels) and proteins at random positions.
    pub fn new(cfg: ContinuumConfig) -> ContinuumSim {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let species = cfg.species();
        let fields = (0..species)
            .map(|s| {
                // Species have distinct background densities, mirroring the
                // distinct lipid compositions per leaflet.
                let level = 0.5 + 0.05 * (s % 7) as f64;
                let mut g = Grid2::constant(cfg.nx, cfg.ny, cfg.h, level);
                if cfg.density_noise > 0.0 {
                    let amp = level * cfg.density_noise;
                    for v in g.data_mut() {
                        *v += rng.gen_range(-amp..amp);
                    }
                }
                g
            })
            .collect();
        let (lx, ly) = (cfg.nx as f64 * cfg.h, cfg.ny as f64 * cfg.h);
        let proteins = (0..cfg.n_proteins)
            .map(|i| Protein {
                x: rng.gen_range(0.0..lx),
                y: rng.gen_range(0.0..ly),
                kind: if i % 3 == 0 {
                    ProteinKind::RasRaf
                } else {
                    ProteinKind::Ras
                },
                state: rng.gen_range(0..cfg.n_states.max(1)),
            })
            .collect();
        let potential = (0..species)
            .map(|_| Grid2::zeros(cfg.nx, cfg.ny, cfg.h))
            .collect();
        ContinuumSim {
            coupling: CouplingParams::neutral(2, species),
            fields,
            proteins,
            potential,
            time_us: 0.0,
            step: 0,
            rng,
            cfg,
        }
    }

    /// Configuration.
    pub fn config(&self) -> &ContinuumConfig {
        &self.cfg
    }

    /// Simulated time (µs).
    pub fn time_us(&self) -> f64 {
        self.time_us
    }

    /// Density field of one species.
    pub fn field(&self, species: usize) -> &Grid2 {
        &self.fields[species]
    }

    /// The protein particles.
    pub fn proteins(&self) -> &[Protein] {
        &self.proteins
    }

    /// Current coupling parameters.
    pub fn coupling(&self) -> &CouplingParams {
        &self.coupling
    }

    /// Hot-reloads the protein–lipid couplings — the feedback entry point.
    ///
    /// # Panics
    /// Panics when the parameter shape does not match (kinds × species).
    pub fn set_coupling(&mut self, params: CouplingParams) {
        assert_eq!(params.strength.len(), 2, "two protein kinds");
        for row in &params.strength {
            assert_eq!(row.len(), self.cfg.species(), "species mismatch");
        }
        self.coupling = params;
    }

    /// Advances `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step_once();
        }
    }

    /// One DDFT + Langevin step.
    pub fn step_once(&mut self) {
        self.build_potentials();
        self.update_fields();
        self.move_proteins();
        self.flip_states();
        self.step += 1;
        self.time_us += self.cfg.dt;
    }

    /// Rebuilds the per-species potential fields from protein footprints.
    fn build_potentials(&mut self) {
        let range = self.coupling.range;
        for (s, pot) in self.potential.iter_mut().enumerate() {
            pot.data_mut().fill(0.0);
            for p in &self.proteins {
                let w = self.coupling.strength[p.kind.code()][s];
                if w != 0.0 {
                    pot.add_gaussian(p.x, p.y, range, w);
                }
            }
        }
    }

    /// DDFT update: ∂ρ/∂t = D [∇²ρ + ∇·(ρ ∇V)] with V the protein
    /// potential; explicit Euler, parallel over species and rows.
    fn update_fields(&mut self) {
        let d = self.cfg.diffusion;
        let dt = self.cfg.dt;
        let nx = self.cfg.nx;
        let ny = self.cfg.ny;
        let h = self.cfg.h;
        let inv_h2 = 1.0 / (h * h);
        let inv_2h = 1.0 / (2.0 * h);
        let potential = &self.potential;
        self.fields
            .par_iter_mut() // lint: allow(L8: one species field per task; fields are disjoint)
            .zip(potential.par_iter()) // lint: allow(L8: read-only zip over the matching potential field)
            .for_each(|(rho, v)| {
                let src = rho.data().to_vec();
                let vdat = v.data();
                rho.data_mut()
                    .par_chunks_mut(nx) // lint: allow(L8: row stencil into disjoint rows of this field's own buffer)
                    .enumerate()
                    .for_each(|(y, row)| {
                        let yu = (y + 1) % ny;
                        let yd = (y + ny - 1) % ny;
                        for x in 0..nx {
                            let xr = (x + 1) % nx;
                            let xl = (x + nx - 1) % nx;
                            let c = src[y * nx + x];
                            let lap_rho = (src[y * nx + xr]
                                + src[y * nx + xl]
                                + src[yu * nx + x]
                                + src[yd * nx + x]
                                - 4.0 * c)
                                * inv_h2;
                            let lap_v = (vdat[y * nx + xr]
                                + vdat[y * nx + xl]
                                + vdat[yu * nx + x]
                                + vdat[yd * nx + x]
                                - 4.0 * vdat[y * nx + x])
                                * inv_h2;
                            let grad_rho_x = (src[y * nx + xr] - src[y * nx + xl]) * inv_2h;
                            let grad_rho_y = (src[yu * nx + x] - src[yd * nx + x]) * inv_2h;
                            let grad_v_x = (vdat[y * nx + xr] - vdat[y * nx + xl]) * inv_2h;
                            let grad_v_y = (vdat[yu * nx + x] - vdat[yd * nx + x]) * inv_2h;
                            let div_flux =
                                grad_rho_x * grad_v_x + grad_rho_y * grad_v_y + c * lap_v;
                            let next = c + dt * d * (lap_rho + div_flux);
                            row[x] = next.max(0.0);
                        }
                    });
            });
    }

    /// Langevin dynamics for proteins: drift down the coupling-weighted
    /// density gradient (toward preferred lipids), soft pair repulsion,
    /// thermal noise.
    fn move_proteins(&mut self) {
        let (lx, ly) = self.fields[0].extent();
        let mobility = self.cfg.protein_mobility;
        let noise = self.cfg.protein_noise;
        let dt = self.cfg.dt;
        let n = self.proteins.len();
        let mut forces = vec![(0.0f64, 0.0f64); n];
        for (i, p) in self.proteins.iter().enumerate() {
            let mut fx = 0.0;
            let mut fy = 0.0;
            // Attraction toward species it couples to (strength < 0 wells
            // also *pull lipids in*; the protein reciprocally drifts toward
            // higher preferred-lipid density).
            for (s, field) in self.fields.iter().enumerate() {
                let w = self.coupling.strength[p.kind.code()][s];
                if w != 0.0 {
                    let (gx, gy) = field.gradient_at(p.x, p.y);
                    fx -= w * gx;
                    fy -= w * gy;
                }
            }
            // Soft repulsion between proteins.
            for (j, q) in self.proteins.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dx = periodic_delta(p.x - q.x, lx);
                let dy = periodic_delta(p.y - q.y, ly);
                let r2 = dx * dx + dy * dy;
                let r0 = 3.0; // nm exclusion radius
                if r2 < r0 * r0 && r2 > 1e-9 {
                    let r = r2.sqrt();
                    let f = (r0 - r) / r0 / r;
                    fx += f * dx;
                    fy += f * dy;
                }
            }
            forces[i] = (fx, fy);
        }
        for (p, (fx, fy)) in self.proteins.iter_mut().zip(forces) {
            let nx: f64 = self.rng.gen_range(-1.0..1.0);
            let ny: f64 = self.rng.gen_range(-1.0..1.0);
            p.x = (p.x + mobility * fx * dt + noise * nx * dt.sqrt()).rem_euclid(lx);
            p.y = (p.y + mobility * fy * dt + noise * ny * dt.sqrt()).rem_euclid(ly);
        }
    }

    /// Markov transitions of protein configurational states.
    fn flip_states(&mut self) {
        let n_states = self.cfg.n_states.max(1);
        let prob = self.cfg.state_flip_prob;
        for p in &mut self.proteins {
            if self.rng.gen_bool(prob) {
                p.state = self.rng.gen_range(0..n_states);
            }
        }
    }

    /// Captures a snapshot of the current state.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(self.time_us, &self.fields, &self.proteins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ContinuumConfig {
        ContinuumConfig {
            nx: 32,
            ny: 32,
            h: 1.0,
            inner_species: 2,
            outer_species: 1,
            n_proteins: 3,
            ..ContinuumConfig::laptop()
        }
    }

    /// Total lipid mass across species (conserved up to the
    /// non-negativity clamp).
    fn total_mass(sim: &ContinuumSim) -> f64 {
        sim.fields.iter().map(Grid2::integral).sum()
    }

    #[test]
    fn mass_is_conserved_without_coupling() {
        let mut sim = ContinuumSim::new(tiny());
        let m0 = total_mass(&sim);
        sim.run(200);
        let m1 = total_mass(&sim);
        assert!(
            (m1 - m0).abs() / m0 < 1e-9,
            "pure diffusion must conserve mass: {m0} -> {m1}"
        );
    }

    #[test]
    fn densities_stay_nonnegative_under_strong_coupling() {
        let mut sim = ContinuumSim::new(tiny());
        let mut params = CouplingParams::neutral(2, 3);
        params.strength[0] = vec![-2.0, 2.0, -1.0];
        params.strength[1] = vec![2.0, -2.0, 1.0];
        sim.set_coupling(params);
        sim.run(300);
        for s in 0..3 {
            assert!(sim.field(s).min() >= 0.0, "species {s} went negative");
        }
    }

    #[test]
    fn attractive_coupling_builds_lipid_fingerprint() {
        let mut cfg = tiny();
        cfg.n_proteins = 1;
        cfg.protein_mobility = 0.0; // pin the protein
        cfg.protein_noise = 0.0;
        cfg.state_flip_prob = 0.0;
        let mut sim = ContinuumSim::new(cfg);
        let mut params = CouplingParams::neutral(2, 3);
        params.strength[0][0] = -1.0; // species 0 attracted to RAS
        params.strength[1][0] = -1.0;
        sim.set_coupling(params);
        let p = sim.proteins()[0];
        let before = sim.field(0).sample(p.x, p.y);
        sim.run(400);
        let after = sim.field(0).sample(p.x, p.y);
        assert!(
            after > before * 1.05,
            "density at protein should grow: {before} -> {after}"
        );
        // Uncoupled species stays flat.
        let other = sim.field(1);
        assert!((other.sample(p.x, p.y) - other.mean()).abs() < 1e-6);
    }

    #[test]
    fn proteins_stay_in_domain() {
        let mut sim = ContinuumSim::new(tiny());
        sim.run(500);
        let (lx, ly) = sim.field(0).extent();
        for p in sim.proteins() {
            assert!(p.x >= 0.0 && p.x < lx);
            assert!(p.y >= 0.0 && p.y < ly);
        }
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let run = || {
            let mut sim = ContinuumSim::new(tiny());
            sim.run(50);
            (sim.proteins().to_vec(), sim.field(0).data().to_vec())
        };
        let (p1, f1) = run();
        let (p2, f2) = run();
        assert_eq!(p1, p2);
        assert_eq!(f1, f2);
    }

    #[test]
    fn state_flips_happen_over_time() {
        let mut cfg = tiny();
        cfg.state_flip_prob = 0.2;
        cfg.n_proteins = 10;
        let mut sim = ContinuumSim::new(cfg);
        let before: Vec<usize> = sim.proteins().iter().map(|p| p.state).collect();
        sim.run(100);
        let after: Vec<usize> = sim.proteins().iter().map(|p| p.state).collect();
        assert_ne!(before, after, "states should have churned");
        assert!(after.iter().all(|&s| s < 5));
    }

    #[test]
    fn set_coupling_validates_shape() {
        let mut sim = ContinuumSim::new(tiny());
        let bad = CouplingParams {
            strength: vec![vec![0.0; 99]; 2],
            range: 2.0,
        };
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || sim.set_coupling(bad)));
        assert!(result.is_err());
    }

    #[test]
    fn diffusion_erases_fluctuations() {
        // Without proteins, diffusion erases the initial noise instead of
        // amplifying it into domains.
        let mut cfg = tiny();
        cfg.n_proteins = 0;
        cfg.density_noise = 0.02;
        let mut sim = ContinuumSim::new(cfg);
        let var = |sim: &ContinuumSim, s: usize| {
            let d = sim.field(s).data();
            let m = d.iter().sum::<f64>() / d.len() as f64;
            d.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / d.len() as f64
        };
        let v0 = var(&sim, 0);
        sim.run(300);
        let v1 = var(&sim, 0);
        assert!(v1 < v0 * 0.1, "diffusion should mix: {v0:.2e} -> {v1:.2e}");
    }

    #[test]
    fn time_advances_by_dt() {
        let mut sim = ContinuumSim::new(tiny());
        sim.run(10);
        assert!((sim.time_us() - 10.0 * sim.config().dt).abs() < 1e-12);
        assert_eq!(sim.step, 10);
    }
}
