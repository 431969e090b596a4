//! The generic particle MD engine: periodic box, typed particles,
//! Lennard-Jones pair forces over a cell list, harmonic bonds, Langevin
//! integration, and steepest-descent minimization.

// Numeric kernels below index several arrays along a shared axis;
// indexed loops are clearer than zipped iterators there.
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::Rng;
use rayon::prelude::*;

use datastore::codec::{Array, Records};

/// Pairwise Lennard-Jones parameters per (type, type) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairTable {
    n_types: usize,
    /// (sigma, epsilon) per pair, row-major over (a, b).
    params: Vec<(f64, f64)>,
}

impl PairTable {
    /// A table where every pair has the same parameters.
    pub fn uniform(n_types: usize, sigma: f64, epsilon: f64) -> PairTable {
        PairTable {
            n_types,
            params: vec![(sigma, epsilon); n_types * n_types],
        }
    }

    /// Sets the parameters of one unordered pair.
    pub fn set(&mut self, a: usize, b: usize, sigma: f64, epsilon: f64) {
        self.params[a * self.n_types + b] = (sigma, epsilon);
        self.params[b * self.n_types + a] = (sigma, epsilon);
    }

    /// Parameters of a pair.
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> (f64, f64) {
        self.params[a * self.n_types + b]
    }

    /// Number of particle types.
    pub fn n_types(&self) -> usize {
        self.n_types
    }
}

/// Force-field description: nonbonded table, cutoff, and harmonic bonds.
#[derive(Debug, Clone, PartialEq)]
pub struct ForceField {
    /// Nonbonded LJ parameters.
    pub pairs: PairTable,
    /// Nonbonded cutoff distance.
    pub cutoff: f64,
    /// Harmonic bonds: (i, j, k, r0) — E = k/2 (r - r0)².
    pub bonds: Vec<(u32, u32, f64, f64)>,
}

/// Langevin integration parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Integrator {
    /// Time step (ps for CG, fs-scale for AA — units are the caller's).
    pub dt: f64,
    /// Friction coefficient (1/time).
    pub gamma: f64,
    /// Thermal energy kT (sets the noise amplitude).
    pub kt: f64,
}

/// A particle system in a periodic orthorhombic box.
#[derive(Debug, Clone, PartialEq)]
pub struct MdSystem {
    /// Positions.
    pub pos: Vec<[f64; 3]>,
    /// Velocities.
    pub vel: Vec<[f64; 3]>,
    /// Type of each particle (index into the pair table).
    pub typ: Vec<u16>,
    /// Box side lengths.
    pub box_l: [f64; 3],
    /// Simulated time (in `dt` units accumulated).
    pub time: f64,
    /// Steps taken.
    pub steps: u64,
}

impl MdSystem {
    /// Creates a system with zero velocities.
    ///
    /// # Panics
    /// Panics when positions and types disagree in length.
    pub fn new(pos: Vec<[f64; 3]>, typ: Vec<u16>, box_l: [f64; 3]) -> MdSystem {
        assert_eq!(pos.len(), typ.len(), "every particle needs a type");
        let n = pos.len();
        MdSystem {
            pos,
            vel: vec![[0.0; 3]; n],
            typ,
            box_l,
            time: 0.0,
            steps: 0,
        }
    }

    /// Particle count.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when the system has no particles.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Minimum-image displacement from `a` to `b`.
    #[inline]
    pub fn delta(&self, a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        let mut d = [0.0; 3];
        for k in 0..3 {
            let l = self.box_l[k];
            let mut x = b[k] - a[k];
            x -= (x / l).round() * l;
            d[k] = x;
        }
        d
    }

    /// Minimum-image distance between particles `i` and `j`.
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        let d = self.delta(self.pos[i], self.pos[j]);
        (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt()
    }

    /// Wraps every position into the primary box image.
    pub fn wrap(&mut self) {
        for p in &mut self.pos {
            for k in 0..3 {
                p[k] = p[k].rem_euclid(self.box_l[k]);
            }
        }
    }

    /// Computes forces and potential energy under `ff`.
    pub fn forces(&self, ff: &ForceField) -> (Vec<[f64; 3]>, f64) {
        let cells = CellList::build(self, ff.cutoff);
        let cut2 = ff.cutoff * ff.cutoff;
        // Parallel per-particle neighbor loop (each pair visited twice; the
        // energy is halved accordingly).
        let results: Vec<([f64; 3], f64)> = (0..self.len())
            .into_par_iter() // lint: allow(L8: per-particle forces collect in index order; the energy sum below runs serially over that ordered Vec)
            .map(|i| {
                let mut f = [0.0f64; 3];
                let mut e = 0.0f64;
                let pi = self.pos[i];
                let ti = self.typ[i] as usize;
                cells.for_neighbors(self, i, |j| {
                    let d = self.delta(pi, self.pos[j]);
                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    if r2 >= cut2 || r2 < 1e-12 {
                        return;
                    }
                    let (sigma, eps) = ff.pairs.get(ti, self.typ[j] as usize);
                    if eps == 0.0 {
                        return;
                    }
                    let sr2 = sigma * sigma / r2;
                    let sr6 = sr2 * sr2 * sr2;
                    let sr12 = sr6 * sr6;
                    // F = 24 eps (2 sr12 - sr6) / r² * r_vec, directed from
                    // j to i (repulsive positive).
                    let fmag = 24.0 * eps * (2.0 * sr12 - sr6) / r2;
                    for k in 0..3 {
                        f[k] -= fmag * d[k];
                    }
                    e += 0.5 * 4.0 * eps * (sr12 - sr6);
                });
                (f, e)
            })
            .collect();
        let mut forces: Vec<[f64; 3]> = results.iter().map(|r| r.0).collect();
        let mut energy: f64 = results.iter().map(|r| r.1).sum();

        // Bonds (serial: bond counts are O(n) and cheap).
        for &(i, j, k, r0) in &ff.bonds {
            let (i, j) = (i as usize, j as usize);
            let d = self.delta(self.pos[i], self.pos[j]);
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt().max(1e-12);
            let fmag = k * (r - r0) / r;
            for ax in 0..3 {
                forces[i][ax] += fmag * d[ax];
                forces[j][ax] -= fmag * d[ax];
            }
            energy += 0.5 * k * (r - r0) * (r - r0);
        }
        (forces, energy)
    }

    /// One Langevin step (Euler-Maruyama on velocities, unit masses).
    pub fn step(&mut self, ff: &ForceField, ig: &Integrator, rng: &mut StdRng) {
        let (forces, _) = self.forces(ff);
        let dt = ig.dt;
        let damp = (-ig.gamma * dt).exp();
        let noise = (ig.kt * (1.0 - damp * damp)).sqrt();
        for i in 0..self.len() {
            for k in 0..3 {
                self.vel[i][k] += forces[i][k] * dt;
                self.vel[i][k] = self.vel[i][k] * damp + noise * rng.gen_range(-1.732..1.732);
                self.pos[i][k] += self.vel[i][k] * dt;
            }
        }
        self.wrap();
        self.time += dt;
        self.steps += 1;
    }

    /// Runs `n` Langevin steps.
    pub fn run(&mut self, ff: &ForceField, ig: &Integrator, rng: &mut StdRng, n: u64) {
        for _ in 0..n {
            self.step(ff, ig, rng);
        }
    }

    /// Steepest-descent energy minimization with adaptive step size;
    /// returns (initial energy, final energy).
    pub fn minimize(&mut self, ff: &ForceField, steps: usize, max_move: f64) -> (f64, f64) {
        let (_, e0) = self.forces(ff);
        let mut step = max_move;
        let mut prev = e0;
        for _ in 0..steps {
            let (forces, _) = self.forces(ff);
            let fmax = forces
                .iter()
                .flat_map(|f| f.iter().map(|v| v.abs()))
                .fold(0.0f64, f64::max)
                .max(1e-12);
            let scale = step / fmax;
            let backup = self.pos.clone();
            for (p, f) in self.pos.iter_mut().zip(&forces) {
                for k in 0..3 {
                    p[k] += f[k] * scale;
                }
            }
            self.wrap();
            let (_, e) = self.forces(ff);
            if e < prev {
                prev = e;
                step = (step * 1.2).min(max_move);
            } else {
                // Reject uphill move, shrink the step.
                self.pos = backup;
                step *= 0.5;
                if step < 1e-10 {
                    break;
                }
            }
        }
        (e0, prev)
    }

    /// Serializes positions/velocities/types — the checkpoint format
    /// ("all simulations are checkpointed with their own simulation code").
    pub fn checkpoint(&self) -> Vec<u8> {
        let n = self.len();
        let mut rec = Records::new();
        rec.insert(
            "meta",
            Array::from_vec(vec![
                n as f64,
                self.box_l[0],
                self.box_l[1],
                self.box_l[2],
                self.time,
                self.steps as f64,
            ]),
        );
        let flat = |v: &[[f64; 3]]| -> Vec<f64> { v.iter().flatten().copied().collect() };
        rec.insert("pos", Array::new(vec![n, 3], flat(&self.pos)));
        rec.insert("vel", Array::new(vec![n, 3], flat(&self.vel)));
        rec.insert(
            "typ",
            Array::from_vec(self.typ.iter().map(|&t| t as f64).collect()),
        );
        rec.encode().to_vec()
    }

    /// Restores a system from a checkpoint.
    pub fn restore(bytes: &[u8]) -> datastore::Result<MdSystem> {
        let rec = Records::decode(bytes)?;
        let need = |n: &str| {
            rec.get(n)
                .ok_or_else(|| datastore::DataError::Codec(format!("missing {n}")))
        };
        let meta = need("meta")?;
        let n = meta.data()[0] as usize;
        let unflat = |a: &Array| -> Vec<[f64; 3]> {
            a.data().chunks(3).map(|c| [c[0], c[1], c[2]]).collect()
        };
        Ok(MdSystem {
            pos: unflat(need("pos")?),
            vel: unflat(need("vel")?),
            typ: need("typ")?.data().iter().map(|&t| t as u16).collect(),
            box_l: [meta.data()[1], meta.data()[2], meta.data()[3]],
            time: meta.data()[4],
            steps: meta.data()[5] as u64,
        })
        .and_then(|s| {
            if s.pos.len() == n && s.typ.len() == n {
                Ok(s)
            } else {
                Err(datastore::DataError::Codec(
                    "inconsistent checkpoint".into(),
                ))
            }
        })
    }
}

/// A cell list for O(n) neighbor iteration at a fixed cutoff.
struct CellList {
    ncell: [usize; 3],
    heads: Vec<i32>,
    next: Vec<i32>,
}

impl CellList {
    fn build(sys: &MdSystem, cutoff: f64) -> CellList {
        let mut ncell = [0usize; 3];
        for k in 0..3 {
            ncell[k] = ((sys.box_l[k] / cutoff).floor() as usize).max(1);
        }
        let total = ncell[0] * ncell[1] * ncell[2];
        let mut heads = vec![-1i32; total];
        let mut next = vec![-1i32; sys.len()];
        for i in 0..sys.len() {
            let c = Self::cell_of(sys, &ncell, sys.pos[i]);
            next[i] = heads[c];
            heads[c] = i as i32;
        }
        CellList { ncell, heads, next }
    }

    fn cell_of(sys: &MdSystem, ncell: &[usize; 3], p: [f64; 3]) -> usize {
        let mut idx = [0usize; 3];
        for k in 0..3 {
            let f = (p[k].rem_euclid(sys.box_l[k])) / sys.box_l[k];
            idx[k] = ((f * ncell[k] as f64) as usize).min(ncell[k] - 1);
        }
        (idx[2] * ncell[1] + idx[1]) * ncell[0] + idx[0]
    }

    /// Visits every particle in the 27 cells around particle `i`, except
    /// `i` itself. When the box is small enough that cells alias (fewer
    /// than 3 cells per axis), neighbors are visited exactly once anyway.
    fn for_neighbors(&self, sys: &MdSystem, i: usize, mut visit: impl FnMut(usize)) {
        let p = sys.pos[i];
        let mut base = [0usize; 3];
        for k in 0..3 {
            let f = (p[k].rem_euclid(sys.box_l[k])) / sys.box_l[k];
            base[k] = ((f * self.ncell[k] as f64) as usize).min(self.ncell[k] - 1);
        }
        let mut seen_cells = [usize::MAX; 27];
        let mut n_seen = 0;
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let cx = (base[0] as i64 + dx).rem_euclid(self.ncell[0] as i64) as usize;
                    let cy = (base[1] as i64 + dy).rem_euclid(self.ncell[1] as i64) as usize;
                    let cz = (base[2] as i64 + dz).rem_euclid(self.ncell[2] as i64) as usize;
                    let c = (cz * self.ncell[1] + cy) * self.ncell[0] + cx;
                    if seen_cells[..n_seen].contains(&c) {
                        continue; // aliased cell in a small box
                    }
                    seen_cells[n_seen] = c;
                    n_seen += 1;
                    let mut j = self.heads[c];
                    while j >= 0 {
                        if j as usize != i {
                            visit(j as usize);
                        }
                        j = self.next[j as usize];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Instantaneous kinetic temperature (unit masses): 2 KE / (3 N).
    fn temperature(sys: &MdSystem) -> f64 {
        let ke: f64 = sys
            .vel
            .iter()
            .map(|v| 0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))
            .sum();
        2.0 * ke / (3.0 * sys.len() as f64)
    }

    fn two_body(r: f64) -> (MdSystem, ForceField) {
        let sys = MdSystem::new(
            vec![[5.0, 5.0, 5.0], [5.0 + r, 5.0, 5.0]],
            vec![0, 0],
            [20.0, 20.0, 20.0],
        );
        let ff = ForceField {
            pairs: PairTable::uniform(1, 1.0, 1.0),
            cutoff: 5.0,
            bonds: vec![],
        };
        (sys, ff)
    }

    #[test]
    fn lj_minimum_at_r_min() {
        // LJ minimum is at 2^(1/6) sigma; force ~0 there, repulsive closer,
        // attractive farther.
        let rmin = 2f64.powf(1.0 / 6.0);
        let (sys, ff) = two_body(rmin);
        let (f, e) = sys.forces(&ff);
        assert!(f[0][0].abs() < 1e-9, "force at minimum: {}", f[0][0]);
        assert!((e - -1.0).abs() < 1e-9, "energy at minimum: {e}");

        let (sys, ff) = two_body(0.9);
        let (f, _) = sys.forces(&ff);
        assert!(f[0][0] < 0.0, "repulsion pushes particle 0 left");

        let (sys, ff) = two_body(1.5);
        let (f, _) = sys.forces(&ff);
        assert!(f[0][0] > 0.0, "attraction pulls particle 0 right");
    }

    #[test]
    fn forces_obey_newtons_third_law() {
        let (sys, ff) = two_body(1.3);
        let (f, _) = sys.forces(&ff);
        for k in 0..3 {
            assert!((f[0][k] + f[1][k]).abs() < 1e-9);
        }
    }

    #[test]
    fn minimum_image_across_boundary() {
        // Particles at opposite box edges are actually close.
        let sys = MdSystem::new(
            vec![[0.5, 5.0, 5.0], [19.5, 5.0, 5.0]],
            vec![0, 0],
            [20.0, 20.0, 20.0],
        );
        assert!((sys.dist(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bond_force_restores_length() {
        let mut sys = MdSystem::new(
            vec![[5.0, 5.0, 5.0], [8.0, 5.0, 5.0]],
            vec![0, 0],
            [20.0, 20.0, 20.0],
        );
        let ff = ForceField {
            pairs: PairTable::uniform(1, 1.0, 0.0), // no LJ
            cutoff: 2.0,
            bonds: vec![(0, 1, 10.0, 2.0)],
        };
        let (e0, e1) = sys.minimize(&ff, 200, 0.1);
        assert!(e1 < e0);
        assert!(
            (sys.dist(0, 1) - 2.0).abs() < 0.01,
            "bond at {}",
            sys.dist(0, 1)
        );
    }

    #[test]
    fn minimization_never_increases_energy() {
        let mut pos = Vec::new();
        // A deliberately clashy lattice.
        for i in 0..4 {
            for j in 0..4 {
                pos.push([i as f64 * 0.8, j as f64 * 0.8, 5.0]);
            }
        }
        let n = pos.len();
        let mut sys = MdSystem::new(pos, vec![0; n], [10.0, 10.0, 10.0]);
        let ff = ForceField {
            pairs: PairTable::uniform(1, 1.0, 1.0),
            cutoff: 2.5,
            bonds: vec![],
        };
        let (e0, e1) = sys.minimize(&ff, 300, 0.05);
        assert!(e1 < e0, "minimization failed: {e0} -> {e1}");
    }

    #[test]
    fn langevin_thermalizes_near_kt() {
        let mut pos = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                for k in 0..5 {
                    pos.push([i as f64 * 2.0, j as f64 * 2.0, k as f64 * 2.0]);
                }
            }
        }
        let n = pos.len();
        let mut sys = MdSystem::new(pos, vec![0; n], [10.0, 10.0, 10.0]);
        let ff = ForceField {
            pairs: PairTable::uniform(1, 1.0, 0.2),
            cutoff: 2.5,
            bonds: vec![],
        };
        let ig = Integrator {
            dt: 0.005,
            gamma: 1.0,
            kt: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(4);
        sys.run(&ff, &ig, &mut rng, 2000);
        let t = temperature(&sys);
        assert!(
            (0.5..2.0).contains(&t),
            "temperature should settle near kT=1: {t}"
        );
    }

    #[test]
    fn cell_list_matches_brute_force() {
        // Forces via cell list must equal an all-pairs reference.
        let mut rng = StdRng::seed_from_u64(8);
        let n = 60;
        let box_l = [8.0, 8.0, 8.0];
        let pos: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..8.0),
                    rng.gen_range(0.0..8.0),
                    rng.gen_range(0.0..8.0),
                ]
            })
            .collect();
        let sys = MdSystem::new(pos, vec![0; n], box_l);
        let ff = ForceField {
            pairs: PairTable::uniform(1, 1.0, 1.0),
            cutoff: 2.0,
            bonds: vec![],
        };
        let (fast, e_fast) = sys.forces(&ff);

        // Brute force reference.
        let mut slow = vec![[0.0f64; 3]; n];
        let mut e_slow = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let d = sys.delta(sys.pos[i], sys.pos[j]);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                if !(1e-12..4.0).contains(&r2) {
                    continue;
                }
                let sr2 = 1.0 / r2;
                let sr6 = sr2 * sr2 * sr2;
                let sr12 = sr6 * sr6;
                let fmag = 24.0 * (2.0 * sr12 - sr6) / r2;
                for k in 0..3 {
                    slow[i][k] -= fmag * d[k];
                }
                e_slow += 0.5 * 4.0 * (sr12 - sr6);
            }
        }
        // Tolerance scales with magnitude: a near-contact pair can push
        // forces past 1e8, where cell-list vs all-pairs summation order
        // legitimately differs in the last ulp.
        let tol = |reference: f64| 1e-9 + 1e-12 * reference.abs();
        assert!(
            (e_fast - e_slow).abs() < tol(e_slow),
            "{e_fast} vs {e_slow}"
        );
        for i in 0..n {
            for k in 0..3 {
                assert!(
                    (fast[i][k] - slow[i][k]).abs() < tol(slow[i][k]),
                    "particle {i} axis {k}: {} vs {}",
                    fast[i][k],
                    slow[i][k]
                );
            }
        }
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let (mut sys, ff) = two_body(1.2);
        let ig = Integrator {
            dt: 0.002,
            gamma: 1.0,
            kt: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(3);
        sys.run(&ff, &ig, &mut rng, 50);
        let bytes = sys.checkpoint();
        let restored = MdSystem::restore(&bytes).unwrap();
        assert_eq!(restored, sys);
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(MdSystem::restore(b"nope").is_err());
    }
}
