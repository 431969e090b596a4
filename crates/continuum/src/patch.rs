//! Patch extraction: cutting 30 nm × 30 nm windows around proteins.
//!
//! "30 nm × 30 nm 'patches' are cut out of continuum snapshots in regions
//! that may be of interest for CG and AA simulations" (§4.1(2)); the
//! selector evaluates them "sampled on a 37×37 grid" (§4.1(6), "almost 55×
//! larger" than the earlier 5×5). [`Patch::feature_vector`] produces the
//! ML-encoder input: the per-species density window downsampled onto a
//! small feature grid.

use datastore::codec::{Array, Records};

use crate::snapshot::Snapshot;

/// Patch extraction parameters.
#[derive(Debug, Clone, Copy)]
pub struct PatchConfig {
    /// Patch side length (nm); the campaign uses 30.
    pub size_nm: f64,
    /// Sampling resolution of the stored patch (cells per side); the
    /// campaign uses 37.
    pub resolution: usize,
    /// Feature-grid side for the ML encoding (downsampled from
    /// `resolution`).
    pub feature_grid: usize,
}

impl Default for PatchConfig {
    fn default() -> Self {
        PatchConfig {
            size_nm: 30.0,
            resolution: 37,
            feature_grid: 4,
        }
    }
}

/// A patch: the window of every species' density around one protein.
#[derive(Debug, Clone, PartialEq)]
pub struct Patch {
    /// Identifier: `p-<snapshot µs>-<protein index>`.
    pub id: String,
    /// Center position (nm) in the source snapshot.
    pub center: (f64, f64),
    /// Protein kind code at the center.
    pub kind: usize,
    /// Protein configurational state at the center (routes the patch to
    /// one of the selector's queues).
    pub state: usize,
    /// Per-species density windows, each shape (resolution, resolution).
    pub windows: Vec<Array>,
}

impl Patch {
    /// Flattened ML input: each species window averaged onto the feature
    /// grid, concatenated (species × g × g values).
    pub fn feature_vector(&self, cfg: &PatchConfig) -> Vec<f64> {
        let g = cfg.feature_grid.max(1);
        let res = cfg.resolution;
        let mut out = Vec::with_capacity(self.windows.len() * g * g);
        for w in &self.windows {
            for by in 0..g {
                for bx in 0..g {
                    let x0 = bx * res / g;
                    let x1 = ((bx + 1) * res / g).max(x0 + 1);
                    let y0 = by * res / g;
                    let y1 = ((by + 1) * res / g).max(y0 + 1);
                    let mut sum = 0.0;
                    for y in y0..y1 {
                        for x in x0..x1 {
                            sum += w.at2(y, x);
                        }
                    }
                    out.push(sum / ((x1 - x0) * (y1 - y0)) as f64);
                }
            }
        }
        out
    }

    /// Serializes the patch (the "standard Numpy format" analogue: ~70 KB
    /// at campaign resolution).
    pub fn encode(&self) -> Vec<u8> {
        let mut rec = Records::new();
        rec.insert(
            "meta",
            Array::from_vec(vec![
                self.center.0,
                self.center.1,
                self.kind as f64,
                self.state as f64,
                self.windows.len() as f64,
            ]),
        );
        for (s, w) in self.windows.iter().enumerate() {
            rec.insert(&format!("w{s}"), w.clone());
        }
        rec.encode()
    }

    /// Decodes a serialized patch; the id is not stored and must be
    /// supplied by the namespace key.
    pub fn decode(id: &str, bytes: &[u8]) -> datastore::Result<Patch> {
        let rec = Records::decode(bytes)?;
        let meta = rec
            .get("meta")
            .ok_or_else(|| datastore::DataError::Codec("missing meta".into()))?;
        let n = meta.data()[4] as usize;
        let mut windows = Vec::with_capacity(n);
        for s in 0..n {
            windows.push(
                rec.get(&format!("w{s}"))
                    .ok_or_else(|| datastore::DataError::Codec(format!("missing w{s}")))?
                    .clone(),
            );
        }
        Ok(Patch {
            id: id.to_string(),
            center: (meta.data()[0], meta.data()[1]),
            kind: meta.data()[2] as usize,
            state: meta.data()[3] as usize,
            windows,
        })
    }
}

/// Cuts one patch per protein out of a snapshot.
pub fn extract_patches(snap: &Snapshot, cfg: &PatchConfig) -> Vec<Patch> {
    let res = cfg.resolution;
    let mut out = Vec::with_capacity(snap.proteins.len());
    for (pi, &(cx, cy, kind, state)) in snap.proteins.iter().enumerate() {
        let mut windows = Vec::with_capacity(snap.fields.len());
        for field in &snap.fields {
            let ny = field.shape()[0];
            let nx = field.shape()[1];
            let (lx, ly) = (nx as f64 * snap.h, ny as f64 * snap.h);
            let mut w = vec![0.0; res * res];
            for iy in 0..res {
                for ix in 0..res {
                    // Physical offset from patch corner; periodic sample by
                    // nearest cell (adequate at patch resolution).
                    let ox = (ix as f64 + 0.5) / res as f64 * cfg.size_nm - cfg.size_nm / 2.0;
                    let oy = (iy as f64 + 0.5) / res as f64 * cfg.size_nm - cfg.size_nm / 2.0;
                    let px = (cx + ox).rem_euclid(lx);
                    let py = (cy + oy).rem_euclid(ly);
                    let gx = ((px / snap.h) as usize).min(nx - 1);
                    let gy = ((py / snap.h) as usize).min(ny - 1);
                    w[iy * res + ix] = field.at2(gy, gx);
                }
            }
            windows.push(Array::new(vec![res, res], w));
        }
        out.push(Patch {
            id: format!("p-{:012.3}-{pi:04}", snap.time_us),
            center: (cx, cy),
            kind,
            state,
            windows,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{ContinuumConfig, ContinuumSim, CouplingParams};

    fn sim() -> ContinuumSim {
        let mut sim = ContinuumSim::new(ContinuumConfig {
            nx: 64,
            ny: 64,
            h: 1.0,
            inner_species: 2,
            outer_species: 1,
            n_proteins: 5,
            ..ContinuumConfig::laptop()
        });
        sim.run(10);
        sim
    }

    #[test]
    fn one_patch_per_protein() {
        let snap = sim().snapshot();
        let cfg = PatchConfig::default();
        let patches = extract_patches(&snap, &cfg);
        assert_eq!(patches.len(), 5);
        for p in &patches {
            assert_eq!(p.windows.len(), 3);
            assert_eq!(p.windows[0].shape(), &[37, 37]);
        }
        // IDs are unique.
        let ids: std::collections::HashSet<&str> = patches.iter().map(|p| p.id.as_str()).collect();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn patch_window_reflects_local_density() {
        // Plant a strong density bump at a protein and check its patch sees
        // higher mean density than a far-away patch.
        let mut sim = sim();
        let mut params = CouplingParams::neutral(2, 3);
        params.strength[0][0] = -3.0;
        params.strength[1][0] = -3.0;
        sim.set_coupling(params);
        sim.run(300);
        let snap = sim.snapshot();
        let cfg = PatchConfig {
            size_nm: 10.0,
            resolution: 11,
            feature_grid: 2,
        };
        let patches = extract_patches(&snap, &cfg);
        for p in &patches {
            let mean: f64 = p.windows[0].data().iter().sum::<f64>() / p.windows[0].len() as f64;
            let global = snap.fields[0].data().iter().sum::<f64>() / snap.fields[0].len() as f64;
            assert!(
                mean > global,
                "patch at a protein should see enriched species 0: {mean} vs {global}"
            );
        }
    }

    #[test]
    fn feature_vector_has_expected_length() {
        let snap = sim().snapshot();
        let cfg = PatchConfig::default();
        let patches = extract_patches(&snap, &cfg);
        let fv = patches[0].feature_vector(&cfg);
        assert_eq!(fv.len(), 3 * 4 * 4);
        assert!(fv.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sim().snapshot();
        let patches = extract_patches(&snap, &PatchConfig::default());
        let bytes = patches[0].encode();
        let back = Patch::decode(&patches[0].id, &bytes).unwrap();
        assert_eq!(back, patches[0]);
    }

    #[test]
    fn patch_wraps_periodic_boundary() {
        // A protein at the domain corner must still get a full window.
        let mut snap = sim().snapshot();
        snap.proteins[0] = (0.1, 0.1, 0, 0);
        let patches = extract_patches(&snap, &PatchConfig::default());
        assert!(patches[0].windows[0].data().iter().all(|&v| v > 0.0));
    }
}
