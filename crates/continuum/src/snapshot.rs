//! Snapshot capture and the custom binary format.
//!
//! The campaign's GridSim2D delivered "a new snapshot … every 90 seconds
//! and, when stored in a custom binary format, consumes ∽374 MB" (§4.1(1)).
//! Snapshots here serialize through [`datastore::codec::Records`], so they
//! flow unchanged into any backend (file, archive, or database).

use datastore::codec::{Array, Records};

use crate::grid::Grid2;
use crate::sim::Protein;

/// A point-in-time capture of the continuum state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Simulated time (µs).
    pub time_us: f64,
    /// Cell size (nm).
    pub h: f64,
    /// Density fields, one per species, shape (ny, nx).
    pub fields: Vec<Array>,
    /// Protein rows: (x, y, kind code, state).
    pub proteins: Vec<(f64, f64, usize, usize)>,
}

impl Snapshot {
    /// Captures a snapshot from live state.
    pub fn capture(time_us: f64, fields: &[Grid2], proteins: &[Protein]) -> Snapshot {
        Snapshot {
            time_us,
            h: fields.first().map_or(1.0, Grid2::h),
            fields: fields
                .iter()
                .map(|g| Array::new(vec![g.ny(), g.nx()], g.data().to_vec()))
                .collect(),
            proteins: proteins
                .iter()
                .map(|p| (p.x, p.y, p.kind.code(), p.state))
                .collect(),
        }
    }

    /// Number of lipid species captured.
    pub fn species(&self) -> usize {
        self.fields.len()
    }

    /// Serializes to the byte-stream format.
    pub fn encode(&self) -> Vec<u8> {
        let mut rec = Records::new();
        rec.insert(
            "meta",
            Array::from_vec(vec![
                self.time_us,
                self.h,
                self.fields.len() as f64,
                self.proteins.len() as f64,
            ]),
        );
        for (s, f) in self.fields.iter().enumerate() {
            rec.insert(&format!("rho{s}"), f.clone());
        }
        let mut pdata = Vec::with_capacity(self.proteins.len() * 4);
        for &(x, y, k, st) in &self.proteins {
            pdata.extend_from_slice(&[x, y, k as f64, st as f64]);
        }
        rec.insert("proteins", Array::new(vec![self.proteins.len(), 4], pdata));
        rec.encode().to_vec()
    }

    /// Decodes the byte-stream format.
    pub fn decode(bytes: &[u8]) -> datastore::Result<Snapshot> {
        let rec = Records::decode(bytes)?;
        let meta = rec
            .get("meta")
            .ok_or_else(|| datastore::DataError::Codec("missing meta".into()))?;
        let time_us = meta.data()[0];
        let h = meta.data()[1];
        let n_species = meta.data()[2] as usize;
        let mut fields = Vec::with_capacity(n_species);
        for s in 0..n_species {
            let f = rec
                .get(&format!("rho{s}"))
                .ok_or_else(|| datastore::DataError::Codec(format!("missing rho{s}")))?;
            fields.push(f.clone());
        }
        let parr = rec
            .get("proteins")
            .ok_or_else(|| datastore::DataError::Codec("missing proteins".into()))?;
        let n = parr.shape()[0];
        let proteins = (0..n)
            .map(|i| {
                let row = &parr.data()[i * 4..(i + 1) * 4];
                (row[0], row[1], row[2] as usize, row[3] as usize)
            })
            .collect();
        Ok(Snapshot {
            time_us,
            h,
            fields,
            proteins,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{ContinuumConfig, ContinuumSim};

    fn tiny_sim() -> ContinuumSim {
        ContinuumSim::new(ContinuumConfig {
            nx: 16,
            ny: 16,
            h: 1.0,
            inner_species: 2,
            outer_species: 1,
            n_proteins: 4,
            ..ContinuumConfig::laptop()
        })
    }

    #[test]
    fn capture_reflects_state() {
        let mut sim = tiny_sim();
        sim.run(5);
        let snap = sim.snapshot();
        assert_eq!(snap.species(), 3);
        assert_eq!(snap.proteins.len(), 4);
        assert!((snap.time_us - sim.time_us()).abs() < 1e-12);
        assert_eq!(snap.fields[0].shape(), &[16, 16]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut sim = tiny_sim();
        sim.run(3);
        let snap = sim.snapshot();
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Snapshot::decode(b"junk").is_err());
        // A valid Records missing the expected entries also fails.
        let mut rec = datastore::codec::Records::new();
        rec.insert("other", datastore::codec::Array::from_vec(vec![1.0]));
        assert!(Snapshot::decode(&rec.encode()).is_err());
    }

    #[test]
    fn snapshot_size_scales_with_grid() {
        let small = tiny_sim().snapshot().encode().len();
        let mut big_cfg = ContinuumConfig::laptop();
        big_cfg.inner_species = 2;
        big_cfg.outer_species = 1;
        big_cfg.nx = 32;
        big_cfg.ny = 32;
        let big = ContinuumSim::new(big_cfg).snapshot().encode().len();
        assert!(
            big > small * 3,
            "snapshot bytes should scale ~4x: {small} vs {big}"
        );
    }
}
