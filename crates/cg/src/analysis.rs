//! Online CG analysis: protein–lipid RDFs and the 3-D conformational
//! encoding.
//!
//! "Custom, Python-based analysis is executed simultaneously on the same
//! computational node … The analysis module is tuned to finish inspecting
//! each snapshot within this time period and generates 17 KB additional
//! data every 41.5 seconds" (§4.1(3)). The two products that drive the
//! workflow are:
//!
//! - **protein–lipid RDFs** per species — aggregated by the CG→continuum
//!   feedback into updated coupling parameters;
//! - the **3-D conformational state** of the RAS-RAF complex — the frame
//!   encoding the binned sampler selects on.

use datastore::codec::{ArrayView, RecordsView, RecordsWriter};
use datastore::{DataError, Result};

use crate::system::CgSystem;

/// One analyzed CG frame: the ~850 B of "identifying information that is
/// minimal and sufficient for the downstream tasks".
#[derive(Debug, Clone, PartialEq)]
pub struct CgFrame {
    /// Frame id: `<sim>:f<index>`.
    pub id: String,
    /// Simulation time of the frame.
    pub time: f64,
    /// 3-D conformational encoding in [0, 1]³.
    pub encoding: [f64; 3],
    /// Protein–lipid RDF per lipid species (flattened, `rdf_bins` each).
    pub rdfs: Vec<Vec<f64>>,
}

impl CgFrame {
    /// Serializes the frame for a data store.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(&mut out, self.time, self.encoding, &self.rdfs);
        out
    }

    /// Decodes a serialized frame (the id comes from the namespace key):
    /// [`CgFrameView::parse`] plus a copy.
    pub fn decode(id: &str, bytes: &[u8]) -> Result<CgFrame> {
        let view = CgFrameView::parse(bytes)?;
        Ok(CgFrame {
            id: id.to_string(),
            time: view.time(),
            encoding: view.encoding(),
            rdfs: view.rdfs().map(|r| r.values().collect()).collect(),
        })
    }
}

/// Encodes one frame into `out` (cleared first): a `meta` entry (time,
/// the three encoding values, the species count) and one `rdf{s}` entry
/// per species, written straight from the caller's values.
pub fn encode_frame<R: AsRef<[f64]>>(out: &mut Vec<u8>, time: f64, encoding: [f64; 3], rdfs: &[R]) {
    let meta = [
        time,
        encoding[0],
        encoding[1],
        encoding[2],
        rdfs.len() as f64,
    ];
    let digits = |s: usize| s.checked_ilog10().map_or(1, |d| d as usize + 1);
    let size = RecordsWriter::entry_len(4, 1, meta.len())
        + rdfs
            .iter()
            .enumerate()
            .map(|(s, r)| RecordsWriter::entry_len(3 + digits(s), 1, r.as_ref().len()))
            .sum::<usize>();
    let mut w = RecordsWriter::new(out, 1 + rdfs.len(), size);
    w.entry("meta", &[meta.len()], &meta);
    for (s, r) in rdfs.iter().enumerate() {
        let r = r.as_ref();
        w.entry(format_args!("rdf{s}"), &[r.len()], r);
    }
    w.finish();
}

/// A validated, borrowed view of one encoded frame: what a reader that
/// only folds the values needs, with no copy of them.
#[derive(Debug, Clone, Copy)]
pub struct CgFrameView<'a> {
    records: RecordsView<'a>,
    meta: ArrayView<'a>,
    species: usize,
}

impl<'a> CgFrameView<'a> {
    /// Validates an encoded frame: a valid bundle with a `meta` entry of
    /// at least five values and an `rdf{s}` entry for every species it
    /// counts.
    pub fn parse(bytes: &'a [u8]) -> Result<CgFrameView<'a>> {
        let records = RecordsView::parse(bytes)?;
        let meta = records
            .get("meta")
            .ok_or_else(|| DataError::Codec("missing meta".into()))?;
        let species = meta
            .get(4)
            .ok_or_else(|| DataError::Codec("short meta".into()))? as usize;
        for s in 0..species {
            if rdf_entry(&records, s).is_none() {
                return Err(DataError::Codec(format!("missing rdf{s}")));
            }
        }
        Ok(CgFrameView {
            records,
            meta,
            species,
        })
    }

    /// Simulation time of the frame.
    pub fn time(&self) -> f64 {
        self.meta.get(0).unwrap_or_default()
    }

    /// 3-D conformational encoding.
    pub fn encoding(&self) -> [f64; 3] {
        [1, 2, 3].map(|i| self.meta.get(i).unwrap_or_default())
    }

    /// The RDF of each species, in species order.
    pub fn rdfs(&self) -> impl Iterator<Item = ArrayView<'a>> + 'a {
        let records = self.records;
        // `parse` found every one of them.
        (0..self.species).map_while(move |s| rdf_entry(&records, s))
    }
}

/// The `rdf{s}` entry, found without formatting its name.
fn rdf_entry<'a>(records: &RecordsView<'a>, s: usize) -> Option<ArrayView<'a>> {
    records.find(|name| names_species(name, s))
}

/// Whether `name` is exactly `format!("rdf{s}")`.
fn names_species(name: &[u8], s: usize) -> bool {
    let Some(digits) = name.strip_prefix(b"rdf") else {
        return false;
    };
    let (mut rest, mut n) = (digits, s);
    while let Some((&last, head)) = rest.split_last() {
        if last != b'0' + (n % 10) as u8 {
            return false;
        }
        (rest, n) = (head, n / 10);
        if n == 0 {
            return rest.is_empty();
        }
    }
    false
}

/// Radial distribution function between the protein beads and the head
/// beads of one lipid species, over `bins` bins up to `rmax`.
///
/// Normalized against the ideal-gas expectation, so g(r) → 1 for an
/// uncorrelated fluid and g(r) ≈ 0 inside the excluded core.
fn compute_rdf(cg: &CgSystem, species: usize, bins: usize, rmax: f64) -> Vec<f64> {
    let heads = cg.heads_of(species);
    let prot = &cg.protein;
    let mut counts = vec![0u64; bins];
    if heads.is_empty() || prot.is_empty() {
        return vec![0.0; bins];
    }
    for &i in prot {
        for &j in &heads {
            let r = cg.sys.dist(i, j);
            if r < rmax {
                let b = ((r / rmax) * bins as f64) as usize;
                counts[b.min(bins - 1)] += 1;
            }
        }
    }
    // Ideal-gas normalization: pairs expected in each spherical shell at
    // the species' bulk density.
    let volume = cg.sys.box_l[0] * cg.sys.box_l[1] * cg.sys.box_l[2];
    let density = heads.len() as f64 / volume;
    let dr = rmax / bins as f64;
    (0..bins)
        .map(|b| {
            let r_lo = b as f64 * dr;
            let r_hi = r_lo + dr;
            let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
            let expected = density * shell * prot.len() as f64;
            if expected > 0.0 {
                counts[b] as f64 / expected
            } else {
                0.0
            }
        })
        .collect()
}

/// Encodes the protein conformation as three disparate quantities in
/// [0, 1]: normalized radius of gyration, end-to-end extension ratio, and
/// membrane-plane tilt of the chain axis.
fn encode_conformation(cg: &CgSystem) -> [f64; 3] {
    let prot = &cg.protein;
    if prot.len() < 2 {
        return [0.0; 3];
    }
    let n = prot.len() as f64;
    // Unwrap the chain relative to its first bead (minimum image per step).
    let mut unwrapped: Vec<[f64; 3]> = Vec::with_capacity(prot.len());
    unwrapped.push(cg.sys.pos[prot[0]]);
    for w in prot.windows(2) {
        let prev = *unwrapped.last().expect("non-empty");
        let d = cg.sys.delta(cg.sys.pos[w[0]], cg.sys.pos[w[1]]);
        unwrapped.push([prev[0] + d[0], prev[1] + d[1], prev[2] + d[2]]);
    }
    let mut com = [0.0f64; 3];
    for p in &unwrapped {
        for k in 0..3 {
            com[k] += p[k] / n;
        }
    }
    let rg2: f64 = unwrapped
        .iter()
        .map(|p| {
            (0..3)
                .map(|k| (p[k] - com[k]) * (p[k] - com[k]))
                .sum::<f64>()
        })
        .sum::<f64>()
        / n;
    let rg = rg2.sqrt();

    let first = unwrapped[0];
    let last = unwrapped[unwrapped.len() - 1];
    let ee: f64 = (0..3)
        .map(|k| (last[k] - first[k]) * (last[k] - first[k]))
        .sum::<f64>()
        .sqrt();
    // Contour length at the 0.4 nm bond spacing.
    let contour = 0.4 * (n - 1.0);

    let dz = (last[2] - first[2]).abs();
    let tilt = if ee > 1e-9 { dz / ee } else { 0.0 };

    [
        (rg / (contour / 2.0)).clamp(0.0, 1.0),
        (ee / contour).clamp(0.0, 1.0),
        tilt.clamp(0.0, 1.0),
    ]
}

/// Produces the analyzed frame for the current state of a simulation.
pub fn analyze_frame(cg: &CgSystem, sim_id: &str, frame_index: u64, rdf_bins: usize) -> CgFrame {
    let rdfs = (0..cg.n_species)
        .map(|s| compute_rdf(cg, s, rdf_bins, cg.sys.box_l[0] / 2.0))
        .collect();
    CgFrame {
        id: format!("{sim_id}:f{frame_index}"),
        time: cg.time(),
        encoding: encode_conformation(cg),
        rdfs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{build_membrane, MembraneConfig};

    fn relaxed() -> CgSystem {
        let mut m = build_membrane(&MembraneConfig::small());
        m.relax(50);
        m.run(100);
        m
    }

    #[test]
    fn rdf_is_zero_in_core_and_near_one_far() {
        let m = relaxed();
        let rdf = compute_rdf(&m, 1, 20, 5.0);
        assert_eq!(rdf.len(), 20);
        // Excluded-volume core.
        assert!(rdf[0] < 0.5, "core should be depleted: {}", rdf[0]);
        // Far bins should be within a loose band around 1 (finite system).
        let far_mean: f64 = rdf[12..].iter().sum::<f64>() / 8.0;
        assert!(
            (0.2..3.0).contains(&far_mean),
            "far-field g(r) should be O(1): {far_mean}"
        );
        assert!(rdf.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn fingerprint_species_has_enriched_contact_peak() {
        // Species 0 is protein-attractive in the membrane force field;
        // after dynamics its near-protein RDF mass should exceed that of a
        // neutral species.
        let mut m = build_membrane(&MembraneConfig {
            lipids_per_species: 24,
            ..MembraneConfig::small()
        });
        m.relax(80);
        m.run(3000);
        let near = |s: usize| -> f64 { compute_rdf(&m, s, 20, 5.0)[2..8].iter().sum() };
        let attracted = near(0);
        let neutral = near(2);
        assert!(
            attracted > neutral,
            "species 0 should be enriched near protein: {attracted} vs {neutral}"
        );
    }

    #[test]
    fn conformation_encoding_is_bounded_and_sane() {
        let m = relaxed();
        let e = encode_conformation(&m);
        for v in e {
            assert!((0.0..=1.0).contains(&v), "encoding out of range: {e:?}");
        }
        // A straight fresh chain is highly extended.
        let fresh = build_membrane(&MembraneConfig::small());
        let e0 = encode_conformation(&fresh);
        assert!(e0[1] > 0.9, "straight chain extension: {}", e0[1]);
        assert!(e0[2] > 0.9, "straight z-chain tilt: {}", e0[2]);
    }

    #[test]
    fn conformation_handles_degenerate_protein() {
        let mut m = build_membrane(&MembraneConfig {
            protein_beads: 0,
            ..MembraneConfig::small()
        });
        m.relax(5);
        assert_eq!(encode_conformation(&m), [0.0; 3]);
    }

    #[test]
    fn frame_roundtrip() {
        let m = relaxed();
        let frame = analyze_frame(&m, "sim-0001", 7, 16);
        assert_eq!(frame.id, "sim-0001:f7");
        assert_eq!(frame.rdfs.len(), 3);
        let bytes = frame.encode();
        let back = CgFrame::decode(&frame.id, &bytes).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn species_names_match_their_decimal_form_only() {
        for (name, s, yes) in [
            ("rdf0", 0, true),
            ("rdf7", 7, true),
            ("rdf10", 10, true),
            ("rdf1234", 1234, true),
            ("rdf", 0, false),
            ("rdf00", 0, false),
            ("rdf01", 1, false),
            ("rdf+1", 1, false),
            ("rdf10", 1, false),
            ("rdf1", 10, false),
            ("meta", 0, false),
            ("xrdf0", 0, false),
        ] {
            assert_eq!(names_species(name.as_bytes(), s), yes, "{name} vs {s}");
        }
    }

    #[test]
    fn a_frame_missing_a_species_or_meta_is_an_error() {
        let frame = CgFrame {
            id: "s:f0".into(),
            time: 1.0,
            encoding: [0.0; 3],
            rdfs: vec![vec![1.0], vec![2.0]],
        };
        let bytes = frame.encode();
        let view = CgFrameView::parse(&bytes).unwrap();
        assert_eq!(view.rdfs().count(), 2);
        // Claim three species, hold two.
        let mut w = datastore::codec::Records::decode(&bytes).unwrap();
        w.insert(
            "meta",
            datastore::codec::Array::from_vec(vec![1.0, 0.0, 0.0, 0.0, 3.0]),
        );
        assert!(CgFrameView::parse(&w.encode()).is_err());
        // A meta too short to count species.
        w.insert("meta", datastore::codec::Array::from_vec(vec![1.0, 0.0]));
        assert!(CgFrameView::parse(&w.encode()).is_err());
        let mut no_meta = datastore::codec::Records::new();
        no_meta.insert("rdf0", datastore::codec::Array::from_vec(vec![1.0]));
        assert!(CgFrameView::parse(&no_meta.encode()).is_err());
    }

    #[test]
    fn rdf_of_missing_species_is_zero() {
        let m = relaxed();
        let rdf = compute_rdf(&m, 99, 10, 5.0);
        assert_eq!(rdf, vec![0.0; 10]);
    }
}
