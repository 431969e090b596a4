//! Secondary-structure assignment and the AA→CG feedback payload.
//!
//! "The secondary structures of the proteins are calculated from AA frames
//! and analyzed to determine the most common pattern of protein secondary
//! structure observed in the AA simulations. The force field parameters of
//! the CG protein model depend on the secondary structure" (§4.1(7)).
//!
//! Assignment uses the pseudo-dihedral of four consecutive backbone atoms,
//! the standard coarse proxy for DSSP: α-helices wind with dihedrals near
//! +50°, β-strands are nearly planar-extended (|dihedral| near 180°), and
//! everything else is coil.

use datastore::codec::{Array, Records};

/// Per-residue secondary-structure class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SsClass {
    /// α-helix.
    Helix,
    /// β-sheet / extended strand.
    Sheet,
    /// Random coil (also assigned to chain ends).
    Coil,
}

impl SsClass {
    /// Stable code for serialization.
    pub fn code(self) -> usize {
        match self {
            SsClass::Helix => 0,
            SsClass::Sheet => 1,
            SsClass::Coil => 2,
        }
    }

    /// Decodes a serialized class.
    fn from_code(c: usize) -> SsClass {
        match c {
            0 => SsClass::Helix,
            1 => SsClass::Sheet,
            _ => SsClass::Coil,
        }
    }

    /// One-letter DSSP-style label.
    fn letter(self) -> char {
        match self {
            SsClass::Helix => 'H',
            SsClass::Sheet => 'E',
            SsClass::Coil => 'C',
        }
    }
}

/// Signed dihedral angle (degrees) of four points.
fn dihedral(p0: [f64; 3], p1: [f64; 3], p2: [f64; 3], p3: [f64; 3]) -> f64 {
    let sub = |a: [f64; 3], b: [f64; 3]| [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
    let cross = |a: [f64; 3], b: [f64; 3]| {
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    };
    let dot = |a: [f64; 3], b: [f64; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
    let norm = |a: [f64; 3]| dot(a, a).sqrt();

    let b1 = sub(p0, p1);
    let b2 = sub(p1, p2);
    let b3 = sub(p2, p3);
    let n1 = cross(b1, b2);
    let n2 = cross(b2, b3);
    let m1 = cross(n1, [b2[0] / norm(b2), b2[1] / norm(b2), b2[2] / norm(b2)]);
    let x = dot(n1, n2);
    let y = dot(m1, n2);
    y.atan2(x).to_degrees()
}

/// Assigns a class to every residue from backbone positions. Chain ends
/// (fewer than four atoms around a residue) are coil.
pub fn assign_ss(backbone: &[[f64; 3]]) -> Vec<SsClass> {
    let n = backbone.len();
    let mut out = vec![SsClass::Coil; n];
    if n < 4 {
        return out;
    }
    for i in 1..n - 2 {
        let d = dihedral(
            backbone[i - 1],
            backbone[i],
            backbone[i + 1],
            backbone[i + 2],
        );
        out[i] = classify(d);
    }
    out
}

fn classify(dihedral_deg: f64) -> SsClass {
    // Helical winding puts the pseudo-dihedral near ±50° (sign depends on
    // handedness); extended strands are near-planar at ±180°.
    let a = dihedral_deg.abs();
    if (20.0..=80.0).contains(&a) {
        SsClass::Helix
    } else if a >= 150.0 {
        SsClass::Sheet
    } else {
        SsClass::Coil
    }
}

/// Per-residue majority vote across many frames — "the most common pattern
/// of protein secondary structure observed in the AA simulations".
/// Ties resolve Helix > Sheet > Coil (the CG model prefers the more
/// structured assignment). Returns an empty vector for no input.
pub fn consensus(frames: &[Vec<SsClass>]) -> Vec<SsClass> {
    let Some(first) = frames.first() else {
        return Vec::new();
    };
    let n = first.len();
    let mut out = Vec::with_capacity(n);
    for r in 0..n {
        let mut counts = [0usize; 3];
        for f in frames {
            if let Some(c) = f.get(r) {
                counts[c.code()] += 1;
            }
        }
        let best = (0..3)
            .max_by_key(|&c| (counts[c], std::cmp::Reverse(c)))
            .expect("three classes");
        out.push(SsClass::from_code(best));
    }
    out
}

/// A compact AA frame record: what the AA analysis ships to the feedback.
#[derive(Debug, Clone, PartialEq)]
pub struct AaFrame {
    /// Frame id: `<sim>:f<index>`.
    pub id: String,
    /// Simulation time of the frame (ns).
    pub time: f64,
    /// Per-residue secondary structure.
    pub ss: Vec<SsClass>,
}

impl AaFrame {
    /// Serializes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut rec = Records::new();
        rec.insert("time", Array::from_vec(vec![self.time]));
        rec.insert(
            "ss",
            Array::from_vec(self.ss.iter().map(|c| c.code() as f64).collect()),
        );
        rec.encode().to_vec()
    }

    /// Decodes a frame (the id comes from the namespace key).
    pub fn decode(id: &str, bytes: &[u8]) -> datastore::Result<AaFrame> {
        let rec = Records::decode(bytes)?;
        let need = |n: &str| {
            rec.get(n)
                .ok_or_else(|| datastore::DataError::Codec(format!("missing {n}")))
        };
        Ok(AaFrame {
            id: id.to_string(),
            time: need("time")?.data()[0],
            ss: need("ss")?
                .data()
                .iter()
                .map(|&c| SsClass::from_code(c as usize))
                .collect(),
        })
    }

    /// The DSSP-style pattern string, e.g. `"CHHHHC"`.
    pub fn pattern(&self) -> String {
        self.ss.iter().map(|c| c.letter()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generates an ideal α-helix backbone:
    /// rise 1.5 Å → 0.15 nm per residue, 100° per turn, radius 0.23 nm.
    fn ideal_helix(n: usize, origin: [f64; 3]) -> Vec<[f64; 3]> {
        (0..n)
            .map(|i| {
                let theta = (i as f64) * 100.0f64.to_radians();
                [
                    origin[0] + 0.23 * theta.cos(),
                    origin[1] + 0.23 * theta.sin(),
                    origin[2] + 0.15 * i as f64,
                ]
            })
            .collect()
    }

    /// Generates an extended (β-strand-like) backbone.
    fn ideal_strand(n: usize, origin: [f64; 3]) -> Vec<[f64; 3]> {
        (0..n)
            .map(|i| {
                [
                    origin[0] + 0.35 * i as f64,
                    origin[1] + if i % 2 == 0 { 0.05 } else { -0.05 },
                    origin[2],
                ]
            })
            .collect()
    }

    #[test]
    fn helix_is_classified_as_helix() {
        let bb = ideal_helix(12, [5.0, 5.0, 2.0]);
        let ss = assign_ss(&bb);
        let helical = ss.iter().filter(|&&c| c == SsClass::Helix).count();
        assert!(helical >= 8, "expected mostly helix, got {ss:?}");
        // Ends are coil by construction.
        assert_eq!(ss[0], SsClass::Coil);
        assert_eq!(*ss.last().unwrap(), SsClass::Coil);
    }

    #[test]
    fn strand_is_classified_as_sheet() {
        let bb = ideal_strand(12, [1.0, 5.0, 5.0]);
        let ss = assign_ss(&bb);
        let sheet = ss.iter().filter(|&&c| c == SsClass::Sheet).count();
        assert!(sheet >= 8, "expected mostly sheet, got {ss:?}");
    }

    #[test]
    fn short_chains_are_all_coil() {
        assert_eq!(assign_ss(&ideal_helix(3, [0.0; 3])), vec![SsClass::Coil; 3]);
        assert!(assign_ss(&[]).is_empty());
    }

    #[test]
    fn consensus_takes_majority_per_residue() {
        use SsClass::*;
        let frames = vec![
            vec![Helix, Coil, Sheet],
            vec![Helix, Sheet, Sheet],
            vec![Coil, Sheet, Coil],
        ];
        assert_eq!(consensus(&frames), vec![Helix, Sheet, Sheet]);
        assert!(consensus(&[]).is_empty());
    }

    #[test]
    fn consensus_tiebreak_prefers_structure() {
        use SsClass::*;
        let frames = vec![vec![Helix], vec![Coil]];
        assert_eq!(consensus(&frames), vec![Helix]);
        let frames = vec![vec![Sheet], vec![Coil]];
        assert_eq!(consensus(&frames), vec![Sheet]);
    }

    #[test]
    fn frame_roundtrip_and_pattern() {
        use SsClass::*;
        let f = AaFrame {
            id: "aa-1:f3".into(),
            time: 2.5,
            ss: vec![Coil, Helix, Helix, Sheet],
        };
        assert_eq!(f.pattern(), "CHHE");
        let back = AaFrame::decode(&f.id, &f.encode()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn dihedral_signs_and_extremes() {
        // Planar zig-zag gives ±180°, right-handed twist gives positive.
        let d = dihedral(
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0],
        );
        assert!((d.abs() - 180.0).abs() < 1e-6, "planar trans: {d}");
        let d = dihedral(
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 1.0],
        );
        assert!((d.abs() - 90.0).abs() < 1e-6, "perpendicular: {d}");
    }
}
