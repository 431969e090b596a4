//! High-dimensional points.

use crate::id::PayloadId;

/// An identified point in the encoding space.
#[derive(Debug, Clone, PartialEq)]
pub struct HdPoint {
    /// Application-level identifier (patch id, frame id, …). A
    /// [`PayloadId`]: the campaign's names are held inline, so a point
    /// carries its id from the driver's mint to promotion without a heap
    /// string.
    pub id: PayloadId,
    /// Coordinates in the encoding space (9-D for patches, 3-D for frames).
    pub coords: Vec<f64>,
}

impl HdPoint {
    /// Builds a point.
    pub fn new(id: impl Into<PayloadId>, coords: Vec<f64>) -> HdPoint {
        HdPoint {
            id: id.into(),
            coords,
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Squared L2 distance to another point.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch (debug builds).
    pub fn dist_sq(&self, other: &[f64]) -> f64 {
        debug_assert_eq!(self.coords.len(), other.len());
        self.coords
            .iter()
            .zip(other)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum()
    }

    /// L2 distance to another point.
    pub fn dist(&self, other: &[f64]) -> f64 {
        self.dist_sq(other).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let p = HdPoint::new("a", vec![0.0, 3.0]);
        assert_eq!(p.dist_sq(&[4.0, 0.0]), 25.0);
        assert_eq!(p.dist(&[4.0, 0.0]), 5.0);
        assert_eq!(p.dist(&[0.0, 3.0]), 0.0);
        assert_eq!(p.dim(), 2);
    }
}
