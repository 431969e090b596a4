//! Periodic 2-D scalar fields with finite-difference operators.

/// A periodic (torus) 2-D field of `f64`, row-major, square cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2 {
    nx: usize,
    ny: usize,
    /// Physical cell size (nm per cell).
    h: f64,
    data: Vec<f64>,
}

impl Grid2 {
    /// A zero field of `nx × ny` cells with spacing `h`.
    ///
    /// # Panics
    /// Panics on empty dimensions or non-positive spacing.
    pub fn zeros(nx: usize, ny: usize, h: f64) -> Grid2 {
        assert!(nx > 0 && ny > 0, "grid must be non-empty");
        assert!(h > 0.0, "cell size must be positive");
        Grid2 {
            nx,
            ny,
            h,
            data: vec![0.0; nx * ny],
        }
    }

    /// A constant field.
    pub fn constant(nx: usize, ny: usize, h: f64, value: f64) -> Grid2 {
        let mut g = Grid2::zeros(nx, ny, h);
        g.data.fill(value);
        g
    }

    /// Grid width in cells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Cell size.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Physical domain side lengths (nm).
    pub fn extent(&self) -> (f64, f64) {
        (self.nx as f64 * self.h, self.ny as f64 * self.h)
    }

    /// Flat data view.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable data view.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Periodic index wrap.
    #[inline]
    fn wrap(v: isize, n: usize) -> usize {
        v.rem_euclid(n as isize) as usize
    }

    /// Periodic element access.
    #[inline]
    pub fn at(&self, x: isize, y: isize) -> f64 {
        let xi = Self::wrap(x, self.nx);
        let yi = Self::wrap(y, self.ny);
        self.data[yi * self.nx + xi]
    }

    /// Periodic mutable element access.
    #[inline]
    pub fn at_mut(&mut self, x: isize, y: isize) -> &mut f64 {
        let xi = Self::wrap(x, self.nx);
        let yi = Self::wrap(y, self.ny);
        &mut self.data[yi * self.nx + xi]
    }

    /// Bilinear interpolation at physical position `(px, py)` (nm),
    /// periodic.
    pub fn sample(&self, px: f64, py: f64) -> f64 {
        let fx = px / self.h;
        let fy = py / self.h;
        let x0 = fx.floor();
        let y0 = fy.floor();
        let tx = fx - x0;
        let ty = fy - y0;
        let (x0, y0) = (x0 as isize, y0 as isize);
        let v00 = self.at(x0, y0);
        let v10 = self.at(x0 + 1, y0);
        let v01 = self.at(x0, y0 + 1);
        let v11 = self.at(x0 + 1, y0 + 1);
        v00 * (1.0 - tx) * (1.0 - ty)
            + v10 * tx * (1.0 - ty)
            + v01 * (1.0 - tx) * ty
            + v11 * tx * ty
    }

    /// Central-difference gradient at physical position (nm), periodic.
    pub fn gradient_at(&self, px: f64, py: f64) -> (f64, f64) {
        let d = self.h;
        let gx = (self.sample(px + d, py) - self.sample(px - d, py)) / (2.0 * d);
        let gy = (self.sample(px, py + d) - self.sample(px, py - d)) / (2.0 * d);
        (gx, gy)
    }

    /// Total integral of the field (sum × cell area) — conserved mass.
    pub fn integral(&self) -> f64 {
        self.data.iter().sum::<f64>() * self.h * self.h
    }

    /// Mean value.
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }

    /// Minimum value.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Adds a Gaussian bump of amplitude `amp` and width `sigma` (nm) at a
    /// physical position, periodic.
    pub fn add_gaussian(&mut self, cx: f64, cy: f64, sigma: f64, amp: f64) {
        let (lx, ly) = self.extent();
        let reach = (3.0 * sigma / self.h).ceil() as isize;
        let cxi = (cx / self.h).round() as isize;
        let cyi = (cy / self.h).round() as isize;
        for dy in -reach..=reach {
            for dx in -reach..=reach {
                let x = cxi + dx;
                let y = cyi + dy;
                let px = x as f64 * self.h;
                let py = y as f64 * self.h;
                let ddx = periodic_delta(px - cx, lx);
                let ddy = periodic_delta(py - cy, ly);
                let r2 = ddx * ddx + ddy * ddy;
                *self.at_mut(x, y) += amp * (-r2 / (2.0 * sigma * sigma)).exp();
            }
        }
    }
}

/// Shortest signed displacement on a periodic axis of length `l`.
pub fn periodic_delta(d: f64, l: f64) -> f64 {
    let mut d = d % l;
    if d > l / 2.0 {
        d -= l;
    } else if d < -l / 2.0 {
        d += l;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_and_access() {
        let mut g = Grid2::zeros(4, 4, 1.0);
        *g.at_mut(0, 0) = 7.0;
        assert_eq!(g.at(4, 4), 7.0);
        assert_eq!(g.at(-4, -4), 7.0);
        assert_eq!(g.at(8, 0), 7.0);
    }

    #[test]
    fn sample_interpolates_bilinearly() {
        let mut g = Grid2::zeros(4, 4, 1.0);
        *g.at_mut(0, 0) = 1.0;
        *g.at_mut(1, 0) = 3.0;
        assert!((g.sample(0.5, 0.0) - 2.0).abs() < 1e-12);
        assert!((g.sample(0.0, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_points_uphill() {
        let mut g = Grid2::zeros(32, 32, 1.0);
        g.add_gaussian(16.0, 16.0, 3.0, 1.0);
        let (gx, gy) = g.gradient_at(12.0, 16.0);
        assert!(gx > 0.0, "gradient x should point toward the bump");
        assert!(gy.abs() < 1e-6);
    }

    #[test]
    fn gaussian_wraps_periodically() {
        let mut g = Grid2::zeros(16, 16, 1.0);
        g.add_gaussian(0.5, 0.5, 2.0, 1.0);
        // The bump must be visible across the periodic boundary.
        assert!(g.at(15, 15) > 1e-3);
    }

    #[test]
    fn integral_tracks_mass() {
        let mut g = Grid2::constant(10, 10, 2.0, 1.0);
        assert!((g.integral() - 400.0).abs() < 1e-9);
        g.add_gaussian(10.0, 10.0, 2.0, 0.5);
        assert!(g.integral() > 400.0);
    }

    #[test]
    fn periodic_delta_shortest_path() {
        assert_eq!(periodic_delta(1.0, 10.0), 1.0);
        assert_eq!(periodic_delta(9.0, 10.0), -1.0);
        assert_eq!(periodic_delta(-9.0, 10.0), 1.0);
        assert_eq!(periodic_delta(5.0, 10.0), 5.0);
    }
}
