//! Principal component analysis via power iteration with deflation.
//!
//! §4.4 Task 2 notes that encoded representations "may be computed using a
//! ML inference engine … , a simpler dimensionality reduction (e.g.,
//! principal component analysis), or any configurational representation."
//! This is that simpler encoder.

// Numeric kernels below index several arrays along a shared axis;
// indexed loops are clearer than zipped iterators there.
#![allow(clippy::needless_range_loop)]

use crate::matrix::Matrix;

/// A fitted PCA model: mean vector plus the leading principal axes.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// Components, one row per principal axis (unit vectors).
    components: Matrix,
    /// Variance explained by each component, descending.
    explained: Vec<f64>,
}

impl Pca {
    /// Fits `k` components to `samples` (rows = observations).
    ///
    /// # Panics
    /// Panics when there are no samples or `k` exceeds the dimensionality.
    pub fn fit(samples: &Matrix, k: usize) -> Pca {
        let n = samples.rows();
        let d = samples.cols();
        assert!(n > 0, "pca needs samples");
        assert!(k >= 1 && k <= d, "k must be in 1..=dim");

        let mut mean = vec![0.0; d];
        for r in 0..n {
            for (m, &v) in mean.iter_mut().zip(samples.row(r)) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }

        // Covariance matrix (d × d).
        let mut cov = Matrix::zeros(d, d);
        for r in 0..n {
            let row = samples.row(r);
            for i in 0..d {
                let xi = row[i] - mean[i];
                for j in i..d {
                    let xj = row[j] - mean[j];
                    *cov.at_mut(i, j) += xi * xj;
                }
            }
        }
        for i in 0..d {
            for j in i..d {
                let v = cov.at(i, j) / n as f64;
                *cov.at_mut(i, j) = v;
                *cov.at_mut(j, i) = v;
            }
        }

        let mut components = Matrix::zeros(k, d);
        let mut explained = Vec::with_capacity(k);
        let mut work = cov;
        let mut prior: Vec<Vec<f64>> = Vec::with_capacity(k);
        for comp in 0..k {
            let (vec_, val) = power_iteration(&work, 500, 1e-12, &prior);
            explained.push(val.max(0.0));
            components.data_mut()[comp * d..(comp + 1) * d].copy_from_slice(&vec_);
            // Deflate: work -= val * v v^T
            for i in 0..d {
                for j in 0..d {
                    *work.at_mut(i, j) -= val * vec_[i] * vec_[j];
                }
            }
            prior.push(vec_);
        }
        Pca {
            mean,
            components,
            explained,
        }
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.components.rows()
    }

    /// Variance explained per component, descending.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained
    }

    /// Projects one observation onto the principal axes.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        (0..self.k())
            .map(|c| {
                self.components
                    .row(c)
                    .iter()
                    .zip(x.iter().zip(&self.mean))
                    .map(|(&w, (&v, &m))| w * (v - m))
                    .sum()
            })
            .collect()
    }
}

/// Leading eigenpair of a symmetric matrix by power iteration, kept
/// orthogonal to `prior` components (robust when eigenvalues are nearly
/// degenerate, where deflation alone drifts).
fn power_iteration(a: &Matrix, max_iters: usize, tol: f64, prior: &[Vec<f64>]) -> (Vec<f64>, f64) {
    let d = a.rows();
    // Deterministic, non-degenerate start vector.
    let mut v: Vec<f64> = (0..d).map(|i| 1.0 + (i as f64) * 1e-3).collect();
    orthogonalize(&mut v, prior);
    normalize(&mut v);
    let mut lambda = 0.0;
    for _ in 0..max_iters {
        let mut w = vec![0.0; d];
        for i in 0..d {
            let row = a.row(i);
            w[i] = row.iter().zip(&v).map(|(&x, &y)| x * y).sum();
        }
        let new_lambda: f64 = w.iter().zip(&v).map(|(&x, &y)| x * y).sum();
        orthogonalize(&mut w, prior);
        let norm = normalize(&mut w);
        if norm < 1e-300 {
            // Matrix annihilated the vector: zero eigenvalue.
            return (v, 0.0);
        }
        let done = (new_lambda - lambda).abs() <= tol * new_lambda.abs().max(1.0);
        v = w;
        lambda = new_lambda;
        if done {
            break;
        }
    }
    (v, lambda)
}

/// Gram-Schmidt: removes the projections of `v` onto each of `basis`.
fn orthogonalize(v: &mut [f64], basis: &[Vec<f64>]) {
    for b in basis {
        let dot: f64 = v.iter().zip(b).map(|(&x, &y)| x * y).sum();
        for (x, &y) in v.iter_mut().zip(b) {
            *x -= dot * y;
        }
    }
}

fn normalize(v: &mut [f64]) -> f64 {
    let n = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic data stretched along a known axis.
    fn stretched_data(n: usize, axis: [f64; 3], spread: f64, noise: f64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(42);
        let mut data = Vec::with_capacity(n * 3);
        for _ in 0..n {
            let t: f64 = rng.gen_range(-spread..spread);
            for a in axis {
                data.push(t * a + rng.gen_range(-noise..noise));
            }
        }
        Matrix::from_vec(n, 3, data)
    }

    #[test]
    fn recovers_dominant_axis() {
        let inv3 = 1.0 / (3.0f64).sqrt();
        let data = stretched_data(500, [inv3, inv3, inv3], 10.0, 0.1);
        let pca = Pca::fit(&data, 1);
        let c = pca.components.row(0);
        let dot: f64 = c.iter().map(|&v| v * inv3).sum();
        assert!(dot.abs() > 0.999, "axis alignment was {dot}");
        assert!(pca.explained_variance()[0] > 10.0);
    }

    #[test]
    fn components_are_orthonormal() {
        let mut rng = StdRng::seed_from_u64(9);
        let data = Matrix::from_vec(200, 4, (0..800).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let pca = Pca::fit(&data, 3);
        for i in 0..3 {
            for j in 0..3 {
                let dot: f64 = pca
                    .components
                    .row(i)
                    .iter()
                    .zip(pca.components.row(j))
                    .map(|(&a, &b)| a * b)
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-6, "({i},{j}) dot {dot}");
            }
        }
    }

    #[test]
    fn explained_variance_is_descending() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut data = Vec::new();
        for _ in 0..300 {
            data.push(rng.gen_range(-10.0..10.0));
            data.push(rng.gen_range(-3.0..3.0));
            data.push(rng.gen_range(-0.5..0.5));
        }
        let pca = Pca::fit(&Matrix::from_vec(300, 3, data), 3);
        let ev = pca.explained_variance();
        assert!(ev[0] >= ev[1] && ev[1] >= ev[2], "not descending: {ev:?}");
        assert!(ev[0] > 10.0 * ev[2]);
    }

    #[test]
    fn transform_centers_data() {
        let data = Matrix::from_vec(4, 2, vec![10.0, 0.0, 12.0, 0.0, 14.0, 0.0, 16.0, 0.0]);
        let pca = Pca::fit(&data, 1);
        // The mean point must project to the origin.
        let z = pca.transform(&[13.0, 0.0]);
        assert!(z[0].abs() < 1e-9);
        let sum: f64 = (0..4).map(|r| pca.transform(data.row(r))[0]).sum();
        assert!(sum.abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn excessive_k_panics() {
        let data = Matrix::zeros(5, 2);
        let _ = Pca::fit(&data, 3);
    }
}
