//! Dense layers, activations, backpropagation, and Adam.

// Numeric kernels below index several arrays along a shared axis;
// indexed loops are clearer than zipped iterators there.
#![allow(clippy::needless_range_loop)]

use rand::Rng;

use crate::matrix::Matrix;

/// Element-wise nonlinearity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// tanh(x)
    Tanh,
    /// x
    Identity,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the activation *output* `y`.
    fn deriv_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }
}

/// A fully-connected layer `y = act(x W + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights, shape (in, out).
    pub w: Matrix,
    /// Bias, length out.
    pub b: Vec<f64>,
    /// Nonlinearity.
    pub act: Activation,
}

impl Dense {
    /// Xavier-initialized layer.
    pub fn new(inputs: usize, outputs: usize, act: Activation, rng: &mut impl Rng) -> Dense {
        Dense {
            w: Matrix::xavier(inputs, outputs, rng),
            b: vec![0.0; outputs],
            act,
        }
    }

    /// Forward pass for a batch (rows = samples).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_bias(&self.b);
        z.map(|v| self.act.apply(v))
    }
}

/// Per-layer gradient.
#[derive(Debug, Clone)]
pub struct LayerGrad {
    dw: Matrix,
    db: Vec<f64>,
}

/// A multilayer perceptron.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes and a shared hidden
    /// activation; the output layer is linear.
    ///
    /// # Panics
    /// Panics when fewer than two sizes are given.
    pub fn new(sizes: &[usize], hidden: Activation, rng: &mut impl Rng) -> Mlp {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let act = if i + 2 == sizes.len() {
                Activation::Identity
            } else {
                hidden
            };
            layers.push(Dense::new(sizes[i], sizes[i + 1], act, rng));
        }
        Mlp { layers }
    }

    /// Builds an MLP from pre-constructed layers.
    ///
    /// # Panics
    /// Panics when `layers` is empty or consecutive shapes do not chain.
    pub fn from_layers(layers: Vec<Dense>) -> Mlp {
        assert!(!layers.is_empty(), "need at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].w.cols(),
                pair[1].w.rows(),
                "layer shapes do not chain"
            );
        }
        Mlp { layers }
    }

    /// The layers (read-only).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].w.rows()
    }

    /// Batch forward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut a = x.clone();
        for layer in &self.layers {
            a = layer.forward(&a);
        }
        a
    }

    /// Forward pass keeping every layer's output (for backprop).
    fn forward_trace(&self, x: &Matrix) -> Vec<Matrix> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for layer in &self.layers {
            let next = layer.forward(acts.last().expect("non-empty"));
            acts.push(next);
        }
        acts
    }

    /// Computes MSE loss and gradients for a batch: loss = mean((y - t)^2).
    pub fn mse_gradients(&self, x: &Matrix, target: &Matrix) -> (f64, Vec<LayerGrad>) {
        let acts = self.forward_trace(x);
        let y = acts.last().expect("forward output");
        let diff = y.sub(target);
        let loss = diff.mean_sq();
        let n = (y.rows() * y.cols()) as f64;

        // dL/dy for MSE = 2 (y - t) / N
        let mut delta = diff.map(|v| 2.0 * v / n);
        let mut grads: Vec<LayerGrad> = Vec::with_capacity(self.layers.len());
        for (li, layer) in self.layers.iter().enumerate().rev() {
            // delta currently holds dL/d(output of layer li) — fold in the
            // activation derivative to get dL/dz.
            let out = &acts[li + 1];
            let dz = delta.hadamard(&out.map(|v| layer.act.deriv_from_output(v)));
            let input = &acts[li];
            let dw = input.transpose().matmul(&dz);
            let db = dz.col_sums();
            grads.push(LayerGrad { dw, db });
            if li > 0 {
                delta = dz.matmul(&layer.w.transpose());
            }
        }
        grads.reverse();
        (loss, grads)
    }
}

/// Adam optimizer state for an [`Mlp`].
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<(Vec<f64>, Vec<f64>)>,
    v: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Adam {
    /// Standard Adam with the usual defaults.
    pub fn new(net: &Mlp, lr: f64) -> Adam {
        let shapes: Vec<(usize, usize)> = net
            .layers()
            .iter()
            .map(|l| (l.w.data().len(), l.b.len()))
            .collect();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: shapes
                .iter()
                .map(|&(w, b)| (vec![0.0; w], vec![0.0; b]))
                .collect(),
            v: shapes
                .iter()
                .map(|&(w, b)| (vec![0.0; w], vec![0.0; b]))
                .collect(),
        }
    }

    /// Applies one Adam update.
    pub fn step(&mut self, net: &mut Mlp, grads: &[LayerGrad]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (li, g) in grads.iter().enumerate() {
            let layer = &mut net.layers[li];
            let (mw, mb) = &mut self.m[li];
            let (vw, vb) = &mut self.v[li];
            for (i, (&d, w)) in g.dw.data().iter().zip(layer.w.data_mut()).enumerate() {
                mw[i] = self.beta1 * mw[i] + (1.0 - self.beta1) * d;
                vw[i] = self.beta2 * vw[i] + (1.0 - self.beta2) * d * d;
                *w -= self.lr * (mw[i] / bc1) / ((vw[i] / bc2).sqrt() + self.eps);
            }
            for (i, (&d, b)) in g.db.iter().zip(layer.b.iter_mut()).enumerate() {
                mb[i] = self.beta1 * mb[i] + (1.0 - self.beta1) * d;
                vb[i] = self.beta2 * vb[i] + (1.0 - self.beta2) * d * d;
                *b -= self.lr * (mb[i] / bc1) / ((vb[i] / bc2).sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Applies raw SGD with learning rate `lr`: the baseline Adam beats.
    fn apply_sgd(net: &mut Mlp, grads: &[LayerGrad], lr: f64) {
        for (layer, g) in net.layers.iter_mut().zip(grads) {
            for (w, d) in layer.w.data_mut().iter_mut().zip(g.dw.data()) {
                *w -= lr * d;
            }
            for (b, d) in layer.b.iter_mut().zip(&g.db) {
                *b -= lr * d;
            }
        }
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Mlp::new(&[4, 8, 2], Activation::Relu, &mut rng);
        assert_eq!(net.input_dim(), 4);
        let x = Matrix::zeros(5, 4);
        let y = net.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 2));
    }

    /// Finite-difference check of the analytic gradients.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Mlp::new(&[3, 4, 2], Activation::Tanh, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.5, 0.4, -0.6]);
        let t = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let (_, grads) = net.mse_gradients(&x, &t);

        let eps = 1e-6;
        for li in 0..net.layers.len() {
            for wi in [0usize, 1, 2] {
                let orig = net.layers[li].w.data()[wi];
                net.layers[li].w.data_mut()[wi] = orig + eps;
                let (lp, _) = net.mse_gradients(&x, &t);
                net.layers[li].w.data_mut()[wi] = orig - eps;
                let (lm, _) = net.mse_gradients(&x, &t);
                net.layers[li].w.data_mut()[wi] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads[li].dw.data()[wi];
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "layer {li} w[{wi}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn sgd_reduces_loss_on_linear_task() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Mlp::new(&[2, 1], Activation::Relu, &mut rng);
        // Learn y = x0 + 2*x1.
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let t = Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let (l0, _) = net.mse_gradients(&x, &t);
        for _ in 0..500 {
            let (_, g) = net.mse_gradients(&x, &t);
            apply_sgd(&mut net, &g, 0.1);
        }
        let (l1, _) = net.mse_gradients(&x, &t);
        assert!(l1 < l0 * 1e-3, "loss did not drop: {l0} -> {l1}");
    }

    #[test]
    fn adam_converges_faster_than_sgd_on_scaled_task() {
        let mut rng = StdRng::seed_from_u64(11);
        let net0 = Mlp::new(&[3, 6, 1], Activation::Tanh, &mut rng);
        let x = Matrix::from_vec(
            4,
            3,
            vec![0.1, 0.0, 0.9, 0.8, 0.2, 0.1, 0.3, 0.7, 0.5, 0.9, 0.9, 0.0],
        );
        let t = Matrix::from_vec(4, 1, vec![0.2, 0.9, 0.4, 0.7]);

        let run = |mut net: Mlp, use_adam: bool| -> f64 {
            let mut adam = Adam::new(&net, 0.01);
            for _ in 0..200 {
                let (_, g) = net.mse_gradients(&x, &t);
                if use_adam {
                    adam.step(&mut net, &g);
                } else {
                    apply_sgd(&mut net, &g, 0.01);
                }
            }
            net.mse_gradients(&x, &t).0
        };
        let sgd_loss = run(net0.clone(), false);
        let adam_loss = run(net0, true);
        assert!(
            adam_loss < sgd_loss,
            "adam {adam_loss} should beat sgd {sgd_loss} at equal budget"
        );
    }

    #[test]
    fn relu_blocks_negative_gradients() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Mlp::new(&[1, 1, 1], Activation::Relu, &mut rng);
        // Force the hidden pre-activation negative for x=1.
        net.layers[0].w.data_mut()[0] = -1.0;
        net.layers[0].b[0] = 0.0;
        let x = Matrix::from_vec(1, 1, vec![1.0]);
        let t = Matrix::from_vec(1, 1, vec![5.0]);
        let (_, g) = net.mse_gradients(&x, &t);
        assert_eq!(g[0].dw.data()[0], 0.0, "dead ReLU passes no gradient");
    }
}
