//! Fully-connected linear layer with manual backprop.

use rand::Rng;
use spikefolio_tensor::init::Init;
use spikefolio_tensor::{vector, Matrix};

/// A dense layer `y = W·x + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weight matrix, `out × in`.
    pub weights: Matrix,
    /// Bias vector.
    pub bias: Vec<f64>,
}

/// Gradients of a [`Linear`] layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearGradients {
    /// `∂L/∂W`.
    pub d_weights: Matrix,
    /// `∂L/∂b`.
    pub d_bias: Vec<f64>,
}

impl LinearGradients {
    /// The empty sum of `layer`'s per-sample gradients: `+0.0` weights and
    /// `−0.0` biases (see [`Mlp::empty_gradients`](crate::Mlp::empty_gradients)
    /// for why).
    pub(crate) fn empty(layer: &Linear) -> Self {
        Self {
            d_weights: Matrix::zeros(layer.out_dim(), layer.in_dim()),
            d_bias: vec![-0.0; layer.out_dim()],
        }
    }

    /// Adds one sample's gradients in place: `∂W += dy·xᵀ`, `∂b += dy`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub(crate) fn fold(&mut self, x: &[f64], dy: &[f64]) {
        assert_eq!(dy.len(), self.d_bias.len(), "dy length mismatch");
        self.d_weights.add_outer(1.0, dy, x);
        vector::axpy(&mut self.d_bias, 1.0, dy);
    }
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "layer dims must be positive");
        Self { weights: Init::XavierUniform.matrix(out_dim, in_dim, rng), bias: vec![0.0; out_dim] }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.out_dim()];
        self.forward_into(x, &mut y);
        y
    }

    /// Forward pass into a caller-owned buffer, which is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()` or `y.len() != out_dim()`.
    pub(crate) fn forward_into(&self, x: &[f64], y: &mut [f64]) {
        self.weights.matvec_into(x, y);
        vector::axpy(y, 1.0, &self.bias);
    }

    /// Backward pass: given the input `x` that produced the forward output
    /// and the upstream gradient `dy`, returns `(gradients, dx)`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn backward(&self, x: &[f64], dy: &[f64]) -> (LinearGradients, Vec<f64>) {
        let mut grads = LinearGradients::empty(self);
        grads.fold(x, dy);
        let dx = self.weights.matvec_transposed(dy);
        (grads, dx)
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(4)
    }

    #[test]
    fn forward_matches_manual() {
        let mut l = Linear::new(2, 2, &mut rng());
        l.weights = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        l.bias = vec![0.5, -0.5];
        assert_eq!(l.forward(&[1.0, 1.0]), vec![3.5, 6.5]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let l = Linear::new(3, 2, &mut rng());
        let x = [0.3, -0.7, 1.2];
        let c = [1.0, -2.0]; // loss = c · y
        let (grads, dx) = l.backward(&x, &c);
        let eps = 1e-6;
        // Weight gradients.
        for r in 0..2 {
            for cidx in 0..3 {
                let mut lp = l.clone();
                lp.weights[(r, cidx)] += eps;
                let mut lm = l.clone();
                lm.weights[(r, cidx)] -= eps;
                let f = |ll: &Linear| -> f64 {
                    ll.forward(&x).iter().zip(&c).map(|(a, b)| a * b).sum()
                };
                let num = (f(&lp) - f(&lm)) / (2.0 * eps);
                assert!((grads.d_weights[(r, cidx)] - num).abs() < 1e-6);
            }
        }
        // Input gradients.
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let f = |xx: &[f64]| -> f64 { l.forward(xx).iter().zip(&c).map(|(a, b)| a * b).sum() };
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!((dx[i] - num).abs() < 1e-6);
        }
        // Bias gradient equals upstream gradient.
        assert_eq!(grads.d_bias, c.to_vec());
    }

    fn bits(g: &LinearGradients) -> Vec<u64> {
        g.d_weights.as_slice().iter().chain(&g.d_bias).map(|v| v.to_bits()).collect()
    }

    /// The sum the minibatch loop formed before the in-place fold: the
    /// first sample's gradients, then each later one added whole.
    fn add_whole(acc: &mut LinearGradients, g: &LinearGradients) {
        acc.d_weights.add_scaled(1.0, &g.d_weights);
        vector::axpy(&mut acc.d_bias, 1.0, &g.d_bias);
    }

    #[test]
    fn in_place_fold_matches_summing_whole_gradients_bitwise() {
        let l = Linear::new(3, 4, &mut rng());
        // A −0.0 input, an all-zero upstream gradient, and upstream
        // entries that are −0.0 in every sample (the bias sum must stay
        // −0.0, as the first sample's copy left it).
        let samples: [([f64; 3], [f64; 4]); 4] = [
            ([0.3, -0.0, 1.2], [1.0, -0.0, 0.5, -2.0]),
            ([0.0, 0.0, 0.0], [0.0, -0.0, 0.0, 0.0]),
            ([-1.5, 0.25, -0.0], [-0.5, -0.0, 0.0, 3.0]),
            ([2.0, -0.75, 0.5], [0.0, -0.0, -1.0, 0.0]),
        ];
        let mut whole = l.backward(&samples[0].0, &samples[0].1).0;
        let mut folded = LinearGradients::empty(&l);
        folded.fold(&samples[0].0, &samples[0].1);
        assert_eq!(bits(&folded), bits(&whole), "first sample");
        for (x, dy) in &samples[1..] {
            add_whole(&mut whole, &l.backward(x, dy).0);
            folded.fold(x, dy);
        }
        assert_eq!(bits(&folded), bits(&whole));
        assert_eq!(folded.d_bias[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn param_count() {
        let l = Linear::new(5, 3, &mut rng());
        assert_eq!(l.num_params(), 18);
    }
}
