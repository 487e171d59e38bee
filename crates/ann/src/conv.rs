//! 1-D valid convolution with manual backprop — the building block of the
//! EIIE policy (Jiang et al.'s actual network).

use rand::Rng;
use spikefolio_tensor::init::Init;
use spikefolio_tensor::Matrix;

/// A 1-D convolution layer over `in_channels × length` inputs with a
/// kernel of width `kernel`, producing `out_channels × (length − kernel + 1)`
/// ("valid" padding).
///
/// Weights are stored as a `out_channels × (in_channels · kernel)` matrix;
/// input/output sequences as `channels × length` matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv1d {
    /// Kernel weights, `out_channels × (in_channels · kernel)`.
    pub weights: Matrix,
    /// Per-output-channel bias.
    pub bias: Vec<f64>,
    in_channels: usize,
    kernel: usize,
}

/// Gradients of a [`Conv1d`] layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv1dGradients {
    /// `∂L/∂W`.
    pub d_weights: Matrix,
    /// `∂L/∂b`.
    pub d_bias: Vec<f64>,
}

impl Conv1dGradients {
    pub(crate) fn zeros(conv: &Conv1d) -> Self {
        Self {
            d_weights: Matrix::zeros(conv.out_channels(), conv.weights.cols()),
            d_bias: vec![0.0; conv.out_channels()],
        }
    }

    pub(crate) fn fill(&mut self, value: f64) {
        self.d_weights.as_mut_slice().fill(value);
        self.d_bias.fill(value);
    }
}

impl Conv1d {
    /// Xavier-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0, "conv dims must be positive");
        Self {
            weights: Init::XavierUniform.matrix(out_channels, in_channels * kernel, rng),
            bias: vec![0.0; out_channels],
            in_channels,
            kernel,
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weights.rows()
    }

    /// Kernel width.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Output length for an input of `length`.
    ///
    /// # Panics
    ///
    /// Panics if `length < kernel`.
    pub fn out_len(&self, length: usize) -> usize {
        assert!(length >= self.kernel, "input length {length} shorter than kernel {}", self.kernel);
        length - self.kernel + 1
    }

    /// Forward pass: `input` is `in_channels × length`, output is
    /// `out_channels × out_len(length)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn forward(&self, input: &Matrix) -> Matrix {
        assert_eq!(input.rows(), self.in_channels, "input channel mismatch");
        let mut out = Matrix::zeros(self.out_channels(), self.out_len(input.cols()));
        self.forward_into(input.as_slice(), input.cols(), out.as_mut_slice());
        out
    }

    /// Forward pass on row-major slices: `input` is `in_channels × length`,
    /// `out` (fully overwritten) is `out_channels × out_len(length)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub(crate) fn forward_into(&self, input: &[f64], length: usize, out: &mut [f64]) {
        let out_len = self.out_len(length);
        let k = self.kernel;
        assert_eq!(input.len(), self.in_channels * length, "input channel mismatch");
        assert_eq!(out.len(), self.out_channels() * out_len, "output shape mismatch");
        for (oc, orow) in out.chunks_exact_mut(out_len).enumerate() {
            let w = self.weights.row(oc);
            for (pos, o) in orow.iter_mut().enumerate() {
                let mut acc = self.bias[oc];
                for (wk, row) in w.chunks_exact(k).zip(input.chunks_exact(length)) {
                    for (a, b) in wk.iter().zip(&row[pos..pos + k]) {
                        acc += a * b;
                    }
                }
                *o = acc;
            }
        }
    }

    /// Backward pass: given the forward `input` and upstream gradient
    /// `d_out` (`out_channels × out_len`), returns `(gradients, d_input)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn backward(&self, input: &Matrix, d_out: &Matrix) -> (Conv1dGradients, Matrix) {
        assert_eq!(input.rows(), self.in_channels, "input channel mismatch");
        let out_len = self.out_len(input.cols());
        assert_eq!(d_out.shape(), (self.out_channels(), out_len), "d_out shape mismatch");
        let mut grads = Conv1dGradients::zeros(self);
        let mut d_input = Matrix::zeros(self.in_channels, input.cols());
        self.backward_into(
            input.as_slice(),
            input.cols(),
            d_out.as_slice(),
            (grads.d_weights.as_mut_slice(), &mut grads.d_bias),
            Some(d_input.as_mut_slice()),
        );
        (grads, d_input)
    }

    /// Backward pass on row-major slices that adds this evaluation's
    /// gradients into caller-owned sums: `(d_weights, d_bias)` are
    /// `out_channels × (in_channels · kernel)` and `out_channels`, and
    /// `d_input`, if wanted, is `in_channels × length`.
    ///
    /// Each element gains its terms in `(out channel, position)` order, with
    /// zero upstream entries skipped. Into zeroed sums that is exactly
    /// [`backward`](Self::backward). When `out_len` is 1, every element
    /// gains at most one term, so adding straight into a running sum equals
    /// adding a separately computed gradient to it.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub(crate) fn backward_into(
        &self,
        input: &[f64],
        length: usize,
        d_out: &[f64],
        (d_weights, d_bias): (&mut [f64], &mut [f64]),
        mut d_input: Option<&mut [f64]>,
    ) {
        let out_len = self.out_len(length);
        let k = self.kernel;
        let span = self.in_channels * k;
        assert_eq!(input.len(), self.in_channels * length, "input channel mismatch");
        assert_eq!(d_out.len(), self.out_channels() * out_len, "d_out shape mismatch");
        assert_eq!(d_weights.len(), self.weights.len(), "d_weights shape mismatch");
        assert_eq!(d_bias.len(), self.out_channels(), "d_bias shape mismatch");
        if let Some(di) = d_input.as_deref() {
            assert_eq!(di.len(), input.len(), "d_input shape mismatch");
        }
        for (oc, (dw, g_row)) in
            d_weights.chunks_exact_mut(span).zip(d_out.chunks_exact(out_len)).enumerate()
        {
            let w = self.weights.row(oc);
            for (pos, &g) in g_row.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                d_bias[oc] += g;
                for (ic, dwk) in dw.chunks_exact_mut(k).enumerate() {
                    let at = ic * length + pos;
                    for (d, &x) in dwk.iter_mut().zip(&input[at..at + k]) {
                        *d += g * x;
                    }
                    if let Some(di) = d_input.as_deref_mut() {
                        for (d, &wv) in di[at..at + k].iter_mut().zip(&w[ic * k..(ic + 1) * k]) {
                            *d += g * wv;
                        }
                    }
                }
            }
        }
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
        rand::rngs::StdRng::seed_from_u64(6)
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut c = Conv1d::new(1, 1, 1, &mut rng());
        c.weights = Matrix::from_rows(&[&[1.0]]);
        c.bias = vec![0.0];
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        assert_eq!(c.forward(&x), x);
    }

    #[test]
    fn known_convolution() {
        // Moving sum with kernel [1, 1] over [1, 2, 3, 4] → [3, 5, 7].
        let mut c = Conv1d::new(1, 1, 2, &mut rng());
        c.weights = Matrix::from_rows(&[&[1.0, 1.0]]);
        c.bias = vec![0.0];
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        assert_eq!(c.forward(&x), Matrix::from_rows(&[&[3.0, 5.0, 7.0]]));
    }

    #[test]
    fn multi_channel_shapes() {
        let c = Conv1d::new(3, 5, 4, &mut rng());
        let x = Matrix::zeros(3, 10);
        let y = c.forward(&x);
        assert_eq!(y.shape(), (5, 7));
        assert_eq!(c.num_params(), 5 * 12 + 5);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let c = Conv1d::new(2, 3, 3, &mut rng());
        let x = Matrix::from_fn(2, 6, |r, cc| 0.3 * (r as f64 + 1.0) * ((cc as f64) - 2.5));
        // Loss = Σ coeff ⊙ y.
        let coeff = Matrix::from_fn(3, 4, |r, cc| ((r * 4 + cc) as f64 * 0.17).sin());
        let y = c.forward(&x);
        let (grads, dx) = c.backward(&x, &coeff);
        let loss = |cc: &Conv1d, xx: &Matrix| -> f64 {
            cc.forward(xx).as_slice().iter().zip(coeff.as_slice()).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-6;
        // Weight gradients.
        for i in 0..c.weights.len() {
            let mut cp = c.clone();
            cp.weights.as_mut_slice()[i] += eps;
            let mut cm = c.clone();
            cm.weights.as_mut_slice()[i] -= eps;
            let num = (loss(&cp, &x) - loss(&cm, &x)) / (2.0 * eps);
            assert!((grads.d_weights.as_slice()[i] - num).abs() < 1e-6, "weight {i}");
        }
        // Bias gradients.
        for i in 0..3 {
            let mut cp = c.clone();
            cp.bias[i] += eps;
            let mut cm = c.clone();
            cm.bias[i] -= eps;
            let num = (loss(&cp, &x) - loss(&cm, &x)) / (2.0 * eps);
            assert!((grads.d_bias[i] - num).abs() < 1e-6, "bias {i}");
        }
        // Input gradients.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&c, &xp) - loss(&c, &xm)) / (2.0 * eps);
            assert!((dx.as_slice()[i] - num).abs() < 1e-6, "input {i}");
        }
        let _ = y;
    }

    #[test]
    #[should_panic(expected = "shorter than kernel")]
    fn too_short_input_panics() {
        let c = Conv1d::new(1, 1, 5, &mut rng());
        let _ = c.forward(&Matrix::zeros(1, 3));
    }
}
