//! Multi-layer perceptron with a softmax policy head — the DRL\[Jiang\]
//! baseline's network — or a raw scalar value head (the DDPG critic).

use crate::activation::Activation;
use crate::linear::{Linear, LinearGradients};
use rand::Rng;
use spikefolio_tensor::ops::{softmax_backward_into, softmax_in_place};
use spikefolio_tensor::optim::{Gradients, Optimizer, ParamSlot};
use spikefolio_tensor::vector;

/// A dense network: linear layers with a pointwise activation between
/// them. A policy network ([`Mlp::new`]) puts a softmax on the final
/// output, so the action always lies on the probability simplex (matching
/// the SDP decoder's output space); a value network ([`Mlp::value`])
/// keeps the final output raw. The head is fixed at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    softmax_head: bool,
}

/// Forward trace for backprop: pre-activations and activations per layer.
///
/// A trace can be reused: [`Mlp::forward_into`] overwrites it in place, so
/// a training loop that keeps one allocates nothing per sample.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MlpTrace {
    /// Layer inputs, `layers.len() + 1` entries; the last is the final
    /// layer's raw output.
    inputs: Vec<Vec<f64>>,
    /// Pre-activation outputs per layer.
    pre_activations: Vec<Vec<f64>>,
    /// Network output: the softmax action, or the raw value.
    action: Vec<f64>,
}

impl MlpTrace {
    /// The output of the recorded forward pass (the softmax action of a
    /// policy network, the raw value of a value network).
    pub fn action(&self) -> &[f64] {
        &self.action
    }
}

/// Reusable backward-pass buffers: the gradient flowing down the layers.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    dy: Vec<f64>,
    dx: Vec<f64>,
}

/// Gradients for every layer of an [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpGradients {
    /// Per-layer gradients, input-side first.
    pub layers: Vec<LinearGradients>,
}

impl Gradients for MlpGradients {
    fn accumulate(&mut self, other: &MlpGradients) {
        assert_eq!(self.layers.len(), other.layers.len(), "layer count mismatch");
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.d_weights.add_scaled(1.0, &b.d_weights);
            vector::axpy(&mut a.d_bias, 1.0, &b.d_bias);
        }
    }

    fn scale(&mut self, alpha: f64) {
        for l in &mut self.layers {
            l.d_weights.scale(alpha);
            l.d_bias.iter_mut().for_each(|g| *g *= alpha);
        }
    }

    fn global_norm(&self) -> f64 {
        let mut sq = 0.0;
        for l in &self.layers {
            sq += l.d_weights.as_slice().iter().map(|g| g * g).sum::<f64>();
            sq += l.d_bias.iter().map(|g| g * g).sum::<f64>();
        }
        sq.sqrt()
    }
}

impl Mlp {
    /// Builds an MLP with the given layer `dims` (e.g. `&[64, 128, 12]`:
    /// 64 inputs, one hidden layer of 128, 12 actions).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given or any is zero.
    pub fn new<R: Rng + ?Sized>(dims: &[usize], activation: Activation, rng: &mut R) -> Self {
        Self::build(dims, activation, true, rng)
    }

    /// Builds a value network with the given layer `dims` whose last dim
    /// is a raw (linear) scalar head, e.g. the DDPG critic `Q(s, a)`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given, any is zero, or the last
    /// is not 1.
    pub fn value<R: Rng + ?Sized>(dims: &[usize], activation: Activation, rng: &mut R) -> Self {
        assert_eq!(dims.last(), Some(&1), "value head must be scalar");
        Self::build(dims, activation, false, rng)
    }

    fn build<R: Rng + ?Sized>(
        dims: &[usize],
        activation: Activation,
        softmax_head: bool,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert!(dims.iter().all(|&d| d > 0), "dims must be positive");
        let layers = dims.windows(2).map(|w| Linear::new(w[0], w[1], rng)).collect();
        Self { layers, activation, softmax_head }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension (1 for a value network).
    pub fn action_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Linear::num_params).sum()
    }

    /// Borrow the layers (read-only; used by the device energy models to
    /// count FLOPs).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Forward pass with trace.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != in_dim()`.
    pub fn forward(&self, state: &[f64]) -> MlpTrace {
        let mut trace = MlpTrace::default();
        self.forward_into(state, &mut trace);
        trace
    }

    /// Forward pass into a reused trace, which is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != in_dim()`.
    pub fn forward_into(&self, state: &[f64], trace: &mut MlpTrace) {
        let depth = self.layers.len();
        trace.inputs.resize_with(depth + 1, Vec::new);
        trace.pre_activations.resize_with(depth, Vec::new);
        trace.inputs[0].clear();
        trace.inputs[0].extend_from_slice(state);
        for (i, layer) in self.layers.iter().enumerate() {
            let z = &mut trace.pre_activations[i];
            z.resize(layer.out_dim(), 0.0);
            layer.forward_into(&trace.inputs[i], z);
            let next = &mut trace.inputs[i + 1];
            next.clear();
            if i + 1 < depth {
                next.extend(z.iter().map(|&v| self.activation.apply(v)));
            } else {
                next.extend_from_slice(z);
            }
        }
        trace.action.clear();
        trace.action.extend_from_slice(&trace.inputs[depth]);
        if self.softmax_head {
            softmax_in_place(&mut trace.action);
        }
    }

    /// Inference: the output vector (the softmax action of a policy
    /// network, `[value]` for a value network).
    pub fn act(&self, state: &[f64]) -> Vec<f64> {
        self.forward(state).action
    }

    /// The empty minibatch sum of this network's gradients, for
    /// [`backward_acc`](Self::backward_acc) to fold samples into.
    ///
    /// Folding samples into it reproduces, bit for bit, summing their
    /// separate [`backward`](Self::backward) gradients from the first:
    /// - A sample's weight gradient is `0.0 + dy·x`. The fold adds `dy·x`
    ///   straight into a weight sum that starts at `+0.0`, so it is never
    ///   `−0.0`, and then `acc + (0.0 + p) == acc + p`.
    /// - A sample's bias gradient is `dy` itself. The bias sum starts at
    ///   `−0.0`, the exact identity of IEEE addition, so the first fold
    ///   yields `dy` bit for bit, signed zeros included.
    pub fn empty_gradients(&self) -> MlpGradients {
        MlpGradients { layers: self.layers.iter().map(LinearGradients::empty).collect() }
    }

    /// Backward pass from `∂L/∂action`.
    ///
    /// # Panics
    ///
    /// Panics if `d_action.len() != action_dim()` or the trace shape is
    /// inconsistent.
    pub fn backward(&self, trace: &MlpTrace, d_action: &[f64]) -> MlpGradients {
        let mut grads = self.empty_gradients();
        self.backprop(trace, d_action, &mut MlpScratch::default(), Some(&mut grads), false);
        grads
    }

    /// Backward pass from `∂L/∂output`; returns `(gradients, ∂L/∂input)`.
    /// The input gradient of a DDPG critic is the actor's learning signal.
    ///
    /// # Panics
    ///
    /// As [`backward`](Self::backward).
    pub fn backward_input(&self, trace: &MlpTrace, d_out: &[f64]) -> (MlpGradients, Vec<f64>) {
        let mut grads = self.empty_gradients();
        let mut scratch = MlpScratch::default();
        self.backprop(trace, d_out, &mut scratch, Some(&mut grads), true);
        (grads, scratch.dy)
    }

    /// Backward pass from `∂L/∂output` that folds this sample's parameter
    /// gradients into the minibatch sum `acc` in place. Bitwise the same
    /// as `acc.accumulate(&self.backward(trace, d_out))`.
    ///
    /// # Panics
    ///
    /// As [`backward`](Self::backward), or if `acc` does not match the
    /// network shape.
    pub fn backward_acc(
        &self,
        trace: &MlpTrace,
        d_out: &[f64],
        scratch: &mut MlpScratch,
        acc: &mut MlpGradients,
    ) {
        assert_eq!(acc.layers.len(), self.layers.len(), "layer count mismatch");
        self.backprop(trace, d_out, scratch, Some(acc), false);
    }

    /// Backward pass from `∂L/∂output` that computes only `∂L/∂input`,
    /// no parameter gradients: bitwise `backward_input(trace, d_out).1`.
    /// A DDPG critic's input gradient is the actor's learning signal.
    ///
    /// # Panics
    ///
    /// As [`backward`](Self::backward).
    pub fn input_gradient<'s>(
        &self,
        trace: &MlpTrace,
        d_out: &[f64],
        scratch: &'s mut MlpScratch,
    ) -> &'s [f64] {
        self.backprop(trace, d_out, scratch, None, true);
        &scratch.dy
    }

    /// Walks `∂L/∂output` down the layers, folding each layer's gradients
    /// into `acc` when given. With `to_input` the input gradient is left in
    /// `scratch.dy`; without it the input layer's `dx` is skipped.
    fn backprop(
        &self,
        trace: &MlpTrace,
        d_out: &[f64],
        scratch: &mut MlpScratch,
        mut acc: Option<&mut MlpGradients>,
        to_input: bool,
    ) {
        assert_eq!(d_out.len(), self.action_dim(), "d_action length mismatch");
        let MlpScratch { dy, dx } = scratch;
        dy.clear();
        if self.softmax_head {
            dy.resize(d_out.len(), 0.0);
            softmax_backward_into(&trace.action, d_out, dy);
        } else {
            dy.extend_from_slice(d_out);
        }
        for (i, layer) in self.layers.iter().enumerate().rev() {
            // Through the activation (not applied after the last layer).
            if i + 1 < self.layers.len() {
                for (d, &z) in dy.iter_mut().zip(&trace.pre_activations[i]) {
                    *d *= self.activation.grad(z);
                }
            }
            if let Some(acc) = acc.as_deref_mut() {
                acc.layers[i].fold(&trace.inputs[i], dy);
            }
            if i > 0 || to_input {
                dx.resize(layer.in_dim(), 0.0);
                layer.weights.matvec_transposed_into(dy, dx);
                std::mem::swap(dy, dx);
            }
        }
    }

    /// Flattens all parameters (diagnostic/test helper).
    pub fn flat_params(&self) -> Vec<f64> {
        let mut v = Vec::new();
        for l in &self.layers {
            v.extend_from_slice(l.weights.as_slice());
            v.extend_from_slice(&l.bias);
        }
        v
    }

    /// Restores parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if the length doesn't match.
    pub fn set_flat_params(&mut self, flat: &[f64]) {
        let mut idx = 0;
        for l in &mut self.layers {
            let wlen = l.weights.len();
            l.weights.as_mut_slice().copy_from_slice(&flat[idx..idx + wlen]);
            idx += wlen;
            let blen = l.bias.len();
            l.bias.copy_from_slice(&flat[idx..idx + blen]);
            idx += blen;
        }
        assert_eq!(idx, flat.len(), "flat parameter vector has wrong length");
    }
}

/// Trainer pairing an [`Mlp`] with an optimizer.
#[derive(Debug)]
pub struct MlpTrainer<O: Optimizer> {
    optimizer: O,
    weight_slots: Vec<ParamSlot>,
    bias_slots: Vec<ParamSlot>,
    /// Optional global-norm gradient clip.
    pub max_grad_norm: Option<f64>,
}

impl<O: Optimizer> MlpTrainer<O> {
    /// Registers `net`'s parameters with `optimizer`.
    pub fn new(net: &Mlp, mut optimizer: O) -> Self {
        let weight_slots = net.layers.iter().map(|l| optimizer.register(l.weights.len())).collect();
        let bias_slots = net.layers.iter().map(|l| optimizer.register(l.bias.len())).collect();
        Self { optimizer, weight_slots, bias_slots, max_grad_norm: Some(10.0) }
    }

    /// Applies one descent step, clipping `grads` in place to the
    /// global-norm cap first.
    ///
    /// # Panics
    ///
    /// Panics if `grads` doesn't match the network shape.
    pub fn apply(&mut self, net: &mut Mlp, grads: &mut MlpGradients) {
        if let Some(max) = self.max_grad_norm {
            grads.clip_global_norm(max);
        }
        for (i, g) in grads.layers.iter().enumerate() {
            self.optimizer.step(
                self.weight_slots[i],
                net.layers[i].weights.as_mut_slice(),
                g.d_weights.as_slice(),
            );
            self.optimizer.step(self.bias_slots[i], &mut net.layers[i].bias, &g.d_bias);
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.optimizer.learning_rate()
    }

    /// Adjusts the learning rate.
    pub fn set_learning_rate(&mut self, lr: f64) {
        self.optimizer.set_learning_rate(lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use spikefolio_tensor::optim::Adam;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(8)
    }

    fn net() -> Mlp {
        Mlp::new(&[4, 6, 3], Activation::Tanh, &mut rng())
    }

    #[test]
    fn action_is_on_simplex() {
        let n = net();
        let a = n.act(&[1.0, -0.5, 0.3, 2.0]);
        assert!(spikefolio_tensor::simplex::is_on_simplex(&a, 1e-12));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let n = net();
        let state = [0.4, -0.2, 1.1, 0.7];
        let c = [1.0, -0.5, 2.0];
        let trace = n.forward(&state);
        let grads = n.backward(&trace, &c);
        // Flatten analytic gradients in parameter order.
        let mut analytic = Vec::new();
        for g in &grads.layers {
            analytic.extend_from_slice(g.d_weights.as_slice());
            analytic.extend_from_slice(&g.d_bias);
        }
        let params = n.flat_params();
        let loss = |nn: &Mlp| -> f64 { nn.act(&state).iter().zip(&c).map(|(a, b)| a * b).sum() };
        let eps = 1e-6;
        for i in 0..params.len() {
            let mut pp = params.clone();
            pp[i] += eps;
            let mut np = n.clone();
            np.set_flat_params(&pp);
            let mut pm = params.clone();
            pm[i] -= eps;
            let mut nm = n.clone();
            nm.set_flat_params(&pm);
            let num = (loss(&np) - loss(&nm)) / (2.0 * eps);
            assert!((analytic[i] - num).abs() < 1e-6, "param {i}: {} vs {num}", analytic[i]);
        }
    }

    #[test]
    fn relu_and_leaky_networks_also_check_out() {
        for act in [Activation::Relu, Activation::LeakyRelu, Activation::Identity] {
            let n = Mlp::new(&[3, 5, 2], act, &mut rng());
            let state = [0.9, 0.4, -0.6];
            let c = [1.5, -1.0];
            let trace = n.forward(&state);
            let grads = n.backward(&trace, &c);
            let mut analytic = Vec::new();
            for g in &grads.layers {
                analytic.extend_from_slice(g.d_weights.as_slice());
                analytic.extend_from_slice(&g.d_bias);
            }
            let params = n.flat_params();
            let loss =
                |nn: &Mlp| -> f64 { nn.act(&state).iter().zip(&c).map(|(a, b)| a * b).sum() };
            let eps = 1e-6;
            // Spot-check a spread (ReLU kinks make exact checks flaky only
            // exactly at 0, which random inputs avoid almost surely).
            for i in (0..params.len()).step_by(3) {
                let mut pp = params.clone();
                pp[i] += eps;
                let mut np = n.clone();
                np.set_flat_params(&pp);
                let mut pm = params.clone();
                pm[i] -= eps;
                let mut nm = n.clone();
                nm.set_flat_params(&pm);
                let num = (loss(&np) - loss(&nm)) / (2.0 * eps);
                assert!((analytic[i] - num).abs() < 1e-5, "{act:?} param {i}");
            }
        }
    }

    #[test]
    fn training_moves_action_toward_target() {
        let mut n = net();
        let state = [1.0, 1.0, 1.0, 1.0];
        let before = n.act(&state)[2];
        let mut trainer = MlpTrainer::new(&n, Adam::new(1e-2));
        for _ in 0..100 {
            let trace = n.forward(&state);
            let mut grads = n.backward(&trace, &[0.0, 0.0, -1.0]);
            trainer.apply(&mut n, &mut grads);
        }
        let after = n.act(&state)[2];
        assert!(after > before + 0.1, "a[2] went {before} → {after}");
    }

    #[test]
    fn accumulate_scale_roundtrip() {
        let n = net();
        let trace = n.forward(&[0.1, 0.2, 0.3, 0.4]);
        let g = n.backward(&trace, &[1.0, 0.0, -1.0]);
        let mut acc = n.backward(&trace, &[0.0, 0.0, 0.0]);
        acc.accumulate(&g);
        acc.accumulate(&g);
        acc.scale(0.5);
        for (a, b) in acc.layers.iter().zip(&g.layers) {
            for (x, y) in a.d_weights.as_slice().iter().zip(b.d_weights.as_slice()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn value_head_is_raw_and_scalar() {
        let n = Mlp::value(&[4, 6, 1], Activation::Tanh, &mut rng());
        let state = [0.4, -0.2, 1.1, 0.7];
        let q = n.act(&state);
        // A softmax over one output would always be exactly 1.
        assert_eq!(q.len(), 1);
        assert_ne!(q[0], 1.0);
        let (_, d_input) = n.backward_input(&n.forward(&state), &[1.0]);
        assert_eq!(d_input.len(), n.in_dim());
    }

    fn bits(g: &MlpGradients) -> Vec<u64> {
        g.layers
            .iter()
            .flat_map(|l| l.d_weights.as_slice().iter().chain(&l.d_bias))
            .map(|v| v.to_bits())
            .collect()
    }

    /// A ReLU net whose hidden unit 0 is dead for every input here and
    /// passes back a negative gradient, so its bias gradient is −0.0 in
    /// every sample.
    fn dead_unit_net(value: bool) -> Mlp {
        let mut n = if value {
            Mlp::value(&[4, 6, 1], Activation::Relu, &mut rng())
        } else {
            Mlp::new(&[4, 6, 3], Activation::Relu, &mut rng())
        };
        n.layers[0].bias[0] = -100.0;
        n.layers[1].weights[(0, 0)] = 1.0;
        n
    }

    /// `(state, ∂L/∂output)` samples with a −0.0 input and an all-zero
    /// upstream gradient.
    fn fold_samples(out_dim: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
        let d = |v: [f64; 3]| v[..out_dim].to_vec();
        vec![
            (vec![0.4, -0.0, 1.1, 0.7], d([-1.0, 0.5, 2.0])),
            (vec![-0.3, 0.9, -0.0, 0.2], d([0.0, 0.0, 0.0])),
            (vec![1.5, -1.2, 0.3, -0.0], d([-0.25, -1.0, 0.5])),
            (vec![0.0, 0.6, -0.8, 1.3], d([-2.0, 1.0, -0.5])),
        ]
    }

    #[test]
    fn in_place_fold_matches_accumulating_backward_bitwise() {
        for value in [false, true] {
            let n = dead_unit_net(value);
            let samples = fold_samples(n.action_dim());
            let mut scratch = MlpScratch::default();
            let mut trace = MlpTrace::default();

            // The minibatch sum as first-sample-then-accumulate, and as
            // folds into the empty sum through a reused trace.
            let mut whole = n.backward(&n.forward(&samples[0].0), &samples[0].1);
            let mut folded = n.empty_gradients();
            for (i, (state, d_out)) in samples.iter().enumerate() {
                if i > 0 {
                    whole.accumulate(&n.backward(&n.forward(state), d_out));
                }
                n.forward_into(state, &mut trace);
                assert_eq!(trace, n.forward(state), "value {value}: reused trace");
                n.backward_acc(&trace, d_out, &mut scratch, &mut folded);
            }
            assert_eq!(bits(&folded), bits(&whole), "value {value}: from empty");

            // Into a non-empty accumulator.
            let (state, d_out) = &samples[2];
            let mut acc = whole.clone();
            acc.accumulate(&n.backward(&n.forward(state), d_out));
            n.backward_acc(&n.forward(state), d_out, &mut scratch, &mut whole);
            assert_eq!(bits(&whole), bits(&acc), "value {value}: non-empty");
        }
        // The dead unit's bias gradient kept the −0.0 of every sample.
        let n = dead_unit_net(true);
        let mut folded = n.empty_gradients();
        for (state, _) in fold_samples(1) {
            n.backward_acc(&n.forward(&state), &[-1.0], &mut MlpScratch::default(), &mut folded);
        }
        assert_eq!(folded.layers[0].d_bias[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn input_gradient_matches_backward_input_bitwise() {
        for value in [false, true] {
            let n = dead_unit_net(value);
            let mut scratch = MlpScratch::default();
            for (state, d_out) in fold_samples(n.action_dim()) {
                let trace = n.forward(&state);
                let (_, full) = n.backward_input(&trace, &d_out);
                let only = n.input_gradient(&trace, &d_out, &mut scratch);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(only), bits(&full), "value {value}");
            }
        }
    }

    #[test]
    fn dims_and_depth() {
        let n = net();
        assert_eq!(n.in_dim(), 4);
        assert_eq!(n.action_dim(), 3);
        assert_eq!(n.depth(), 2);
        assert_eq!(n.num_params(), 4 * 6 + 6 + 6 * 3 + 3);
    }

    #[test]
    fn flat_param_roundtrip() {
        let n = net();
        let flat = n.flat_params();
        let mut n2 = Mlp::new(&[4, 6, 3], Activation::Tanh, &mut rng());
        n2.set_flat_params(&flat);
        assert_eq!(n2.flat_params(), flat);
    }
}
