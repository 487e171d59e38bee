//! Spatio-temporal backpropagation (STBP) for dual-state LIF networks
//! (eqs. 11–13).
//!
//! Given the forward trace of Algorithm 1 and the loss gradient on the
//! action `∂L/∂a`, the backward pass unrolls the recurrences
//!
//! ```text
//! δo(t) = δo_ext(t) + Wᵀ_{k+1} δc(t)(k+1) − d_v·v(t)·δv(t+1)
//! δv(t) = δo(t)·z(v(t)) + δv(t+1)·d_v·(1 − o(t))
//! δc(t) = δv(t) + d_c·δc(t+1)
//! ∇W    = Σ_t δc(t) ⊗ o_in(t),   ∇b = Σ_t δc(t)        (eq. 13)
//! ```
//!
//! where `z(·)` is the pseudo-gradient of eq. (11). The same code path is
//! exact (no surrogate) when the network uses the soft spike relaxation,
//! which is how the recurrences are validated against finite differences.

use crate::batch::{BatchNetworkTrace, BatchWorkspace};
use crate::network::SdpNetwork;
use spikefolio_telemetry::labels::SPAN_PROFILE_SNN_STBP;
use spikefolio_telemetry::{Recorder, Stopwatch};
use spikefolio_tensor::optim::{Gradients, Optimizer, ParamSlot};
use spikefolio_tensor::{gemm, sparse, vector, Matrix};

/// Gradients of one LIF layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGradients {
    /// `∂L/∂W`.
    pub d_weights: Matrix,
    /// `∂L/∂b`.
    pub d_bias: Vec<f64>,
}

/// Gradients of every trainable parameter of an [`SdpNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub struct SdpGradients {
    /// Per-LIF-layer gradients, input-side first.
    pub layers: Vec<LayerGradients>,
    /// Decoder rate-weight gradients (eq. 12).
    pub d_decoder_weights: Vec<f64>,
    /// Decoder bias gradients (eq. 12).
    pub d_decoder_bias: Vec<f64>,
}

impl SdpGradients {
    /// Zero gradients shaped like `net`.
    pub fn zeros_like(net: &SdpNetwork) -> Self {
        Self {
            layers: net
                .layers()
                .iter()
                .map(|l| LayerGradients {
                    d_weights: Matrix::zeros(l.out_dim(), l.in_dim()),
                    d_bias: vec![0.0; l.out_dim()],
                })
                .collect(),
            d_decoder_weights: vec![0.0; net.decoder.weights.len()],
            d_decoder_bias: vec![0.0; net.decoder.bias.len()],
        }
    }
}

impl Gradients for SdpGradients {
    fn accumulate(&mut self, other: &SdpGradients) {
        assert_eq!(self.layers.len(), other.layers.len(), "layer count mismatch");
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.d_weights.add_scaled(1.0, &b.d_weights);
            vector::axpy(&mut a.d_bias, 1.0, &b.d_bias);
        }
        vector::axpy(&mut self.d_decoder_weights, 1.0, &other.d_decoder_weights);
        vector::axpy(&mut self.d_decoder_bias, 1.0, &other.d_decoder_bias);
    }

    fn scale(&mut self, alpha: f64) {
        for l in &mut self.layers {
            l.d_weights.scale(alpha);
            l.d_bias.iter_mut().for_each(|g| *g *= alpha);
        }
        self.d_decoder_weights.iter_mut().for_each(|g| *g *= alpha);
        self.d_decoder_bias.iter_mut().for_each(|g| *g *= alpha);
    }

    fn global_norm(&self) -> f64 {
        let mut sq = 0.0;
        for l in &self.layers {
            sq += l.d_weights.as_slice().iter().map(|g| g * g).sum::<f64>();
            sq += l.d_bias.iter().map(|g| g * g).sum::<f64>();
        }
        sq += self.d_decoder_weights.iter().map(|g| g * g).sum::<f64>();
        sq += self.d_decoder_bias.iter().map(|g| g * g).sum::<f64>();
        sq.sqrt()
    }
}

/// STBP backward pass over a [`BatchNetworkTrace`] produced by
/// [`SdpNetwork::forward_batch`](crate::batch), given the per-sample loss
/// gradients `d_actions` (`B × action_dim`, one row per sample).
///
/// `d_actions` is `∂L/∂a` — for the eq. (1) reward maximized by gradient
/// *ascent*, pass the negated reward gradient to perform descent on the
/// loss.
///
/// `rate_penalty` adds a **spike-rate penalty** on the hidden layers: the
/// loss gains `λ · mean hidden firing rate`, whose gradient adds
/// `λ / (T · N_hidden)` to every hidden spike. Spike-rate regularization
/// is the standard lever for trading backtest quality against on-chip
/// energy (fewer spikes → fewer synops → less dynamic energy on Loihi);
/// the rate-penalty ablation sweeps `λ`.
///
/// Returns the gradients **summed** over the batch — scale by `1/B`
/// afterwards for the batch mean.
///
/// The reverse-time `δo/δv/δc` recurrences are evaluated elementwise per
/// sample row, in the same order whatever the batch size; the weight
/// gradient is then formed as one event-driven kernel call per layer,
/// `∇W += Σ_{t,b} δc(t,b)ᵀ · o_in(t,b)` over the active input spikes only,
/// whose `(t, b)` summation order is the only floating-point difference
/// from summing the rows' `B = 1` passes (≈1e-14 relative). It gives the
/// same bits as the dense GEMM, which the tests keep as its reference.
///
/// The whole pass is timed as one [`SPAN_PROFILE_SNN_STBP`] span on
/// `rec`. Observe-only: the recorder never influences the gradients, and
/// with a disabled recorder the stopwatch never reads the clock.
///
/// # Panics
///
/// Panics if the trace, workspace, and `d_actions` shapes disagree with the
/// network, or if `rate_penalty < 0`.
pub fn backward_batch(
    net: &SdpNetwork,
    trace: &BatchNetworkTrace,
    d_actions: &Matrix,
    rate_penalty: f64,
    ws: &mut BatchWorkspace,
    rec: &mut dyn Recorder,
) -> SdpGradients {
    let watch = Stopwatch::start(rec);
    let grads =
        backward_with(net, trace, d_actions, rate_penalty, ws, |dc, o_in, set, dw, rows, m, n| {
            sparse::spike_outer_acc(1.0, dc, o_in, set, dw, rows, m, n);
        });
    watch.stop(rec, SPAN_PROFILE_SNN_STBP);
    grads
}

/// The backward pass around one weight-gradient kernel:
/// `weight_grad(δc, o_in, input_set, ∇W, rows, out, in)` accumulates
/// `∇W += δcᵀ · o_in` over the `rows = T·B` rows of the stacks.
fn backward_with(
    net: &SdpNetwork,
    trace: &BatchNetworkTrace,
    d_actions: &Matrix,
    rate_penalty: f64,
    ws: &mut BatchWorkspace,
    weight_grad: impl Fn(&[f64], &[f64], &sparse::SpikeSet, &mut [f64], usize, usize, usize),
) -> SdpGradients {
    let bsz = trace.batch();
    let t_max = net.config().timesteps;
    assert_eq!(trace.layers.len(), net.depth(), "trace depth mismatch");
    assert_eq!(trace.timesteps(), t_max, "trace timestep mismatch");
    assert_eq!(ws.batch, bsz, "workspace batch mismatch");
    assert_eq!(
        d_actions.shape(),
        (bsz, net.config().action_dim),
        "d_actions must be batch x action_dim"
    );
    assert!(rate_penalty >= 0.0, "rate penalty must be non-negative");
    let n_hidden: usize = net.layers()[..net.depth() - 1].iter().map(|l| l.out_dim()).sum();
    let rate_grad = if n_hidden > 0 && rate_penalty > 0.0 {
        rate_penalty / (t_max as f64 * n_hidden as f64)
    } else {
        0.0
    };

    let mut grads = SdpGradients::zeros_like(net);

    // Decoder backward per sample (b ascending); the time-constant spike
    // gradient seeds the last layer's
    // upstream-gradient stack for every timestep.
    let depth = net.depth();
    for b in 0..bsz {
        let dg =
            net.decoder.backward(trace.firing_rates.row(b), trace.actions.row(b), d_actions.row(b));
        vector::axpy(&mut grads.d_decoder_weights, 1.0, &dg.d_weights);
        vector::axpy(&mut grads.d_decoder_bias, 1.0, &dg.d_bias);
        let last = &mut ws.layers[depth - 1];
        for t in 0..t_max {
            last.d_ext.row_mut(t * bsz + b).copy_from_slice(&dg.d_spikes_per_step);
        }
    }

    for (k, layer) in net.layers().iter().enumerate().rev() {
        let lt = &trace.layers[k];
        let out_dim = layer.out_dim();
        let in_dim = layer.in_dim();
        let p = &layer.params;
        let hidden_rate = k + 1 < net.layers().len() && rate_grad > 0.0;

        let (lower, rest) = ws.layers.split_at_mut(k);
        let lb = &mut rest[0];
        lb.dv_next.fill_zero();
        lb.db_next.fill_zero();

        for t in (0..t_max).rev() {
            // Split the δc stack so row block t (written now) and row block
            // t+1 (the δc(t+1) carry) can be borrowed together.
            let split = (t + 1) * bsz * out_dim;
            let (head, tail) = lb.dc_stack.as_mut_slice().split_at_mut(split);
            let cur_rows = &mut head[t * bsz * out_dim..];
            for b in 0..bsz {
                let r = t * bsz + b;
                let v_t = lt.voltages.row(r);
                let o_t = lt.outputs.row(r);
                let th_t = lt.thresholds.row(r);
                let ext = lb.d_ext.row(r);
                let dv_next = lb.dv_next.row(b);
                let db_next = lb.db_next.row(b);
                let d_o = lb.d_o.row_mut(b);
                let d_v = lb.d_v.row_mut(b);
                let d_b = lb.d_b.row_mut(b);
                let d_c = &mut cur_rows[b * out_dim..(b + 1) * out_dim];
                let dc_next =
                    if t + 1 < t_max { Some(&tail[b * out_dim..(b + 1) * out_dim]) } else { None };
                for i in 0..out_dim {
                    // δo(t): external + reset path (+ rate penalty on
                    // hidden layers, + adaptation chain).
                    let mut doi = ext[i];
                    if hidden_rate {
                        doi += rate_grad;
                    }
                    doi -= p.d_v * v_t[i] * dv_next[i];
                    if let Some(ad) = layer.adaptation {
                        doi += (1.0 - ad.rho) * db_next[i];
                    }
                    d_o[i] = doi;
                    let z = layer.spike_fn.grad(v_t[i], th_t[i]);
                    d_v[i] = doi * z + dv_next[i] * p.d_v * (1.0 - o_t[i]);
                    if let Some(ad) = layer.adaptation {
                        d_b[i] = -ad.beta * doi * z + ad.rho * db_next[i];
                    }
                    let dcn = dc_next.map_or(0.0, |row| row[i]);
                    d_c[i] = d_v[i] + p.d_c * dcn;
                }
            }
            // Gradient on this timestep's inputs → previous layer's
            // upstream stack (one B×out · out×in GEMM). Layer 0's input
            // gradient has no consumer and is skipped.
            if k > 0 {
                let dc_block = &head[t * bsz * out_dim..];
                let dst = &mut lower[k - 1].d_ext.as_mut_slice()
                    [t * bsz * in_dim..(t + 1) * bsz * in_dim];
                gemm::gemm_nn(dc_block, layer.weights.as_slice(), dst, bsz, out_dim, in_dim);
            }
            std::mem::swap(&mut lb.d_v, &mut lb.dv_next);
            std::mem::swap(&mut lb.d_b, &mut lb.db_next);
        }

        // Parameter gradients (eq. 13) over the whole stack:
        // ∇W += Σ_{t,b} δc ⊗ o_in, ∇b = column sums of the δc stack. The
        // event-driven kernel restricts each rank-1 update to the active
        // input-spike columns of that row — bitwise identical to the dense
        // reference (skipped zero addends cannot flip accumulator bits;
        // see `spikefolio_tensor::sparse`).
        let (inputs, input_set): (&[f64], &sparse::SpikeSet) = if k == 0 {
            (trace.encoder.as_slice(), &trace.encoder_set)
        } else {
            (trace.layers[k - 1].outputs.as_slice(), &trace.layers[k - 1].output_set)
        };
        let d_weights = grads.layers[k].d_weights.as_mut_slice();
        let dc = lb.dc_stack.as_slice();
        weight_grad(dc, inputs, input_set, d_weights, t_max * bsz, out_dim, in_dim);
        for r in 0..t_max * bsz {
            vector::axpy(&mut grads.layers[k].d_bias, 1.0, lb.dc_stack.row(r));
        }
    }
    grads
}

/// The dense reference of [`backward_batch`]: the same pass with the
/// [`gemm::gemm_tn_acc`] weight gradient over every input column.
#[cfg(test)]
pub(crate) fn backward_batch_dense(
    net: &SdpNetwork,
    trace: &BatchNetworkTrace,
    d_actions: &Matrix,
    rate_penalty: f64,
    ws: &mut BatchWorkspace,
) -> SdpGradients {
    backward_with(net, trace, d_actions, rate_penalty, ws, |dc, o_in, _, dw, rows, m, n| {
        gemm::gemm_tn_acc(1.0, dc, o_in, dw, rows, m, n);
    })
}

/// Trainer: owns the optimizer state for one [`SdpNetwork`].
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use spikefolio_snn::network::{SdpNetwork, SdpNetworkConfig};
/// use spikefolio_snn::stbp::{self, SdpTrainer};
/// use spikefolio_snn::SingleSample;
/// use spikefolio_telemetry::NoopRecorder;
/// use spikefolio_tensor::optim::Adam;
/// use spikefolio_tensor::Matrix;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let mut net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng);
/// let mut trainer = SdpTrainer::new(&net, Adam::new(1e-3));
/// // One sample, as a batch of one.
/// let mut one = SingleSample::new(&net);
/// one.forward(&net, &[1.0, 0.9, 1.1, 1.0], &mut rng);
/// // Descend on L = -a[0] (make action 0 more likely).
/// let d_actions = Matrix::from_rows(&[&[-1.0, 0.0, 0.0]]);
/// let mut grads =
///     stbp::backward_batch(&net, &one.trace, &d_actions, 0.0, &mut one.ws, &mut NoopRecorder);
/// trainer.apply(&mut net, &mut grads);
/// ```
#[derive(Debug, Clone)]
pub struct SdpTrainer<O: Optimizer> {
    optimizer: O,
    layer_weight_slots: Vec<ParamSlot>,
    layer_bias_slots: Vec<ParamSlot>,
    decoder_weight_slot: ParamSlot,
    decoder_bias_slot: ParamSlot,
    /// Optional global-norm gradient clip (None = no clipping).
    pub max_grad_norm: Option<f64>,
}

impl<O: Optimizer> SdpTrainer<O> {
    /// Registers all of `net`'s parameter buffers with `optimizer`.
    pub fn new(net: &SdpNetwork, mut optimizer: O) -> Self {
        let layer_weight_slots =
            net.layers().iter().map(|l| optimizer.register(l.weights.len())).collect();
        let layer_bias_slots =
            net.layers().iter().map(|l| optimizer.register(l.bias.len())).collect();
        let decoder_weight_slot = optimizer.register(net.decoder.weights.len());
        let decoder_bias_slot = optimizer.register(net.decoder.bias.len());
        Self {
            optimizer,
            layer_weight_slots,
            layer_bias_slots,
            decoder_weight_slot,
            decoder_bias_slot,
            max_grad_norm: Some(10.0),
        }
    }

    /// Applies one optimization step with `grads` (descent direction),
    /// clipping `grads` in place to the global-norm cap first.
    ///
    /// # Panics
    ///
    /// Panics if `grads` was produced for a differently-shaped network.
    pub fn apply(&mut self, net: &mut SdpNetwork, grads: &mut SdpGradients) {
        if let Some(max) = self.max_grad_norm {
            grads.clip_global_norm(max);
        }
        net.write_layers(|layers| {
            for ((layer, lg), (&w_slot, &b_slot)) in layers
                .iter_mut()
                .zip(&grads.layers)
                .zip(self.layer_weight_slots.iter().zip(&self.layer_bias_slots))
            {
                self.optimizer.step(w_slot, layer.weights.as_mut_slice(), lg.d_weights.as_slice());
                self.optimizer.step(b_slot, &mut layer.bias, &lg.d_bias);
            }
        });
        self.optimizer.step(
            self.decoder_weight_slot,
            &mut net.decoder.weights,
            &grads.d_decoder_weights,
        );
        self.optimizer.step(self.decoder_bias_slot, &mut net.decoder.bias, &grads.d_decoder_bias);
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

/// Collects all trainable parameters of `net` into one flat vector
/// (test/diagnostic helper; order matches [`set_flat_params`]).
pub fn flat_params(net: &SdpNetwork) -> Vec<f64> {
    let mut v = Vec::new();
    for l in net.layers() {
        v.extend_from_slice(l.weights.as_slice());
        v.extend_from_slice(&l.bias);
    }
    v.extend_from_slice(&net.decoder.weights);
    v.extend_from_slice(&net.decoder.bias);
    v
}

/// Writes a flat parameter vector back into `net`.
///
/// # Panics
///
/// Panics if `flat.len()` does not match the parameter count.
pub fn set_flat_params(net: &mut SdpNetwork, flat: &[f64]) {
    let mut idx = net.write_layers(|layers| {
        let mut idx = 0;
        for l in layers {
            let wlen = l.weights.len();
            l.weights.as_mut_slice().copy_from_slice(&flat[idx..idx + wlen]);
            idx += wlen;
            let blen = l.bias.len();
            l.bias.copy_from_slice(&flat[idx..idx + blen]);
            idx += blen;
        }
        idx
    });
    let dwlen = net.decoder.weights.len();
    net.decoder.weights.copy_from_slice(&flat[idx..idx + dwlen]);
    idx += dwlen;
    let dblen = net.decoder.bias.len();
    net.decoder.bias.copy_from_slice(&flat[idx..idx + dblen]);
    idx += dblen;
    assert_eq!(idx, flat.len(), "flat parameter vector has wrong length");
}

/// Flattens gradients in the same order as [`flat_params`].
pub fn flat_grads(grads: &SdpGradients) -> Vec<f64> {
    let mut v = Vec::new();
    for l in &grads.layers {
        v.extend_from_slice(l.d_weights.as_slice());
        v.extend_from_slice(&l.d_bias);
    }
    v.extend_from_slice(&grads.d_decoder_weights);
    v.extend_from_slice(&grads.d_decoder_bias);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{SdpNetwork, SdpNetworkConfig};
    use crate::neuron::SpikeFn;
    use rand::SeedableRng;
    use spikefolio_telemetry::NoopRecorder;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(123)
    }

    /// The B = 1 backward pass of one sample's forward `trace`.
    fn backward_one(
        net: &SdpNetwork,
        trace: &BatchNetworkTrace,
        d_action: &[f64],
        rate_penalty: f64,
    ) -> SdpGradients {
        let mut ws = BatchWorkspace::new(net, 1);
        let d_actions = Matrix::from_rows(&[d_action]);
        let rec = &mut NoopRecorder;
        backward_batch(net, trace, &d_actions, rate_penalty, &mut ws, rec)
    }

    fn act(net: &SdpNetwork, state: &[f64]) -> Vec<f64> {
        net.forward_one(state, &mut rng()).action(0).to_vec()
    }

    /// A small *soft-spike* network: fully differentiable, so finite
    /// differences must match the backward pass exactly.
    fn soft_net() -> SdpNetwork {
        let mut cfg = SdpNetworkConfig::small(3, 2);
        cfg.hidden = vec![6];
        cfg.pop_out = 2;
        cfg.timesteps = 4;
        cfg.encoder.pop_size = 3;
        cfg.spike_fn = SpikeFn::Soft { temperature: 0.4 };
        SdpNetwork::new(cfg, &mut rng())
    }

    fn loss(net: &SdpNetwork, state: &[f64], c: &[f64]) -> f64 {
        let a = act(net, state);
        a.iter().zip(c).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn soft_network_gradients_match_finite_differences() {
        let net = soft_net();
        let state = [0.9, 1.05, 1.2];
        let c = [1.0, -1.5]; // arbitrary linear loss on the action
        let trace = net.forward_one(&state, &mut rng());
        let grads = backward_one(&net, &trace, &c, 0.0);
        let analytic = flat_grads(&grads);
        let params = flat_params(&net);
        assert_eq!(analytic.len(), params.len());

        let eps = 1e-5;
        let mut max_err: f64 = 0.0;
        let mut checked = 0;
        // Check a deterministic spread of parameters (every 7th) to keep the
        // test fast while covering all layers and the decoder.
        for i in (0..params.len()).step_by(7).chain(params.len().saturating_sub(4)..params.len()) {
            let mut pp = params.clone();
            pp[i] += eps;
            let mut netp = net.clone();
            set_flat_params(&mut netp, &pp);
            let lp = loss(&netp, &state, &c);

            let mut pm = params.clone();
            pm[i] -= eps;
            let mut netm = net.clone();
            set_flat_params(&mut netm, &pm);
            let lm = loss(&netm, &state, &c);

            let num = (lp - lm) / (2.0 * eps);
            let err = (analytic[i] - num).abs() / (1.0 + num.abs());
            max_err = max_err.max(err);
            checked += 1;
            assert!(err < 1e-4, "param {i}: analytic {} vs numeric {num}", analytic[i]);
        }
        assert!(checked >= 15, "checked too few parameters: {checked}");
        assert!(max_err < 1e-4, "max relative error {max_err}");
    }

    #[test]
    fn hard_network_produces_finite_gradients() {
        let mut cfg = SdpNetworkConfig::small(3, 2);
        cfg.timesteps = 5;
        let net = SdpNetwork::new(cfg, &mut rng());
        let trace = net.forward_one(&[1.0, 0.9, 1.1], &mut rng());
        let grads = backward_one(&net, &trace, &[1.0, -1.0], 0.0);
        assert!(flat_grads(&grads).iter().all(|g| g.is_finite()));
    }

    #[test]
    fn gradient_descent_on_action_component_increases_it() {
        // Descend on L = -a[0]; after a few steps a[0] must grow.
        let mut net = soft_net();
        let state = [1.0, 1.0, 1.0];
        let before = act(&net, &state)[0];
        let mut trainer = SdpTrainer::new(&net, spikefolio_tensor::optim::Adam::new(5e-3));
        for _ in 0..50 {
            let trace = net.forward_one(&state, &mut rng());
            let mut grads = backward_one(&net, &trace, &[-1.0, 0.0], 0.0);
            trainer.apply(&mut net, &mut grads);
        }
        let after = act(&net, &state)[0];
        assert!(after > before + 0.05, "a[0] went {before} → {after}");
    }

    #[test]
    fn hard_spike_training_also_moves_action() {
        // The surrogate gradient must be able to steer the hard network too.
        let mut cfg = SdpNetworkConfig::small(3, 2);
        cfg.timesteps = 5;
        let mut net = SdpNetwork::new(cfg, &mut rng());
        let state = [1.0, 1.0, 1.0];
        let before = act(&net, &state)[1];
        let mut trainer = SdpTrainer::new(&net, spikefolio_tensor::optim::Adam::new(1e-2));
        for _ in 0..100 {
            let trace = net.forward_one(&state, &mut rng());
            let mut grads = backward_one(&net, &trace, &[0.0, -1.0], 0.0);
            trainer.apply(&mut net, &mut grads);
        }
        let after = act(&net, &state)[1];
        assert!(after > before, "a[1] went {before} → {after}");
    }

    #[test]
    fn gradients_accumulate_and_scale() {
        let net = soft_net();
        let trace = net.forward_one(&[1.0, 1.0, 1.0], &mut rng());
        let g1 = backward_one(&net, &trace, &[1.0, 0.0], 0.0);
        let mut acc = SdpGradients::zeros_like(&net);
        acc.accumulate(&g1);
        acc.accumulate(&g1);
        acc.scale(0.5);
        let a = flat_grads(&acc);
        let b = flat_grads(&g1);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn clip_global_norm_bounds_gradients() {
        let net = soft_net();
        let trace = net.forward_one(&[1.0, 1.0, 1.0], &mut rng());
        let mut g = backward_one(&net, &trace, &[100.0, -100.0], 0.0);
        g.clip_global_norm(1.0);
        assert!(g.global_norm() <= 1.0 + 1e-9);
        // Clipping an already-small gradient is a no-op.
        let mut small = backward_one(&net, &trace, &[1e-8, -1e-8], 0.0);
        let before = small.global_norm();
        small.clip_global_norm(1.0);
        assert!((small.global_norm() - before).abs() < 1e-15);
    }

    #[test]
    fn adaptive_threshold_gradients_match_finite_differences() {
        // ALIF adds the b(t)/th(t) recurrence to the backward pass; with
        // soft spikes the whole thing stays exactly differentiable.
        let mut cfg = SdpNetworkConfig::small(3, 2);
        cfg.hidden = vec![5];
        cfg.pop_out = 2;
        cfg.timesteps = 5;
        cfg.encoder.pop_size = 3;
        cfg.spike_fn = SpikeFn::Soft { temperature: 0.4 };
        cfg.adaptation = Some(crate::neuron::AdaptiveParams { beta: 0.5, rho: 0.8 });
        let net = SdpNetwork::new(cfg, &mut rng());
        assert!(net.layers()[0].adaptation.is_some(), "hidden layer adapts");
        assert!(net.layers()[1].adaptation.is_none(), "output layer stays plain");

        let state = [0.9, 1.1, 1.0];
        let c = [1.0, -2.0];
        let trace = net.forward_one(&state, &mut rng());
        let grads = backward_one(&net, &trace, &c, 0.0);
        let analytic = flat_grads(&grads);
        let params = flat_params(&net);
        let eps = 1e-5;
        for i in (0..params.len()).step_by(5) {
            let mut pp = params.clone();
            pp[i] += eps;
            let mut np = net.clone();
            set_flat_params(&mut np, &pp);
            let mut pm = params.clone();
            pm[i] -= eps;
            let mut nm = net.clone();
            set_flat_params(&mut nm, &pm);
            let num = (loss(&np, &state, &c) - loss(&nm, &state, &c)) / (2.0 * eps);
            let err = (analytic[i] - num).abs() / (1.0 + num.abs());
            assert!(err < 1e-4, "ALIF param {i}: analytic {} vs numeric {num}", analytic[i]);
        }
    }

    #[test]
    fn adaptation_suppresses_sustained_firing() {
        // Under constant strong drive, an ALIF layer must fire less than a
        // plain LIF layer with identical weights.
        use crate::layer::LifLayer;
        use crate::neuron::{AdaptiveParams, LifParams};
        use spikefolio_tensor::Matrix;
        let mut plain = LifLayer::new(1, 1, LifParams::paper(), SpikeFn::default(), &mut rng());
        plain.weights = Matrix::filled(1, 1, 1.0);
        let mut alif = plain.clone();
        alif.adaptation = Some(AdaptiveParams { beta: 2.0, rho: 0.9 });
        let inputs = Matrix::filled(30, 1, 1.0);
        let (o_plain, _) = plain.simulate(&inputs);
        let (o_alif, _) = alif.simulate(&inputs);
        let count = |m: &Matrix| m.as_slice().iter().sum::<f64>();
        assert!(
            count(&o_alif) < count(&o_plain),
            "ALIF fired {} vs plain {}",
            count(&o_alif),
            count(&o_plain)
        );
    }

    #[test]
    fn rate_penalty_gradient_matches_finite_difference() {
        // With soft spikes the rate penalty is exactly differentiable:
        // L = c·a + λ · mean hidden "spike".
        let net = soft_net();
        let state = [0.95, 1.05, 1.1];
        let c = [0.5, -0.5];
        let lambda = 0.7;
        let trace = net.forward_one(&state, &mut rng());
        let grads = backward_one(&net, &trace, &c, lambda);
        let analytic = flat_grads(&grads);
        let params = flat_params(&net);

        let loss = |n: &SdpNetwork| -> f64 {
            let tr = n.forward_one(&state, &mut rng());
            let base: f64 = tr.action(0).iter().zip(&c).map(|(x, y)| x * y).sum();
            // Hidden layers are all but the last.
            let hidden = &tr.layers[..n.depth() - 1];
            let t = n.config().timesteps as f64;
            let n_hidden: usize = n.layers()[..n.depth() - 1].iter().map(|l| l.out_dim()).sum();
            let total: f64 = hidden.iter().flat_map(|lt| lt.outputs.as_slice()).sum();
            base + lambda * total / (t * n_hidden as f64)
        };
        let eps = 1e-5;
        for i in (0..params.len()).step_by(9) {
            let mut pp = params.clone();
            pp[i] += eps;
            let mut np = net.clone();
            set_flat_params(&mut np, &pp);
            let mut pm = params.clone();
            pm[i] -= eps;
            let mut nm = net.clone();
            set_flat_params(&mut nm, &pm);
            let num = (loss(&np) - loss(&nm)) / (2.0 * eps);
            let err = (analytic[i] - num).abs() / (1.0 + num.abs());
            assert!(err < 1e-4, "param {i}: analytic {} vs numeric {num}", analytic[i]);
        }
    }

    #[test]
    fn rate_penalty_training_reduces_spiking() {
        // Train two identical nets on the same push; the penalized one must
        // end with fewer hidden spikes.
        let state = [1.0, 1.0, 1.0];
        let d_action = [-1.0, 0.0];
        let spikes_after = |lambda: f64| -> u64 {
            let mut cfg = SdpNetworkConfig::small(3, 2);
            cfg.timesteps = 5;
            let mut net = SdpNetwork::new(cfg, &mut rng());
            let mut trainer = SdpTrainer::new(&net, spikefolio_tensor::optim::Adam::new(5e-3));
            for _ in 0..80 {
                let trace = net.forward_one(&state, &mut rng());
                let mut grads = backward_one(&net, &trace, &d_action, lambda);
                trainer.apply(&mut net, &mut grads);
            }
            net.forward_one(&state, &mut rng()).stats.neuron_spikes
        };
        let plain = spikes_after(0.0);
        let penalized = spikes_after(5.0);
        assert!(
            penalized <= plain,
            "rate penalty should not increase spiking: {penalized} vs {plain}"
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_penalty_rejected() {
        let net = soft_net();
        let trace = net.forward_one(&[1.0, 1.0, 1.0], &mut rng());
        let _ = backward_one(&net, &trace, &[0.0, 0.0], -1.0);
    }

    #[test]
    fn batched_backward_sparse_matches_dense_bitwise() {
        let mut cfg = SdpNetworkConfig::small(4, 3);
        cfg.timesteps = 5;
        let net = SdpNetwork::new(cfg, &mut rng());
        let bsz = 4;
        let states = Matrix::from_fn(bsz, 4, |b, d| 0.85 + 0.04 * ((b * 4 + d) % 7) as f64);
        let mut ws = BatchWorkspace::new(&net, bsz);
        let mut trace = BatchNetworkTrace::new(&net, bsz);
        let mut rngs: Vec<rand::rngs::StdRng> =
            (0..bsz).map(|b| rand::rngs::StdRng::seed_from_u64(40 + b as u64)).collect();
        let rec = &mut NoopRecorder;
        net.forward_batch(&states, &mut rngs, &mut ws, &mut trace, rec);
        let d_actions = Matrix::from_fn(bsz, 3, |b, a| if a == b % 3 { -1.0 } else { 0.5 });
        let dense = backward_batch_dense(&net, &trace, &d_actions, 0.3, &mut ws);
        let sparse = backward_batch(&net, &trace, &d_actions, 0.3, &mut ws, rec);
        assert_eq!(flat_grads(&sparse), flat_grads(&dense));
    }

    #[test]
    fn flat_round_trip_preserves_network() {
        let net = soft_net();
        let flat = flat_params(&net);
        let mut net2 = soft_net();
        set_flat_params(&mut net2, &flat);
        assert_eq!(flat_params(&net2), flat);
        let a1 = act(&net, &[1.0, 1.0, 1.0]);
        let a2 = act(&net2, &[1.0, 1.0, 1.0]);
        assert_eq!(a1, a2);
    }
}
