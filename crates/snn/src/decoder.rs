//! Rate decoder (eqs. 8–10): output-population firing rates → portfolio
//! weights on the simplex.
//!
//! The last LIF layer carries `N` output populations of `pop_out` neurons
//! each. Per action `i` (Algorithm 1):
//!
//! ```text
//! firingRate_i = Σ_t Σ_{j ∈ pop i} o_j(t) / (T · pop_out)      (eq. 8)
//! z_i          = w_d_i · firingRate_i + b_d_i                  (eq. 9)
//! a_i          = exp(z_i) / Σ_j exp(z_j)                       (eq. 10)
//! ```
//!
//! The exponential-normalize of Algorithm 1 is a softmax over `z`, which
//! guarantees the action lies on the probability simplex.

use rand::Rng;
use spikefolio_tensor::ops::{softmax_backward, softmax_in_place};

/// The decoder of eqs. (8)–(10).
#[derive(Debug, Clone, PartialEq)]
pub struct Decoder {
    /// Per-action rate weight `w_d` (eq. 9).
    pub weights: Vec<f64>,
    /// Per-action bias `b_d` (eq. 9).
    pub bias: Vec<f64>,
    /// Neurons per output population.
    pub pop_out: usize,
    /// Simulation length `T` the rates are averaged over.
    pub timesteps: usize,
}

/// Gradients of the decoder parameters plus the gradient flowing back into
/// the last layer's spike raster.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderGradients {
    /// `∂L/∂w_d` per action (eq. 12).
    pub d_weights: Vec<f64>,
    /// `∂L/∂b_d` per action (eq. 12).
    pub d_bias: Vec<f64>,
    /// `∂L/∂o_j(t)` for every last-layer neuron — constant across `t`
    /// because the rate is a plain average (one entry per neuron).
    pub d_spikes_per_step: Vec<f64>,
}

impl Decoder {
    /// Creates a decoder for `action_dim` actions with `pop_out` neurons
    /// per output population and averaging window `timesteps`.
    ///
    /// Weights start at 1 and biases at 0 so that an untrained network
    /// maps equal rates to the uniform portfolio.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(action_dim: usize, pop_out: usize, timesteps: usize) -> Self {
        assert!(action_dim > 0 && pop_out > 0 && timesteps > 0, "decoder dims must be positive");
        Self { weights: vec![1.0; action_dim], bias: vec![0.0; action_dim], pop_out, timesteps }
    }

    /// Creates a decoder with small random perturbations on the weights,
    /// breaking symmetry between actions.
    pub fn new_randomized<R: Rng + ?Sized>(
        action_dim: usize,
        pop_out: usize,
        timesteps: usize,
        rng: &mut R,
    ) -> Self {
        let mut d = Self::new(action_dim, pop_out, timesteps);
        for w in &mut d.weights {
            *w += rng.gen_range(-0.05..0.05);
        }
        d
    }

    /// Number of actions.
    pub fn action_dim(&self) -> usize {
        self.weights.len()
    }

    /// Number of last-layer neurons expected (`action_dim × pop_out`).
    pub fn input_dim(&self) -> usize {
        self.action_dim() * self.pop_out
    }

    /// Decodes summed spikes into an action, writing each action's mean
    /// firing rate (eq. 8) into `firing_rates_out` and the action into
    /// `action_out`, where the softmax runs in place. Allocates nothing.
    ///
    /// `spike_sums[j]` is `Σ_t o_j(t)` for last-layer neuron `j`.
    ///
    /// # Panics
    ///
    /// Panics if `spike_sums.len() != input_dim()` or either output is not
    /// `action_dim()` long.
    pub fn decode_into(
        &self,
        spike_sums: &[f64],
        firing_rates_out: &mut [f64],
        action_out: &mut [f64],
    ) {
        assert_eq!(spike_sums.len(), self.input_dim(), "spike sum length mismatch");
        assert_eq!(firing_rates_out.len(), self.action_dim(), "firing rate length mismatch");
        assert_eq!(action_out.len(), self.action_dim(), "action length mismatch");
        let denom = (self.timesteps * self.pop_out) as f64;
        let params = self.weights.iter().zip(&self.bias);
        for (((pop, fr), z), (&w, &b)) in spike_sums
            .chunks_exact(self.pop_out)
            .zip(firing_rates_out.iter_mut())
            .zip(action_out.iter_mut())
            .zip(params)
        {
            *fr = pop.iter().sum::<f64>() / denom;
            *z = w * *fr + b;
        }
        softmax_in_place(action_out);
    }

    /// Backward pass: given the forward pass's `firing_rates` and `action`
    /// (the outputs of [`decode_into`](Self::decode_into)) and `∂L/∂a`, returns the
    /// parameter gradients and the per-step gradient on each last-layer
    /// spike (eq. 12 plus the softmax Jacobian).
    ///
    /// # Panics
    ///
    /// Panics if `d_action.len() != action_dim()`.
    pub fn backward(
        &self,
        firing_rates: &[f64],
        action: &[f64],
        d_action: &[f64],
    ) -> DecoderGradients {
        assert_eq!(d_action.len(), self.action_dim(), "d_action length mismatch");
        let dz = softmax_backward(action, d_action);
        let d_weights: Vec<f64> = dz.iter().zip(firing_rates).map(|(&dzi, &fr)| dzi * fr).collect();
        let d_bias = dz.clone();
        let denom = (self.timesteps * self.pop_out) as f64;
        let mut d_spikes_per_step = Vec::with_capacity(self.input_dim());
        for (i, &dzi) in dz.iter().enumerate() {
            let g = dzi * self.weights[i] / denom;
            d_spikes_per_step.extend(std::iter::repeat_n(g, self.pop_out));
        }
        DecoderGradients { d_weights, d_bias, d_spikes_per_step }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(firing_rates, action)` of [`Decoder::decode_into`] on fresh buffers.
    fn decode(d: &Decoder, sums: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut rates = vec![0.0; d.action_dim()];
        let mut action = vec![0.0; d.action_dim()];
        d.decode_into(sums, &mut rates, &mut action);
        (rates, action)
    }

    #[test]
    fn uniform_rates_give_uniform_action() {
        let d = Decoder::new(4, 3, 5);
        let (rates, action) = decode(&d, &[5.0; 12]); // every neuron spiked each step
        assert!(action.iter().all(|&a| (a - 0.25).abs() < 1e-12));
        assert!(rates.iter().all(|&f| (f - 1.0).abs() < 1e-12));
    }

    #[test]
    fn hotter_population_gets_more_weight() {
        let d = Decoder::new(3, 2, 5);
        // Population 1 spikes twice as much as the others.
        let sums = [2.0, 2.0, 4.0, 4.0, 2.0, 2.0];
        let (_, action) = decode(&d, &sums);
        assert!(action[1] > action[0]);
        assert!(action[1] > action[2]);
        assert!((action.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn firing_rates_average_over_population_and_time() {
        let d = Decoder::new(2, 2, 10);
        let (rates, _) = decode(&d, &[10.0, 0.0, 5.0, 5.0]);
        assert!((rates[0] - 0.5).abs() < 1e-12);
        assert!((rates[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn action_is_always_on_simplex() {
        let d = Decoder::new(5, 4, 5);
        for scale in [0.0, 1.0, 3.0, 20.0] {
            let sums: Vec<f64> = (0..20).map(|j| (j % 5) as f64 * scale).collect();
            let (_, a) = decode(&d, &sums);
            assert!(spikefolio_tensor::simplex::is_on_simplex(&a, 1e-9), "scale {scale}");
        }
    }

    #[test]
    fn backward_matches_finite_difference_on_weights() {
        // Loss L = Σ c_i a_i for arbitrary c; check ∂L/∂w_d numerically.
        let mut d = Decoder::new(3, 2, 4);
        d.weights = vec![1.2, 0.8, 1.0];
        d.bias = vec![0.1, -0.1, 0.0];
        let sums = [3.0, 2.0, 1.0, 4.0, 2.0, 2.0];
        let c = [1.0, -2.0, 0.5];
        let (rates, action) = decode(&d, &sums);
        let grads = d.backward(&rates, &action, &c);
        let eps = 1e-6;
        for i in 0..3 {
            let mut dp = d.clone();
            dp.weights[i] += eps;
            let mut dm = d.clone();
            dm.weights[i] -= eps;
            let lp: f64 = decode(&dp, &sums).1.iter().zip(&c).map(|(a, b)| a * b).sum();
            let lm: f64 = decode(&dm, &sums).1.iter().zip(&c).map(|(a, b)| a * b).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (grads.d_weights[i] - num).abs() < 1e-6,
                "w[{i}]: {} vs {num}",
                grads.d_weights[i]
            );
        }
    }

    #[test]
    fn backward_matches_finite_difference_on_bias_and_spikes() {
        let mut d = Decoder::new(2, 2, 3);
        d.weights = vec![0.9, 1.1];
        let sums = [1.0, 2.0, 3.0, 0.0];
        let c = [2.0, -1.0];
        let (rates, action) = decode(&d, &sums);
        let grads = d.backward(&rates, &action, &c);
        let eps = 1e-6;
        for i in 0..2 {
            let mut dp = d.clone();
            dp.bias[i] += eps;
            let mut dm = d.clone();
            dm.bias[i] -= eps;
            let lp: f64 = decode(&dp, &sums).1.iter().zip(&c).map(|(a, b)| a * b).sum();
            let lm: f64 = decode(&dm, &sums).1.iter().zip(&c).map(|(a, b)| a * b).sum();
            assert!((grads.d_bias[i] - (lp - lm) / (2.0 * eps)).abs() < 1e-6);
        }
        // Spike-sum gradient: perturb one spike sum. d_spikes_per_step is the
        // gradient per *per-step spike*, i.e. per unit of spike sum.
        for j in 0..4 {
            let mut sp = sums;
            sp[j] += eps;
            let mut sm = sums;
            sm[j] -= eps;
            let lp: f64 = decode(&d, &sp).1.iter().zip(&c).map(|(a, b)| a * b).sum();
            let lm: f64 = decode(&d, &sm).1.iter().zip(&c).map(|(a, b)| a * b).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (grads.d_spikes_per_step[j] - num).abs() < 1e-6,
                "spike {j}: {} vs {num}",
                grads.d_spikes_per_step[j]
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_spike_sum_length_panics() {
        let d = Decoder::new(2, 2, 3);
        let _ = decode(&d, &[1.0, 2.0, 3.0]);
    }
}
