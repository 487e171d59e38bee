//! Fully-connected dual-state LIF layer (eqs. 5–7 / Algorithm 1).

use crate::neuron::{AdaptiveParams, LifParams, SpikeFn};
use rand::Rng;
use spikefolio_tensor::init::Init;
use spikefolio_tensor::Matrix;

/// A fully-connected layer of dual-state LIF neurons, optionally with
/// adaptive thresholds (ALIF).
///
/// Holds the weight matrix `W` (`out × in`), bias `b`, neuron parameters,
/// and the spike nonlinearity. The layer itself is stateless between
/// forward passes: the batched engine ([`crate::batch`]) owns the
/// per-sample state (`c`, `v`, `o`, adaptation `b`) and advances it with
/// its one neuron-update routine (`LifLayer::update`).
#[derive(Debug, Clone, PartialEq)]
pub struct LifLayer {
    /// Synaptic weight matrix, `out_dim × in_dim`.
    pub weights: Matrix,
    /// Bias added to the synaptic current each step.
    pub bias: Vec<f64>,
    /// Neuron dynamics parameters.
    pub params: LifParams,
    /// Spike nonlinearity (hard + surrogate, or soft for gradient checks).
    pub spike_fn: SpikeFn,
    /// Threshold adaptation (ALIF) if enabled.
    pub adaptation: Option<AdaptiveParams>,
}

impl LifLayer {
    /// Creates a layer with Kaiming-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        params: LifParams,
        spike_fn: SpikeFn,
        rng: &mut R,
    ) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "layer dims must be positive");
        params.validate().expect("invalid LIF parameters");
        Self {
            weights: Init::KaimingUniform.matrix(out_dim, in_dim, rng),
            bias: vec![0.0; out_dim],
            params,
            spike_fn,
            adaptation: None,
        }
    }

    /// Creates an ALIF layer (adaptive thresholds).
    ///
    /// # Panics
    ///
    /// Panics if the LIF or adaptation parameters are invalid.
    pub fn new_adaptive<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        params: LifParams,
        adaptation: AdaptiveParams,
        spike_fn: SpikeFn,
        rng: &mut R,
    ) -> Self {
        adaptation.validate().expect("invalid adaptation parameters");
        let mut layer = Self::new(in_dim, out_dim, params, spike_fn, rng);
        layer.adaptation = Some(adaptation);
        layer
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension (number of neurons).
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Advances one sample of the layer by one timestep (eqs. 5–7 /
    /// Algorithm 1), in place. `drive` is this step's synaptic drive
    /// `W·o_in(t)`; `current`, `voltage` and `adapt` carry the neuron
    /// state; `spikes` holds `o(t−1)` on entry and `o(t)` on exit; and
    /// `thresholds` receives the effective `th(t)`.
    ///
    /// This is the one implementation of the neuron update: the batched
    /// engine calls it once per sample row and timestep.
    pub(crate) fn update(
        &self,
        drive: &[f64],
        current: &mut [f64],
        voltage: &mut [f64],
        spikes: &mut [f64],
        adapt: &mut [f64],
        thresholds: &mut [f64],
    ) {
        let p = &self.params;
        for i in 0..self.out_dim() {
            // eq. (5): c(t) = d_c·c(t−1) + W·o_in + b.
            current[i] = p.d_c * current[i] + drive[i] + self.bias[i];
            // eq. (6) + reset: v(t) = d_v·v(t−1)·(1 − o(t−1)) + c(t).
            voltage[i] = p.d_v * voltage[i] * (1.0 - spikes[i]) + current[i];
        }
        // Effective thresholds th(t) = V_th + β·b(t), with the adaptation
        // trace updated from the previous step's spikes.
        match self.adaptation {
            Some(ad) => {
                for i in 0..self.out_dim() {
                    adapt[i] = ad.rho * adapt[i] + (1.0 - ad.rho) * spikes[i];
                    thresholds[i] = p.v_th + ad.beta * adapt[i];
                }
            }
            None => thresholds.iter_mut().for_each(|th| *th = p.v_th),
        }
        for i in 0..self.out_dim() {
            spikes[i] = self.spike_fn.spike(voltage[i], thresholds[i]); // eq. (7)
        }
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

#[cfg(test)]
impl LifLayer {
    /// Drives this layer alone, from rest, over a `T × in_dim` input
    /// raster: a dense `matvec` drive per step into [`LifLayer::update`].
    /// Returns the output spikes and the post-update voltages, both
    /// `T × out_dim`.
    pub(crate) fn simulate(&self, inputs: &Matrix) -> (Matrix, Matrix) {
        let n = self.out_dim();
        let (mut c, mut v, mut o, mut b, mut th) =
            (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut spikes = Matrix::zeros(inputs.rows(), n);
        let mut voltages = Matrix::zeros(inputs.rows(), n);
        for t in 0..inputs.rows() {
            let drive = self.weights.matvec(inputs.row(t));
            self.update(&drive, &mut c, &mut v, &mut o, &mut b, &mut th);
            spikes.row_mut(t).copy_from_slice(&o);
            voltages.row_mut(t).copy_from_slice(&v);
        }
        (spikes, voltages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::Surrogate;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(5)
    }

    fn hard() -> SpikeFn {
        SpikeFn::Hard { surrogate: Surrogate::paper_rectangular() }
    }

    #[test]
    fn dims_and_param_count() {
        let l = LifLayer::new(8, 4, LifParams::paper(), hard(), &mut rng());
        assert_eq!(l.in_dim(), 8);
        assert_eq!(l.out_dim(), 4);
        assert_eq!(l.num_params(), 8 * 4 + 4);
    }

    #[test]
    fn silent_input_produces_no_spikes() {
        let l = LifLayer::new(6, 3, LifParams::paper(), hard(), &mut rng());
        let inputs = Matrix::zeros(5, 6);
        let (out, _) = l.simulate(&inputs);
        assert_eq!(out, Matrix::zeros(5, 3));
    }

    #[test]
    fn strong_constant_drive_spikes() {
        let mut l = LifLayer::new(2, 1, LifParams::paper(), hard(), &mut rng());
        l.weights = Matrix::filled(1, 2, 1.0);
        let inputs = Matrix::filled(4, 2, 1.0); // drive = 2.0 per step ≫ V_th
        let (out, _) = l.simulate(&inputs);
        assert!(out.as_slice().iter().sum::<f64>() >= 3.0, "neuron should spike nearly every step");
    }

    #[test]
    fn dynamics_match_hand_simulation() {
        // One neuron, one input, weight 0.3, no bias.
        let mut l = LifLayer::new(1, 1, LifParams::paper(), hard(), &mut rng());
        l.weights = Matrix::filled(1, 1, 0.3);
        l.bias[0] = 0.0;
        let inputs = Matrix::filled(6, 1, 1.0);
        let (out, voltages) = l.simulate(&inputs);
        // Hand-rolled dual-state dynamics.
        let (mut c, mut v, mut o) = (0.0, 0.0, 0.0);
        for t in 0..6 {
            c = 0.5 * c + 0.3;
            v = 0.8 * v * (1.0 - o) + c;
            let exp_v = v;
            o = if v > 0.5 { 1.0 } else { 0.0 };
            assert!((voltages[(t, 0)] - exp_v).abs() < 1e-12, "voltage at t={t}");
            assert_eq!(out[(t, 0)], o, "spike at t={t}");
        }
    }

    #[test]
    fn reset_clears_voltage_contribution() {
        // After a spike, the voltage restarts from the new current alone.
        let mut l =
            LifLayer::new(1, 1, LifParams { v_th: 0.5, d_c: 0.0, d_v: 0.9 }, hard(), &mut rng());
        l.weights = Matrix::filled(1, 1, 0.6); // immediate spike every step? v=0.6>0.5
        let inputs = Matrix::filled(3, 1, 1.0);
        let (out, voltages) = l.simulate(&inputs);
        // t0: c=0.6, v=0.6 → spike. t1: c=0.6, v=0.9*0.6*(1-1)+0.6=0.6 → spike.
        assert_eq!(out.as_slice(), &[1.0, 1.0, 1.0]);
        assert!((voltages[(1, 0)] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn soft_spikes_are_graded() {
        let l =
            LifLayer::new(2, 2, LifParams::paper(), SpikeFn::Soft { temperature: 0.2 }, &mut rng());
        let (out, _) = l.simulate(&Matrix::filled(3, 2, 1.0));
        // Soft outputs are in (0,1), not exactly binary.
        assert!(out.as_slice().iter().all(|&o| (0.0..=1.0).contains(&o)));
        assert!(out.as_slice().iter().any(|&o| o > 0.0 && o < 1.0));
    }
}
