//! Population encoder (eqs. 2–4): Gaussian receptive fields turning a real
//! state vector into spike trains.
//!
//! Each of the `M` state dimensions gets a population of `P` neurons whose
//! Gaussian means tile the dimension's value range. The stimulation
//! strength of neuron `k` for state value `s` is (eq. 2)
//!
//! ```text
//! A_E = exp(−½ ((s − μ_k)/σ)²)
//! ```
//!
//! and spikes over the `T` simulation steps are produced either
//! probabilistically (Bernoulli(`A_E`) per step) or deterministically via a
//! one-step soft-reset LIF accumulator (eqs. 3–4).

use rand::Rng;
use serde::{Deserialize, Serialize};
use spikefolio_tensor::Matrix;

/// Spike-generation mode of the encoder (§II.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Encoding {
    /// Each neuron spikes with probability `A_E` at every timestep.
    Probabilistic,
    /// One-step soft-reset LIF accumulator (eqs. 3–4): deterministic, used
    /// for Loihi deployment where reproducibility matters.
    Deterministic,
}

/// Configuration of the population encoder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationEncoderConfig {
    /// Neurons per state dimension (`P`).
    pub pop_size: usize,
    /// Receptive-field width `σ` (eq. 2). If zero or negative, a width of
    /// `(hi − lo) / pop_size` is derived so neighbouring fields overlap.
    pub sigma: f64,
    /// Lower edge of the expected state value range.
    pub value_lo: f64,
    /// Upper edge of the expected state value range.
    pub value_hi: f64,
    /// Spike-generation mode.
    pub encoding: Encoding,
    /// Soft-reset constant `ε` of eq. (4).
    pub epsilon: f64,
}

impl Default for PopulationEncoderConfig {
    /// Ten neurons per dimension over `[0.5, 1.5]` (normalized price ratios
    /// hover around 1), deterministic encoding.
    fn default() -> Self {
        Self {
            pop_size: 10,
            sigma: 0.0,
            value_lo: 0.5,
            value_hi: 1.5,
            encoding: Encoding::Deterministic,
            epsilon: 0.05,
        }
    }
}

/// The population encoder. See the [module docs](self).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use spikefolio_snn::{PopulationEncoder, PopulationEncoderConfig};
///
/// let enc = PopulationEncoder::new(2, PopulationEncoderConfig::default());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let spikes = enc.encode(&[1.0, 1.2], 5, &mut rng); // T=5 rows
/// assert_eq!(spikes.shape(), (5, enc.output_dim()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationEncoder {
    state_dim: usize,
    config: PopulationEncoderConfig,
    /// Gaussian means, `state_dim × pop_size`, row per dimension.
    means: Matrix,
    sigma: f64,
}

impl PopulationEncoder {
    /// Builds an encoder for `state_dim` input dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `state_dim` or `pop_size` is zero, or if
    /// `value_lo >= value_hi`.
    pub fn new(state_dim: usize, config: PopulationEncoderConfig) -> Self {
        assert!(state_dim > 0, "state_dim must be positive");
        assert!(config.pop_size > 0, "pop_size must be positive");
        assert!(
            config.value_lo < config.value_hi,
            "value range [{}, {}] is empty",
            config.value_lo,
            config.value_hi
        );
        let span = config.value_hi - config.value_lo;
        let sigma = if config.sigma > 0.0 { config.sigma } else { span / config.pop_size as f64 };
        // Means tile the range uniformly: μ_k = lo + (k + ½)·span/P.
        let means = Matrix::from_fn(state_dim, config.pop_size, |_, k| {
            config.value_lo + (k as f64 + 0.5) * span / config.pop_size as f64
        });
        Self { state_dim, config, means, sigma }
    }

    /// Number of input dimensions.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Total number of encoder neurons (`state_dim × pop_size`).
    pub fn output_dim(&self) -> usize {
        self.state_dim * self.config.pop_size
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &PopulationEncoderConfig {
        &self.config
    }

    /// The receptive-field width in force (derived if the configured σ was
    /// non-positive).
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Stimulation strengths `A_E` (eq. 2) for a state vector: one entry
    /// per encoder neuron, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != state_dim`.
    pub fn stimulation(&self, state: &[f64]) -> Vec<f64> {
        assert_eq!(state.len(), self.state_dim, "state length mismatch");
        let mut a = Vec::with_capacity(self.output_dim());
        for (dim, &s) in state.iter().enumerate() {
            for k in 0..self.config.pop_size {
                let mu = self.means[(dim, k)];
                let z = (s - mu) / self.sigma;
                a.push((-0.5 * z * z).exp());
            }
        }
        a
    }

    /// Generates the spike train: a `T × output_dim` matrix of 0/1 values.
    ///
    /// Probabilistic mode draws Bernoulli(`A_E`) per step from `rng`;
    /// deterministic mode integrates `A_E` in a soft-reset accumulator
    /// (eqs. 3–4) and ignores `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != state_dim` or `timesteps == 0`.
    pub fn encode<R: Rng + ?Sized>(&self, state: &[f64], timesteps: usize, rng: &mut R) -> Matrix {
        let mut spikes = Matrix::zeros(timesteps, self.output_dim());
        self.encode_into(state, timesteps, rng, &mut spikes, 0);
        spikes
    }

    /// Like [`PopulationEncoder::encode`], but writes sample `b`'s spike
    /// train into rows `t·B + b` of a caller-owned stacked
    /// `(timesteps·B) × output_dim` matrix, clearing those rows first —
    /// the timestep-major layout of the batched engine, which encodes each
    /// sample straight into its trace. Consumes `rng` identically to
    /// [`PopulationEncoder::encode`].
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != state_dim`, `timesteps == 0`, `out` is not
    /// `(timesteps·B) × output_dim` for some `B`, or `b >= B`.
    pub fn encode_into<R: Rng + ?Sized>(
        &self,
        state: &[f64],
        timesteps: usize,
        rng: &mut R,
        out: &mut Matrix,
        b: usize,
    ) {
        assert!(timesteps > 0, "timesteps must be positive");
        let n = self.output_dim();
        let batch = out.rows() / timesteps;
        assert!(
            out.cols() == n && out.rows() == timesteps * batch && b < batch,
            "encode_into: out shape {:?} is not ({timesteps}·B, {n}) with sample {b} < B",
            out.shape()
        );
        let a = self.stimulation(state);
        for t in 0..timesteps {
            out.row_mut(t * batch + b).fill(0.0);
        }
        match self.config.encoding {
            Encoding::Probabilistic => {
                for t in 0..timesteps {
                    let row = out.row_mut(t * batch + b);
                    for (o, &p) in row.iter_mut().zip(&a) {
                        *o = if rng.gen::<f64>() < p { 1.0 } else { 0.0 };
                    }
                }
            }
            Encoding::Deterministic => {
                let eps = self.config.epsilon;
                let mut v = vec![0.0_f64; n];
                for t in 0..timesteps {
                    let row = out.row_mut(t * batch + b);
                    for ((o, vk), &ak) in row.iter_mut().zip(v.iter_mut()).zip(&a) {
                        *vk += ak; // eq. (3)
                        if *vk > 1.0 - eps {
                            *o = 1.0;
                            *vk -= 1.0 - eps; // soft reset, eq. (4)
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    fn encoder(encoding: Encoding) -> PopulationEncoder {
        PopulationEncoder::new(
            3,
            PopulationEncoderConfig { encoding, ..PopulationEncoderConfig::default() },
        )
    }

    #[test]
    fn output_dim_is_state_times_pop() {
        let e = encoder(Encoding::Deterministic);
        assert_eq!(e.output_dim(), 30);
    }

    #[test]
    fn stimulation_peaks_at_nearest_mean() {
        let e = PopulationEncoder::new(
            1,
            PopulationEncoderConfig { pop_size: 5, ..PopulationEncoderConfig::default() },
        );
        // Means are at 0.6, 0.8, 1.0, 1.2, 1.4; stimulate with s = 1.0.
        let a = e.stimulation(&[1.0]);
        let best = spikefolio_tensor::vector::argmax(&a).unwrap();
        assert_eq!(best, 2);
        assert!((a[2] - 1.0).abs() < 1e-12, "exact mean match gives A_E = 1");
    }

    #[test]
    fn stimulation_is_in_unit_interval() {
        let e = encoder(Encoding::Deterministic);
        for s in [[0.0, 1.0, 3.0], [0.5, 1.5, 1.0], [-2.0, 0.9, 1.1]] {
            let a = e.stimulation(&s);
            assert!(a.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn deterministic_encoding_ignores_rng() {
        let e = encoder(Encoding::Deterministic);
        let s1 = e.encode(&[1.0, 0.9, 1.1], 5, &mut rng());
        let s2 = e.encode(&[1.0, 0.9, 1.1], 5, &mut rand::rngs::StdRng::seed_from_u64(12345));
        assert_eq!(s1, s2);
    }

    #[test]
    fn probabilistic_encoding_uses_rng() {
        let e = encoder(Encoding::Probabilistic);
        let s1 = e.encode(&[1.0, 0.9, 1.1], 50, &mut rng());
        let s2 = e.encode(&[1.0, 0.9, 1.1], 50, &mut rand::rngs::StdRng::seed_from_u64(12345));
        assert_ne!(s1, s2, "different RNG streams should differ over 50 steps");
    }

    #[test]
    fn spikes_are_binary() {
        for mode in [Encoding::Deterministic, Encoding::Probabilistic] {
            let e = encoder(mode);
            let s = e.encode(&[1.0, 0.8, 1.2], 7, &mut rng());
            assert!(s.as_slice().iter().all(|&x| x == 0.0 || x == 1.0));
        }
    }

    #[test]
    fn stronger_stimulation_spikes_more() {
        // A neuron exactly at its mean (A_E = 1) must out-spike one far away.
        let e = PopulationEncoder::new(
            1,
            PopulationEncoderConfig { pop_size: 5, ..PopulationEncoderConfig::default() },
        );
        let spikes = e.encode(&[1.0], 10, &mut rng());
        let count = |k: usize| -> f64 { (0..10).map(|t| spikes[(t, k)]).sum() };
        assert!(count(2) > count(0), "on-mean neuron should spike more than edge neuron");
    }

    #[test]
    fn deterministic_rate_tracks_stimulation() {
        // With A_E = 1 the accumulator fires every step (1.0 > 1 - ε always
        // after one accumulation); with A_E = 0.5 roughly every other step.
        let e = PopulationEncoder::new(
            1,
            PopulationEncoderConfig {
                pop_size: 1,
                sigma: 1.0,
                value_lo: 0.0,
                value_hi: 2.0,
                encoding: Encoding::Deterministic,
                epsilon: 0.05,
            },
        );
        // pop_size 1 → mean at 1.0.
        let t = 20;
        let s_full = e.encode(&[1.0], t, &mut rng());
        let fired: f64 = s_full.as_slice().iter().sum();
        assert_eq!(fired, t as f64, "A_E = 1 fires every step");
    }

    #[test]
    fn probabilistic_rate_approximates_stimulation() {
        let e = PopulationEncoder::new(
            1,
            PopulationEncoderConfig {
                pop_size: 1,
                sigma: 1.0,
                value_lo: 0.0,
                value_hi: 2.0,
                encoding: Encoding::Probabilistic,
                epsilon: 0.05,
            },
        );
        let a = e.stimulation(&[1.5])[0]; // off-mean → A_E < 1
        let t = 4000;
        let s = e.encode(&[1.5], t, &mut rng());
        let rate = s.as_slice().iter().sum::<f64>() / t as f64;
        assert!((rate - a).abs() < 0.05, "rate {rate} vs A_E {a}");
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode() {
        for mode in [Encoding::Deterministic, Encoding::Probabilistic] {
            let e = encoder(mode);
            let state = [1.0, 0.9, 1.1];
            let fresh = e.encode(&state, 5, &mut rng());
            // Same seed, dirty reused buffer: identical spikes and RNG use.
            let mut buf = Matrix::filled(5, e.output_dim(), 7.0);
            let mut r = rng();
            e.encode_into(&state, 5, &mut r, &mut buf, 0);
            assert_eq!(buf, fresh, "{mode:?}");
            // Sample 1 of a stacked batch of 3 lands in rows t·3 + 1 and
            // leaves the other samples' rows alone.
            let mut stack = Matrix::filled(5 * 3, e.output_dim(), 7.0);
            e.encode_into(&state, 5, &mut rng(), &mut stack, 1);
            for t in 0..5 {
                assert_eq!(stack.row(t * 3 + 1), fresh.row(t), "{mode:?} t={t}");
                assert!(stack.row(t * 3).iter().all(|&x| x == 7.0), "{mode:?} t={t}");
            }
            // The RNG must have advanced exactly as in `encode`.
            let mut r2 = rng();
            let _ = e.encode(&state, 5, &mut r2);
            assert_eq!(r.next_u64(), r2.next_u64(), "{mode:?} RNG stream diverged");
        }
    }

    #[test]
    #[should_panic(expected = "encode_into: out shape")]
    fn encode_into_rejects_wrong_shape() {
        let e = encoder(Encoding::Deterministic);
        let mut buf = Matrix::zeros(4, e.output_dim());
        e.encode_into(&[1.0, 0.9, 1.1], 5, &mut rng(), &mut buf, 0);
    }

    #[test]
    #[should_panic(expected = "state length")]
    fn wrong_state_length_panics() {
        let e = encoder(Encoding::Deterministic);
        let _ = e.stimulation(&[1.0]);
    }

    #[test]
    fn derived_sigma_overlaps_fields() {
        let e = PopulationEncoder::new(1, PopulationEncoderConfig::default());
        // σ derived as span/P = 0.1; neighbouring means are 0.1 apart, so a
        // state halfway between two means still stimulates both at
        // exp(-1/8) ≈ 0.88.
        let a = e.stimulation(&[0.65]);
        let active = a.iter().filter(|&&x| x > 0.5).count();
        assert!(active >= 2, "receptive fields should overlap, got {active} active");
    }
}
