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
//!
//! Eqs. 3–4 live in one routine, the batched one the forward pass runs:
//! it writes a whole batch's timestep-major spike stack and its
//! [`SpikeSet`] in one pass over buffers the
//! [`crate::batch::BatchWorkspace`] owns. [`PopulationEncoder::encode`] is
//! its one-sample case (the Loihi deployment's off-chip encoder).

use rand::Rng;
use serde::{Deserialize, Serialize};
use spikefolio_tensor::sparse::SpikeSet;
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
        let mut a = vec![0.0; self.output_dim()];
        self.fill_stimulation(state, &mut a);
        a
    }

    /// Writes `A_E` (eq. 2) for `state` into `a`, neuron `dim·P + k` at
    /// index `dim·P + k`.
    fn fill_stimulation(&self, state: &[f64], a: &mut [f64]) {
        assert_eq!(state.len(), self.state_dim, "state length mismatch");
        let pop = self.config.pop_size;
        for (dim, (&s, a_dim)) in state.iter().zip(a.chunks_exact_mut(pop)).enumerate() {
            for (ak, &mu) in a_dim.iter_mut().zip(self.means.row(dim)) {
                let z = (s - mu) / self.sigma;
                *ak = (-0.5 * z * z).exp();
            }
        }
    }

    /// Generates the spike train: a `T × output_dim` matrix of 0/1 values.
    ///
    /// Probabilistic mode draws Bernoulli(`A_E`) per step from `rng`;
    /// deterministic mode integrates `A_E` in a soft-reset accumulator
    /// (eqs. 3–4) and ignores `rng`. This is the `B = 1` case of the
    /// batched encoder the forward pass runs, on fresh buffers.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != state_dim` or `timesteps == 0`.
    pub fn encode<R: Rng + ?Sized>(&self, state: &[f64], timesteps: usize, rng: &mut R) -> Matrix {
        assert!(timesteps > 0, "timesteps must be positive");
        let mut spikes = Matrix::zeros(timesteps, self.output_dim());
        let mut set = SpikeSet::new(self.output_dim());
        let mut scratch = EncodeScratch::new(self, 1);
        let states = Matrix::from_rows(&[state]);
        self.encode_batch(&states, &mut [rng], &mut scratch, &mut spikes, &mut set);
        spikes
    }

    /// Encodes a batch of states (`B × state_dim`, sample `b` drawing from
    /// `rngs[b]`) into the timestep-major spike stack `raster`
    /// (`(T·B) × output_dim`, row `t·B + b`) and its event view `set`,
    /// both fully overwritten.
    ///
    /// One pass: every sample's `A_E` goes into `scratch` first, then, `t`
    /// outer and `b` inner, each raster row is written and pushed into
    /// `set` while it is still in L1. Each RNG is drawn in (timestep,
    /// neuron) order, the order of a sample encoded alone, so a row of a
    /// batch is bit-identical to its `B = 1` encoding.
    ///
    /// # Panics
    ///
    /// Panics if a state has the wrong width, `rngs` is not one per state,
    /// `raster` is not `(T·B) × output_dim` for some `T > 0`, or `scratch`
    /// or `set` was built for another width or batch size.
    pub(crate) fn encode_batch<R: Rng>(
        &self,
        states: &Matrix,
        rngs: &mut [R],
        scratch: &mut EncodeScratch,
        raster: &mut Matrix,
        set: &mut SpikeSet,
    ) {
        let (bsz, n) = (states.rows(), self.output_dim());
        assert_eq!(rngs.len(), bsz, "encode: need one RNG per state");
        assert!(
            bsz > 0 && raster.cols() == n && raster.rows() > 0 && raster.rows().is_multiple_of(bsz),
            "encode: raster shape {:?} is not (T·{bsz}, {n})",
            raster.shape()
        );
        assert_eq!(scratch.stim.shape(), (bsz, n), "encode: scratch shape mismatch");
        assert_eq!(set.cols(), n, "encode: set width mismatch");
        let t_max = raster.rows() / bsz;
        for b in 0..bsz {
            self.fill_stimulation(states.row(b), scratch.stim.row_mut(b));
        }
        set.clear();
        let stim = &scratch.stim;
        match self.config.encoding {
            Encoding::Probabilistic => {
                for t in 0..t_max {
                    for (b, rng) in rngs.iter_mut().enumerate() {
                        let row = raster.row_mut(t * bsz + b);
                        for (o, &p) in row.iter_mut().zip(stim.row(b)) {
                            *o = f64::from(u8::from(rng.gen::<f64>() < p));
                        }
                        set.push_row(row);
                    }
                }
            }
            Encoding::Deterministic => {
                let thr = 1.0 - self.config.epsilon;
                let volt = &mut scratch.volt;
                volt.fill_zero();
                for t in 0..t_max {
                    for b in 0..bsz {
                        let row = raster.row_mut(t * bsz + b);
                        let cells = row.iter_mut().zip(volt.row_mut(b)).zip(stim.row(b));
                        for ((o, v), &a) in cells {
                            let x = *v + a; // eq. (3)
                            let fire = x > thr;
                            *v = if fire { x - thr } else { x }; // soft reset, eq. (4)
                            *o = f64::from(u8::from(fire));
                        }
                        set.push_row(row);
                    }
                }
            }
        }
    }
}

/// Per-batch buffers of [`PopulationEncoder::encode_batch`]: the `A_E`
/// rows and, for deterministic encoding, the accumulator voltages, both
/// `B × output_dim`. Their contents never outlive one call.
#[derive(Debug, Clone)]
pub(crate) struct EncodeScratch {
    stim: Matrix,
    volt: Matrix,
}

impl EncodeScratch {
    /// Buffers for `encoder` at batch size `batch`.
    pub(crate) fn new(encoder: &PopulationEncoder, batch: usize) -> Self {
        let n = encoder.output_dim();
        let volt_rows = match encoder.config.encoding {
            Encoding::Deterministic => batch,
            Encoding::Probabilistic => 0,
        };
        Self { stim: Matrix::zeros(batch, n), volt: Matrix::zeros(volt_rows, n) }
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

    /// The per-sample encoder written out loop by loop (eqs. 3–4 as
    /// first stated, with a branch for the soft reset): the reference the
    /// one-pass batched encoder must reproduce bitwise.
    fn reference_encode<R: Rng>(
        e: &PopulationEncoder,
        state: &[f64],
        timesteps: usize,
        rng: &mut R,
    ) -> Matrix {
        let a = e.stimulation(state);
        let mut out = Matrix::zeros(timesteps, e.output_dim());
        let mut v = vec![0.0_f64; e.output_dim()];
        for t in 0..timesteps {
            for (k, o) in out.row_mut(t).iter_mut().enumerate() {
                match e.config().encoding {
                    Encoding::Probabilistic => {
                        if rng.gen::<f64>() < a[k] {
                            *o = 1.0;
                        }
                    }
                    Encoding::Deterministic => {
                        v[k] += a[k];
                        if v[k] > 1.0 - e.config().epsilon {
                            *o = 1.0;
                            v[k] -= 1.0 - e.config().epsilon;
                        }
                    }
                }
            }
        }
        out
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn batched_encode_matches_per_sample_reference_on_dirty_buffers() {
        // In range, on a mean, out of range, NaN and ±inf entries.
        let pool = [1.0, 0.93, 1.27, 0.5, 1.5, -3.0, 9.0, f64::NAN, f64::INFINITY, -f64::INFINITY];
        for mode in [Encoding::Deterministic, Encoding::Probabilistic] {
            let e = encoder(mode);
            for bsz in [1, 3, 8] {
                for t_max in [1, 5, 9] {
                    let states = Matrix::from_fn(bsz, 3, |b, d| pool[(b * 7 + d * 3) % pool.len()]);
                    let seed = |b: usize| rand::rngs::StdRng::seed_from_u64(40 + b as u64);
                    let mut rngs: Vec<_> = (0..bsz).map(seed).collect();
                    // Buffers left dirty by another batch (and NaN scratch).
                    let mut scratch = EncodeScratch::new(&e, bsz);
                    scratch.stim.as_mut_slice().fill(f64::NAN);
                    scratch.volt.as_mut_slice().fill(f64::NAN);
                    let mut raster = Matrix::filled(t_max * bsz, e.output_dim(), 7.0);
                    let mut set = SpikeSet::from_matrix(&Matrix::filled(2, e.output_dim(), 1.0));
                    e.encode_batch(&states, &mut rngs, &mut scratch, &mut raster, &mut set);
                    let tag = format!("{mode:?} B={bsz} T={t_max}");
                    assert_eq!(set, SpikeSet::from_matrix(&raster), "{tag}: event view");
                    for (b, rng) in rngs.iter_mut().enumerate() {
                        let mut alone = seed(b);
                        let want = reference_encode(&e, states.row(b), t_max, &mut alone);
                        let mut again = seed(b);
                        let wrapped = e.encode(states.row(b), t_max, &mut again);
                        assert_eq!(bits(&wrapped), bits(&want), "{tag} sample {b}: encode");
                        for t in 0..t_max {
                            let got = raster.row(t * bsz + b).iter().map(|x| x.to_bits());
                            let want_row = want.row(t).iter().map(|x| x.to_bits());
                            assert!(got.eq(want_row), "{tag} sample {b} t={t}");
                        }
                        // Every stream sits where a lone encoding leaves it.
                        let pos = rng.next_u64();
                        assert_eq!(pos, alone.next_u64(), "{tag} sample {b}: RNG position");
                        assert_eq!(pos, again.next_u64(), "{tag} sample {b}: encode RNG");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "encode: raster shape")]
    fn encode_batch_rejects_a_raster_of_another_batch() {
        let e = encoder(Encoding::Deterministic);
        let states = Matrix::filled(2, 3, 1.0);
        let mut scratch = EncodeScratch::new(&e, 2);
        let mut raster = Matrix::zeros(5, e.output_dim()); // not T·2 rows
        let mut set = SpikeSet::new(e.output_dim());
        e.encode_batch(&states, &mut [rng(), rng()], &mut scratch, &mut raster, &mut set);
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
