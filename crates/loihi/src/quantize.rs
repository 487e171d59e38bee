//! Weight/threshold rescaling to Loihi's integer grid (eq. 14).
//!
//! Loihi stores synaptic weights as 8-bit integers. Eq. (14) rescales each
//! layer independently:
//!
//! ```text
//! r(k)        = w_max_loihi / max |w(k)|
//! w_loihi(k)  = round(r(k) · w(k))
//! V_th_loihi  = round(r(k) · V_th)
//! ```
//!
//! Because current, voltage, and threshold all scale by the same `r(k)`,
//! the spike pattern of the integer network matches the float network up
//! to rounding error — verified by the round-trip tests and by the
//! pipeline tests in the core crate.

use spikefolio_snn::network::SdpNetwork;
use spikefolio_snn::LifParams;

/// Largest weight magnitude representable on Loihi (8-bit signed).
pub const LOIHI_W_MAX: i32 = 127;

/// One quantized layer: integer weights/bias plus the integer threshold
/// and the rescale ratio used (eq. 14).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLayer {
    /// Integer weights, row-major `out × in`.
    pub weights: Vec<i32>,
    /// Output (row) count.
    pub out_dim: usize,
    /// Input (column) count.
    pub in_dim: usize,
    /// Integer bias (added to current each step), scaled by `ratio`.
    pub bias: Vec<i32>,
    /// Integer firing threshold `round(r · V_th)`.
    pub v_th: i32,
    /// The rescale ratio `r(k)`.
    pub ratio: f64,
}

impl QuantizedLayer {
    /// Integer weight at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn weight(&self, row: usize, col: usize) -> i32 {
        assert!(row < self.out_dim && col < self.in_dim, "index out of bounds");
        self.weights[row * self.in_dim + col]
    }

    /// Reconstructs the float weight matrix (`w_loihi / r`), for error
    /// analysis.
    pub fn dequantized(&self) -> Vec<f64> {
        self.weights.iter().map(|&w| w as f64 / self.ratio).collect()
    }
}

/// A fully quantized SDP network ready for chip mapping: integer LIF
/// layers plus the float decoder (the decoder runs off-chip on the
/// embedded x86 cores, as in the PopSAN deployments the paper follows).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedNetwork {
    /// Quantized LIF layers, input-side first.
    pub layers: Vec<QuantizedLayer>,
    /// LIF decay parameters (shared with the float network; decays are
    /// dimensionless and implemented as 12-bit multipliers on chip).
    pub lif: LifParams,
    /// Simulation length `T`.
    pub timesteps: usize,
}

/// Summary statistics of a quantization pass.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizationReport {
    /// Per-layer rescale ratios `r(k)`.
    pub ratios: Vec<f64>,
    /// Per-layer maximum absolute weight error after dequantization
    /// (saturated weights excluded — their error is unbounded by design).
    pub max_errors: Vec<f64>,
    /// Per-layer share of weights that rounded to zero.
    pub zero_fractions: Vec<f64>,
    /// Per-layer count of weights/biases clamped to full scale (±127).
    pub saturated_counts: Vec<usize>,
    /// Per-layer share of weights/biases clamped to full scale.
    pub saturated_fractions: Vec<f64>,
}

impl QuantizationReport {
    /// Total clamped weights/biases across all layers — the value emitted
    /// on the `loihi/saturated_weights` telemetry counter at deploy time.
    pub fn total_saturated(&self) -> u64 {
        self.saturated_counts.iter().map(|&c| c as u64).sum()
    }
}

/// Tunable knobs of the rescale pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizeOptions {
    /// Which quantile of the per-layer `|w|` distribution maps to full
    /// scale. `1.0` (the default) is the paper's eq. (14): the max maps to
    /// 127 and nothing saturates. Lower values trade resolution for
    /// outlier weights against resolution for the bulk — everything above
    /// the quantile clamps to ±127 and is counted as saturated.
    pub ratio_percentile: f64,
    /// Largest tolerable per-layer saturated fraction before quantization
    /// fails with [`QuantizeError::ExcessSaturation`].
    pub max_saturation_fraction: f64,
}

impl Default for QuantizeOptions {
    fn default() -> Self {
        Self { ratio_percentile: 1.0, max_saturation_fraction: 0.05 }
    }
}

/// Why a network could not be quantized.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantizeError {
    /// The network uses adaptive thresholds (ALIF); the chip model deploys
    /// plain LIF only, matching the paper's Loihi configuration.
    AdaptiveThresholds,
    /// A layer is all-zero, so no finite rescale ratio exists.
    AllZeroLayer {
        /// Index of the offending layer.
        layer: usize,
    },
    /// More weights clamped to full scale than the configured bound.
    ExcessSaturation {
        /// Index of the offending layer.
        layer: usize,
        /// Observed saturated fraction.
        fraction: f64,
        /// The configured [`QuantizeOptions::max_saturation_fraction`].
        limit: f64,
    },
}

impl std::fmt::Display for QuantizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantizeError::AdaptiveThresholds => {
                write!(f, "chip deployment supports plain LIF only; disable ALIF before quantizing")
            }
            QuantizeError::AllZeroLayer { layer } => {
                write!(f, "cannot quantize all-zero layer {layer}")
            }
            QuantizeError::ExcessSaturation { layer, fraction, limit } => write!(
                f,
                "layer {layer}: {:.2}% of weights saturate at full scale (limit {:.2}%)",
                fraction * 100.0,
                limit * 100.0
            ),
        }
    }
}

impl std::error::Error for QuantizeError {}

/// Reference magnitude that maps to full scale: the `pct`-quantile of the
/// pooled `|weights| ∪ |bias|` distribution (1.0 = max).
fn reference_magnitude(mags: &mut [f64], pct: f64) -> f64 {
    mags.sort_by(|a, b| a.total_cmp(b));
    let idx = ((mags.len() - 1) as f64 * pct.clamp(0.0, 1.0)).round() as usize;
    mags[idx]
}

/// Quantizes every LIF layer of `net` per eq. (14), with explicit options
/// and typed errors. Weights beyond full scale clamp to ±127 and are
/// counted per layer in the report.
///
/// # Errors
///
/// Returns [`QuantizeError`] if the network uses ALIF, a layer is
/// all-zero, or any layer saturates more than
/// [`QuantizeOptions::max_saturation_fraction`] of its weights.
pub fn try_quantize_network(
    net: &SdpNetwork,
    opts: &QuantizeOptions,
) -> Result<(QuantizedNetwork, QuantizationReport), QuantizeError> {
    if net.layers().iter().any(|l| l.adaptation.is_some()) {
        return Err(QuantizeError::AdaptiveThresholds);
    }
    let mut layers = Vec::with_capacity(net.layers().len());
    let mut report = QuantizationReport {
        ratios: Vec::new(),
        max_errors: Vec::new(),
        zero_fractions: Vec::new(),
        saturated_counts: Vec::new(),
        saturated_fractions: Vec::new(),
    };
    for (k, layer) in net.layers().iter().enumerate() {
        let mut mags: Vec<f64> =
            layer.weights.as_slice().iter().chain(layer.bias.iter()).map(|w| w.abs()).collect();
        let w_ref = reference_magnitude(&mut mags, opts.ratio_percentile);
        if w_ref <= 0.0 || w_ref.is_nan() {
            return Err(QuantizeError::AllZeroLayer { layer: k });
        }
        let ratio = LOIHI_W_MAX as f64 / w_ref;
        let mut saturated = 0usize;
        let mut q = |w: f64| -> i32 {
            let scaled = (ratio * w).round();
            if scaled.abs() > LOIHI_W_MAX as f64 {
                saturated += 1;
                LOIHI_W_MAX * scaled.signum() as i32
            } else {
                scaled as i32
            }
        };
        let weights: Vec<i32> = layer.weights.as_slice().iter().map(|&w| q(w)).collect();
        let bias: Vec<i32> = layer.bias.iter().map(|&b| q(b)).collect();
        let v_th = (ratio * layer.params.v_th).round().max(1.0) as i32;

        let total = weights.len() + bias.len();
        let sat_fraction = saturated as f64 / total as f64;
        if sat_fraction > opts.max_saturation_fraction {
            return Err(QuantizeError::ExcessSaturation {
                layer: k,
                fraction: sat_fraction,
                limit: opts.max_saturation_fraction,
            });
        }

        let max_err = layer
            .weights
            .as_slice()
            .iter()
            .zip(&weights)
            .filter(|(&wf, _)| wf.abs() * ratio <= LOIHI_W_MAX as f64 + 0.5)
            .map(|(&wf, &wi)| (wf - wi as f64 / ratio).abs())
            .fold(0.0_f64, f64::max);
        let zeros = weights.iter().filter(|&&w| w == 0).count() as f64 / weights.len() as f64;

        report.ratios.push(ratio);
        report.max_errors.push(max_err);
        report.zero_fractions.push(zeros);
        report.saturated_counts.push(saturated);
        report.saturated_fractions.push(sat_fraction);
        layers.push(QuantizedLayer {
            weights,
            out_dim: layer.out_dim(),
            in_dim: layer.in_dim(),
            bias,
            v_th,
            ratio,
        });
    }
    Ok((
        QuantizedNetwork { layers, lif: net.config().lif, timesteps: net.config().timesteps },
        report,
    ))
}

/// Quantizes every LIF layer of `net` per eq. (14) with default options
/// (max-abs ratio, so nothing saturates).
///
/// # Panics
///
/// Panics if a layer is all-zero (no finite rescale ratio exists), or if
/// the network uses adaptive thresholds (ALIF) — the chip model currently
/// deploys plain LIF only, matching the paper's Loihi configuration.
#[allow(clippy::expect_used)] // documented panic contract of the legacy API
pub fn quantize_network(net: &SdpNetwork) -> (QuantizedNetwork, QuantizationReport) {
    try_quantize_network(net, &QuantizeOptions::default()).expect("quantization failed")
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rand::SeedableRng;
    use spikefolio_snn::network::SdpNetworkConfig;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    fn net() -> SdpNetwork {
        SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng())
    }

    #[test]
    fn quantized_weights_fit_in_8_bits() {
        let (q, _) = quantize_network(&net());
        for layer in &q.layers {
            assert!(layer.weights.iter().all(|&w| (-LOIHI_W_MAX..=LOIHI_W_MAX).contains(&w)));
        }
    }

    #[test]
    fn max_weight_maps_to_full_scale() {
        let (q, _) = quantize_network(&net());
        // At least one weight (or bias) per layer reaches ±127.
        for layer in &q.layers {
            let max = layer.weights.iter().chain(&layer.bias).map(|w| w.abs()).max().unwrap();
            assert_eq!(max, LOIHI_W_MAX, "full scale must be used");
        }
    }

    #[test]
    fn dequantization_error_bounded_by_half_step() {
        let (q, report) = quantize_network(&net());
        for (layer, &err) in q.layers.iter().zip(&report.max_errors) {
            // Max error after round() is half a quantization step.
            assert!(err <= 0.5 / layer.ratio + 1e-12, "error {err} ratio {}", layer.ratio);
        }
    }

    #[test]
    fn threshold_scales_with_ratio() {
        let (q, report) = quantize_network(&net());
        for (layer, &r) in q.layers.iter().zip(&report.ratios) {
            let expect = (r * 0.5).round() as i32; // paper V_th = 0.5
            assert_eq!(layer.v_th, expect.max(1));
        }
    }

    #[test]
    fn report_shapes_match_network() {
        let n = net();
        let (q, report) = quantize_network(&n);
        assert_eq!(q.layers.len(), n.depth());
        assert_eq!(report.ratios.len(), n.depth());
        assert_eq!(report.max_errors.len(), n.depth());
        assert!(report.zero_fractions.iter().all(|&z| (0.0..=1.0).contains(&z)));
    }

    #[test]
    fn weight_accessor_and_dequantized_agree() {
        let (q, _) = quantize_network(&net());
        let layer = &q.layers[0];
        let deq = layer.dequantized();
        assert_eq!(deq.len(), layer.out_dim * layer.in_dim);
        assert_eq!(layer.weight(0, 0) as f64 / layer.ratio, deq[0]);
    }

    #[test]
    fn timesteps_carried_over() {
        let (q, _) = quantize_network(&net());
        assert_eq!(q.timesteps, 5);
        assert_eq!(q.lif, LifParams::paper());
    }

    #[test]
    fn default_options_never_saturate() {
        let (_, report) = try_quantize_network(&net(), &QuantizeOptions::default()).unwrap();
        assert_eq!(report.total_saturated(), 0);
        assert!(report.saturated_fractions.iter().all(|&f| f == 0.0));
        assert_eq!(report.saturated_counts.len(), report.ratios.len());
    }

    #[test]
    fn legacy_wrapper_matches_try_with_defaults() {
        let n = net();
        let (q1, r1) = quantize_network(&n);
        let (q2, r2) = try_quantize_network(&n, &QuantizeOptions::default()).unwrap();
        assert_eq!(q1, q2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn lower_percentile_saturates_and_counts() {
        let opts = QuantizeOptions { ratio_percentile: 0.5, max_saturation_fraction: 1.0 };
        let (q, report) = try_quantize_network(&net(), &opts).unwrap();
        assert!(report.total_saturated() > 0, "median-scaled layers must clamp outliers");
        for layer in &q.layers {
            assert!(
                layer.weights.iter().chain(&layer.bias).all(|w| w.abs() <= LOIHI_W_MAX),
                "clamped weights must stay in range"
            );
        }
        for (&count, &frac) in report.saturated_counts.iter().zip(&report.saturated_fractions) {
            assert_eq!(count > 0, frac > 0.0);
            assert!((0.0..=1.0).contains(&frac));
        }
    }

    #[test]
    fn excess_saturation_is_a_typed_error() {
        let opts = QuantizeOptions { ratio_percentile: 0.1, max_saturation_fraction: 0.01 };
        let err = try_quantize_network(&net(), &opts).unwrap_err();
        assert!(matches!(err, QuantizeError::ExcessSaturation { limit, .. } if limit == 0.01));
        assert!(err.to_string().contains("saturate"), "{err}");
    }
}
