//! Fixed-point Loihi chip model: neurocore mapping plus integer LIF
//! execution with event counting.

use crate::quantize::QuantizedNetwork;
use serde::{Deserialize, Serialize};
use spikefolio_snn::network::SpikeStats;
use spikefolio_tensor::Matrix;

/// Decay factors on Loihi are 12-bit multipliers (`x · d ≈ (x · f) / 4096`).
const DECAY_BITS: u32 = 12;
const DECAY_ONE: i64 = 1 << DECAY_BITS;

/// Physical resource budget of one Loihi chip (Davies et al. 2018).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChipConfig {
    /// Neurocores per chip (Loihi 1: 128).
    pub cores: usize,
    /// Compartments (neurons) per core (Loihi 1: 1024).
    pub compartments_per_core: usize,
    /// Synaptic memory per core, in synapses (≈ 128k on Loihi 1 with 8-bit
    /// weights).
    pub synapses_per_core: usize,
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self { cores: 128, compartments_per_core: 1024, synapses_per_core: 128 * 1024 }
    }
}

/// Error returned when a network does not fit the chip budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapNetworkError {
    what: String,
}

impl std::fmt::Display for MapNetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "network does not fit on chip: {}", self.what)
    }
}

impl std::error::Error for MapNetworkError {}

/// Core allocation summary for a mapped network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreAllocation {
    /// Cores used per layer.
    pub cores_per_layer: Vec<usize>,
    /// Total cores used.
    pub total_cores: usize,
    /// Total compartments (neurons) placed.
    pub total_compartments: usize,
    /// Total synapses placed.
    pub total_synapses: usize,
}

/// Counters from one on-chip inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LoihiRunStats {
    /// Spikes routed into the chip (encoder spikes).
    pub input_spikes: u64,
    /// Spikes fired by on-chip neurons.
    pub neuron_spikes: u64,
    /// Synaptic operations (spike × fan-out accumulations).
    pub synops: u64,
    /// Compartment updates (neurons × timesteps).
    pub neuron_updates: u64,
    /// Algorithmic timesteps executed.
    pub timesteps: u64,
}

impl core::ops::AddAssign for LoihiRunStats {
    /// Accumulates event counts across inferences — the serving path sums
    /// per-request chip stats into a session total.
    fn add_assign(&mut self, rhs: Self) {
        self.input_spikes += rhs.input_spikes;
        self.neuron_spikes += rhs.neuron_spikes;
        self.synops += rhs.synops;
        self.neuron_updates += rhs.neuron_updates;
        self.timesteps += rhs.timesteps;
    }
}

impl LoihiRunStats {
    /// Converts to the generic [`SpikeStats`] event bundle.
    pub fn to_spike_stats(self) -> SpikeStats {
        SpikeStats {
            encoder_spikes: self.input_spikes,
            neuron_spikes: self.neuron_spikes,
            synops: self.synops,
            neuron_updates: self.neuron_updates,
        }
    }
}

/// The chip itself: owns the resource budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoihiChip {
    config: ChipConfig,
}

impl LoihiChip {
    /// A chip with the given budget.
    pub fn new(config: ChipConfig) -> Self {
        Self { config }
    }

    /// Borrow the budget.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Maps a quantized network onto the chip, checking resource limits.
    ///
    /// # Errors
    ///
    /// Returns [`MapNetworkError`] if compartments, synapses, or cores are
    /// exhausted.
    pub fn map(&self, net: QuantizedNetwork) -> Result<LoihiNetwork, MapNetworkError> {
        let mut cores_per_layer = Vec::with_capacity(net.layers.len());
        let mut total_compartments = 0;
        let mut total_synapses = 0;
        for (k, layer) in net.layers.iter().enumerate() {
            let compartment_cores = layer.out_dim.div_ceil(self.config.compartments_per_core);
            let synapses = layer.out_dim * layer.in_dim;
            let synapse_cores = synapses.div_ceil(self.config.synapses_per_core);
            let cores = compartment_cores.max(synapse_cores);
            if cores > self.config.cores {
                return Err(MapNetworkError {
                    what: format!(
                        "layer {k} alone needs {cores} cores (chip has {})",
                        self.config.cores
                    ),
                });
            }
            cores_per_layer.push(cores);
            total_compartments += layer.out_dim;
            total_synapses += synapses;
        }
        let total_cores: usize = cores_per_layer.iter().sum();
        if total_cores > self.config.cores {
            return Err(MapNetworkError {
                what: format!("needs {total_cores} cores, chip has {}", self.config.cores),
            });
        }
        let allocation =
            CoreAllocation { cores_per_layer, total_cores, total_compartments, total_synapses };
        Ok(LoihiNetwork { net, allocation })
    }
}

/// A quantized network mapped onto chip resources, ready to run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoihiNetwork {
    net: QuantizedNetwork,
    allocation: CoreAllocation,
}

impl LoihiNetwork {
    /// The core allocation chosen by the mapper.
    pub fn allocation(&self) -> &CoreAllocation {
        &self.allocation
    }

    /// The quantized network being executed.
    pub fn network(&self) -> &QuantizedNetwork {
        &self.net
    }

    /// Runs one inference over an input spike raster (`T × in_dim`, values
    /// 0/1) using integer arithmetic throughout, as the chip would.
    ///
    /// Returns the per-neuron spike sums of the last layer (for the
    /// off-chip decoder) and the event counters.
    ///
    /// # Panics
    ///
    /// Panics if the raster's shape disagrees with the network
    /// (`rows != timesteps` or `cols != first layer in_dim`).
    pub fn infer(&self, input_spikes: &Matrix) -> (Vec<f64>, LoihiRunStats) {
        let t_max = self.net.timesteps;
        assert_eq!(input_spikes.rows(), t_max, "raster timestep mismatch");
        assert_eq!(
            input_spikes.cols(),
            self.net.layers[0].in_dim,
            "raster width mismatch with first layer"
        );
        let dc = (self.net.lif.d_c * DECAY_ONE as f64).round() as i64;
        let dv = (self.net.lif.d_v * DECAY_ONE as f64).round() as i64;

        let mut stats = LoihiRunStats { timesteps: t_max as u64, ..Default::default() };
        stats.input_spikes = input_spikes.as_slice().iter().filter(|&&s| s > 0.0).count() as u64;

        // Per-layer integer state.
        let mut currents: Vec<Vec<i64>> =
            self.net.layers.iter().map(|l| vec![0_i64; l.out_dim]).collect();
        let mut voltages: Vec<Vec<i64>> =
            self.net.layers.iter().map(|l| vec![0_i64; l.out_dim]).collect();
        let mut spikes_prev: Vec<Vec<bool>> =
            self.net.layers.iter().map(|l| vec![false; l.out_dim]).collect();

        let last = self.net.layers.len() - 1;
        let mut out_sums = vec![0.0_f64; self.net.layers[last].out_dim];

        // Scratch spike buffer flowing between layers within a timestep.
        let mut spike_in: Vec<bool> = Vec::new();
        for t in 0..t_max {
            spike_in.clear();
            spike_in.extend(input_spikes.row(t).iter().map(|&s| s > 0.0));
            for (k, layer) in self.net.layers.iter().enumerate() {
                let (c, v, o_prev) = (&mut currents[k], &mut voltages[k], &mut spikes_prev[k]);
                // Current decay + synaptic accumulation.
                for (ci, &bi) in c.iter_mut().zip(&layer.bias) {
                    *ci = (*ci * dc) >> DECAY_BITS;
                    *ci += bi as i64;
                }
                for (j, &s) in spike_in.iter().enumerate() {
                    if !s {
                        continue;
                    }
                    stats.synops += layer.out_dim as u64;
                    for (i, ci) in c.iter_mut().enumerate() {
                        *ci += layer.weights[i * layer.in_dim + j] as i64;
                    }
                }
                // Voltage update with post-spike reset, then threshold.
                let mut out = vec![false; layer.out_dim];
                for i in 0..layer.out_dim {
                    let decayed = (v[i] * dv) >> DECAY_BITS;
                    v[i] = if o_prev[i] { 0 } else { decayed };
                    v[i] += c[i];
                    if v[i] > layer.v_th as i64 {
                        out[i] = true;
                        stats.neuron_spikes += 1;
                    }
                }
                stats.neuron_updates += layer.out_dim as u64;
                if k == last {
                    for (s, &o) in out_sums.iter_mut().zip(&out) {
                        if o {
                            *s += 1.0;
                        }
                    }
                }
                *o_prev = out.clone();
                spike_in = out;
            }
        }
        (out_sums, stats)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::quantize::quantize_network;
    use rand::SeedableRng;
    use spikefolio_snn::network::{SdpNetwork, SdpNetworkConfig};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(3)
    }

    fn mapped_small() -> (SdpNetwork, LoihiNetwork) {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng());
        let (q, _) = quantize_network(&net);
        let mapped = LoihiChip::default().map(q).expect("small net fits");
        (net, mapped)
    }

    #[test]
    fn small_network_fits_one_core_per_layer() {
        let (_, mapped) = mapped_small();
        assert!(mapped.allocation().total_cores >= 2);
        assert!(mapped.allocation().total_cores <= 4);
        assert_eq!(mapped.allocation().total_compartments, 16 + 12);
    }

    #[test]
    fn paper_network_fits_on_one_chip() {
        // The paper's full network: state_dim = 11 assets × 8 window × 4
        // channels + 12 weights = 364 dims, 128×128 hidden, 12 actions.
        let cfg = SdpNetworkConfig::paper(364, 12);
        let net = SdpNetwork::new(cfg, &mut rng());
        let (q, _) = quantize_network(&net);
        let mapped = LoihiChip::default().map(q);
        assert!(mapped.is_ok(), "{:?}", mapped.err());
        let m = mapped.unwrap();
        assert!(m.allocation().total_cores <= 128, "cores: {}", m.allocation().total_cores);
    }

    #[test]
    fn oversized_network_is_rejected() {
        let tiny_chip = LoihiChip::new(ChipConfig {
            cores: 1,
            compartments_per_core: 4,
            synapses_per_core: 64,
        });
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng());
        let (q, _) = quantize_network(&net);
        let err = tiny_chip.map(q).unwrap_err();
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn chip_spike_pattern_tracks_float_network() {
        // Quantization preserves behaviour: actions decoded from chip spike
        // sums should be close to the float network's.
        let (net, mapped) = mapped_small();
        let mut one = spikefolio_snn::SingleSample::new(&net);
        let mut r = rng();
        let mut agree = 0;
        let total = 20;
        for i in 0..total {
            let s = [0.8 + 0.04 * i as f64, 1.0, 1.2 - 0.03 * i as f64, 0.9 + 0.02 * i as f64];
            let enc = net.encoder.encode(&s, net.config().timesteps, &mut r);
            let (sums, _) = mapped.infer(&enc);
            let mut rates = vec![0.0; net.decoder.action_dim()];
            let mut chip_action = vec![0.0; net.decoder.action_dim()];
            net.decoder.decode_into(&sums, &mut rates, &mut chip_action);
            let float_action = one.forward(&net, &s, &mut r);
            let same_argmax = spikefolio_tensor::vector::argmax(&chip_action)
                == spikefolio_tensor::vector::argmax(float_action);
            if same_argmax {
                agree += 1;
            }
        }
        assert!(agree >= total * 8 / 10, "only {agree}/{total} argmax agreements");
    }

    #[test]
    fn stats_are_populated() {
        let (net, mapped) = mapped_small();
        let enc = net.encoder.encode(&[1.0, 1.0, 1.0, 1.0], 5, &mut rng());
        let (_, stats) = mapped.infer(&enc);
        assert_eq!(stats.timesteps, 5);
        assert!(stats.input_spikes > 0);
        assert_eq!(stats.neuron_updates, (16 + 12) * 5);
        assert!(stats.synops >= stats.input_spikes * 16);
        let ss = stats.to_spike_stats();
        assert_eq!(ss.encoder_spikes, stats.input_spikes);
    }

    #[test]
    fn silent_input_is_nearly_free() {
        let (_, mapped) = mapped_small();
        let silent = Matrix::zeros(5, mapped.network().layers[0].in_dim);
        let (sums, stats) = mapped.infer(&silent);
        assert_eq!(stats.input_spikes, 0);
        assert_eq!(stats.synops, 0, "no spikes → no synops (event-driven)");
        assert!(sums.iter().all(|&s| s == 0.0));
    }

    #[test]
    #[should_panic(expected = "raster")]
    fn wrong_raster_shape_panics() {
        let (_, mapped) = mapped_small();
        let bad = Matrix::zeros(3, 7);
        let _ = mapped.infer(&bad);
    }
}
