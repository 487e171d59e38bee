//! The SNN execution engine: rolls a batch of `B` states through the `T`
//! simulation steps with one drive kernel per layer per step. It is the
//! only forward path: training runs it on minibatches, serving on
//! micro-batches, and single decisions (backtests, the desk gate) at
//! `B = 1`.
//!
//! [`SdpNetwork::forward_batch`] is the one forward entry, and its drive
//! is **event-driven** ([`spikefolio_tensor::sparse`]): each spike stack
//! carries a [`SpikeSet`] of its active indices, and each presynaptic
//! event streams one contiguous `out`-wide row of the layer's `Wᵀ`, the
//! per-event work a neuromorphic core does. The network owns that `Wᵀ`
//! ([`SdpNetwork`]): the first forward pass builds it and every weight
//! write rebuilds it in place, so no caller holds a transpose and none can
//! hold a stale one.
//!
//! The dense GEMM drive survives only as the tests' bitwise reference:
//! the two produce bit-identical traces.
//!
//! # Memory layout
//!
//! All per-timestep quantities are stored as *stacked* `(T·B) × dim`
//! matrices with row index `r = t·B + b` — timestep-major, sample-minor. A
//! timestep is therefore one contiguous `B × dim` row block, which is
//! exactly the operand shape the GEMM kernels in `spikefolio_tensor::gemm`
//! address without copying. Layer `k`'s inputs are layer `k−1`'s output
//! stack (or the encoder stack for `k = 0`); inputs are never duplicated
//! into per-layer traces.
//!
//! # Workspace reuse
//!
//! [`BatchWorkspace`] preallocates every per-step buffer (the encoder's
//! stimulation and accumulator rows, layer states, drive scratch,
//! backward deltas, the stacked `Δc` and upstream-gradient matrices); it
//! never holds `Wᵀ`. After construction, [`SdpNetwork::forward_batch`]
//! allocates nothing once the trace's spike sets have grown to their
//! largest event count, and decodes straight into the trace's rows;
//! [`crate::stbp::backward_batch`] allocates only O(B) decoder-sized
//! gradient vectors outside the per-step hot loop.
//!
//! # Determinism contract: batch-composition invariance
//!
//! * The forward pass encodes sample `b` with `rngs[b]`, consuming exactly
//!   the random stream [`crate::encoder::PopulationEncoder::encode`]
//!   would, and updates every neuron through [`crate::layer::LifLayer`]'s
//!   one update routine. Both drive kernels compute k-ascending dot
//!   products with no cross-sample terms. Row `b` of a `B`-sample batch is
//!   therefore **bit-identical** to the `B = 1` run of that sample with
//!   the same RNG, and the summed event counters equal the sum of the
//!   `B = 1` counters. The counters are the sizes of the spike sets the
//!   drives consume, so they count exactly the events the kernels see.
//! * The backward pass evaluates the per-row recurrences identically and
//!   only reorders the final `(t, b)` gradient reductions, so a batch's
//!   parameter gradients match the sum of its rows' `B = 1` gradients to
//!   ~1e-14 (well inside the 1e-12 equivalence budget).

use crate::encoder::EncodeScratch;
use crate::network::{SdpNetwork, SpikeStats};
use rand::Rng;
use spikefolio_telemetry::labels::{SPAN_PROFILE_SNN_ENCODE, SPAN_PROFILE_SNN_LIF};
use spikefolio_telemetry::{NoopRecorder, Recorder, Stopwatch};
use spikefolio_tensor::sparse::{self, SpikeSet};
use spikefolio_tensor::Matrix;

/// Recorded history of one layer for a whole minibatch: stacked
/// `(T·B) × out_dim` matrices, row `r = t·B + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLayerTrace {
    /// Post-update membrane voltages `v(t)`.
    pub voltages: Matrix,
    /// Output spikes `o(t)` — also the next layer's input stack.
    pub outputs: Matrix,
    /// Effective thresholds `th(t)` (constant `V_th` columns for plain LIF).
    pub thresholds: Matrix,
    /// Event view of `outputs`: per stacked row, the ascending indices of
    /// the neurons that spiked. Built incrementally as rows are produced
    /// and consumed by the event-driven kernels of the next layer's drive
    /// and this layer's weight gradient.
    pub output_set: SpikeSet,
}

/// Full forward trace of a minibatch, consumed by
/// [`crate::stbp::backward_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNetworkTrace {
    batch: usize,
    timesteps: usize,
    /// Encoder spike stack, `(T·B) × encoder_dim`, row `r = t·B + b`.
    pub encoder: Matrix,
    /// Event view of `encoder`: per stacked row, the ascending active
    /// column indices. Built once right after encoding and threaded
    /// through the event-driven forward/backward kernels.
    pub encoder_set: SpikeSet,
    /// Per-layer traces, input-side first.
    pub layers: Vec<BatchLayerTrace>,
    /// Decoder firing rates, one row per sample (`B × action_dim`).
    pub firing_rates: Matrix,
    /// Softmax actions, one row per sample (`B × action_dim`).
    pub actions: Matrix,
    /// Event counters summed over the whole minibatch.
    pub stats: SpikeStats,
    /// Spikes emitted per LIF layer (input-side first), summed over the
    /// minibatch; sums to [`SpikeStats::neuron_spikes`]. Feeds the
    /// per-layer spike-activity telemetry
    /// ([`SdpNetwork::layer_firing_rates`]).
    pub layer_spikes: Vec<u64>,
    /// Synaptic operations tallied *by the drive kernels themselves* while
    /// propagating spikes (events × fan-out). Independently recomputed
    /// from the dense rasters as [`SpikeStats::synops`]; the equivalence
    /// suite and the CI bench smoke assert the two never drift apart.
    pub kernel_events: u64,
}

impl BatchNetworkTrace {
    /// Allocates a trace sized for `net` at minibatch size `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn new(net: &SdpNetwork, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        let t_max = net.config().timesteps;
        let rows = t_max * batch;
        let action_dim = net.config().action_dim;
        Self {
            batch,
            timesteps: t_max,
            encoder: Matrix::zeros(rows, net.encoder.output_dim()),
            encoder_set: SpikeSet::new(net.encoder.output_dim()),
            layers: net
                .layers()
                .iter()
                .map(|l| BatchLayerTrace {
                    voltages: Matrix::zeros(rows, l.out_dim()),
                    outputs: Matrix::zeros(rows, l.out_dim()),
                    thresholds: Matrix::zeros(rows, l.out_dim()),
                    output_set: SpikeSet::new(l.out_dim()),
                })
                .collect(),
            firing_rates: Matrix::zeros(batch, action_dim),
            actions: Matrix::zeros(batch, action_dim),
            stats: SpikeStats::default(),
            layer_spikes: vec![0; net.layers().len()],
            kernel_events: 0,
        }
    }

    /// Minibatch size `B` the trace was allocated for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Simulation length `T` the trace was allocated for.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// The action row of sample `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= batch`.
    pub fn action(&self, b: usize) -> &[f64] {
        self.actions.row(b)
    }
}

/// Per-layer preallocated buffers of a [`BatchWorkspace`].
#[derive(Debug, Clone)]
pub(crate) struct BatchLayerBufs {
    /// Synaptic currents `c`, `B × out`.
    pub(crate) current: Matrix,
    /// Membrane voltages `v`, `B × out`.
    pub(crate) voltage: Matrix,
    /// Previous-step spikes `o(t−1)`, `B × out`.
    pub(crate) spikes: Matrix,
    /// ALIF adaptation traces `b`, `B × out`.
    pub(crate) adapt: Matrix,
    /// Drive scratch `W·o_in` for one timestep, `B × out`.
    pub(crate) drive: Matrix,
    /// Backward scratch `δo(t)`, `B × out`.
    pub(crate) d_o: Matrix,
    /// Backward scratch `δv(t)`, `B × out`.
    pub(crate) d_v: Matrix,
    /// Backward carry `δv(t+1)`, `B × out`.
    pub(crate) dv_next: Matrix,
    /// Backward scratch `δb(t)` (adaptation chain), `B × out`.
    pub(crate) d_b: Matrix,
    /// Backward carry `δb(t+1)`, `B × out`.
    pub(crate) db_next: Matrix,
    /// Stacked `δc(t)` rows, `(T·B) × out` — the GEMM operand of eq. (13).
    pub(crate) dc_stack: Matrix,
    /// Stacked upstream gradient on this layer's output spikes,
    /// `(T·B) × out`.
    pub(crate) d_ext: Matrix,
}

/// Preallocated scratch for batched forward/backward passes.
///
/// Build once per `(network shape, batch size)` pair and reuse across
/// steps: the hot loops of [`SdpNetwork::forward_batch`] and
/// [`crate::stbp::backward_batch`] are then allocation-free.
#[derive(Debug, Clone)]
pub struct BatchWorkspace {
    pub(crate) batch: usize,
    /// The encoder's `A_E` and accumulator rows, `B × encoder_dim`.
    pub(crate) encode: EncodeScratch,
    pub(crate) layers: Vec<BatchLayerBufs>,
    /// Per-sample spike sums over the last layer, `B × out_last`.
    pub(crate) spike_sums: Matrix,
}

impl BatchWorkspace {
    /// Allocates a workspace sized for `net` at minibatch size `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn new(net: &SdpNetwork, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        let t_max = net.config().timesteps;
        let layers = net
            .layers()
            .iter()
            .map(|l| {
                let out = l.out_dim();
                BatchLayerBufs {
                    current: Matrix::zeros(batch, out),
                    voltage: Matrix::zeros(batch, out),
                    spikes: Matrix::zeros(batch, out),
                    adapt: Matrix::zeros(batch, out),
                    drive: Matrix::zeros(batch, out),
                    d_o: Matrix::zeros(batch, out),
                    d_v: Matrix::zeros(batch, out),
                    dv_next: Matrix::zeros(batch, out),
                    d_b: Matrix::zeros(batch, out),
                    db_next: Matrix::zeros(batch, out),
                    dc_stack: Matrix::zeros(t_max * batch, out),
                    d_ext: Matrix::zeros(t_max * batch, out),
                }
            })
            .collect();
        let out_last = net.layers().last().map_or(0, |l| l.out_dim());
        Self {
            batch,
            encode: EncodeScratch::new(&net.encoder, batch),
            layers,
            spike_sums: Matrix::zeros(batch, out_last),
        }
    }

    /// Minibatch size `B` the workspace was allocated for.
    pub fn batch(&self) -> usize {
        self.batch
    }
}

/// Reusable buffers for one-sample (`B = 1`) forward passes, the path of
/// every single decision: build once per network, then call
/// [`SingleSample::forward`] per decision.
#[derive(Debug, Clone)]
pub struct SingleSample {
    /// The one-row state batch handed to the engine.
    state: Matrix,
    /// The workspace of the passes; [`crate::stbp::backward_batch`] can
    /// reuse it on [`SingleSample::trace`].
    pub ws: BatchWorkspace,
    /// The trace of the latest [`SingleSample::forward`].
    pub trace: BatchNetworkTrace,
}

impl SingleSample {
    /// Buffers sized for `net`.
    pub fn new(net: &SdpNetwork) -> Self {
        Self {
            state: Matrix::zeros(1, net.config().state_dim),
            ws: BatchWorkspace::new(net, 1),
            trace: BatchNetworkTrace::new(net, 1),
        }
    }

    /// Runs `state` through `net` at `B = 1` ([`SdpNetwork::forward_batch`])
    /// and returns the action.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not the state width these buffers were built
    /// for, or `net` has another shape.
    pub fn forward<R: Rng>(&mut self, net: &SdpNetwork, state: &[f64], rng: &mut R) -> &[f64] {
        self.state.row_mut(0).copy_from_slice(state);
        let rngs = std::slice::from_mut(rng);
        net.forward_batch(&self.state, rngs, &mut self.ws, &mut self.trace, &mut NoopRecorder);
        self.trace.action(0)
    }
}

impl SdpNetwork {
    /// Forward pass (Algorithm 1): runs every row of `states`
    /// (`B × state_dim`) through the network simultaneously, one
    /// event-driven drive per layer per timestep over the network's `Wᵀ`
    /// (built on the first call; see the [module docs](crate::batch)).
    ///
    /// Sample `b` is encoded with `rngs[b]`, so with per-sample seeded RNGs
    /// the result is independent of how samples are grouped into batches:
    /// each row is bit-identical to its own `B = 1` run.
    ///
    /// `ws` and `trace` must have been built for this network at batch size
    /// `states.rows()`; both are fully overwritten.
    ///
    /// The encode section and the LIF timestep loop are timed as
    /// [`SPAN_PROFILE_SNN_ENCODE`] and [`SPAN_PROFILE_SNN_LIF`] spans on
    /// `rec`. Observe-only: the recorder never influences the computation,
    /// and with a disabled recorder (e.g. [`NoopRecorder`]) the
    /// stopwatches never read the clock.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree (state width, batch size, RNG count, or a
    /// workspace/trace built for a different network or batch size).
    pub fn forward_batch<R: Rng>(
        &self,
        states: &Matrix,
        rngs: &mut [R],
        ws: &mut BatchWorkspace,
        trace: &mut BatchNetworkTrace,
        rec: &mut dyn Recorder,
    ) {
        let wt = self.transposed();
        let bsz = states.rows();
        self.forward_with(states, rngs, ws, trace, rec, |k, input, input_set, row0, drive| {
            // Touch only the active presynaptic rows of Wᵀ, k-ascending:
            // bitwise identical to the dense reference (see tensor::sparse).
            let (in_dim, out_dim) = wt[k].shape();
            let wt = wt[k].as_slice();
            sparse::spike_drive(input, input_set, row0, wt, drive, bsz, in_dim, out_dim)
        });
    }

    /// The forward pass around one drive kernel:
    /// `drive(k, input_block, input_set, first_row, out)` writes layer
    /// `k`'s synaptic drive for one timestep's `B` input rows (stack rows
    /// `first_row..first_row + B`) into `out` and returns the synaptic
    /// events it processed.
    fn forward_with<R: Rng>(
        &self,
        states: &Matrix,
        rngs: &mut [R],
        ws: &mut BatchWorkspace,
        trace: &mut BatchNetworkTrace,
        rec: &mut dyn Recorder,
        mut drive: impl FnMut(usize, &[f64], &SpikeSet, usize, &mut [f64]) -> u64,
    ) {
        let layers = self.layers();
        let bsz = states.rows();
        let t_max = self.config().timesteps;
        let enc_dim = self.encoder.output_dim();
        assert!(bsz > 0, "forward_batch: empty batch");
        assert_eq!(states.cols(), self.config().state_dim, "forward_batch: state width mismatch");
        assert_eq!(rngs.len(), bsz, "forward_batch: need one RNG per sample");
        assert_eq!(ws.batch, bsz, "forward_batch: workspace batch mismatch");
        assert_eq!(trace.batch, bsz, "forward_batch: trace batch mismatch");
        assert_eq!(trace.encoder.cols(), enc_dim, "forward_batch: trace encoder width mismatch");
        assert_eq!(trace.layers.len(), layers.len(), "forward_batch: trace depth mismatch");

        trace.stats = SpikeStats::default();
        trace.kernel_events = 0;

        // Encode each sample with its own RNG straight into its rows of the
        // timestep-major stack (row t·B + b), with the stack's event view
        // built in the same pass and threaded through the event-driven
        // kernels of both passes.
        let encode_watch = Stopwatch::start(rec);
        let (raster, set) = (&mut trace.encoder, &mut trace.encoder_set);
        self.encoder.encode_batch(states, rngs, &mut ws.encode, raster, set);
        trace.stats.encoder_spikes = trace.encoder_set.nnz();
        encode_watch.stop(rec, SPAN_PROFILE_SNN_ENCODE);

        for lb in &mut ws.layers {
            lb.current.fill_zero();
            lb.voltage.fill_zero();
            lb.spikes.fill_zero();
            lb.adapt.fill_zero();
        }
        for lt in &mut trace.layers {
            lt.output_set.clear();
        }

        let mut kernel_events = 0u64;
        let lif_watch = Stopwatch::start(rec);
        for t in 0..t_max {
            for (k, layer) in layers.iter().enumerate() {
                let in_dim = layer.in_dim();
                let (done, rest) = trace.layers.split_at_mut(k);
                let lt = &mut rest[0];
                let (input_block, input_set): (&[f64], &SpikeSet) = if k == 0 {
                    (
                        &trace.encoder.as_slice()[t * bsz * in_dim..(t + 1) * bsz * in_dim],
                        &trace.encoder_set,
                    )
                } else {
                    (
                        &done[k - 1].outputs.as_slice()[t * bsz * in_dim..(t + 1) * bsz * in_dim],
                        &done[k - 1].output_set,
                    )
                };
                let lb = &mut ws.layers[k];
                kernel_events += drive(k, input_block, input_set, t * bsz, lb.drive.as_mut_slice());
                for b in 0..bsz {
                    let r = t * bsz + b;
                    layer.update(
                        lb.drive.row(b),
                        lb.current.row_mut(b),
                        lb.voltage.row_mut(b),
                        lb.spikes.row_mut(b),
                        lb.adapt.row_mut(b),
                        lt.thresholds.row_mut(r),
                    );
                    lt.voltages.row_mut(r).copy_from_slice(lb.voltage.row(b));
                    let spk = lb.spikes.row(b);
                    lt.outputs.row_mut(r).copy_from_slice(spk);
                    // Row r is final: record its events. t is outer and b
                    // inner, so rows arrive in ascending stack order and
                    // the set is complete for this timestep before the
                    // next layer's drive reads it.
                    lt.output_set.push_row(spk);
                }
            }
        }
        trace.kernel_events = kernel_events;
        lif_watch.stop(rec, SPAN_PROFILE_SNN_LIF);

        // Event counters (summed over the batch, matching B single-sample
        // runs), read off the complete spike sets.
        for (k, layer) in layers.iter().enumerate() {
            let inputs = if k == 0 { &trace.encoder_set } else { &trace.layers[k - 1].output_set };
            trace.stats.synops += inputs.nnz() * layer.out_dim() as u64;
            trace.stats.neuron_updates += (layer.out_dim() * t_max * bsz) as u64;
            let out_spikes = trace.layers[k].output_set.nnz();
            trace.stats.neuron_spikes += out_spikes;
            trace.layer_spikes[k] = out_spikes;
        }

        // Σ_t o(t) per sample over the last layer, t ascending, then
        // decode each sample.
        let last = trace.layers.last().expect("network has at least one layer");
        ws.spike_sums.fill_zero();
        for t in 0..t_max {
            for b in 0..bsz {
                let sums = ws.spike_sums.row_mut(b);
                for (s, &o) in sums.iter_mut().zip(last.outputs.row(t * bsz + b)) {
                    *s += o;
                }
            }
        }
        for b in 0..bsz {
            self.decoder.decode_into(
                ws.spike_sums.row(b),
                trace.firing_rates.row_mut(b),
                trace.actions.row_mut(b),
            );
        }
    }
}

#[cfg(test)]
impl SdpNetwork {
    /// The dense reference of [`SdpNetwork::forward_batch`]: the same pass
    /// with a GEMM drive on the untransposed weights (`B` k-ascending dots
    /// per neuron). It tallies the events the event-driven drive would
    /// process, so whole traces compare bitwise across the two drives.
    pub(crate) fn forward_batch_dense<R: Rng>(
        &self,
        states: &Matrix,
        rngs: &mut [R],
        ws: &mut BatchWorkspace,
        trace: &mut BatchNetworkTrace,
    ) {
        let bsz = states.rows();
        let rec = &mut NoopRecorder;
        self.forward_with(states, rngs, ws, trace, rec, |k, input, input_set, row0, drive| {
            let layer = &self.layers()[k];
            let (in_dim, out_dim) = (layer.in_dim(), layer.out_dim());
            spikefolio_tensor::gemm::gemm_nt(
                input,
                layer.weights.as_slice(),
                drive,
                bsz,
                in_dim,
                out_dim,
            );
            (row0..row0 + bsz).map(|r| input_set.row(r).len() as u64).sum::<u64>() * out_dim as u64
        });
    }

    /// Runs one state through [`SdpNetwork::forward_batch_dense`] at
    /// `B = 1` on fresh buffers, and returns the trace: the per-sample
    /// reference of the engine's tests.
    pub(crate) fn forward_one<R: Rng>(&self, state: &[f64], rng: &mut R) -> BatchNetworkTrace {
        let mut ws = BatchWorkspace::new(self, 1);
        let mut trace = BatchNetworkTrace::new(self, 1);
        let states = Matrix::from_rows(&[state]);
        self.forward_batch_dense(&states, std::slice::from_mut(rng), &mut ws, &mut trace);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoding;
    use crate::network::SdpNetworkConfig;
    use crate::neuron::{AdaptiveParams, SpikeFn};
    use crate::stbp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn rngs(batch: usize, seed0: u64) -> Vec<StdRng> {
        (0..batch).map(|b| rng(seed0 + b as u64)).collect()
    }

    fn states(net: &SdpNetwork, batch: usize) -> Matrix {
        let dim = net.config().state_dim;
        Matrix::from_fn(batch, dim, |b, d| 0.8 + 0.05 * ((b * dim + d) % 9) as f64)
    }

    /// Runs `batch` rows of [`states`] with per-sample seeds from `seed0`
    /// on fresh buffers.
    fn run(net: &SdpNetwork, batch: usize, seed0: u64) -> BatchNetworkTrace {
        let mut ws = BatchWorkspace::new(net, batch);
        let mut trace = BatchNetworkTrace::new(net, batch);
        let st = states(net, batch);
        net.forward_batch(&st, &mut rngs(batch, seed0), &mut ws, &mut trace, &mut NoopRecorder);
        trace
    }

    /// [`run`] on the dense reference drive.
    fn run_dense(net: &SdpNetwork, batch: usize, seed0: u64) -> BatchNetworkTrace {
        let mut ws = BatchWorkspace::new(net, batch);
        let mut trace = BatchNetworkTrace::new(net, batch);
        net.forward_batch_dense(&states(net, batch), &mut rngs(batch, seed0), &mut ws, &mut trace);
        trace
    }

    // The "per-sample" reference of these pins is each row run alone at
    // B = 1 on the dense drive; the batches take the event-driven one.

    #[test]
    fn forward_batch_is_bitwise_equal_to_per_sample_forward() {
        for encoding in [Encoding::Deterministic, Encoding::Probabilistic] {
            let mut cfg = SdpNetworkConfig::small(4, 3);
            cfg.encoder.encoding = encoding;
            let net = SdpNetwork::new(cfg, &mut rng(7));
            let batch = 5;
            let st = states(&net, batch);
            let trace = run(&net, batch, 100);
            for b in 0..batch {
                let one = net.forward_one(st.row(b), &mut rng(100 + b as u64));
                assert_eq!(trace.action(b), one.action(0), "{encoding:?} sample {b}");
            }
        }
    }

    #[test]
    fn forward_batch_stats_match_summed_per_sample_stats() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(7));
        let batch = 4;
        let st = states(&net, batch);
        let trace = run(&net, batch, 0);
        let mut expect = SpikeStats::default();
        for b in 0..batch {
            let s = net.forward_one(st.row(b), &mut rng(b as u64)).stats;
            expect.encoder_spikes += s.encoder_spikes;
            expect.neuron_spikes += s.neuron_spikes;
            expect.synops += s.synops;
            expect.neuron_updates += s.neuron_updates;
        }
        assert_eq!(trace.stats, expect);
    }

    #[test]
    fn forward_batch_layer_spikes_match_summed_per_sample_traces() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(11));
        let batch = 4;
        let st = states(&net, batch);
        let trace = run(&net, batch, 0);
        let mut expect = vec![0u64; net.depth()];
        for b in 0..batch {
            let t = net.forward_one(st.row(b), &mut rng(b as u64));
            assert_eq!(t.layer_spikes.iter().sum::<u64>(), t.stats.neuron_spikes);
            for (e, s) in expect.iter_mut().zip(&t.layer_spikes) {
                *e += s;
            }
        }
        assert_eq!(trace.layer_spikes, expect);
        assert_eq!(trace.layer_spikes.iter().sum::<u64>(), trace.stats.neuron_spikes);
        let rates = net.layer_firing_rates(&trace.layer_spikes, batch as u64);
        assert_eq!(rates.len(), net.depth());
        for r in &rates {
            assert!((0.0..=1.0).contains(r), "firing rate {r} out of [0, 1]");
        }
    }

    #[test]
    fn workspace_and_trace_are_reusable_across_calls() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(9));
        let batch = 3;
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut trace = BatchNetworkTrace::new(&net, batch);
        let st1 = states(&net, batch);
        let st2 = st1.map(|v| v + 0.01);
        let rec = &mut NoopRecorder;
        net.forward_batch(&st1, &mut rngs(batch, 0), &mut ws, &mut trace, rec);
        let first = trace.actions.clone();
        // Run different inputs through the same buffers, then the originals
        // again: stale state must not leak.
        net.forward_batch(&st2, &mut rngs(batch, 0), &mut ws, &mut trace, rec);
        net.forward_batch(&st1, &mut rngs(batch, 0), &mut ws, &mut trace, rec);
        assert_eq!(trace.actions, first, "workspace reuse must be stateless");
    }

    #[test]
    fn adaptive_network_matches_per_sample_path() {
        let mut cfg = SdpNetworkConfig::small(4, 3);
        cfg.adaptation = Some(AdaptiveParams { beta: 0.6, rho: 0.85 });
        let net = SdpNetwork::new(cfg, &mut rng(21));
        let batch = 3;
        let st = states(&net, batch);
        let trace = run(&net, batch, 0);
        for b in 0..batch {
            let one = net.forward_one(st.row(b), &mut rng(b as u64));
            assert_eq!(trace.action(b), one.action(0), "ALIF sample {b}");
        }
    }

    #[test]
    fn recorded_forward_is_bitwise_identical_and_emits_profile_spans() {
        use spikefolio_telemetry::MemoryRecorder;
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(7));
        let batch = 4;
        let st = states(&net, batch);
        let plain = run(&net, batch, 0);

        let mut rec = MemoryRecorder::default();
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut observed = BatchNetworkTrace::new(&net, batch);
        net.forward_batch(&st, &mut rngs(batch, 0), &mut ws, &mut observed, &mut rec);

        assert_eq!(observed, plain, "recording must not change the forward pass");
        let (enc_s, enc_n) = rec.span_total(SPAN_PROFILE_SNN_ENCODE);
        let (lif_s, lif_n) = rec.span_total(SPAN_PROFILE_SNN_LIF);
        assert_eq!((enc_n, lif_n), (1, 1), "one span per profiled section");
        assert!(enc_s >= 0.0 && lif_s >= 0.0);
    }

    #[test]
    fn sparse_and_dense_paths_produce_identical_traces() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(17));
        for batch in [1, 4] {
            let dense = run_dense(&net, batch, 0);
            let sparse_t = run(&net, batch, 0);
            assert_eq!(sparse_t, dense, "B = {batch}: sparse trace must equal the dense one");
            assert!(sparse_t.kernel_events > 0, "workload should produce events");
        }
    }

    #[test]
    fn transposed_weights_rebuilt_in_place_match_a_fresh_transpose() {
        let mut net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(23));
        let _ = run(&net, 3, 0); // builds Wᵀ
        let stale = net.transposed().to_vec();
        let params: Vec<f64> = stbp::flat_params(&net)
            .iter()
            .enumerate()
            .map(|(i, w)| w + 0.01 * (i % 7) as f64 - 0.03)
            .collect();
        stbp::set_flat_params(&mut net, &params);
        let fresh: Vec<Matrix> = net.layers().iter().map(|l| l.weights.transposed()).collect();
        assert_ne!(net.transposed(), &stale[..], "the weight change must reach Wᵀ");
        assert_eq!(net.transposed(), &fresh[..]);
        assert_eq!(run(&net, 3, 0), run_dense(&net, 3, 0));
    }

    #[test]
    fn kernel_events_match_independent_synops_count() {
        // The drive kernels tally events as they propagate spikes; the
        // stats recompute synops from the dense rasters. The two must agree.
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(29));
        let trace = run(&net, 6, 0);
        assert_eq!(trace.kernel_events, trace.stats.synops);
    }

    /// The event counters recounted from the trace's dense rasters, where
    /// every non-zero entry is an event.
    fn dense_recount(net: &SdpNetwork, trace: &BatchNetworkTrace) -> (SpikeStats, Vec<u64>) {
        let count = |m: &Matrix| m.as_slice().iter().filter(|&&s| s != 0.0).count() as u64;
        let mut stats = SpikeStats { encoder_spikes: count(&trace.encoder), ..Default::default() };
        let mut layer_spikes = Vec::new();
        for (k, layer) in net.layers().iter().enumerate() {
            let inputs = if k == 0 { &trace.encoder } else { &trace.layers[k - 1].outputs };
            stats.synops += count(inputs) * layer.out_dim() as u64;
            stats.neuron_updates += (layer.out_dim() * trace.encoder.rows()) as u64;
            let spikes = count(&trace.layers[k].outputs);
            stats.neuron_spikes += spikes;
            layer_spikes.push(spikes);
        }
        (stats, layer_spikes)
    }

    #[test]
    fn encoder_stack_and_counters_match_per_sample_encode_and_dense_recounts() {
        let pool = [1.0, 0.93, 1.27, 0.5, 1.5, -3.0, 9.0, f64::NAN, f64::INFINITY, -f64::INFINITY];
        for encoding in [Encoding::Deterministic, Encoding::Probabilistic] {
            for t_max in [1, 5, 9] {
                let mut cfg = SdpNetworkConfig::small(4, 3);
                cfg.encoder.encoding = encoding;
                cfg.timesteps = t_max;
                let net = SdpNetwork::new(cfg, &mut rng(5));
                for bsz in [1, 3, 8] {
                    let tag = format!("{encoding:?} T={t_max} B={bsz}");
                    let st = Matrix::from_fn(bsz, 4, |b, d| pool[(b * 3 + d * 7) % pool.len()]);
                    // Buffers left dirty by another batch.
                    let mut ws = BatchWorkspace::new(&net, bsz);
                    let mut trace = BatchNetworkTrace::new(&net, bsz);
                    let rec = &mut NoopRecorder;
                    let other = states(&net, bsz);
                    net.forward_batch(&other, &mut rngs(bsz, 9), &mut ws, &mut trace, rec);
                    let mut seeded = rngs(bsz, 60);
                    net.forward_batch(&st, &mut seeded, &mut ws, &mut trace, rec);

                    assert_eq!(trace.encoder_set, SpikeSet::from_matrix(&trace.encoder), "{tag}");
                    for (b, r) in seeded.iter_mut().enumerate() {
                        let mut alone = rng(60 + b as u64);
                        let want = net.encoder.encode(st.row(b), t_max, &mut alone);
                        for t in 0..t_max {
                            let got = trace.encoder.row(t * bsz + b).iter().map(|x| x.to_bits());
                            let want_row = want.row(t).iter().map(|x| x.to_bits());
                            assert!(got.eq(want_row), "{tag} sample {b} t={t}");
                        }
                        assert_eq!(r.next_u64(), alone.next_u64(), "{tag} sample {b}: RNG");
                    }
                    let (stats, layer_spikes) = dense_recount(&net, &trace);
                    assert_eq!(trace.stats, stats, "{tag}");
                    assert_eq!(trace.layer_spikes, layer_spikes, "{tag}");
                    assert_eq!(trace.kernel_events, stats.synops, "{tag}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "workspace batch mismatch")]
    fn wrong_workspace_batch_panics() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(3));
        let st = states(&net, 2);
        let mut ws = BatchWorkspace::new(&net, 3);
        let mut trace = BatchNetworkTrace::new(&net, 2);
        net.forward_batch(&st, &mut rngs(2, 0), &mut ws, &mut trace, &mut NoopRecorder);
    }

    // The dense-vs-event battery: hard, probabilistic, soft and ALIF nets
    // at b1/b8/b32, forward traces and backward gradients bitwise.

    const BATCHES: [usize; 3] = [1, 8, 32];

    fn battery_nets() -> Vec<(&'static str, SdpNetwork)> {
        let mut r = rng(7);
        let base = SdpNetworkConfig::small(6, 3);
        let hard = SdpNetworkConfig { hidden: vec![12, 9], ..base.clone() };
        let mut prob = base.clone();
        prob.encoder.encoding = Encoding::Probabilistic;
        let soft =
            SdpNetworkConfig { spike_fn: SpikeFn::Soft { temperature: 0.4 }, ..base.clone() };
        let alif = SdpNetworkConfig {
            adaptation: Some(AdaptiveParams { beta: 0.6, rho: 0.85 }),
            ..base.clone()
        };
        [("hard", hard), ("probabilistic", prob), ("soft", soft), ("alif", alif)]
            .into_iter()
            .map(|(kind, cfg)| (kind, SdpNetwork::new(cfg, &mut r)))
            .collect()
    }

    fn battery_states(batch: usize, dim: usize) -> Matrix {
        Matrix::from_fn(batch, dim, |b, d| 0.7 + 0.04 * ((b * dim + d) % 17) as f64)
    }

    #[test]
    fn forward_traces_are_bitwise_equal_at_all_batch_sizes() {
        // Each workspace is driven twice, other states first, as a served
        // model's buffers are.
        for (kind, net) in battery_nets() {
            for batch in BATCHES {
                let st = battery_states(batch, net.config().state_dim);
                let mut ws = BatchWorkspace::new(&net, batch);
                let mut dense = BatchNetworkTrace::new(&net, batch);
                net.forward_batch_dense(&st, &mut rngs(batch, 1000), &mut ws, &mut dense);
                let mut trace = BatchNetworkTrace::new(&net, batch);
                let rec = &mut NoopRecorder;
                let other = st.map(|v| v + 0.13);
                net.forward_batch(&other, &mut rngs(batch, 1000), &mut ws, &mut trace, rec);
                net.forward_batch(&st, &mut rngs(batch, 1000), &mut ws, &mut trace, rec);
                // Whole-trace equality: voltages, thresholds, spikes, spike
                // sets, actions, stats, and the kernel event tally.
                assert_eq!(trace, dense, "{kind} net, batch {batch}");
                assert!(trace.kernel_events > 0, "{kind} net produced no events");
            }
        }
    }

    #[test]
    fn backward_gradients_are_bitwise_equal_at_all_batch_sizes() {
        for (kind, net) in battery_nets() {
            for batch in BATCHES {
                let st = battery_states(batch, net.config().state_dim);
                let mut ws = BatchWorkspace::new(&net, batch);
                let mut trace = BatchNetworkTrace::new(&net, batch);
                let rec = &mut NoopRecorder;
                net.forward_batch(&st, &mut rngs(batch, 1000), &mut ws, &mut trace, rec);
                let d_actions =
                    Matrix::from_fn(batch, 3, |b, a| 0.2 - 0.1 * a as f64 + 0.01 * b as f64);
                let dense = stbp::backward_batch_dense(&net, &trace, &d_actions, 0.05, &mut ws);
                let sparse_g = stbp::backward_batch(&net, &trace, &d_actions, 0.05, &mut ws, rec);
                assert_eq!(
                    stbp::flat_grads(&sparse_g),
                    stbp::flat_grads(&dense),
                    "{kind} net, batch {batch}"
                );
            }
        }
    }
}
