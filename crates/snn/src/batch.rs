//! The SNN execution engine: rolls a batch of `B` states through the `T`
//! simulation steps with one drive kernel per layer per step. It is the
//! only forward path: training runs it on minibatches, serving on
//! micro-batches, and single decisions (backtests, the desk gate, a
//! singleton serve request) at `B = 1`.
//!
//! With `B > 1` the drive defaults to the **event-driven sparse path**
//! ([`spikefolio_tensor::sparse`]): each spike stack carries a
//! [`SpikeSet`] of its active indices, and the kernels touch only active
//! presynaptic columns. The dense GEMM path ([`KernelPath::Dense`]) is
//! the bitwise reference, selectable per call via
//! [`SdpNetwork::forward_batch_with`] or process-wide via
//! [`set_kernel_path`]; the two paths produce bit-identical traces.
//!
//! The sparse drive streams rows of `Wᵀ`. The per-call entries
//! ([`SdpNetwork::forward_batch`] and its variants) transpose the weights
//! once per call into the workspace, because a trainer changes them
//! between calls. At `B = 1` those entries take the dense drive: one
//! sample cannot amortize that transpose (3.7 MB for the paper's
//! 3640×128 first layer), and keeping a `Wᵀ` buffer alive per
//! single-sample workspace costs resident memory for nothing. A workspace
//! therefore allocates `Wᵀ` only on its first per-call sparse pass.
//!
//! A caller whose weights stay fixed across calls (a served model) builds
//! [`TransposedWeights`] once with [`SdpNetwork::transposed_weights`] and
//! runs [`SdpNetwork::forward_batch_transposed`], which takes the sparse
//! drive at every `B`, `B = 1` included, and never touches the
//! workspace's own `Wᵀ`.
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
//! [`BatchWorkspace`] preallocates every per-step buffer (layer states,
//! drive scratch, backward deltas, the stacked `Δc` and upstream-gradient
//! matrices). After construction, [`SdpNetwork::forward_batch`] and
//! [`crate::stbp::backward_batch`] allocate only O(B) decoder-sized
//! vectors outside the per-step hot loop.
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
//!   `B = 1` counters.
//! * The backward pass evaluates the per-row recurrences identically and
//!   only reorders the final `(t, b)` gradient reductions, so a batch's
//!   parameter gradients match the sum of its rows' `B = 1` gradients to
//!   ~1e-14 (well inside the 1e-12 equivalence budget).

use crate::network::{SdpNetwork, SpikeStats};
use rand::Rng;
use spikefolio_telemetry::labels::{SPAN_PROFILE_SNN_ENCODE, SPAN_PROFILE_SNN_LIF};
use spikefolio_telemetry::{NoopRecorder, Recorder, Stopwatch};
use spikefolio_tensor::sparse::{self, SpikeSet};
use spikefolio_tensor::{gemm, Matrix};
use std::sync::atomic::{AtomicBool, Ordering};

/// Which kernel implementation the batched passes route through.
///
/// The event-driven sparse path is the default for `B > 1` and for
/// [`SdpNetwork::forward_batch_transposed`]; the dense GEMM path runs
/// every `B = 1` pass of the per-call entries and is the bitwise reference
/// the equivalence test battery compares against. The two produce
/// bit-identical traces and gradients (see [`spikefolio_tensor::sparse`]),
/// so which one runs is observable only in time and memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Event-driven sparse kernels ([`sparse::spike_drive`] /
    /// [`sparse::spike_outer_acc`]).
    Sparse,
    /// Dense GEMM reference kernels ([`gemm::gemm_nt`] /
    /// [`gemm::gemm_tn_acc`]).
    Dense,
}

/// Process-global switch onto the dense reference path.
static DENSE_OVERRIDE: AtomicBool = AtomicBool::new(false);

/// Routes every [`SdpNetwork::forward_batch`] /
/// [`crate::stbp::backward_batch`] call in this process through `path`
/// ([`KernelPath::Sparse`] is the default; a `B = 1` forward pass of the
/// per-call entries takes the dense drive either way).
///
/// Intended for equivalence testing of code that only exposes the default
/// entry points (e.g. driving a full training run down the dense reference
/// path). The switch is process-global: concurrent tests observe it too,
/// which is safe precisely because the two paths are bit-identical.
pub fn set_kernel_path(path: KernelPath) {
    DENSE_OVERRIDE.store(path == KernelPath::Dense, Ordering::SeqCst);
}

/// The [`KernelPath`] the default entry points currently route through.
pub fn kernel_path() -> KernelPath {
    if DENSE_OVERRIDE.load(Ordering::SeqCst) {
        KernelPath::Dense
    } else {
        KernelPath::Sparse
    }
}

/// Every layer's weights transposed (`Wᵀ`, `in × out`, input-side
/// first): the operand the event-driven drive streams, built once by
/// [`SdpNetwork::transposed_weights`] for a network whose weights no
/// longer change and passed to [`SdpNetwork::forward_batch_transposed`].
///
/// It is a snapshot: after the network's weights change it must be
/// rebuilt, or the forward pass runs on the old weights.
#[derive(Debug, Clone)]
pub struct TransposedWeights {
    layers: Vec<Matrix>,
}

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
                .layers
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
            layer_spikes: vec![0; net.layers.len()],
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
    /// Transposed weights `Wᵀ`, `in × out` — refreshed once per per-call
    /// sparse forward pass so the event-driven drive streams one
    /// contiguous `out`-wide row per presynaptic event. Empty until the
    /// first such pass, so a workspace that only runs the dense drive
    /// (every `B = 1` workspace of the per-call entries) or
    /// [`SdpNetwork::forward_batch_transposed`] never holds it.
    pub(crate) wt: Matrix,
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
            .layers
            .iter()
            .map(|l| {
                let out = l.out_dim();
                BatchLayerBufs {
                    current: Matrix::zeros(batch, out),
                    voltage: Matrix::zeros(batch, out),
                    spikes: Matrix::zeros(batch, out),
                    adapt: Matrix::zeros(batch, out),
                    drive: Matrix::zeros(batch, out),
                    wt: Matrix::zeros(0, 0),
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
        let out_last = net.layers.last().map_or(0, |l| l.out_dim());
        Self { batch, layers, spike_sums: Matrix::zeros(batch, out_last) }
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

    /// Runs `state` through `net` at `B = 1` with
    /// [`SdpNetwork::forward_batch`] and returns the action.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not the state width these buffers were built
    /// for, or `net` has another shape.
    pub fn forward<R: Rng>(&mut self, net: &SdpNetwork, state: &[f64], rng: &mut R) -> &[f64] {
        self.state.row_mut(0).copy_from_slice(state);
        net.forward_batch(&self.state, std::slice::from_mut(rng), &mut self.ws, &mut self.trace);
        self.trace.action(0)
    }
}

fn count_spikes(data: &[f64]) -> u64 {
    data.iter().filter(|&&s| s > 0.0).count() as u64
}

impl SdpNetwork {
    /// Forward pass (Algorithm 1): runs every row of `states`
    /// (`B × state_dim`) through the network simultaneously, one drive
    /// kernel per layer per timestep — the dense one at `B = 1`, the
    /// [`kernel_path`] default otherwise.
    ///
    /// Sample `b` is encoded with `rngs[b]`, so with per-sample seeded RNGs
    /// the result is independent of how samples are grouped into batches:
    /// each row is bit-identical to its own `B = 1` run (see the
    /// [module docs](crate::batch)).
    ///
    /// `ws` and `trace` must have been built for this network at batch size
    /// `states.rows()`; both are fully overwritten.
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
    ) {
        self.forward_batch_recorded(states, rngs, ws, trace, &mut NoopRecorder);
    }

    /// One-shot action selection for offline callers: allocates a
    /// workspace and trace for `states.rows()` samples, runs
    /// [`forward_batch`](Self::forward_batch), and returns each sample's
    /// portfolio weight vector. Callers on a hot path keep their own
    /// workspace and call `forward_batch` instead.
    ///
    /// # Panics
    ///
    /// Panics on the same shape mismatches as [`forward_batch`](Self::forward_batch).
    pub fn act_batch<R: Rng>(&self, states: &Matrix, rngs: &mut [R]) -> Vec<Vec<f64>> {
        let bsz = states.rows();
        let mut ws = BatchWorkspace::new(self, bsz);
        let mut trace = BatchNetworkTrace::new(self, bsz);
        self.forward_batch(states, rngs, &mut ws, &mut trace);
        (0..bsz).map(|b| trace.action(b).to_vec()).collect()
    }

    /// Transposes every layer's weights once, for
    /// [`forward_batch_transposed`](Self::forward_batch_transposed).
    pub fn transposed_weights(&self) -> TransposedWeights {
        TransposedWeights { layers: self.layers.iter().map(|l| l.weights.transposed()).collect() }
    }

    /// [`SdpNetwork::forward_batch`] on weights transposed beforehand by
    /// [`transposed_weights`](Self::transposed_weights): the event-driven
    /// sparse drive at every batch size, `B = 1` included, reading `wt`
    /// instead of transposing into `ws`. The result is bit-identical to
    /// the dense reference as long as `wt` was built from this network's
    /// current weights. The process-wide [`set_kernel_path`] switch still
    /// routes it onto the dense reference.
    ///
    /// # Panics
    ///
    /// Panics on the same shape mismatches as
    /// [`forward_batch`](Self::forward_batch), or if `wt` was built for a
    /// network of another shape.
    pub fn forward_batch_transposed<R: Rng>(
        &self,
        states: &Matrix,
        rngs: &mut [R],
        wt: &TransposedWeights,
        ws: &mut BatchWorkspace,
        trace: &mut BatchNetworkTrace,
    ) {
        assert_eq!(wt.layers.len(), self.layers.len(), "forward_batch: Wᵀ depth mismatch");
        for (w, layer) in wt.layers.iter().zip(&self.layers) {
            assert_eq!(
                w.shape(),
                (layer.in_dim(), layer.out_dim()),
                "forward_batch: Wᵀ shape mismatch"
            );
        }
        self.forward_batch_impl(
            states,
            rngs,
            ws,
            trace,
            &mut NoopRecorder,
            kernel_path(),
            Some(wt),
        );
    }

    /// [`SdpNetwork::forward_batch`] routed through an explicit
    /// [`KernelPath`] instead of the process default — the entry point the
    /// equivalence test battery uses to compare the event-driven path
    /// against the dense reference on identical inputs.
    ///
    /// # Panics
    ///
    /// Panics on the same shape mismatches as
    /// [`forward_batch`](Self::forward_batch).
    pub fn forward_batch_with<R: Rng>(
        &self,
        states: &Matrix,
        rngs: &mut [R],
        ws: &mut BatchWorkspace,
        trace: &mut BatchNetworkTrace,
        path: KernelPath,
    ) {
        self.forward_batch_impl(states, rngs, ws, trace, &mut NoopRecorder, path, None);
    }

    /// [`SdpNetwork::forward_batch`] with phase profiling: the encode
    /// section and the LIF timestep loop are timed as
    /// [`SPAN_PROFILE_SNN_ENCODE`] and [`SPAN_PROFILE_SNN_LIF`] spans on
    /// `rec`.
    ///
    /// Observe-only: the recorder never influences the computation, and
    /// with a disabled recorder (e.g. [`NoopRecorder`]) the stopwatches
    /// never read the clock — the cost over `forward_batch` is a few
    /// predictable branches per call, not per element.
    pub fn forward_batch_recorded<R: Rng>(
        &self,
        states: &Matrix,
        rngs: &mut [R],
        ws: &mut BatchWorkspace,
        trace: &mut BatchNetworkTrace,
        rec: &mut dyn Recorder,
    ) {
        let path = if states.rows() == 1 { KernelPath::Dense } else { kernel_path() };
        self.forward_batch_impl(states, rngs, ws, trace, rec, path, None);
    }

    /// The one engine behind every forward entry. The sparse drive reads
    /// `wt` when given and otherwise transposes into the workspace.
    #[allow(clippy::too_many_arguments)]
    fn forward_batch_impl<R: Rng>(
        &self,
        states: &Matrix,
        rngs: &mut [R],
        ws: &mut BatchWorkspace,
        trace: &mut BatchNetworkTrace,
        rec: &mut dyn Recorder,
        path: KernelPath,
        wt: Option<&TransposedWeights>,
    ) {
        let bsz = states.rows();
        let t_max = self.config().timesteps;
        let enc_dim = self.encoder.output_dim();
        assert!(bsz > 0, "forward_batch: empty batch");
        assert_eq!(states.cols(), self.config().state_dim, "forward_batch: state width mismatch");
        assert_eq!(rngs.len(), bsz, "forward_batch: need one RNG per sample");
        assert_eq!(ws.batch, bsz, "forward_batch: workspace batch mismatch");
        assert_eq!(trace.batch, bsz, "forward_batch: trace batch mismatch");
        assert_eq!(trace.encoder.cols(), enc_dim, "forward_batch: trace encoder width mismatch");
        assert_eq!(trace.layers.len(), self.layers.len(), "forward_batch: trace depth mismatch");

        trace.stats = SpikeStats::default();
        trace.kernel_events = 0;

        // Encode each sample with its own RNG straight into its rows of the
        // timestep-major stack (row t·B + b). The event view of the stack
        // is built here, once, and threaded through the event-driven
        // kernels of both passes.
        let encode_watch = Stopwatch::start(rec);
        for (b, rng) in rngs.iter_mut().enumerate() {
            self.encoder.encode_into(states.row(b), t_max, rng, &mut trace.encoder, b);
        }
        trace.encoder_set.rebuild_from(&trace.encoder);
        trace.stats.encoder_spikes = count_spikes(trace.encoder.as_slice());
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
        // The event-driven drive streams rows of Wᵀ; weights are constant
        // over the simulation, so unless the caller holds them transposed,
        // transpose once per call into the workspace (amortized over T·B
        // drive rows).
        if path == KernelPath::Sparse && wt.is_none() {
            for (lb, layer) in ws.layers.iter_mut().zip(&self.layers) {
                if lb.wt.shape() != (layer.in_dim(), layer.out_dim()) {
                    lb.wt = Matrix::zeros(layer.in_dim(), layer.out_dim());
                }
                layer.weights.transpose_into(&mut lb.wt);
            }
        }

        let mut kernel_events = 0u64;
        let lif_watch = Stopwatch::start(rec);
        for t in 0..t_max {
            for (k, layer) in self.layers.iter().enumerate() {
                let out_dim = layer.out_dim();
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
                match path {
                    KernelPath::Sparse => {
                        // Event-driven c-drive: touch only the active
                        // presynaptic columns, k-ascending — bitwise
                        // identical to the dense reference (see
                        // tensor::sparse).
                        let layer_wt = wt.map_or(&lb.wt, |w| &w.layers[k]);
                        kernel_events += sparse::spike_drive(
                            input_block,
                            input_set,
                            t * bsz,
                            layer_wt.as_slice(),
                            lb.drive.as_mut_slice(),
                            bsz,
                            in_dim,
                            out_dim,
                        );
                    }
                    KernelPath::Dense => {
                        // Dense reference: B k-ascending dots per neuron,
                        // bitwise identical to the sparse drive. Tally
                        // the events the sparse kernel would process so
                        // traces stay comparable across paths.
                        gemm::gemm_nt(
                            input_block,
                            layer.weights.as_slice(),
                            lb.drive.as_mut_slice(),
                            bsz,
                            in_dim,
                            out_dim,
                        );
                        for b in 0..bsz {
                            kernel_events +=
                                input_set.row(t * bsz + b).len() as u64 * out_dim as u64;
                        }
                    }
                }
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

        // Event counters (summed over the batch, matching B single-sample runs).
        for (k, layer) in self.layers.iter().enumerate() {
            let inputs = if k == 0 {
                trace.encoder.as_slice()
            } else {
                trace.layers[k - 1].outputs.as_slice()
            };
            trace.stats.synops += count_spikes(inputs) * layer.out_dim() as u64;
            trace.stats.neuron_updates += (layer.out_dim() * t_max * bsz) as u64;
            let out_spikes = count_spikes(trace.layers[k].outputs.as_slice());
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
            let dec = self.decoder.decode(ws.spike_sums.row(b));
            trace.firing_rates.row_mut(b).copy_from_slice(&dec.firing_rates);
            trace.actions.row_mut(b).copy_from_slice(&dec.action);
        }
    }
}

#[cfg(test)]
impl SdpNetwork {
    /// Runs one state through [`SdpNetwork::forward_batch`] at `B = 1` on
    /// fresh buffers and returns the trace.
    pub(crate) fn forward_one<R: Rng>(&self, state: &[f64], rng: &mut R) -> BatchNetworkTrace {
        let mut ws = BatchWorkspace::new(self, 1);
        let mut trace = BatchNetworkTrace::new(self, 1);
        let states = Matrix::from_rows(&[state]);
        self.forward_batch(&states, std::slice::from_mut(rng), &mut ws, &mut trace);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoding;
    use crate::network::SdpNetworkConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn states(net: &SdpNetwork, batch: usize) -> Matrix {
        let dim = net.config().state_dim;
        Matrix::from_fn(batch, dim, |b, d| 0.8 + 0.05 * ((b * dim + d) % 9) as f64)
    }

    // The "per-sample" reference of these pins is each row run alone at
    // B = 1, which takes the dense drive; the batches take the sparse one.

    #[test]
    fn forward_batch_is_bitwise_equal_to_per_sample_forward() {
        for encoding in [Encoding::Deterministic, Encoding::Probabilistic] {
            let mut cfg = SdpNetworkConfig::small(4, 3);
            cfg.encoder.encoding = encoding;
            let net = SdpNetwork::new(cfg, &mut rng(7));
            let batch = 5;
            let st = states(&net, batch);
            let mut ws = BatchWorkspace::new(&net, batch);
            let mut trace = BatchNetworkTrace::new(&net, batch);
            let mut rngs: Vec<StdRng> = (0..batch).map(|b| rng(100 + b as u64)).collect();
            net.forward_batch(&st, &mut rngs, &mut ws, &mut trace);
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
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut trace = BatchNetworkTrace::new(&net, batch);
        let mut rngs: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
        net.forward_batch(&st, &mut rngs, &mut ws, &mut trace);
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
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut trace = BatchNetworkTrace::new(&net, batch);
        let mut rngs: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
        net.forward_batch(&st, &mut rngs, &mut ws, &mut trace);
        let mut expect = vec![0u64; net.layers.len()];
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
        assert_eq!(rates.len(), net.layers.len());
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
        let mut rngs: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
        net.forward_batch(&st1, &mut rngs, &mut ws, &mut trace);
        let first = trace.actions.clone();
        // Run different inputs through the same buffers, then the originals
        // again: stale state must not leak.
        let mut rngs2: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
        net.forward_batch(&st2, &mut rngs2, &mut ws, &mut trace);
        let mut rngs3: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
        net.forward_batch(&st1, &mut rngs3, &mut ws, &mut trace);
        assert_eq!(trace.actions, first, "workspace reuse must be stateless");
    }

    #[test]
    fn adaptive_network_matches_per_sample_path() {
        let mut cfg = SdpNetworkConfig::small(4, 3);
        cfg.adaptation = Some(crate::neuron::AdaptiveParams { beta: 0.6, rho: 0.85 });
        let net = SdpNetwork::new(cfg, &mut rng(21));
        let batch = 3;
        let st = states(&net, batch);
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut trace = BatchNetworkTrace::new(&net, batch);
        let mut rngs: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
        net.forward_batch(&st, &mut rngs, &mut ws, &mut trace);
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
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut plain = BatchNetworkTrace::new(&net, batch);
        let mut rngs: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
        net.forward_batch(&st, &mut rngs, &mut ws, &mut plain);

        let mut rec = MemoryRecorder::default();
        let mut observed = BatchNetworkTrace::new(&net, batch);
        let mut rngs2: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
        net.forward_batch_recorded(&st, &mut rngs2, &mut ws, &mut observed, &mut rec);

        assert_eq!(observed, plain, "recording must not change the forward pass");
        let (enc_s, enc_n) = rec.span_total(SPAN_PROFILE_SNN_ENCODE);
        let (lif_s, lif_n) = rec.span_total(SPAN_PROFILE_SNN_LIF);
        assert_eq!((enc_n, lif_n), (1, 1), "one span per profiled section");
        assert!(enc_s >= 0.0 && lif_s >= 0.0);
    }

    #[test]
    fn sparse_and_dense_paths_produce_identical_traces() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(17));
        let batch = 4;
        let st = states(&net, batch);
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut dense = BatchNetworkTrace::new(&net, batch);
        let mut rngs: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
        net.forward_batch_with(&st, &mut rngs, &mut ws, &mut dense, KernelPath::Dense);
        let mut sparse_t = BatchNetworkTrace::new(&net, batch);
        let mut rngs2: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
        net.forward_batch_with(&st, &mut rngs2, &mut ws, &mut sparse_t, KernelPath::Sparse);
        assert_eq!(sparse_t, dense, "bitwise sparse trace must equal the dense reference");
        assert!(sparse_t.kernel_events > 0, "workload should produce events");
    }

    #[test]
    fn single_sample_runs_take_the_dense_drive_without_a_transpose_buffer() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(19));
        let st = states(&net, 1);
        let mut ws = BatchWorkspace::new(&net, 1);
        let mut default = BatchNetworkTrace::new(&net, 1);
        net.forward_batch(&st, &mut [rng(3)], &mut ws, &mut default);
        assert!(ws.layers.iter().all(|lb| lb.wt.is_empty()), "B = 1 must not build Wᵀ");
        // An explicit sparse call still works at B = 1: it builds Wᵀ on
        // first use and reproduces the dense trace bit for bit.
        let mut sparse_t = BatchNetworkTrace::new(&net, 1);
        net.forward_batch_with(&st, &mut [rng(3)], &mut ws, &mut sparse_t, KernelPath::Sparse);
        assert_eq!(sparse_t, default);
        for (lb, layer) in ws.layers.iter().zip(&net.layers) {
            assert_eq!(lb.wt.shape(), (layer.in_dim(), layer.out_dim()));
        }
    }

    #[test]
    fn transposed_entry_never_allocates_the_workspace_transpose() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(23));
        let wt = net.transposed_weights();
        for batch in [1, 3] {
            let st = states(&net, batch);
            let mut ws = BatchWorkspace::new(&net, batch);
            let mut trace = BatchNetworkTrace::new(&net, batch);
            for _ in 0..2 {
                let mut rngs: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
                net.forward_batch_transposed(&st, &mut rngs, &wt, &mut ws, &mut trace);
            }
            assert!(ws.layers.iter().all(|lb| lb.wt.is_empty()), "B = {batch} built its own Wᵀ");
            let mut dense = BatchNetworkTrace::new(&net, batch);
            let mut rngs: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
            net.forward_batch_with(&st, &mut rngs, &mut ws, &mut dense, KernelPath::Dense);
            assert_eq!(trace, dense, "B = {batch} must match the dense reference");
        }
    }

    #[test]
    #[should_panic(expected = "Wᵀ shape mismatch")]
    fn transposed_weights_of_another_shape_panic() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(3));
        let other = SdpNetwork::new(SdpNetworkConfig::small(5, 3), &mut rng(3));
        let st = states(&net, 1);
        let mut ws = BatchWorkspace::new(&net, 1);
        let mut trace = BatchNetworkTrace::new(&net, 1);
        let wt = other.transposed_weights();
        net.forward_batch_transposed(&st, &mut [rng(0)], &wt, &mut ws, &mut trace);
    }

    #[test]
    fn kernel_events_match_independent_synops_count() {
        // The drive kernels tally events as they propagate spikes; the
        // stats recompute synops from the dense rasters. The two must agree.
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(29));
        let batch = 6;
        let st = states(&net, batch);
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut trace = BatchNetworkTrace::new(&net, batch);
        let mut rngs: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
        net.forward_batch(&st, &mut rngs, &mut ws, &mut trace);
        assert_eq!(trace.kernel_events, trace.stats.synops);
    }

    #[test]
    fn kernel_path_override_round_trips() {
        // Dense and Sparse are bit-identical, so flipping the global
        // switch mid-run is safe for concurrently running tests.
        assert_eq!(kernel_path(), KernelPath::Sparse);
        set_kernel_path(KernelPath::Dense);
        assert_eq!(kernel_path(), KernelPath::Dense);
        set_kernel_path(KernelPath::Sparse);
        assert_eq!(kernel_path(), KernelPath::Sparse);
    }

    #[test]
    #[should_panic(expected = "workspace batch mismatch")]
    fn wrong_workspace_batch_panics() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(3));
        let st = states(&net, 2);
        let mut ws = BatchWorkspace::new(&net, 3);
        let mut trace = BatchNetworkTrace::new(&net, 2);
        let mut rngs = vec![rng(0), rng(1)];
        net.forward_batch(&st, &mut rngs, &mut ws, &mut trace);
    }
}
