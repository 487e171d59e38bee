//! Equivalence battery for the event-driven sparse spike kernels.
//!
//! Locks the event-driven drive to the dense reference at three levels:
//!
//! * **Network level** — batched forward traces at b1/b8/b32 are
//!   *bitwise* equal whether [`SdpNetwork::forward_batch`] gets the
//!   network's `Wᵀ` (event-driven drive) or not (dense drive), for hard,
//!   probabilistic, soft, and adaptive (ALIF) networks, and so are the
//!   backward gradients of both [`KernelPath`]s.
//! * **Training level** — thread-count invariance holds on the
//!   event-driven drive the trainer runs.
//! * **Kernel level** — a proptest battery over adversarial spike
//!   patterns (all-zero timesteps, fully-dense timesteps, single-neuron
//!   spikes, ragged per-sample sparsity) pins `spike_drive` /
//!   `spike_outer_acc` to the dense GEMMs bitwise.
//!
//! The accounting test closes the loop the CI bench smoke also checks:
//! the event count tallied by the kernels while propagating spikes must
//! equal the cost model's independently derived synops exactly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikefolio::agent::SdpAgent;
use spikefolio::config::SdpConfig;
use spikefolio::training::Trainer;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_profile::CostReport;
use spikefolio_snn::encoder::Encoding;
use spikefolio_snn::network::{SdpNetwork, SdpNetworkConfig};
use spikefolio_snn::neuron::SpikeFn;
use spikefolio_snn::{
    stbp, BatchNetworkTrace, BatchWorkspace, KernelPath, SpikeSet, TransposedWeights,
};
use spikefolio_telemetry::NoopRecorder;
use spikefolio_tensor::{gemm, sparse, Matrix};

const BATCHES: [usize; 3] = [1, 8, 32];

fn states(batch: usize, dim: usize) -> Matrix {
    Matrix::from_fn(batch, dim, |b, d| 0.7 + 0.04 * ((b * dim + d) % 17) as f64)
}

fn nets() -> Vec<(&'static str, SdpNetwork)> {
    let mut rng = StdRng::seed_from_u64(7);
    let hard = SdpNetwork::new(
        {
            let mut c = SdpNetworkConfig::small(6, 3);
            c.hidden = vec![12, 9];
            c
        },
        &mut rng,
    );
    let prob = SdpNetwork::new(
        {
            let mut c = SdpNetworkConfig::small(6, 3);
            c.encoder.encoding = Encoding::Probabilistic;
            c
        },
        &mut rng,
    );
    let soft = SdpNetwork::new(
        {
            let mut c = SdpNetworkConfig::small(6, 3);
            c.spike_fn = SpikeFn::Soft { temperature: 0.4 };
            c
        },
        &mut rng,
    );
    let alif = SdpNetwork::new(
        {
            let mut c = SdpNetworkConfig::small(6, 3);
            c.adaptation = Some(spikefolio_snn::neuron::AdaptiveParams { beta: 0.6, rho: 0.85 });
            c
        },
        &mut rng,
    );
    vec![("hard", hard), ("probabilistic", prob), ("soft", soft), ("alif", alif)]
}

fn rngs(batch: usize) -> Vec<StdRng> {
    (0..batch).map(|b| StdRng::seed_from_u64(1000 + b as u64)).collect()
}

/// Runs the pinned states forward with fixed seeded RNGs on the drive `wt`
/// selects (event-driven with it, dense without) and returns the trace
/// and its workspace.
fn forward(
    net: &SdpNetwork,
    batch: usize,
    wt: Option<&TransposedWeights>,
) -> (BatchNetworkTrace, BatchWorkspace) {
    let st = states(batch, net.config().state_dim);
    let mut ws = BatchWorkspace::new(net, batch);
    let mut trace = BatchNetworkTrace::new(net, batch);
    net.forward_batch(&st, &mut rngs(batch), wt, &mut ws, &mut trace, &mut NoopRecorder);
    (trace, ws)
}

#[test]
fn forward_traces_are_bitwise_equal_at_all_batch_sizes() {
    for (kind, net) in nets() {
        for batch in BATCHES {
            let (dense, _) = forward(&net, batch, None);
            let (sparse_t, _) = forward(&net, batch, Some(&net.transposed_weights()));
            // Whole-trace equality: voltages, thresholds, spikes, spike
            // sets, actions, stats, and the kernel event tally.
            assert_eq!(sparse_t, dense, "{kind} net, batch {batch}");
            assert!(sparse_t.kernel_events > 0, "{kind} net produced no events");
        }
    }
}

#[test]
fn transposed_entry_traces_are_bitwise_equal_at_all_batch_sizes() {
    // The serving pattern: one `Wᵀ` built once and shared by every batch
    // size, each workspace driven twice (other states first).
    for (kind, net) in nets() {
        let wt = net.transposed_weights();
        for batch in BATCHES {
            let (dense, _) = forward(&net, batch, None);
            let st = states(batch, net.config().state_dim);
            let other = st.map(|v| v + 0.13);
            let mut ws = BatchWorkspace::new(&net, batch);
            let mut trace = BatchNetworkTrace::new(&net, batch);
            let rec = &mut NoopRecorder;
            net.forward_batch(&other, &mut rngs(batch), Some(&wt), &mut ws, &mut trace, rec);
            net.forward_batch(&st, &mut rngs(batch), Some(&wt), &mut ws, &mut trace, rec);
            assert_eq!(trace.actions, dense.actions, "{kind} net, batch {batch}: actions");
            assert_eq!(trace.kernel_events, dense.kernel_events, "{kind} net, batch {batch}");
            assert_eq!(trace.stats, dense.stats, "{kind} net, batch {batch}: stats");
            assert_eq!(trace, dense, "{kind} net, batch {batch}: whole trace");
        }
    }
}

#[test]
fn backward_gradients_are_bitwise_equal_at_all_batch_sizes() {
    for (kind, net) in nets() {
        for batch in BATCHES {
            let (trace, mut ws) = forward(&net, batch, Some(&net.transposed_weights()));
            let d_actions =
                Matrix::from_fn(batch, 3, |b, a| 0.2 - 0.1 * a as f64 + 0.01 * b as f64);
            let [dense, sparse_g] = [KernelPath::Dense, KernelPath::Sparse].map(|kernel| {
                stbp::backward_batch(
                    &net,
                    &trace,
                    &d_actions,
                    0.05,
                    &mut ws,
                    kernel,
                    &mut NoopRecorder,
                )
            });
            assert_eq!(
                stbp::flat_grads(&sparse_g),
                stbp::flat_grads(&dense),
                "{kind} net, batch {batch}"
            );
        }
    }
}

#[test]
fn training_is_thread_count_invariant_on_the_sparse_path() {
    // PR 1's contract: per-sample seeding makes trained parameters
    // independent of the worker count. The sparse kernels reuse the same
    // micro-batch workspaces, so the invariance must survive.
    let (train, _) = ExperimentPreset::experiment1().shrunk(40, 10).generate_split(5);
    let mut cfg = SdpConfig::smoke();
    cfg.training.epochs = 2;
    cfg.training.steps_per_epoch = 6;
    cfg.training.batch_size = 8;
    let run = |threads: usize| {
        let mut c = cfg.clone();
        c.training.parallelism = threads;
        let mut agent = SdpAgent::new(&c, train.num_assets(), 3);
        let log = Trainer::new(&c).train_sdp_with(&mut agent, &train, &mut NoopRecorder);
        (stbp::flat_params(&agent.network), log.epoch_rewards)
    };
    let (p1, r1) = run(1);
    let (p4, r4) = run(4);
    assert_eq!(r1, r4, "epoch rewards must not depend on thread count");
    assert_eq!(p1, p4, "trained parameters must not depend on thread count");
}

#[test]
fn kernel_event_tally_matches_cost_model_synops() {
    let net = SdpNetwork::new(SdpNetworkConfig::small(16, 4), &mut StdRng::seed_from_u64(2016));
    let batch = 32;
    let (trace, _) = forward(&net, batch, Some(&net.transposed_weights()));
    // Three independent tallies of the same quantity: the kernels' own
    // running count, the stats recomputation from the dense rasters, and
    // the cost model fed by per-layer spike counts.
    assert_eq!(trace.kernel_events, trace.stats.synops);
    let shapes: Vec<(usize, usize)> =
        net.layers.iter().map(|l| (l.in_dim(), l.out_dim())).collect();
    let cost = CostReport::from_workload(
        &shapes,
        net.config().timesteps,
        batch,
        trace.stats.encoder_spikes,
        &trace.layer_spikes,
    );
    assert_eq!(trace.kernel_events, cost.total_synops());
}

// ---------------------------------------------------------------------------
// Kernel-level proptest battery over adversarial spike patterns.
// ---------------------------------------------------------------------------

/// Deterministic adversarial raster: `pattern` selects the shape family.
fn adversarial_raster(pattern: usize, rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    match pattern {
        // All-zero timesteps: a random raster with every third row (and
        // the first) silenced.
        0 => {
            let mut m =
                Matrix::from_fn(rows, cols, |_, _| if rng.gen_bool(0.4) { 1.0 } else { 0.0 });
            for r in 0..rows {
                if r == 0 || r % 3 == 0 {
                    m.row_mut(r).iter_mut().for_each(|v| *v = 0.0);
                }
            }
            m
        }
        // Fully-dense timesteps: every neuron fires every step.
        1 => Matrix::filled(rows, cols, 1.0),
        // Single-neuron spikes: exactly one event per row.
        2 => {
            let mut m = Matrix::zeros(rows, cols);
            for r in 0..rows {
                let c = rng.gen_range(0..cols);
                m.row_mut(r)[c] = 1.0;
            }
            m
        }
        // Ragged per-sample sparsity: per-row density swept 0..=100%,
        // with graded "soft" spike values in (0, 1].
        _ => {
            let mut m = Matrix::zeros(rows, cols);
            for r in 0..rows {
                let density = r as f64 / rows.max(1) as f64;
                for c in 0..cols {
                    if rng.gen_bool(density) {
                        m.row_mut(r)[c] = 0.25 + 0.75 * rng.gen_range(0.0..1.0);
                    }
                }
            }
            m
        }
    }
}

fn weights(out_dim: usize, in_dim: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    Matrix::from_fn(out_dim, in_dim, |_, _| rng.gen_range(-0.5..0.5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `spike_drive` equals `gemm_nt` bitwise over every adversarial
    /// pattern family.
    #[test]
    fn drive_matches_dense_over_adversarial_patterns(
        pattern in 0usize..4,
        bsz in 1usize..7,
        t_max in 1usize..5,
        in_dim in 1usize..40,
        out_dim in 1usize..24,
        seed in 0u64..1000,
    ) {
        let rows = t_max * bsz;
        let stack = adversarial_raster(pattern, rows, in_dim, seed);
        let set = SpikeSet::from_matrix(&stack);
        let w = weights(out_dim, in_dim, seed);
        let wt = w.transposed();
        for t in 0..t_max {
            let block = &stack.as_slice()[t * bsz * in_dim..(t + 1) * bsz * in_dim];
            let mut dense = vec![0.0; bsz * out_dim];
            gemm::gemm_nt(block, w.as_slice(), &mut dense, bsz, in_dim, out_dim);

            let mut sparse_out = vec![f64::NAN; bsz * out_dim];
            let synops = sparse::spike_drive(
                block, &set, t * bsz, wt.as_slice(), &mut sparse_out, bsz, in_dim, out_dim,
            );
            prop_assert_eq!(&sparse_out, &dense);
            let events: u64 =
                (0..bsz).map(|b| set.row(t * bsz + b).len() as u64).sum();
            prop_assert_eq!(synops, events * out_dim as u64);
        }
    }

    /// `spike_outer_acc` equals `gemm_tn_acc` bitwise over every
    /// adversarial pattern family.
    #[test]
    fn weight_grad_matches_dense_over_adversarial_patterns(
        pattern in 0usize..4,
        rows in 1usize..24,
        m in 1usize..16,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let b = adversarial_raster(pattern, rows, n, seed);
        let set = SpikeSet::from_matrix(&b);
        let a = weights(rows, m, seed ^ 1); // dense delta stack
        let start = weights(m, n, seed ^ 2); // non-zero accumulator start
        let mut dense = start.clone();
        gemm::gemm_tn_acc(0.9, a.as_slice(), b.as_slice(), dense.as_mut_slice(), rows, m, n);
        let mut sparse_out = start.clone();
        sparse::spike_outer_acc(
            0.9, a.as_slice(), b.as_slice(), &set, sparse_out.as_mut_slice(), rows, m, n,
        );
        prop_assert_eq!(sparse_out.as_slice(), dense.as_slice());
    }

    /// The spike-set round-trip holds for every adversarial pattern: the
    /// occupancy marks exactly the non-zero entries, in ascending order.
    #[test]
    fn spike_set_round_trips_adversarial_patterns(
        pattern in 0usize..4,
        rows in 1usize..20,
        cols in 1usize..50,
        seed in 0u64..1000,
    ) {
        let m = adversarial_raster(pattern, rows, cols, seed);
        let set = SpikeSet::from_matrix(&m);
        prop_assert_eq!(set.rows(), rows);
        prop_assert_eq!(set.cols(), cols);
        let nonzero = m.as_slice().iter().filter(|&&x| x != 0.0).count() as u64;
        prop_assert_eq!(set.nnz(), nonzero);
        for r in 0..rows {
            let row = set.row(r);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {} not ascending", r);
            for &c in row {
                prop_assert!(m.row(r)[c as usize] != 0.0);
            }
        }
    }
}
