//! Equivalence battery for the event-driven sparse spike kernels.
//!
//! The whole-network dense reference drive is test-only inside
//! `spikefolio-snn`, so its bitwise battery (forward traces and backward
//! gradients against it) lives in that crate's unit tests. This file holds:
//!
//! * **Network level** — for hard, probabilistic, soft and adaptive (ALIF)
//!   networks at b1/b8/b32, each layer's event-driven drive over the
//!   recorded spike rasters equals the dense GEMM bitwise, every sample's
//!   slice of a batched trace equals its run alone at `B = 1`, and the
//!   network's own `Wᵀ`, built once and shared by every batch size and
//!   reused workspace, reproduces a fresh network's traces.
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
use spikefolio_snn::neuron::{AdaptiveParams, SpikeFn};
use spikefolio_snn::{stbp, BatchNetworkTrace, BatchWorkspace, SpikeSet};
use spikefolio_telemetry::NoopRecorder;
use spikefolio_tensor::{gemm, sparse, Matrix};

const BATCHES: [usize; 3] = [1, 8, 32];

fn states(batch: usize, dim: usize) -> Matrix {
    Matrix::from_fn(batch, dim, |b, d| 0.7 + 0.04 * ((b * dim + d) % 17) as f64)
}

fn nets() -> Vec<(&'static str, SdpNetwork)> {
    let mut rng = StdRng::seed_from_u64(7);
    let base = SdpNetworkConfig::small(6, 3);
    let hard = SdpNetworkConfig { hidden: vec![12, 9], ..base.clone() };
    let mut prob = base.clone();
    prob.encoder.encoding = Encoding::Probabilistic;
    let soft = SdpNetworkConfig { spike_fn: SpikeFn::Soft { temperature: 0.4 }, ..base.clone() };
    let alif = SdpNetworkConfig {
        adaptation: Some(AdaptiveParams { beta: 0.6, rho: 0.85 }),
        ..base.clone()
    };
    [("hard", hard), ("probabilistic", prob), ("soft", soft), ("alif", alif)]
        .into_iter()
        .map(|(kind, cfg)| (kind, SdpNetwork::new(cfg, &mut rng)))
        .collect()
}

fn rngs(batch: usize) -> Vec<StdRng> {
    (0..batch).map(|b| StdRng::seed_from_u64(1000 + b as u64)).collect()
}

/// Runs `st` forward with fixed seeded RNGs on fresh buffers.
fn forward(net: &SdpNetwork, st: &Matrix) -> BatchNetworkTrace {
    let batch = st.rows();
    let mut ws = BatchWorkspace::new(net, batch);
    let mut trace = BatchNetworkTrace::new(net, batch);
    net.forward_batch(st, &mut rngs(batch), &mut ws, &mut trace, &mut NoopRecorder);
    trace
}

/// Sample `b`'s rows of a timestep-major stack (row `t·B + b`), t ascending.
fn sample_rows(m: &Matrix, batch: usize, b: usize) -> Vec<f64> {
    (0..m.rows() / batch).flat_map(|t| m.row(t * batch + b).to_vec()).collect()
}

#[test]
fn forward_traces_are_bitwise_equal_at_all_batch_sizes() {
    for (kind, net) in nets() {
        let t_max = net.config().timesteps;
        for batch in BATCHES {
            let st = states(batch, net.config().state_dim);
            let trace = forward(&net, &st);
            assert!(trace.kernel_events > 0, "{kind} net produced no events");

            // Dense reference drive over the rasters the pass recorded: the
            // event-driven kernel must match the GEMM bitwise at every layer
            // and timestep, and the events it tallies must sum to the trace's.
            let mut events = 0u64;
            for (k, layer) in net.layers().iter().enumerate() {
                let (in_dim, out_dim) = (layer.in_dim(), layer.out_dim());
                let (stack, set) = if k == 0 {
                    (&trace.encoder, &trace.encoder_set)
                } else {
                    (&trace.layers[k - 1].outputs, &trace.layers[k - 1].output_set)
                };
                let wt = layer.weights.transposed();
                for t in 0..t_max {
                    let block = &stack.as_slice()[t * batch * in_dim..(t + 1) * batch * in_dim];
                    let mut dense = vec![0.0; batch * out_dim];
                    let w = layer.weights.as_slice();
                    gemm::gemm_nt(block, w, &mut dense, batch, in_dim, out_dim);
                    let mut drive = vec![f64::NAN; batch * out_dim];
                    events += sparse::spike_drive(
                        block,
                        set,
                        t * batch,
                        wt.as_slice(),
                        &mut drive,
                        batch,
                        in_dim,
                        out_dim,
                    );
                    assert_eq!(drive, dense, "{kind} net, batch {batch}: layer {k}, t {t}");
                }
            }
            assert_eq!(events, trace.kernel_events, "{kind} net, batch {batch}: events");

            // Batch composition: each sample's slice of every trace block
            // equals that sample run alone at B = 1 with the same seed.
            let mut kernel_events = 0u64;
            let mut layer_spikes = vec![0u64; net.depth()];
            for b in 0..batch {
                let mut ws = BatchWorkspace::new(&net, 1);
                let mut one = BatchNetworkTrace::new(&net, 1);
                let st1 = Matrix::from_rows(&[st.row(b)]);
                let mut rng = [StdRng::seed_from_u64(1000 + b as u64)];
                net.forward_batch(&st1, &mut rng, &mut ws, &mut one, &mut NoopRecorder);
                let at = format!("{kind} net, batch {batch}, sample {b}");
                assert_eq!(sample_rows(&trace.encoder, batch, b), one.encoder.as_slice(), "{at}");
                for (k, (lt, l1)) in trace.layers.iter().zip(&one.layers).enumerate() {
                    for (name, m, m1) in [
                        ("voltages", &lt.voltages, &l1.voltages),
                        ("outputs", &lt.outputs, &l1.outputs),
                        ("thresholds", &lt.thresholds, &l1.thresholds),
                    ] {
                        assert_eq!(sample_rows(m, batch, b), m1.as_slice(), "{at}: {name} {k}");
                    }
                }
                assert_eq!(trace.firing_rates.row(b), one.firing_rates.row(0), "{at}: rates");
                assert_eq!(trace.action(b), one.action(0), "{at}: action");
                kernel_events += one.kernel_events;
                for (s, &s1) in layer_spikes.iter_mut().zip(&one.layer_spikes) {
                    *s += s1;
                }
            }
            assert_eq!(trace.kernel_events, kernel_events, "{kind} net, batch {batch}");
            assert_eq!(trace.layer_spikes, layer_spikes, "{kind} net, batch {batch}");
        }
    }
}

#[test]
fn transposed_entry_traces_are_bitwise_equal_at_all_batch_sizes() {
    // The serving pattern: the network's `Wᵀ`, built by its first forward
    // pass at the largest batch, is shared by every batch size, and each
    // workspace is driven twice (other states first). Every trace must
    // equal a fresh-buffer run on a network rebuilt from the same
    // parameters, whose `Wᵀ` that run builds.
    for (kind, net) in nets() {
        for batch in BATCHES.into_iter().rev() {
            let mut fresh = SdpNetwork::new(net.config().clone(), &mut StdRng::seed_from_u64(0));
            stbp::set_flat_params(&mut fresh, &stbp::flat_params(&net));
            let st = states(batch, net.config().state_dim);
            let expected = forward(&fresh, &st);
            let other = st.map(|v| v + 0.13);
            let mut ws = BatchWorkspace::new(&net, batch);
            let mut trace = BatchNetworkTrace::new(&net, batch);
            let rec = &mut NoopRecorder;
            net.forward_batch(&other, &mut rngs(batch), &mut ws, &mut trace, rec);
            net.forward_batch(&st, &mut rngs(batch), &mut ws, &mut trace, rec);
            assert_eq!(trace.actions, expected.actions, "{kind} net, batch {batch}: actions");
            assert_eq!(trace.kernel_events, expected.kernel_events, "{kind} net, batch {batch}");
            assert_eq!(trace.stats, expected.stats, "{kind} net, batch {batch}: stats");
            assert_eq!(trace, expected, "{kind} net, batch {batch}: whole trace");
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
    let st = Matrix::from_fn(batch, 16, |b, d| 0.7 + 0.04 * ((b * 16 + d) % 17) as f64);
    let mut rngs: Vec<StdRng> =
        (0..batch).map(|b| StdRng::seed_from_u64(1000 + b as u64)).collect();
    let mut ws = BatchWorkspace::new(&net, batch);
    let mut trace = BatchNetworkTrace::new(&net, batch);
    net.forward_batch(&st, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
    // The forward pass reads its counters off the spike sets' sizes;
    // recount them from the dense rasters.
    let count = |m: &Matrix| m.as_slice().iter().filter(|&&s| s != 0.0).count() as u64;
    assert_eq!(trace.stats.encoder_spikes, count(&trace.encoder));
    let mut dense_synops = 0;
    for (k, layer) in net.layers().iter().enumerate() {
        let inputs = if k == 0 { &trace.encoder } else { &trace.layers[k - 1].outputs };
        dense_synops += count(inputs) * layer.out_dim() as u64;
        assert_eq!(trace.layer_spikes[k], count(&trace.layers[k].outputs), "layer {k}");
    }
    // Three tallies of the same quantity: the kernels' own running count,
    // the recount from the dense rasters, and the cost model fed by
    // per-layer spike counts.
    assert_eq!(trace.kernel_events, dense_synops);
    assert_eq!(trace.kernel_events, trace.stats.synops);
    let shapes: Vec<(usize, usize)> =
        net.layers().iter().map(|l| (l.in_dim(), l.out_dim())).collect();
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

/// [`weights`] with one entry in four replaced by `+0.0`, `-0.0` or a
/// subnormal of either sign: the addends whose sign and rounding a
/// reordered or re-seeded accumulator would get wrong.
fn adversarial_weights(out_dim: usize, in_dim: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let tiny = f64::MIN_POSITIVE / 8.0;
    weights(out_dim, in_dim, seed).map(|w| match rng.gen_range(0..16) {
        0 => 0.0,
        1 => -0.0,
        2 => tiny * (1.0 + w),
        3 => -tiny * (1.0 - w),
        _ => w,
    })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `spike_drive` equals `gemm_nt` bitwise over every adversarial
    /// pattern family, at widths on both sides of
    /// `sparse::REG_TILE_MAX_OUT` (every register-tile width and tail, and
    /// the streaming form), with signed-zero and subnormal weights. Bits
    /// are compared, since `==` equates `-0.0` with `+0.0`.
    #[test]
    fn drive_matches_dense_over_adversarial_patterns(
        pattern in 0usize..4,
        bsz in 1usize..7,
        t_max in 1usize..5,
        in_dim in 1usize..=600,
        out_dim in 1usize..=140,
        seed in 0u64..1000,
    ) {
        let rows = t_max * bsz;
        let stack = adversarial_raster(pattern, rows, in_dim, seed);
        let set = SpikeSet::from_matrix(&stack);
        let w = adversarial_weights(out_dim, in_dim, seed);
        let wt = w.transposed();
        for t in 0..t_max {
            let block = &stack.as_slice()[t * bsz * in_dim..(t + 1) * bsz * in_dim];
            let mut dense = vec![0.0; bsz * out_dim];
            gemm::gemm_nt(block, w.as_slice(), &mut dense, bsz, in_dim, out_dim);

            let mut sparse_out = vec![f64::NAN; bsz * out_dim];
            let synops = sparse::spike_drive(
                block, &set, t * bsz, wt.as_slice(), &mut sparse_out, bsz, in_dim, out_dim,
            );
            prop_assert_eq!(bits(&sparse_out), bits(&dense));
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
