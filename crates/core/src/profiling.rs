//! Pinned profiling and bench workloads behind the `spikefolio profile`
//! and `spikefolio bench` subcommands.
//!
//! The bench matrix exercises the two kernels that dominate training —
//! the batched SNN forward pass and the batched STBP backward pass — at
//! batch sizes 1/8/32, plus one seeded end-to-end Table 3 slice. Every
//! workload is fully pinned (network seed, state fill, per-sample encoder
//! seeds), so the op counts in a [`BenchBaseline`] are deterministic and
//! the regression comparator can gate them tightly while wall-clock gets
//! a wide two-sided ratio gate.
//!
//! The profile workload trains a small agent single-worker under a
//! [`ChromeTraceRecorder`], deploys it to the Loihi chip model, and
//! derives the op-level [`CostReport`] from one traced forward pass —
//! producing a Perfetto-loadable timeline, a terminal phase tree, and the
//! dense-vs-synop cost table from one run.

use crate::agent::SdpAgent;
use crate::config::SdpConfig;
use crate::deploy::LoihiDeployment;
use crate::experiments::{run_experiment, RunOptions};
use crate::training::Trainer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spikefolio_loihi::quantize::QuantizeOptions;
use spikefolio_loihi::LoihiChip;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_profile::trace::render_phase_tree;
use spikefolio_profile::{BenchBaseline, BenchEntry, ChromeTraceRecorder, CostReport};
use spikefolio_snn::network::SdpNetworkConfig;
use spikefolio_snn::{stbp, BatchNetworkTrace, BatchWorkspace, SdpNetwork};
use spikefolio_telemetry::{labels, MemoryRecorder};
use spikefolio_tensor::{gemm, Matrix};
use std::collections::BTreeMap;
use std::time::Instant;

/// Batch sizes of the kernel bench matrix.
pub const BENCH_BATCHES: [usize; 3] = [1, 8, 32];

/// Scale/seed options shared by the bench and profile workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadOptions {
    /// Small network + fewer reps (CI smoke) instead of the paper-scale
    /// kernel shapes.
    pub smoke: bool,
    /// Seed pinning the network weights, state fill, and market slice.
    pub seed: u64,
}

impl WorkloadOptions {
    /// CI-scale workload: small network, quick reps.
    pub fn smoke(seed: u64) -> Self {
        Self { smoke: true, seed }
    }

    /// Paper-scale kernel shapes (Experiment-1 state/action dims).
    pub fn full(seed: u64) -> Self {
        Self { smoke: false, seed }
    }

    fn kernel_network(&self) -> SdpNetwork {
        let cfg = if self.smoke {
            SdpNetworkConfig::small(16, 4)
        } else {
            SdpNetworkConfig::paper(364, 12)
        };
        SdpNetwork::new(cfg, &mut StdRng::seed_from_u64(self.seed))
    }

    fn kernel_reps(&self) -> u64 {
        if self.smoke {
            3
        } else {
            5
        }
    }
}

/// The pinned state fill shared with the criterion benches: smooth values
/// around 1.0, deterministic in `(row, col)`.
fn bench_states(batch: usize, dim: usize) -> Matrix {
    Matrix::from_fn(batch, dim, |b, d| 0.85 + 0.001 * ((b * dim + d) % 300) as f64)
}

fn per_sample_rngs(seed: u64, batch: usize) -> Vec<StdRng> {
    (0..batch).map(|b| StdRng::seed_from_u64(seed ^ (0x5eed_0000 + b as u64))).collect()
}

/// Dense MACs of one batched forward pass of `net` at `batch` samples.
fn forward_dense_macs(net: &SdpNetwork, batch: usize) -> u64 {
    net.layers
        .iter()
        .map(|l| gemm::dense_mac_count(l.in_dim(), l.out_dim(), 1))
        .fold(0u64, |acc, m| acc.saturating_add(m))
        .saturating_mul(net.config().timesteps as u64)
        .saturating_mul(batch as u64)
}

/// Runs the full bench matrix and returns the baseline (creation stamp in
/// unix seconds). Deterministic op counts, best-of-reps wall clock.
pub fn run_bench_workloads(opts: &WorkloadOptions) -> BenchBaseline {
    let net = opts.kernel_network();
    let reps = opts.kernel_reps();
    let mut entries = Vec::new();

    for batch in BENCH_BATCHES {
        let states = bench_states(batch, net.config().state_dim);
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut trace = BatchNetworkTrace::new(&net, batch);

        let mut wall_fwd = f64::INFINITY;
        for _ in 0..reps {
            // Fresh seeded RNGs per rep keep every rep (and its op
            // counts) identical.
            let mut rngs = per_sample_rngs(opts.seed, batch);
            let t0 = Instant::now();
            net.forward_batch(&states, &mut rngs, &mut ws, &mut trace);
            wall_fwd = wall_fwd.min(t0.elapsed().as_secs_f64());
        }
        let mut ops = BTreeMap::new();
        ops.insert("dense_macs".to_owned(), forward_dense_macs(&net, batch));
        ops.insert("synops".to_owned(), trace.stats.synops);
        ops.insert("encoder_spikes".to_owned(), trace.stats.encoder_spikes);

        // Kernel-side event tally from the sparse drive itself; the cost
        // model's `synops` above is recomputed independently from the
        // dense rasters. CI asserts the two are identical so the kernels
        // and the accounting cannot drift apart.
        let mut fwd_ops = ops.clone();
        fwd_ops.insert("sparse_events".to_owned(), trace.kernel_events);

        entries.push(BenchEntry {
            name: format!("forward/b{batch}"),
            wall_s: wall_fwd,
            reps,
            ops: fwd_ops,
        });

        // The backward pass consumes the forward trace above, so its op
        // counts are the same workload's.
        let action_dim = net.config().action_dim;
        let d_actions = Matrix::from_fn(batch, action_dim, |_, a| 0.1 - 0.01 * a as f64);
        let mut wall_bwd = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let _ = stbp::backward_batch(&net, &trace, &d_actions, 0.0, &mut ws);
            wall_bwd = wall_bwd.min(t0.elapsed().as_secs_f64());
        }
        entries.push(BenchEntry {
            name: format!("backward/b{batch}"),
            wall_s: wall_bwd,
            reps,
            ops,
        });
    }

    entries.push(table3_slice(opts));

    BenchBaseline { created_unix: unix_now(), entries }
}

/// One seeded end-to-end Table 3 slice (smoke scale in both modes so the
/// bench stays seconds-scale); op counts come from the run's own
/// `profile/ops/*` counters.
fn table3_slice(opts: &WorkloadOptions) -> BenchEntry {
    let mut ropts = RunOptions::smoke();
    ropts.market_seed = opts.seed;
    let mut rec = MemoryRecorder::new();
    let t0 = Instant::now();
    let _ = run_experiment(&ropts, ExperimentPreset::experiment1(), &mut rec);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut ops = BTreeMap::new();
    ops.insert("dense_macs".to_owned(), rec.counter_total(labels::COUNTER_OPS_DENSE_MACS));
    ops.insert("synops".to_owned(), rec.counter_total(labels::COUNTER_OPS_SYNOPS));
    BenchEntry { name: "table3/slice".to_owned(), wall_s, reps: 1, ops }
}

fn unix_now() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

/// Everything `spikefolio profile` reports for one profiled run.
#[derive(Debug)]
pub struct ProfileReport {
    /// Chrome-trace JSON of the whole run (training + Loihi deploy).
    pub trace_json: String,
    /// Terminal phase tree of the recorded span totals.
    pub phase_tree: String,
    /// Op-level cost model from one traced forward pass of the trained
    /// network.
    pub cost: CostReport,
    /// Effective sparsity observed during training (last epoch's gauge).
    pub train_sparsity: Option<f64>,
    /// Records the run emitted (epochs, quantization, …).
    pub num_records: usize,
}

/// Trains a pinned small agent single-worker under a
/// [`ChromeTraceRecorder`], deploys it to the Loihi chip model (quantize
/// plus a few inferences), and derives the cost model from one traced
/// forward pass.
///
/// Single-worker on purpose: folded spans are recorded on the emitting
/// thread, so the reconstructed timeline nests correctly.
pub fn run_profile_workload(opts: &WorkloadOptions) -> ProfileReport {
    let mut cfg = SdpConfig::smoke();
    cfg.seed = opts.seed;
    cfg.training.parallelism = 1;
    if !opts.smoke {
        cfg.training.epochs = 4;
        cfg.training.steps_per_epoch = 12;
    }
    let (train_days, test_days) = if opts.smoke { (60, 20) } else { (120, 30) };
    let (train, _test) =
        ExperimentPreset::experiment1().shrunk(train_days, test_days).generate_split(opts.seed);

    let mut rec = ChromeTraceRecorder::new();
    let mut agent = SdpAgent::new(&cfg, train.num_assets(), cfg.seed);
    let _log = Trainer::new(&cfg).train_sdp_with(&mut agent, &train, &mut rec);
    let train_sparsity = rec.gauge_value(labels::GAUGE_OPS_SPARSITY);

    // Loihi deployment: quantize span + encode/infer spans and chip
    // counters for a few pinned inferences.
    let chip = LoihiChip::default();
    if let Ok(mut deployment) =
        LoihiDeployment::new(&agent, &chip, &QuantizeOptions::default(), &mut rec)
    {
        let n = train.num_assets();
        let w = vec![1.0 / (n + 1) as f64; n + 1];
        let t = agent.state_builder().min_period().max(1);
        let state = agent.state(&train, t, &w);
        for _ in 0..3 {
            let _ = deployment.act(&state, &mut rec);
        }
    }

    // Cost model: one pinned traced forward at batch 8.
    let net = &agent.network;
    let batch = 8;
    let states = bench_states(batch, net.config().state_dim);
    let mut ws = BatchWorkspace::new(net, batch);
    let mut trace = BatchNetworkTrace::new(net, batch);
    let mut rngs = per_sample_rngs(opts.seed, batch);
    net.forward_batch_recorded(&states, &mut rngs, &mut ws, &mut trace, &mut rec);
    let shapes: Vec<(usize, usize)> =
        net.layers.iter().map(|l| (l.in_dim(), l.out_dim())).collect();
    let cost = CostReport::from_workload(
        &shapes,
        net.config().timesteps,
        batch,
        trace.stats.encoder_spikes,
        &trace.layer_spikes,
    );

    ProfileReport {
        trace_json: rec.to_chrome_json(),
        phase_tree: render_phase_tree(rec.spans()),
        cost,
        train_sparsity,
        num_records: rec.records().len(),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use spikefolio_profile::{compare, CompareThresholds};
    use spikefolio_telemetry::value::{parse, Value};

    #[test]
    fn bench_workloads_cover_the_matrix_with_deterministic_ops() {
        let opts = WorkloadOptions::smoke(7);
        let base = run_bench_workloads(&opts);
        for batch in BENCH_BATCHES {
            for kind in ["forward", "backward"] {
                let e = base.entry(&format!("{kind}/b{batch}")).expect("matrix entry");
                assert!(e.wall_s >= 0.0);
                assert!(e.ops["dense_macs"] > 0);
                assert!(e.ops["synops"] <= e.ops["dense_macs"]);
            }
            // The kernel-tallied event count must equal the cost model's
            // independently derived synops at every batch size.
            let fwd = base.entry(&format!("forward/b{batch}")).unwrap();
            assert_eq!(fwd.ops["sparse_events"], fwd.ops["synops"], "forward/b{batch}");
        }
        assert!(base.entry("table3/slice").is_some());
        // Re-running the same seed reproduces every op count.
        let again = run_bench_workloads(&opts);
        for e in &base.entries {
            assert_eq!(again.entry(&e.name).unwrap().ops, e.ops, "{}", e.name);
        }
    }

    #[test]
    fn bench_self_compare_passes_and_inflated_baseline_fails() {
        let base = run_bench_workloads(&WorkloadOptions::smoke(7));
        let thresholds = CompareThresholds::default();
        let selfcheck = compare(&base, &base, &thresholds);
        assert!(selfcheck.passed(), "{}", selfcheck.render());

        let mut inflated = base.clone();
        for e in &mut inflated.entries {
            e.wall_s *= 2.0;
        }
        let report = compare(&inflated, &base, &thresholds);
        assert!(!report.passed(), "2x-inflated baseline must fail the two-sided gate");
    }

    #[test]
    fn profile_workload_produces_valid_nested_trace_and_cost_model() {
        let report = run_profile_workload(&WorkloadOptions::smoke(11));
        let doc = parse(&report.trace_json).expect("chrome trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_list).expect("traceEvents");
        assert!(!events.is_empty());

        // The training phase spans must nest inside an epoch span.
        let span_of = |name: &str| {
            events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(Value::as_str) == Some("X")
                        && e.get("name").and_then(Value::as_str) == Some(name)
                })
                .map(|e| {
                    let ts = e.get("ts").and_then(Value::as_f64).unwrap();
                    let dur = e.get("dur").and_then(Value::as_f64).unwrap();
                    (ts, ts + dur)
                })
                .collect::<Vec<_>>()
        };
        let epochs = span_of(labels::SPAN_TRAIN_EPOCH);
        assert!(!epochs.is_empty(), "no epoch spans in trace");
        for phase in [
            labels::SPAN_TRAIN_SAMPLE,
            labels::SPAN_TRAIN_FORWARD,
            labels::SPAN_TRAIN_BACKWARD,
            labels::SPAN_TRAIN_APPLY,
        ] {
            let spans = span_of(phase);
            assert!(!spans.is_empty(), "no {phase} spans in trace");
            for (t0, t1) in spans {
                assert!(
                    epochs.iter().any(|&(e0, e1)| e0 <= t0 && t1 <= e1 + 1e-6),
                    "{phase} span [{t0},{t1}] not inside any epoch span"
                );
            }
        }

        assert!(report.phase_tree.contains("epoch"));
        assert!(!report.cost.layers.is_empty());
        assert!(report.cost.total_dense_macs() > 0);
        assert!((0.0..=1.0).contains(&report.cost.sparsity()));
        assert!(report.num_records > 0, "epoch records should be in the trace");
    }
}
