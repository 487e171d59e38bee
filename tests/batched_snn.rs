//! Batch-composition, gradient-correctness, property, and regression
//! tests for the SNN execution engine (`SdpNetwork::forward_batch` /
//! `stbp::backward_batch`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikefolio::agent::SdpAgent;
use spikefolio::checkpoint;
use spikefolio::config::SdpConfig;
use spikefolio::guarded::{train_sdp_guarded, ResilienceOptions};
use spikefolio::training::Trainer;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_resilience::{FaultPlan, GradFault, GuardConfig};
use spikefolio_snn::encoder::Encoding;
use spikefolio_snn::network::{SdpNetwork, SdpNetworkConfig, SpikeStats};
use spikefolio_snn::neuron::SpikeFn;
use spikefolio_snn::stbp;
use spikefolio_snn::{BatchNetworkTrace, BatchWorkspace, SingleSample};
use spikefolio_telemetry::NoopRecorder;
use spikefolio_tensor::optim::{Adam, Gradients};
use spikefolio_tensor::Matrix;

const TOL: f64 = 1e-12;

fn small_net(encoding: Encoding) -> SdpNetwork {
    let mut cfg = SdpNetworkConfig::small(6, 3);
    cfg.hidden = vec![12, 9];
    cfg.encoder.encoding = encoding;
    let mut rng = StdRng::seed_from_u64(7);
    SdpNetwork::new(cfg, &mut rng)
}

fn states(batch: usize, dim: usize) -> Matrix {
    Matrix::from_fn(batch, dim, |b, d| 0.7 + 0.04 * ((b * dim + d) % 17) as f64)
}

/// Batch-composition pin: runs a batch forward + backward and, as the
/// per-sample reference, each row alone at B = 1 with the same encoder
/// seed. Actions must match bit for bit, the summed event counters
/// exactly, and every gradient block within `TOL`.
fn check_equivalence(encoding: Encoding) {
    let net = small_net(encoding);
    let rec = &mut NoopRecorder;
    let dim = net.config().state_dim;
    let rate_penalty = 0.05;
    for &batch in &[3usize, 5, 32] {
        let st = states(batch, dim);
        let d_actions = Matrix::from_fn(batch, 3, |b, a| 0.2 - 0.1 * a as f64 + 0.01 * b as f64);

        let mut ws = BatchWorkspace::new(&net, batch);
        let mut trace = BatchNetworkTrace::new(&net, batch);
        let mut rngs: Vec<StdRng> =
            (0..batch).map(|b| StdRng::seed_from_u64(1000 + b as u64)).collect();
        net.forward_batch(&st, &mut rngs, &mut ws, &mut trace, rec);
        let batched = stbp::backward_batch(&net, &trace, &d_actions, rate_penalty, &mut ws, rec);

        let mut reference = stbp::SdpGradients::zeros_like(&net);
        let mut stats = SpikeStats::default();
        let mut one = SingleSample::new(&net);
        for b in 0..batch {
            let action = one.forward(&net, st.row(b), &mut StdRng::seed_from_u64(1000 + b as u64));
            // Actions must match the B = 1 run exactly, not just within
            // tolerance.
            assert_eq!(
                trace.action(b),
                action,
                "batch {batch} sample {b}: action mismatch ({encoding:?})"
            );
            let s = one.trace.stats;
            stats.encoder_spikes += s.encoder_spikes;
            stats.neuron_spikes += s.neuron_spikes;
            stats.synops += s.synops;
            stats.neuron_updates += s.neuron_updates;
            let d1 = Matrix::from_rows(&[d_actions.row(b)]);
            let g = stbp::backward_batch(&net, &one.trace, &d1, rate_penalty, &mut one.ws, rec);
            reference.accumulate(&g);
        }
        assert_eq!(trace.stats, stats, "batch {batch}: summed stats ({encoding:?})");

        for (k, (bg, rg)) in batched.layers.iter().zip(&reference.layers).enumerate() {
            for (i, (x, y)) in
                bg.d_weights.as_slice().iter().zip(rg.d_weights.as_slice()).enumerate()
            {
                assert!((x - y).abs() <= TOL, "batch {batch} layer {k} d_weights[{i}]: {x} vs {y}");
            }
            for (i, (x, y)) in bg.d_bias.iter().zip(&rg.d_bias).enumerate() {
                assert!((x - y).abs() <= TOL, "batch {batch} layer {k} d_bias[{i}]: {x} vs {y}");
            }
        }
        for (i, (x, y)) in
            batched.d_decoder_weights.iter().zip(&reference.d_decoder_weights).enumerate()
        {
            assert!((x - y).abs() <= TOL, "batch {batch} decoder d_weights[{i}]: {x} vs {y}");
        }
        for (i, (x, y)) in batched.d_decoder_bias.iter().zip(&reference.d_decoder_bias).enumerate()
        {
            assert!((x - y).abs() <= TOL, "batch {batch} decoder d_bias[{i}]: {x} vs {y}");
        }
    }
}

#[test]
fn batched_path_matches_per_sample_deterministic_encoding() {
    check_equivalence(Encoding::Deterministic);
}

#[test]
fn batched_path_matches_per_sample_probabilistic_encoding() {
    check_equivalence(Encoding::Probabilistic);
}

/// Loss of a linear functional `Σ_b c_b · a_b` computed entirely through
/// the batched forward path (deterministic encoding, so re-running is
/// exact).
fn batched_loss(net: &SdpNetwork, st: &Matrix, c: &Matrix) -> f64 {
    let batch = st.shape().0;
    let mut ws = BatchWorkspace::new(net, batch);
    let mut trace = BatchNetworkTrace::new(net, batch);
    let mut rngs: Vec<StdRng> = (0..batch).map(|b| StdRng::seed_from_u64(b as u64)).collect();
    net.forward_batch(st, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
    (0..batch).map(|b| trace.action(b).iter().zip(c.row(b)).map(|(x, y)| x * y).sum::<f64>()).sum()
}

#[test]
fn backward_batch_matches_finite_differences_on_soft_network() {
    // Soft spikes make the whole network differentiable, so the batched
    // STBP gradients must agree with central differences.
    let mut cfg = SdpNetworkConfig::small(3, 2);
    cfg.hidden = vec![6];
    cfg.pop_out = 2;
    cfg.timesteps = 4;
    cfg.encoder.pop_size = 3;
    cfg.spike_fn = SpikeFn::Soft { temperature: 0.4 };
    let mut rng = StdRng::seed_from_u64(123);
    let net = SdpNetwork::new(cfg, &mut rng);

    let batch = 3;
    let st = states(batch, 3);
    let c = Matrix::from_fn(batch, 2, |b, a| if a == 0 { 1.0 + 0.2 * b as f64 } else { -1.5 });

    let mut ws = BatchWorkspace::new(&net, batch);
    let mut trace = BatchNetworkTrace::new(&net, batch);
    let mut rngs: Vec<StdRng> = (0..batch).map(|b| StdRng::seed_from_u64(b as u64)).collect();
    let rec = &mut NoopRecorder;
    net.forward_batch(&st, &mut rngs, &mut ws, &mut trace, rec);
    let grads = stbp::backward_batch(&net, &trace, &c, 0.0, &mut ws, rec);
    let analytic = stbp::flat_grads(&grads);
    let params = stbp::flat_params(&net);
    assert_eq!(analytic.len(), params.len());

    let eps = 1e-5;
    let mut checked = 0;
    for i in (0..params.len()).step_by(5).chain(params.len().saturating_sub(4)..params.len()) {
        let mut pp = params.clone();
        pp[i] += eps;
        let mut netp = net.clone();
        stbp::set_flat_params(&mut netp, &pp);
        let lp = batched_loss(&netp, &st, &c);

        let mut pm = params.clone();
        pm[i] -= eps;
        let mut netm = net.clone();
        stbp::set_flat_params(&mut netm, &pm);
        let lm = batched_loss(&netm, &st, &c);

        let num = (lp - lm) / (2.0 * eps);
        let err = (analytic[i] - num).abs() / (1.0 + num.abs());
        assert!(err < 1e-4, "param {i}: analytic {} vs numeric {num}", analytic[i]);
        checked += 1;
    }
    assert!(checked >= 15, "checked too few parameters: {checked}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The rate decoder maps any non-negative spike-count vector to a
    /// point on the probability simplex.
    #[test]
    fn decoder_outputs_lie_on_the_simplex(
        sums in proptest::collection::vec(0.0f64..20.0, 12)
    ) {
        let net = small_net(Encoding::Deterministic);
        // small(6, 3) with pop_out 4 → 12 output-population neurons.
        let mut rates = vec![0.0; net.decoder.action_dim()];
        let mut action = vec![0.0; net.decoder.action_dim()];
        net.decoder.decode_into(&sums, &mut rates, &mut action);
        prop_assert!(spikefolio_tensor::simplex::is_on_simplex(&action, 1e-9),
            "decoded action off the simplex: {action:?}");
    }

    /// Batched forward actions stay on the simplex for arbitrary state
    /// batches.
    #[test]
    fn batched_actions_lie_on_the_simplex(seed in 0u64..500, batch in 1usize..9) {
        let net = small_net(Encoding::Deterministic);
        let dim = net.config().state_dim;
        let mut vrng = StdRng::seed_from_u64(seed);
        let st = Matrix::from_fn(batch, dim, |_, _| vrng.gen_range(0.5..1.5));
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut trace = BatchNetworkTrace::new(&net, batch);
        let mut rngs: Vec<StdRng> =
            (0..batch).map(|b| StdRng::seed_from_u64(seed ^ b as u64)).collect();
        net.forward_batch(&st, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
        for b in 0..batch {
            prop_assert!(
                spikefolio_tensor::simplex::is_on_simplex(trace.action(b), 1e-9),
                "sample {b} off the simplex: {:?}", trace.action(b)
            );
        }
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spikefolio-batched-{}-{name}", std::process::id()));
    p
}

#[test]
fn checkpoint_roundtrip_preserves_batched_forward_bitwise() {
    let cfg = SdpConfig::smoke();
    let agent = SdpAgent::new(&cfg, 3, cfg.seed);
    let path = tmp("roundtrip.ckpt");
    checkpoint::save_sdp(&agent, &path).unwrap();
    // Restore into an agent with different random parameters.
    let mut restored = SdpAgent::new(&cfg, 3, cfg.seed ^ 0xdead_beef);
    checkpoint::load_sdp(&mut restored, &path).unwrap();
    std::fs::remove_file(&path).ok();

    let dim = agent.network.config().state_dim;
    let batch = 8;
    let st = states(batch, dim);
    let run = |net: &SdpNetwork| -> Vec<Vec<f64>> {
        let mut ws = BatchWorkspace::new(net, batch);
        let mut trace = BatchNetworkTrace::new(net, batch);
        let mut rngs: Vec<StdRng> = (0..batch).map(|b| StdRng::seed_from_u64(b as u64)).collect();
        net.forward_batch(&st, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
        (0..batch).map(|b| trace.action(b).to_vec()).collect()
    };
    let original = run(&agent.network);
    let reloaded = run(&restored.network);
    // The checkpoint stores exact f64 bits, so the restored agent's
    // batched outputs must be bit-identical, not merely close.
    assert_eq!(original, reloaded);
}

/// A forward pass on `net` must equal, bitwise, one on a fresh network
/// built from the same parameters, whose `Wᵀ` this call builds.
fn assert_drives_current_weights(net: &SdpNetwork, after: &str) {
    let mut fresh = SdpNetwork::new(net.config().clone(), &mut StdRng::seed_from_u64(0));
    stbp::set_flat_params(&mut fresh, &stbp::flat_params(net));
    let batch = 4;
    let st = states(batch, net.config().state_dim);
    let run = |n: &SdpNetwork| {
        let mut ws = BatchWorkspace::new(n, batch);
        let mut trace = BatchNetworkTrace::new(n, batch);
        let mut rngs: Vec<StdRng> = (0..batch).map(|b| StdRng::seed_from_u64(b as u64)).collect();
        n.forward_batch(&st, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
        trace
    };
    assert_eq!(run(net), run(&fresh), "forward pass after {after} ran on stale weights");
}

#[test]
fn transposed_weights_follow_every_weight_write() {
    let mut cfg = SdpConfig::smoke();
    cfg.training.epochs = 1;
    cfg.training.steps_per_epoch = 2;
    cfg.training.batch_size = 4;
    let market = ExperimentPreset::experiment1().shrunk(30, 0).generate(5);
    // Each agent decides once first, so its network holds a built `Wᵀ`
    // when the write lands.
    let decided = |seed: u64| {
        let mut agent = SdpAgent::new(&cfg, market.num_assets(), seed);
        agent.act(&vec![1.0; agent.network.config().state_dim]);
        agent
    };

    let mut agent = decided(1);
    let mut one = SingleSample::new(&agent.network);
    one.forward(
        &agent.network,
        &vec![1.0; agent.network.config().state_dim],
        &mut StdRng::seed_from_u64(1),
    );
    let d_action = Matrix::from_fn(1, agent.network.config().action_dim, |_, a| 0.5 - a as f64);
    let mut grads = stbp::backward_batch(
        &agent.network,
        &one.trace,
        &d_action,
        0.0,
        &mut one.ws,
        &mut NoopRecorder,
    );
    let mut sgd = stbp::SdpTrainer::new(&agent.network, Adam::new(1e-2));
    sgd.apply(&mut agent.network, &mut grads);
    assert_drives_current_weights(&agent.network, "SdpTrainer::apply");

    let path = tmp("follow.ckpt");
    checkpoint::save_sdp(&decided(2), &path).unwrap();
    let mut loaded = decided(3);
    checkpoint::load_sdp(&mut loaded, &path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_drives_current_weights(&loaded.network, "load_sdp");

    let trainer = Trainer::new(&cfg);
    let mut agent = decided(4);
    let mut session = trainer.sdp_session(&agent, &market);
    let snap = session.snapshot(&agent);
    session.run_epoch(&mut agent, &mut NoopRecorder);
    session.restore(&mut agent, &snap);
    assert_drives_current_weights(&agent.network, "session restore");

    // A NaN gradient fault with no retry budget: the guard writes NaN
    // weights, then restores the last good ones.
    let mut agent = decided(5);
    let mut opts = ResilienceOptions {
        guard: GuardConfig { max_retries: 0, ..GuardConfig::default() },
        checkpoint_path: None,
        faults: FaultPlan::new(1).grad_fault_at(0, GradFault::NaN),
    };
    let outcome = train_sdp_guarded(&trainer, &mut agent, &market, &mut opts, &mut NoopRecorder);
    assert!(outcome.aborted, "the fault must exhaust the retry budget");
    assert_drives_current_weights(&agent.network, "guarded grad-fault injection");

    assert_drives_current_weights(&agent.network.clone(), "clone");
}
