//! Ablation C: pseudo-gradient shape (§II.C). The paper reports the
//! rectangular window as experimentally best; this bench trains a small
//! SDP with each surrogate on the same trending workload and prints the
//! resulting reward, then measures the backward-pass cost per shape.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use spikefolio::agent::SdpAgent;
use spikefolio::config::SdpConfig;
use spikefolio::training::Trainer;
use spikefolio_bench::bench_support::backward_one;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_snn::network::{SdpNetwork, SdpNetworkConfig};
use spikefolio_snn::neuron::SpikeFn;
use spikefolio_snn::SingleSample;
use spikefolio_snn::Surrogate;
use spikefolio_telemetry::NoopRecorder;
use spikefolio_tensor::Matrix;

fn surrogates() -> Vec<(&'static str, Surrogate)> {
    vec![
        ("rectangular (paper)", Surrogate::paper_rectangular()),
        ("triangular", Surrogate::Triangular { amplitude: 0.9, window: 0.4 }),
        ("sigmoid", Surrogate::SigmoidDerivative { amplitude: 0.9, temperature: 0.25 }),
    ]
}

fn print_training_comparison_once() {
    let (train, _) = ExperimentPreset::experiment1().shrunk(60, 15).generate_split(2016);
    println!("\n===== Ablation: surrogate gradient shape =====");
    println!("{:<22} {:>16}", "surrogate", "final reward");
    for (name, s) in surrogates() {
        let mut cfg = SdpConfig::smoke();
        cfg.network.surrogate = s;
        cfg.training.epochs = 3;
        cfg.training.steps_per_epoch = 8;
        cfg.training.batch_size = 16;
        cfg.training.learning_rate = 1e-3;
        let mut agent = SdpAgent::new(&cfg, train.num_assets(), cfg.seed);
        let log = Trainer::new(&cfg).train_sdp_with(&mut agent, &train, &mut NoopRecorder);
        println!("{:<22} {:>16.6}", name, log.final_reward());
    }
}

fn bench_backward_per_surrogate(c: &mut Criterion) {
    print_training_comparison_once();

    let mut group = c.benchmark_group("ablation/stbp_backward");
    for (name, s) in surrogates() {
        let mut cfg = SdpNetworkConfig::small(16, 12);
        cfg.spike_fn = SpikeFn::Hard { surrogate: s };
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let net = SdpNetwork::new(cfg, &mut rng);
        let state: Vec<f64> = (0..16).map(|i| 0.9 + 0.02 * i as f64).collect();
        let mut one = SingleSample::new(&net);
        one.forward(&net, &state, &mut rng);
        let d_action = Matrix::filled(1, 12, 1.0 / 12.0);
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(backward_one(&net, &mut one, &d_action, 0.0)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backward_per_surrogate);
criterion_main!(benches);
