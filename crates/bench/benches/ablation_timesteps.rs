//! Ablation A: simulation-length (`T`) sweep — the §III.B trade-off
//! between energy cost and backtest quality — plus forward-pass latency
//! scaling in `T`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use spikefolio::experiments::{timestep_tradeoff, RunOptions};
use spikefolio::report::format_timestep_tradeoff;
use spikefolio_snn::network::{SdpNetwork, SdpNetworkConfig};
use spikefolio_snn::SingleSample;

fn options() -> RunOptions {
    let mut opts = RunOptions::smoke();
    opts.shrink = Some((60, 20));
    opts.config.training.epochs = 2;
    opts.config.training.steps_per_epoch = 6;
    opts.config.training.batch_size = 16;
    opts
}

fn print_sweep_once() {
    let points = timestep_tradeoff(&options(), &[1, 2, 5, 10, 20]);
    println!("\n===== Ablation: timestep trade-off =====\n{}", format_timestep_tradeoff(&points));
}

fn bench_forward_scaling(c: &mut Criterion) {
    print_sweep_once();

    let mut group = c.benchmark_group("ablation/forward_vs_T");
    for t in [1usize, 2, 5, 10, 20] {
        let mut cfg = SdpNetworkConfig::small(16, 12);
        cfg.timesteps = t;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let net = SdpNetwork::new(cfg, &mut rng);
        let state: Vec<f64> = (0..16).map(|i| 0.9 + 0.02 * i as f64).collect();
        let mut one = SingleSample::new(&net);
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, _| {
            b.iter(|| std::hint::black_box(one.forward(&net, &state, &mut rng)[0]))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forward_scaling);
criterion_main!(benches);
