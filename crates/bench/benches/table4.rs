//! Table 4 regenerator + single-inference latency benchmarks.
//!
//! Prints the reproduced power/performance table, then measures the actual
//! host-side cost of one inference for each implementation (float SDP,
//! fixed-point chip model, dense DRL baseline) — the quantities behind the
//! paper's "Inf/s" column.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use spikefolio::experiments::{run_table4, RunOptions};
use spikefolio::report::format_table4;
use spikefolio::{DrlAgent, LoihiDeployment, SdpAgent, SdpConfig};
use spikefolio_loihi::{LoihiChip, QuantizeOptions};
use spikefolio_snn::SingleSample;
use spikefolio_telemetry::NoopRecorder;

fn options() -> RunOptions {
    let mut opts = RunOptions::smoke();
    opts.shrink = Some((60, 20));
    opts.config.training.epochs = 2;
    opts.config.training.steps_per_epoch = 6;
    opts.config.training.batch_size = 16;
    opts
}

fn print_table4_once() {
    let outcomes = run_table4(&options(), &mut NoopRecorder);
    println!("\n===== Reproduced Table 4 =====\n{}", format_table4(&outcomes));
}

fn bench_inference_kernels(c: &mut Criterion) {
    print_table4_once();

    let cfg = SdpConfig::smoke();
    let mut sdp = SdpAgent::new(&cfg, 11, 1);
    let mut deployed = LoihiDeployment::new(
        &sdp,
        &LoihiChip::default(),
        &QuantizeOptions::default(),
        &mut NoopRecorder,
    )
    .unwrap();
    let drl = DrlAgent::new(&cfg, 11, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let state: Vec<f64> =
        (0..sdp.state_builder().state_dim(11)).map(|i| 0.9 + 0.01 * (i % 20) as f64).collect();

    let mut group = c.benchmark_group("table4/inference");
    group.bench_function("sdp_float", |b| b.iter(|| std::hint::black_box(sdp.act(&state))));
    group.bench_function("sdp_chip_fixed_point", |b| {
        b.iter(|| std::hint::black_box(deployed.act(&state, &mut NoopRecorder)))
    });
    group.bench_function("drl_dense", |b| b.iter(|| std::hint::black_box(drl.act(&state))));
    let mut one = SingleSample::new(&sdp.network);
    group.bench_function("sdp_float_with_stats", |b| {
        b.iter(|| {
            one.forward(&sdp.network, &state, &mut rng);
            std::hint::black_box(one.trace.stats)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_inference_kernels);
criterion_main!(benches);
