//! Forward-pass (Algorithm 1) kernels at paper scale and smoke scale,
//! float vs fixed-point chip execution — the latency side of Fig. 2.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use spikefolio_bench::bench_support;
use spikefolio_loihi::quantize::quantize_network;
use spikefolio_loihi::LoihiChip;
use spikefolio_snn::SingleSample;

fn bench_forward(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);

    // Paper scale: 364-dim state (11 assets × window 8 × 4 channels + 12
    // weights), hidden 128 × 128, T = 5.
    let paper_net = bench_support::paper_network(9);
    let paper_state = bench_support::pinned_state(bench_support::PAPER_STATE_DIM);

    let small_net = bench_support::small_network(9);
    let small_state: Vec<f64> = (0..16).map(|i| 0.9 + 0.02 * i as f64).collect();

    let (q, _) = quantize_network(&paper_net);
    let chip_net = LoihiChip::default().map(q).expect("paper net fits");

    // One decision at B = 1 on reused buffers, as backtests and singleton
    // serve requests run it.
    let mut paper_one = SingleSample::new(&paper_net);
    let mut small_one = SingleSample::new(&small_net);

    let mut group = c.benchmark_group("snn/forward");
    group.sample_size(20);
    group.bench_function("paper_scale_float", |b| {
        b.iter(|| std::hint::black_box(paper_one.forward(&paper_net, &paper_state, &mut rng)[0]))
    });
    group.bench_function("small_float", |b| {
        b.iter(|| std::hint::black_box(small_one.forward(&small_net, &small_state, &mut rng)[0]))
    });
    group.bench_function("paper_scale_chip_fixed_point", |b| {
        let raster = paper_net.encoder.encode(&paper_state, 5, &mut rng);
        b.iter(|| std::hint::black_box(chip_net.infer(&raster)))
    });
    group.finish();
}

criterion_group!(benches, bench_forward);
criterion_main!(benches);
