//! STBP backward-pass (eqs. 11–13) kernels: full gradient computation and
//! one complete minibatch-style training step at paper scale.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use spikefolio_bench::bench_support;
use spikefolio_snn::stbp::{self, SdpTrainer};
use spikefolio_tensor::optim::{Adam, Gradients};

fn bench_backward(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let net = bench_support::paper_network(13);
    let state = bench_support::pinned_state(bench_support::PAPER_STATE_DIM);
    let (_, trace) = net.forward(&state, &mut rng);
    let d_action = vec![0.1; bench_support::PAPER_ACTION_DIM];

    let mut group = c.benchmark_group("stbp");
    group.sample_size(20);
    group.bench_function("backward_paper_scale", |b| {
        b.iter(|| std::hint::black_box(stbp::backward(&net, &trace, &d_action)))
    });
    group.bench_function("forward_backward_apply", |b| {
        let mut train_net = net.clone();
        let mut trainer = SdpTrainer::new(&train_net, Adam::new(1e-4));
        b.iter(|| {
            let (_, tr) = train_net.forward(&state, &mut rng);
            let mut grads = stbp::backward(&train_net, &tr, &d_action);
            trainer.apply(&mut train_net, &mut grads);
        })
    });
    group.bench_function("gradient_accumulate_scale", |b| {
        let g = stbp::backward(&net, &trace, &d_action);
        b.iter(|| {
            let mut acc = stbp::SdpGradients::zeros_like(&net);
            acc.accumulate(&g);
            acc.scale(0.5);
            std::hint::black_box(acc.global_norm())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_backward);
criterion_main!(benches);
