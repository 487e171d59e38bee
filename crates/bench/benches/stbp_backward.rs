//! STBP backward-pass (eqs. 11–13) kernels: full gradient computation and
//! one complete minibatch-style training step at paper scale.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use spikefolio_bench::bench_support;
use spikefolio_snn::stbp::{self, SdpTrainer};
use spikefolio_snn::SingleSample;
use spikefolio_tensor::optim::{Adam, Gradients};
use spikefolio_tensor::Matrix;

fn bench_backward(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let net = bench_support::paper_network(13);
    let state = bench_support::pinned_state(bench_support::PAPER_STATE_DIM);
    let mut one = SingleSample::new(&net);
    one.forward(&net, &state, &mut rng);
    let d_action = Matrix::filled(1, bench_support::PAPER_ACTION_DIM, 0.1);

    let mut group = c.benchmark_group("stbp");
    group.sample_size(20);
    group.bench_function("backward_paper_scale", |b| {
        b.iter(|| std::hint::black_box(bench_support::backward_one(&net, &mut one, &d_action, 0.0)))
    });
    group.bench_function("forward_backward_apply", |b| {
        let mut train_net = net.clone();
        let mut train_one = SingleSample::new(&train_net);
        let mut trainer = SdpTrainer::new(&train_net, Adam::new(1e-4));
        b.iter(|| {
            train_one.forward(&train_net, &state, &mut rng);
            let mut grads = bench_support::backward_one(&train_net, &mut train_one, &d_action, 0.0);
            trainer.apply(&mut train_net, &mut grads);
        })
    });
    group.bench_function("gradient_accumulate_scale", |b| {
        let g = bench_support::backward_one(&net, &mut one, &d_action, 0.0);
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
