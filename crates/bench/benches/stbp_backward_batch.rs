//! Batched STBP backward vs looped single-sample calls: one
//! `∇W = Σ_{t,b} Δc(t,b)ᵀ · O_in(t,b)` kernel call per layer over the
//! whole batch instead of one per sample.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spikefolio_bench::bench_support;
use spikefolio_snn::stbp;
use spikefolio_snn::SingleSample;
use spikefolio_snn::{BatchNetworkTrace, BatchWorkspace};
use spikefolio_telemetry::NoopRecorder;
use spikefolio_tensor::optim::Gradients;
use spikefolio_tensor::Matrix;

fn bench_backward_batch(c: &mut Criterion) {
    let net = bench_support::paper_network(13);

    let mut group = c.benchmark_group("stbp/backward_batch");
    group.sample_size(20);
    for &batch in &[4usize, 32] {
        let states = bench_support::pinned_states(batch, bench_support::PAPER_STATE_DIM);
        let d_actions = bench_support::pinned_d_actions(batch, bench_support::PAPER_ACTION_DIM);

        // B = 1 baseline: forward traces precomputed, backward looped.
        let mut singles: Vec<(SingleSample, Matrix)> = (0..batch)
            .map(|s| {
                let mut one = SingleSample::new(&net);
                one.forward(&net, states.row(s), &mut StdRng::seed_from_u64(s as u64));
                (one, Matrix::from_rows(&[d_actions.row(s)]))
            })
            .collect();
        group.bench_function(format!("looped_b1_b{batch}"), |b| {
            b.iter(|| {
                let mut acc = stbp::SdpGradients::zeros_like(&net);
                for (one, d_action) in &mut singles {
                    acc.accumulate(&bench_support::backward_one(&net, one, d_action, 0.0));
                }
                std::hint::black_box(acc.global_norm())
            })
        });

        // Batched path: one forward_batch fills the trace, backward reuses it.
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut trace = BatchNetworkTrace::new(&net, batch);
        let mut rngs = bench_support::sample_rngs(batch);
        let rec = &mut NoopRecorder;
        net.forward_batch(&states, &mut rngs, &mut ws, &mut trace, rec);
        group.bench_function(format!("batched_b{batch}"), |b| {
            b.iter(|| {
                let rec = &mut NoopRecorder;
                let g = stbp::backward_batch(&net, &trace, &d_actions, 0.0, &mut ws, rec);
                std::hint::black_box(g.global_norm())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backward_batch);
criterion_main!(benches);
