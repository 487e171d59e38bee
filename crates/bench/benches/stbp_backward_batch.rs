//! Batched STBP backward vs the looped per-sample path: one
//! `∇W = Σ_t Δc(t)ᵀ · O_in(t)` GEMM per layer instead of T·B rank-1
//! outer-product updates per sample.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spikefolio_bench::bench_support;
use spikefolio_snn::stbp;
use spikefolio_snn::{BatchNetworkTrace, BatchWorkspace};
use spikefolio_tensor::optim::Gradients;

fn bench_backward_batch(c: &mut Criterion) {
    let net = bench_support::paper_network(13);

    let mut group = c.benchmark_group("stbp/backward_batch");
    group.sample_size(20);
    for &batch in &[4usize, 32] {
        let states = bench_support::pinned_states(batch, bench_support::PAPER_STATE_DIM);
        let d_actions = bench_support::pinned_d_actions(batch, bench_support::PAPER_ACTION_DIM);

        // Per-sample baseline: forward traces precomputed, backward looped.
        let traces: Vec<_> = (0..batch)
            .map(|s| {
                let mut r = StdRng::seed_from_u64(s as u64);
                net.forward(states.row(s), &mut r).1
            })
            .collect();
        group.bench_function(format!("looped_per_sample_b{batch}"), |b| {
            b.iter(|| {
                let mut acc = stbp::SdpGradients::zeros_like(&net);
                for (s, trace) in traces.iter().enumerate() {
                    let g = stbp::backward_with_rate_penalty(&net, trace, d_actions.row(s), 0.0);
                    acc.accumulate(&g);
                }
                std::hint::black_box(acc.global_norm())
            })
        });

        // Batched path: one forward_batch fills the trace, backward reuses it.
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut trace = BatchNetworkTrace::new(&net, batch);
        let mut rngs = bench_support::sample_rngs(batch);
        net.forward_batch(&states, &mut rngs, &mut ws, &mut trace);
        group.bench_function(format!("batched_b{batch}"), |b| {
            b.iter(|| {
                let g = stbp::backward_batch(&net, &trace, &d_actions, 0.0, &mut ws);
                std::hint::black_box(g.global_norm())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backward_batch);
criterion_main!(benches);
