//! Batched forward engine vs looped single-sample calls: the throughput
//! case for `SdpNetwork::forward_batch` at paper scale (one B-row drive
//! per layer per timestep instead of B one-row drives), plus the smoke
//! desk's narrow shape at the batch sizes the desk runs (B = 1 for gate
//! and backtest decisions, B = 4 for fine-tuning micro-batches).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spikefolio_bench::bench_support;
use spikefolio_snn::SingleSample;
use spikefolio_snn::{BatchNetworkTrace, BatchWorkspace};
use spikefolio_telemetry::NoopRecorder;

fn bench_forward_batch(c: &mut Criterion) {
    // Paper scale: 364-dim state, hidden 128 × 128, T = 5.
    let net = bench_support::paper_network(9);

    let mut group = c.benchmark_group("snn/forward_batch");
    group.sample_size(20);
    for &batch in &[4usize, 32] {
        let st = bench_support::pinned_states(batch, bench_support::PAPER_STATE_DIM);
        let mut one = SingleSample::new(&net);
        group.bench_function(format!("looped_b1_b{batch}"), |b| {
            b.iter(|| {
                for s in 0..batch {
                    let mut r = StdRng::seed_from_u64(s as u64);
                    std::hint::black_box(one.forward(&net, st.row(s), &mut r)[0]);
                }
            })
        });
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut trace = BatchNetworkTrace::new(&net, batch);
        group.bench_function(format!("batched_b{batch}"), |b| {
            b.iter(|| {
                let mut rngs = bench_support::sample_rngs(batch);
                let rec = &mut NoopRecorder;
                net.forward_batch(&st, &mut rngs, &mut ws, &mut trace, rec);
                std::hint::black_box(trace.action(0)[0])
            })
        });
    }
    let smoke = bench_support::smoke_desk_network(9);
    let dim = smoke.config().state_dim;
    for &batch in &[1usize, 4] {
        let st = bench_support::pinned_states(batch, dim);
        let mut ws = BatchWorkspace::new(&smoke, batch);
        let mut trace = BatchNetworkTrace::new(&smoke, batch);
        group.bench_function(format!("smoke_desk_b{batch}"), |b| {
            b.iter(|| {
                let mut rngs = bench_support::sample_rngs(batch);
                let rec = &mut NoopRecorder;
                smoke.forward_batch(&st, &mut rngs, &mut ws, &mut trace, rec);
                std::hint::black_box(trace.action(0)[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forward_batch);
criterion_main!(benches);
