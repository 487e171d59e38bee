//! Hardened checkpoint IO benchmarks: v2 encode + CRC + atomic write,
//! load + verify, and the guarded training loop's overhead over the
//! plain one on a fault-free run.

use criterion::{criterion_group, criterion_main, Criterion};
use spikefolio::checkpoint::{load_sdp, save_sdp};
use spikefolio::guarded::{train_sdp_guarded, ResilienceOptions};
use spikefolio::training::Trainer;
use spikefolio::{SdpAgent, SdpConfig};
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_resilience::crc32;
use spikefolio_telemetry::NoopRecorder;

fn medium_agent() -> SdpAgent {
    let mut cfg = SdpConfig::smoke();
    cfg.network.hidden = vec![64, 64];
    SdpAgent::new(&cfg, 11, 7)
}

fn bench_checkpoint_io(c: &mut Criterion) {
    let agent = medium_agent();
    let path = std::env::temp_dir().join(format!("spikefolio-bench-{}.ckpt", std::process::id()));

    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(20);
    group.bench_function("save_v2_atomic", |b| {
        b.iter(|| save_sdp(&agent, &path).expect("save"));
    });
    save_sdp(&agent, &path).expect("save");
    group.bench_function("load_v2_verify", |b| {
        let mut target = medium_agent();
        b.iter(|| load_sdp(&mut target, &path).expect("load"));
    });
    let bytes = std::fs::read(&path).expect("read checkpoint");
    group.bench_function("crc32_checkpoint_bytes", |b| {
        b.iter(|| crc32(&bytes));
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

fn bench_guarded_overhead(c: &mut Criterion) {
    let market = ExperimentPreset::experiment1().shrunk(30, 0).generate(2016);
    let mut cfg = SdpConfig::smoke();
    cfg.training.epochs = 2;
    cfg.training.steps_per_epoch = 2;
    cfg.training.batch_size = 8;
    let trainer = Trainer::new(&cfg);

    let mut group = c.benchmark_group("guarded_training");
    group.sample_size(10);
    group.bench_function("plain", |b| {
        b.iter(|| {
            let mut agent = SdpAgent::new(&cfg, market.num_assets(), 3);
            trainer.train_sdp_with(&mut agent, &market, &mut NoopRecorder)
        });
    });
    group.bench_function("guarded_no_faults", |b| {
        b.iter(|| {
            let mut agent = SdpAgent::new(&cfg, market.num_assets(), 3);
            let mut opts = ResilienceOptions::default();
            train_sdp_guarded(&trainer, &mut agent, &market, &mut opts, &mut NoopRecorder)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_checkpoint_io, bench_guarded_overhead);
criterion_main!(benches);
