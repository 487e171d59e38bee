//! Table 3 regenerator + per-strategy backtest benchmarks.
//!
//! Running `cargo bench --bench table3` first prints the reproduced
//! Table 3 (reduced scale — set `SPIKEFOLIO_FULL=1` for the full Table 1
//! calendar), then benchmarks the per-strategy backtest cost over the
//! experiment-1 backtest range.

use criterion::{criterion_group, criterion_main, Criterion};
use spikefolio::experiments::{run_table3, RunOptions};
use spikefolio::report::format_table3;
use spikefolio::{DrlAgent, SdpAgent, SdpConfig};
use spikefolio_baselines::{Anticor, BestStock, Ons, Ucrp, M0};
use spikefolio_env::{Backtester, Policy};
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_telemetry::NoopRecorder;

fn table_options() -> RunOptions {
    if std::env::var_os("SPIKEFOLIO_FULL").is_some() {
        return RunOptions::paper();
    }
    let mut opts = RunOptions::smoke();
    opts.shrink = Some((120, 40));
    opts.config.training.epochs = 4;
    opts.config.training.steps_per_epoch = 10;
    opts.config.training.batch_size = 24;
    opts.config.training.learning_rate = 1e-3;
    opts
}

fn print_table3_once() {
    let outcomes = run_table3(&table_options(), &mut NoopRecorder);
    println!("\n===== Reproduced Table 3 =====\n{}", format_table3(&outcomes));
}

fn bench_strategy_backtests(c: &mut Criterion) {
    print_table3_once();

    let market = ExperimentPreset::experiment1().shrunk(60, 0).generate(2016);
    let cfg = SdpConfig::smoke();
    let mut group = c.benchmark_group("table3/backtest");
    group.sample_size(10);

    type PolicyFactory = Box<dyn FnMut() -> Box<dyn Policy>>;
    let mut cases: Vec<(&str, PolicyFactory)> = vec![
        ("ucrp", Box::new(|| Box::new(Ucrp::new()))),
        ("ons", Box::new(|| Box::new(Ons::new()))),
        ("anticor", Box::new(|| Box::new(Anticor::with_window(8)))),
        ("best_stock", Box::new(|| Box::new(BestStock::new()))),
        ("m0", Box::new(|| Box::new(M0::new()))),
        ("sdp_untrained", Box::new(|| Box::new(SdpAgent::new(&SdpConfig::smoke(), 11, 1)))),
        ("drl_untrained", Box::new(|| Box::new(DrlAgent::new(&SdpConfig::smoke(), 11, 1)))),
    ];
    for (name, make) in cases.iter_mut() {
        group.bench_function(*name, |b| {
            b.iter(|| {
                let mut policy = make();
                let r = Backtester::new(cfg.backtest).run(policy.as_mut(), &market);
                std::hint::black_box(r.fapv())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strategy_backtests);
criterion_main!(benches);
