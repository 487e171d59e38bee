//! Quickstart: generate a synthetic crypto market, train a small SDP
//! agent, and backtest it against the uniform benchmark.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use spikefolio::agent::SdpAgent;
use spikefolio::config::SdpConfig;
use spikefolio::training::Trainer;
use spikefolio_baselines::Ucrp;
use spikefolio_env::Backtester;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_telemetry::NoopRecorder;

fn main() {
    // Table 1, experiment 1 — shrunk so the demo runs in seconds.
    let preset = ExperimentPreset::experiment1().shrunk(180, 45);
    println!(
        "{}: train {} → {}, backtest {} → {}",
        preset.name, preset.train_start, preset.backtest_start, preset.backtest_start, preset.end
    );
    let (train, test) = preset.generate_split(42);
    println!(
        "generated {} assets × {} train / {} backtest periods",
        train.num_assets(),
        train.num_periods(),
        test.num_periods()
    );

    // A small SDP: population coding → LIF × 24 → rate decoder, T = 5.
    let mut config = SdpConfig::smoke();
    config.training.epochs = 8;
    config.training.steps_per_epoch = 16;
    config.training.batch_size = 32;
    config.training.learning_rate = 1e-3;

    let mut agent = SdpAgent::new(&config, train.num_assets(), config.seed);
    println!("{}", agent.network.summary());

    println!("training...");
    let log = Trainer::new(&config).train_sdp_with(&mut agent, &train, &mut NoopRecorder);
    for (i, r) in log.epoch_rewards.iter().enumerate() {
        println!("  epoch {:>2}: mean log return {:+.6}", i + 1, r);
    }

    let backtester = Backtester::new(config.backtest);
    let sdp = backtester.run(&mut agent, &test);
    let ucrp = backtester.run(&mut Ucrp::new(), &test);

    println!("\nbacktest ({} periods):", test.num_periods());
    println!("  SDP : {}", sdp.metrics);
    println!("  UCRP: {}", ucrp.metrics);
}
