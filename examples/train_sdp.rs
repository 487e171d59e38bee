//! Longer SDP training run with per-epoch diagnostics: the Fig. 1 training
//! loop on experiment 1, followed by a held-out backtest against the DRL
//! baseline trained with the identical budget.
//!
//! ```sh
//! cargo run --release --example train_sdp
//! ```

use spikefolio::agent::SdpAgent;
use spikefolio::config::SdpConfig;
use spikefolio::drl::DrlAgent;
use spikefolio::training::Trainer;
use spikefolio_env::Backtester;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_telemetry::NoopRecorder;

fn main() {
    let preset = ExperimentPreset::experiment1().shrunk(300, 75);
    let (train, test) = preset.generate_split(2016);

    let mut config = SdpConfig::paper();
    config.state.window = 6;
    config.network.hidden = vec![64, 64];
    config.network.pop_in = 6;
    config.network.pop_out = 6;
    config.training.epochs = 15;
    config.training.steps_per_epoch = 25;
    config.training.batch_size = 32;
    config.training.learning_rate = 5e-4;

    let trainer = Trainer::new(&config);

    let mut sdp = SdpAgent::new(&config, train.num_assets(), config.seed);
    println!(
        "SDP: {} params | window {} | T = {} | hidden {:?}",
        sdp.network.num_params(),
        config.state.window,
        config.network.timesteps,
        config.network.hidden
    );
    println!("epoch |  SDP mean log-return");
    let sdp_log = trainer.train_sdp_with(&mut sdp, &train, &mut NoopRecorder);
    for (i, r) in sdp_log.epoch_rewards.iter().enumerate() {
        let bar = "#".repeat(((r * 2e4).max(0.0) as usize).min(60));
        println!("{:>5} | {:+.6} {bar}", i + 1, r);
    }

    let mut drl = DrlAgent::new(&config, train.num_assets(), config.seed);
    let drl_log = trainer.train_drl_with(&mut drl, &train, &mut NoopRecorder);
    println!(
        "\nfinal training reward: SDP {:+.6} vs DRL {:+.6}",
        sdp_log.final_reward(),
        drl_log.final_reward()
    );

    let backtester = Backtester::new(config.backtest);
    let r_sdp = backtester.run(&mut sdp, &test);
    let r_drl = backtester.run(&mut drl, &test);
    println!("\nheld-out backtest ({} periods):", test.num_periods());
    println!("  SDP       : {}", r_sdp.metrics);
    println!("  DRL[Jiang]: {}", r_drl.metrics);
}
