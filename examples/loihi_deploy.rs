//! Fig. 2 deployment walk-through: train SDP, rescale per eq. (14), map
//! onto the chip model, and compare float vs on-chip decisions and the
//! energy profile.
//!
//! ```sh
//! cargo run --release --example loihi_deploy
//! ```

use spikefolio::agent::SdpAgent;
use spikefolio::config::SdpConfig;
use spikefolio::deploy::LoihiDeployment;
use spikefolio::training::Trainer;
use spikefolio_env::Backtester;
use spikefolio_loihi::energy::LoihiEnergyModel;
use spikefolio_loihi::LoihiChip;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_telemetry::NoopRecorder;

fn main() {
    let preset = ExperimentPreset::experiment1().shrunk(150, 40);
    let (train, test) = preset.generate_split(7);

    let mut config = SdpConfig::smoke();
    config.training.epochs = 6;
    config.training.steps_per_epoch = 15;
    config.training.batch_size = 32;
    config.training.learning_rate = 1e-3;

    let mut agent = SdpAgent::new(&config, train.num_assets(), config.seed);
    println!("training SDP ({} params)...", agent.network.num_params());
    let _ = Trainer::new(&config).train_sdp_with(&mut agent, &train, &mut NoopRecorder);

    println!("quantizing per eq. (14) and mapping onto the chip model...");
    let mut deployed = LoihiDeployment::new(&agent, &LoihiChip::default()).expect("fits on chip");
    let report = deployed.quantization_report();
    for (k, (r, e)) in report.ratios.iter().zip(&report.max_errors).enumerate() {
        println!("  layer {k}: rescale ratio {r:>9.2}, max weight error {e:.2e}");
    }
    let alloc = deployed.allocation();
    println!(
        "  chip allocation: {} cores, {} compartments, {} synapses",
        alloc.total_cores, alloc.total_compartments, alloc.total_synapses
    );

    let backtester = Backtester::new(config.backtest);
    let r_float = backtester.run(&mut agent, &test);
    let r_chip = backtester.run(&mut deployed, &test);
    println!("\nbacktest ({} periods):", test.num_periods());
    println!("  float SDP  : {}", r_float.metrics);
    println!("  SDP (Loihi): {}", r_chip.metrics);

    let stats = deployed.mean_stats().to_spike_stats();
    println!(
        "\nmean events/inference: {} input spikes, {} neuron spikes, {} synops, {} updates",
        stats.encoder_spikes, stats.neuron_spikes, stats.synops, stats.neuron_updates
    );
    let physical = LoihiEnergyModel::davies2018();
    let calibrated = LoihiEnergyModel::calibrated(&stats, 15.81);
    println!(
        "energy/inference: {:.2} µJ (Davies-2018 constants) | {:.2} nJ (paper-calibrated)",
        physical.dynamic_energy(&stats) * 1e6,
        calibrated.dynamic_energy(&stats) * 1e9
    );
    println!(
        "latency/inference: {:.0} µs at T = {}",
        physical.latency(config.network.timesteps) * 1e6,
        config.network.timesteps
    );
}
