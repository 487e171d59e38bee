//! Reproduces Table 4: idle/dynamic power, throughput, and energy per
//! inference for the DRL baseline on CPU/GPU vs SDP on the Loihi model.
//!
//! ```sh
//! cargo run --release --example table4_energy
//! cargo run --release --example table4_energy -- --smoke
//! ```

use spikefolio::experiments::{run_table4, RunOptions, PAPER_LOIHI_NJ_PER_INF};
use spikefolio::report::format_table4;
use spikefolio::SdpConfig;
use spikefolio_telemetry::NoopRecorder;

fn options() -> RunOptions {
    if std::env::args().any(|a| a == "--smoke") {
        return RunOptions::smoke();
    }
    let mut config = SdpConfig::paper();
    config.training.epochs = 4; // Table 4 only needs a trained-enough policy
    config.training.steps_per_epoch = 10;
    config.training.batch_size = 32;
    RunOptions { config, shrink: Some((120, 40)), market_seed: 2016, guard: None, sanitize: None }
}

fn main() {
    let opts = options();
    eprintln!(
        "training + deploying SDP for each experiment (this touches every pipeline stage)..."
    );
    let outcomes = run_table4(&opts, &mut NoopRecorder);
    println!("{}", format_table4(&outcomes));

    println!("paper headline: ≥186x energy advantage vs CPU, ≥516x vs GPU;");
    println!(
        "calibration endpoint: Loihi at T={} on Experiment 1 = {:.2} nJ/inf (paper: {:.2})",
        opts.config.network.timesteps,
        outcomes[0].loihi().nj_per_inf,
        PAPER_LOIHI_NJ_PER_INF
    );
    for out in &outcomes {
        println!(
            "{}: {:.0}x vs CPU, {:.0}x vs GPU",
            out.experiment,
            out.cpu_advantage(),
            out.gpu_advantage()
        );
    }
}
