//! Reproduces Table 3: MDD / fAPV / Sharpe for SDP, DRL[Jiang], ONS,
//! Best Stock, ANTICOR, M0, and UCRP over the three Table 1 experiments.
//!
//! ```sh
//! cargo run --release --example table3_backtests            # medium scale (~1 min)
//! cargo run --release --example table3_backtests -- --full  # full Table 1 ranges
//! cargo run --release --example table3_backtests -- --smoke # CI scale (seconds)
//! ```

use spikefolio::experiments::{run_table3, RunOptions};
use spikefolio::report::format_table3;
use spikefolio::SdpConfig;
use spikefolio_telemetry::NoopRecorder;

fn options() -> RunOptions {
    let arg = std::env::args().nth(1).unwrap_or_default();
    match arg.as_str() {
        "--full" => RunOptions::paper(),
        "--smoke" => RunOptions::smoke(),
        _ => {
            // Medium scale: paper network hyperparameters on a compressed
            // calendar, enough for the Table 3 shape to emerge.
            let mut config = SdpConfig::paper();
            config.state.window = 6;
            config.network.hidden = vec![64, 64];
            config.network.pop_in = 6;
            config.network.pop_out = 6;
            config.training.epochs = 10;
            config.training.steps_per_epoch = 20;
            config.training.batch_size = 32;
            config.training.learning_rate = 5e-4;
            RunOptions {
                config,
                shrink: Some((240, 60)),
                market_seed: 2016,
                guard: None,
                sanitize: None,
            }
        }
    }
}

fn main() {
    let opts = options();
    eprintln!(
        "running Table 3 at {} scale...",
        if opts.shrink.is_some() { "reduced" } else { "full" }
    );
    let outcomes = run_table3(&opts, &mut NoopRecorder);
    println!("{}", format_table3(&outcomes));

    // The paper's qualitative claims, checked on this run.
    for out in &outcomes {
        let sdp = &out.row("SDP").expect("sdp row").metrics;
        let drl = &out.row("DRL[Jiang]").expect("drl row").metrics;
        println!(
            "{}: SDP fAPV {:.3} vs DRL {:.3} ({})",
            out.experiment,
            sdp.fapv,
            drl.fapv,
            if sdp.fapv >= drl.fapv {
                "SDP ahead, as in the paper"
            } else {
                "DRL ahead on this seed"
            }
        );
    }
}
