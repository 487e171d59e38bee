//! "Figure" data regeneration: portfolio value curves and training reward
//! curves as CSV, ready for any plotting tool.
//!
//! The paper's figures are architecture diagrams (Figs. 1–2), so the
//! quantitative curves behind the evaluation — accumulated portfolio value
//! over the backtest and the training reward trajectory — are what a
//! reproduction can regenerate. These drivers produce them for every
//! strategy of Table 3.

use crate::agent::SdpAgent;
use crate::drl::DrlAgent;
use crate::experiments::RunOptions;
use crate::training::{Trainer, TrainingLog};
use spikefolio_baselines::{Anticor, BestStock, Ons, Ucrp, M0};
use spikefolio_env::analysis::value_curves_csv;
use spikefolio_env::{Backtester, Policy};
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_telemetry::NoopRecorder;

/// CSV of the per-epoch training reward curve (`epoch,reward`).
pub fn training_reward_csv(log: &TrainingLog) -> String {
    let mut s = String::from("epoch,mean_log_return\n");
    for (i, r) in log.epoch_rewards.iter().enumerate() {
        s.push_str(&format!("{},{:.10}\n", i + 1, r));
    }
    s
}

/// Trains the RL agents on `preset` and returns the CSV of *all seven*
/// Table 3 strategies' portfolio value curves over the backtest range
/// (`period,SDP,DRL,ONS,BestStock,ANTICOR,M0,UCRP`), together with the
/// SDP training log.
pub fn backtest_value_curves(opts: &RunOptions, base: ExperimentPreset) -> (String, TrainingLog) {
    let preset = match opts.shrink {
        Some((train, test)) => base.shrunk(train, test),
        None => base,
    };
    let (train, test) = preset.generate_split(opts.market_seed);
    let trainer = Trainer::new(&opts.config);

    let mut sdp = SdpAgent::new(&opts.config, train.num_assets(), opts.config.seed);
    let sdp_log = trainer.train_sdp_with(&mut sdp, &train, &mut NoopRecorder);
    let mut drl = DrlAgent::new(&opts.config, train.num_assets(), opts.config.seed);
    let _ = trainer.train_drl_with(&mut drl, &train, &mut NoopRecorder);

    let anticor_window = 15.min((test.num_periods() / 2).saturating_sub(1)).max(2);
    let backtester = Backtester::new(opts.config.backtest);
    let mut curves: Vec<(String, Vec<f64>)> = Vec::new();
    let mut run = |policy: &mut dyn Policy| {
        let r = backtester.run(policy, &test);
        curves.push((r.policy_name.clone(), r.values));
    };
    run(&mut sdp);
    run(&mut drl);
    run(&mut Ons::new());
    run(&mut BestStock::new());
    run(&mut Anticor::with_window(anticor_window));
    run(&mut M0::new());
    run(&mut Ucrp::new());

    let refs: Vec<(&str, &[f64])> =
        curves.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();
    (value_curves_csv(&refs), sdp_log)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn tiny_opts() -> RunOptions {
        let mut opts = RunOptions::smoke();
        opts.shrink = Some((25, 8));
        opts.config.training.epochs = 2;
        opts.config.training.steps_per_epoch = 2;
        opts.config.training.batch_size = 4;
        opts
    }

    #[test]
    fn reward_csv_is_one_line_per_epoch() {
        let log = TrainingLog {
            epoch_rewards: vec![0.1, 0.2, 0.15],
            steps: 30,
            ..TrainingLog::default()
        };
        let csv = training_reward_csv(&log);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "epoch,mean_log_return");
        assert!(lines[2].starts_with("2,0.2"));
    }

    #[test]
    fn value_curve_csv_contains_all_strategies() {
        let (csv, log) = backtest_value_curves(&tiny_opts(), ExperimentPreset::experiment1());
        let header = csv.lines().next().unwrap();
        for name in ["SDP", "DRL[Jiang]", "ONS", "Best Stock", "ANTICOR", "M0", "UCRP"] {
            assert!(header.contains(name), "missing {name} in header {header:?}");
        }
        // All rows start at value 1.0.
        let first_row = csv.lines().nth(1).unwrap();
        assert!(first_row.starts_with("0,1.0"));
        assert_eq!(log.epoch_rewards.len(), 2);
    }
}
