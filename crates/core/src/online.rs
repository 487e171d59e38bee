//! Walk-forward (online) retraining — the deployment mode the paper's
//! real-time motivation implies.
//!
//! Instead of one train/backtest split, the agent is periodically retrained
//! on a trailing window and then trades the next block of periods with
//! frozen weights, walking forward through the data:
//!
//! ```text
//! [── train window ──][ trade ]
//!        [── train window ──][ trade ]
//!               [── train window ──][ trade ] …
//! ```
//!
//! Portfolio value compounds across blocks (positions persist through the
//! retraining boundary; only the policy parameters refresh).

use crate::agent::SdpAgent;
use crate::config::SdpConfig;
use crate::training::Trainer;
use serde::{Deserialize, Serialize};
use spikefolio_env::{CostModel, Metrics, PortfolioState};
use spikefolio_market::MarketData;
use spikefolio_telemetry::NoopRecorder;

/// Walk-forward schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WalkForwardConfig {
    /// Trailing training-window length, in periods.
    pub train_window: usize,
    /// Periods traded between retrainings.
    pub trade_window: usize,
    /// Retrain from scratch (`true`) or continue from the current weights
    /// (`false` — warm start).
    pub retrain_from_scratch: bool,
}

impl Default for WalkForwardConfig {
    fn default() -> Self {
        Self { train_window: 500, trade_window: 100, retrain_from_scratch: false }
    }
}

/// Outcome of a walk-forward run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalkForwardResult {
    /// Compounded portfolio value curve over all traded periods.
    pub values: Vec<f64>,
    /// Metric bundle over the full curve.
    pub metrics: Metrics,
    /// Number of retraining events.
    pub retrainings: usize,
    /// Final training reward of each retraining.
    pub block_rewards: Vec<f64>,
}

/// Runs walk-forward retraining of an SDP agent over `market`.
///
/// The first `train_window` periods are pure history (no trading); each
/// subsequent block of `trade_window` periods is traded with the policy
/// trained on the window that precedes it.
///
/// # Panics
///
/// Panics if the market is shorter than `train_window + trade_window + 2`
/// or the windows are smaller than the observation window.
pub fn walk_forward(
    config: &SdpConfig,
    wf: WalkForwardConfig,
    market: &MarketData,
    seed: u64,
) -> WalkForwardResult {
    let n = market.num_periods();
    assert!(
        n >= wf.train_window + wf.trade_window + 2,
        "market has {n} periods; walk-forward needs at least {}",
        wf.train_window + wf.trade_window + 2
    );
    let trainer = Trainer::new(config);
    let mut agent = SdpAgent::new(config, market.num_assets(), seed);
    let window_min = agent.state_builder().min_period();
    assert!(wf.train_window > window_min + 2, "train window too small for the state window");

    let costs: CostModel = config.backtest.costs;
    let mut portfolio = PortfolioState::new(market.num_assets() + 1);
    let mut values = vec![1.0];
    let mut block_rewards = Vec::new();
    let mut retrainings = 0;

    let mut block_start = wf.train_window;
    while block_start + 1 < n {
        // Retrain on the trailing window.
        let train_slice = market.slice(block_start - wf.train_window, block_start);
        if wf.retrain_from_scratch {
            agent =
                SdpAgent::new(config, market.num_assets(), seed.wrapping_add(retrainings as u64));
        }
        let log = trainer.train_sdp_with(&mut agent, &train_slice, &mut NoopRecorder);
        block_rewards.push(log.final_reward());
        retrainings += 1;

        // Trade the next block with frozen weights.
        let block_end = (block_start + wf.trade_window).min(n - 1);
        for t in block_start..block_end {
            let state = agent.state(market, t, portfolio.weights());
            let target = agent.act(&state);
            let y = market.price_relatives_with_cash(t + 1);
            let _ = portfolio.step(&target, &y, &costs);
            values.push(portfolio.value());
        }
        block_start = block_end;
    }

    let metrics = Metrics::from_values(&values, market.periods_per_year(), 0.0);
    WalkForwardResult { values, metrics, retrainings, block_rewards }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use spikefolio_market::experiments::ExperimentPreset;

    fn config() -> SdpConfig {
        let mut cfg = SdpConfig::smoke();
        cfg.training.epochs = 2;
        cfg.training.steps_per_epoch = 3;
        cfg.training.batch_size = 6;
        cfg
    }

    #[test]
    fn walk_forward_covers_the_whole_tail() {
        let market = ExperimentPreset::experiment1().shrunk(80, 0).generate(41);
        let wf =
            WalkForwardConfig { train_window: 60, trade_window: 25, retrain_from_scratch: false };
        let result = walk_forward(&config(), wf, &market, 7);
        // 160 periods total, first 60 are history → 99 traded periods.
        assert_eq!(result.values.len(), market.num_periods() - 60);
        assert_eq!(result.retrainings, 4); // ceil(99 / 25)
        assert_eq!(result.block_rewards.len(), 4);
        assert!(result.metrics.fapv > 0.0);
        assert!(result.values.iter().all(|&v| v > 0.0 && v.is_finite()));
    }

    #[test]
    fn scratch_and_warm_start_both_run() {
        let market = ExperimentPreset::experiment1().shrunk(60, 0).generate(42);
        for scratch in [false, true] {
            let wf = WalkForwardConfig {
                train_window: 50,
                trade_window: 40,
                retrain_from_scratch: scratch,
            };
            let result = walk_forward(&config(), wf, &market, 7);
            assert!(result.retrainings >= 1, "scratch={scratch}");
        }
    }

    #[test]
    #[should_panic(expected = "walk-forward needs")]
    fn too_short_market_rejected() {
        let market = ExperimentPreset::experiment1().shrunk(10, 0).generate(1);
        let _ = walk_forward(&config(), WalkForwardConfig::default(), &market, 1);
    }
}
