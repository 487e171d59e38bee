//! The EIIE agent: Jiang et al.'s convolutional policy as a second,
//! architecture-faithful variant of the DRL baseline.

use crate::config::SdpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spikefolio_ann::{Eiie, EiieConfig};
use spikefolio_env::{DecisionContext, Policy};
use spikefolio_market::MarketData;

/// Jiang's EIIE (convolutional, weight-shared) policy wrapped for the
/// spikefolio environment.
///
/// Where [`DrlAgent`](crate::drl::DrlAgent) is the capacity-matched MLP
/// variant of the DRL baseline, `EiieAgent` is the architecture-faithful
/// one: identical independent evaluators over each asset's OHLC window,
/// with the previous weight injected before the scoring layer and a
/// learned cash bias.
#[derive(Debug, Clone)]
pub struct EiieAgent {
    /// The convolutional policy network.
    pub network: Eiie,
    window: usize,
    include_open: bool,
}

impl EiieAgent {
    /// Builds the agent from the shared configuration (the state window
    /// and channel layout are taken from `config.state`).
    pub fn new(config: &SdpConfig, _num_assets: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let channels = config.state.channels();
        let network = Eiie::new(EiieConfig::jiang(channels, config.state.window), &mut rng);
        Self { network, window: config.state.window, include_open: config.state.include_open }
    }

    /// Observation window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Writes the per-asset price windows at period `t` into `out`
    /// (cleared first): one row-major `channels × window` block per asset,
    /// normalized by the asset's latest close (the same normalization as
    /// the flat state builder). This is the layout [`Eiie::forward_into`]
    /// reads.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the observation window.
    pub(crate) fn windows_into(&self, market: &MarketData, t: usize, out: &mut Vec<f64>) {
        assert!(t + 1 >= self.window, "period {t} has no full window");
        out.clear();
        for a in 0..market.num_assets() {
            let latest = market.close(t, a);
            for ch in 0..self.channels() {
                out.extend((0..self.window).map(|k| {
                    let c = market.candle(t - k, a);
                    let px = match ch {
                        0 => c.close,
                        1 => c.high,
                        2 => c.low,
                        _ => c.open,
                    };
                    px / latest
                }));
            }
        }
    }

    fn channels(&self) -> usize {
        if self.include_open {
            4
        } else {
            3
        }
    }

    /// Inference at period `t` of `market` with previous weights
    /// `prev_weights`.
    pub fn act(&self, market: &MarketData, t: usize, prev_weights: &[f64]) -> Vec<f64> {
        let mut windows = Vec::new();
        self.windows_into(market, t, &mut windows);
        self.network.act(&windows, prev_weights)
    }
}

impl Policy for EiieAgent {
    fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64> {
        self.act(ctx.market, ctx.t, ctx.prev_weights)
    }

    fn warmup_periods(&self) -> usize {
        self.window - 1
    }

    fn name(&self) -> &str {
        "EIIE"
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use spikefolio_env::Backtester;
    use spikefolio_market::experiments::ExperimentPreset;
    use spikefolio_tensor::simplex::is_on_simplex;

    #[test]
    fn untrained_eiie_backtests_cleanly() {
        let market = ExperimentPreset::experiment1().shrunk(30, 10).generate(5);
        let mut agent = EiieAgent::new(&SdpConfig::smoke(), market.num_assets(), 1);
        let r = Backtester::default().run(&mut agent, &market);
        assert_eq!(r.policy_name, "EIIE");
        for w in &r.weights {
            assert!(is_on_simplex(w, 1e-9));
        }
    }

    #[test]
    fn windows_are_normalized_by_latest_close() {
        let market = ExperimentPreset::experiment1().shrunk(20, 5).generate(5);
        let agent = EiieAgent::new(&SdpConfig::smoke(), market.num_assets(), 1);
        let mut ws = Vec::new();
        agent.windows_into(&market, 10, &mut ws);
        let window = agent.window();
        assert_eq!(ws.len(), market.num_assets() * 3 * window);
        for w in ws.chunks_exact(3 * window) {
            // Channel 0 (close), lag 0 → exactly 1.
            assert!((w[0] - 1.0).abs() < 1e-12);
            // High channel dominates low channel everywhere.
            for k in 0..window {
                assert!(w[window + k] >= w[2 * window + k]);
            }
        }
    }

    #[test]
    fn channel_count_follows_state_config() {
        let market = ExperimentPreset::experiment1().shrunk(20, 5).generate(5);
        let mut cfg = SdpConfig::smoke();
        cfg.state.include_open = true;
        let agent = EiieAgent::new(&cfg, market.num_assets(), 1);
        let mut ws = Vec::new();
        agent.windows_into(&market, 10, &mut ws);
        assert_eq!(ws.len(), market.num_assets() * 4 * agent.window());
    }
}
