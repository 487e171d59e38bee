//! The DRL\[Jiang\] baseline agent: the same deterministic policy-gradient
//! training, but with a dense (non-spiking) network.

use crate::config::SdpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spikefolio_ann::{Activation, Mlp, MlpTrace};
use spikefolio_env::{DecisionContext, Policy, StateBuilder};
use spikefolio_market::MarketData;

/// The dense deep-RL baseline of Jiang, Xu & Liang (2017) as the paper
/// compares against: identical state features, identical reward, identical
/// optimizer — only the network body differs (MLP + softmax instead of the
/// spiking encoder/LIF/decoder stack).
///
/// Every decision reuses the agent's state buffer and forward trace, so
/// it allocates only the returned action. A clone starts without them.
#[derive(Debug)]
pub struct DrlAgent {
    /// The dense policy network.
    pub network: Mlp,
    state_builder: StateBuilder,
    /// Scratch for [`StateBuilder::build_into`].
    state: Vec<f64>,
    /// Scratch for [`Mlp::forward_into`].
    trace: MlpTrace,
}

impl Clone for DrlAgent {
    fn clone(&self) -> Self {
        Self {
            network: self.network.clone(),
            state_builder: self.state_builder,
            state: Vec::new(),
            trace: MlpTrace::default(),
        }
    }
}

impl DrlAgent {
    /// Builds the baseline for a market with `num_assets` risky assets.
    ///
    /// The hidden sizes mirror the SDP configuration so the comparison is
    /// capacity-matched.
    pub fn new(config: &SdpConfig, num_assets: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let sb = StateBuilder::new(config.state);
        let mut dims = vec![sb.state_dim(num_assets)];
        dims.extend(&config.network.hidden);
        dims.push(num_assets + 1);
        let network = Mlp::new(&dims, Activation::Relu, &mut rng);
        Self { network, state_builder: sb, state: Vec::new(), trace: MlpTrace::default() }
    }

    /// The state feature builder in force.
    pub fn state_builder(&self) -> &StateBuilder {
        &self.state_builder
    }

    /// Builds the state vector at period `t` of `market`.
    pub fn state(&self, market: &MarketData, t: usize, prev_weights: &[f64]) -> Vec<f64> {
        self.state_builder.build(market, t, prev_weights)
    }

    /// Runs inference on an explicit state vector.
    pub fn act(&self, state: &[f64]) -> Vec<f64> {
        self.network.act(state)
    }
}

impl Policy for DrlAgent {
    fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64> {
        self.state_builder.build_into(ctx.market, ctx.t, ctx.prev_weights, &mut self.state);
        self.network.forward_into(&self.state, &mut self.trace);
        self.trace.action().to_vec()
    }

    fn warmup_periods(&self) -> usize {
        self.state_builder.min_period()
    }

    fn name(&self) -> &str {
        "DRL[Jiang]"
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
    fn untrained_baseline_backtests_cleanly() {
        let market = ExperimentPreset::experiment1().shrunk(30, 10).generate(5);
        let mut agent = DrlAgent::new(&SdpConfig::smoke(), market.num_assets(), 1);
        let r = Backtester::default().run(&mut agent, &market);
        assert_eq!(r.policy_name, "DRL[Jiang]");
        for w in &r.weights {
            assert!(is_on_simplex(w, 1e-9));
        }
    }

    #[test]
    fn capacity_matches_sdp_hidden_sizes() {
        let cfg = SdpConfig::smoke();
        let agent = DrlAgent::new(&cfg, 11, 1);
        assert_eq!(agent.network.depth(), cfg.network.hidden.len() + 1);
        assert_eq!(agent.network.action_dim(), 12);
    }

    #[test]
    fn deterministic_inference() {
        let cfg = SdpConfig::smoke();
        let market = ExperimentPreset::experiment1().shrunk(20, 5).generate(3);
        let agent = DrlAgent::new(&cfg, market.num_assets(), 9);
        let w = vec![1.0 / 12.0; 12];
        let s = agent.state(&market, 5, &w);
        assert_eq!(agent.act(&s), agent.act(&s));
    }
}
