//! The SDP agent: policy network + state builder, usable as an
//! [`env Policy`](spikefolio_env::Policy).

use crate::config::SdpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spikefolio_env::{DecisionContext, Policy, StateBuilder};
use spikefolio_market::MarketData;
use spikefolio_snn::network::SdpNetwork;
use spikefolio_snn::SingleSample;

/// A trained (or trainable) spiking deterministic policy agent.
///
/// Wraps the [`SdpNetwork`] with the feature pipeline so it can be driven
/// directly by the [`Backtester`](spikefolio_env::Backtester). Every
/// decision runs [`SdpNetwork::forward_batch`] at `B = 1`, the
/// event-driven drive on the `Wᵀ` the network keeps in step with its
/// weights, and on buffers the agent builds at its first decision and
/// reuses, so inference allocates only the returned action. A clone
/// starts without those buffers.
#[derive(Debug)]
pub struct SdpAgent {
    /// The policy network (public so trainers and the deployment pipeline
    /// can reach the parameters). Change its parameters, never its shape:
    /// the agent's inference buffers are sized for it at first use.
    pub network: SdpNetwork,
    state_builder: StateBuilder,
    rng: StdRng,
    /// Scratch for [`StateBuilder::build_into`].
    state: Vec<f64>,
    single: Option<Box<SingleSample>>,
}

impl Clone for SdpAgent {
    fn clone(&self) -> Self {
        Self {
            network: self.network.clone(),
            state_builder: self.state_builder,
            rng: self.rng.clone(),
            state: Vec::new(),
            single: None,
        }
    }
}

impl SdpAgent {
    /// Builds an agent for a market with `num_assets` risky assets.
    ///
    /// # Panics
    ///
    /// Panics if the derived network configuration is invalid.
    pub fn new(config: &SdpConfig, num_assets: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let network = SdpNetwork::new(config.network_config(num_assets), &mut rng);
        Self {
            network,
            state_builder: StateBuilder::new(config.state),
            rng,
            state: Vec::new(),
            single: None,
        }
    }

    /// The state feature builder in force.
    pub fn state_builder(&self) -> &StateBuilder {
        &self.state_builder
    }

    /// Builds the state vector at period `t` of `market`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the observation window.
    pub fn state(&self, market: &MarketData, t: usize, prev_weights: &[f64]) -> Vec<f64> {
        self.state_builder.build(market, t, prev_weights)
    }

    /// Runs inference on an explicit state vector.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not the network's state width.
    pub fn act(&mut self, state: &[f64]) -> Vec<f64> {
        let network = &self.network;
        let one = self.single.get_or_insert_with(|| Box::new(SingleSample::new(network)));
        one.forward(network, state, &mut self.rng).to_vec()
    }
}

impl Policy for SdpAgent {
    fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64> {
        self.state_builder.build_into(ctx.market, ctx.t, ctx.prev_weights, &mut self.state);
        let network = &self.network;
        let one = self.single.get_or_insert_with(|| Box::new(SingleSample::new(network)));
        one.forward(network, &self.state, &mut self.rng).to_vec()
    }

    fn warmup_periods(&self) -> usize {
        self.state_builder.min_period()
    }

    fn name(&self) -> &str {
        "SDP"
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
    fn untrained_agent_backtests_cleanly() {
        let market = ExperimentPreset::experiment1().shrunk(30, 10).generate(5);
        let mut agent = SdpAgent::new(&SdpConfig::smoke(), market.num_assets(), 1);
        let r = Backtester::default().run(&mut agent, &market);
        assert_eq!(r.policy_name, "SDP");
        for w in &r.weights {
            assert!(is_on_simplex(w, 1e-9));
        }
        assert!(r.fapv() > 0.0);
    }

    #[test]
    fn warmup_equals_observation_window() {
        let agent = SdpAgent::new(&SdpConfig::smoke(), 11, 1);
        assert_eq!(agent.warmup_periods(), 3); // window 4 → min period 3
    }

    #[test]
    fn same_seed_same_actions() {
        let market = ExperimentPreset::experiment1().shrunk(20, 5).generate(5);
        let cfg = SdpConfig::smoke();
        let mut a = SdpAgent::new(&cfg, market.num_assets(), 7);
        let mut b = SdpAgent::new(&cfg, market.num_assets(), 7);
        let w = vec![1.0 / 12.0; 12];
        let s = a.state(&market, 5, &w);
        assert_eq!(a.act(&s), b.act(&s));
    }

    #[test]
    fn different_seed_different_network() {
        let cfg = SdpConfig::smoke();
        let a = SdpAgent::new(&cfg, 11, 1);
        let b = SdpAgent::new(&cfg, 11, 2);
        assert_ne!(
            spikefolio_snn::stbp::flat_params(&a.network),
            spikefolio_snn::stbp::flat_params(&b.network)
        );
    }
}
