//! DDPG-style actor-critic baseline for the scenario scorecard matrix.
//!
//! A deterministic-policy actor (the same MLP-softmax body as the
//! DRL\[Jiang\] baseline) paired with a state-action value critic. The
//! critic regresses toward the immediate eq. (1) reward (the objective is
//! additive over periods, so the myopic `γ = 0` target is the standard
//! simplification in the Jiang framework); the actor ascends the critic's
//! action gradient `∂Q/∂a`, the defining DDPG update. This gives the
//! scorecard a learned-value baseline whose training signal is *indirect*
//! (through the critic) where SDP/DRL/EIIE differentiate the reward
//! analytically.

use crate::config::SdpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spikefolio_ann::{Activation, Mlp};
use spikefolio_env::{DecisionContext, Policy, StateBuilder};
use spikefolio_market::MarketData;

/// The DDPG-style baseline agent: deterministic MLP-softmax actor plus a
/// state-action critic, trained by
/// [`Trainer::train_ddpg_with`](crate::training::Trainer::train_ddpg_with).
#[derive(Debug, Clone)]
pub struct DdpgAgent {
    /// The policy network (same body as the DRL baseline).
    pub actor: Mlp,
    /// The `Q(s, a)` value network over the concatenated state-action
    /// vector (raw scalar head).
    pub critic: Mlp,
    state_builder: StateBuilder,
}

impl DdpgAgent {
    /// Builds the baseline for a market with `num_assets` risky assets.
    ///
    /// The actor's hidden sizes mirror the SDP configuration
    /// (capacity-matched, like the DRL baseline); the critic reuses the
    /// same hidden sizes over the concatenated state-action input.
    pub fn new(config: &SdpConfig, num_assets: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let sb = StateBuilder::new(config.state);
        let state_dim = sb.state_dim(num_assets);
        let action_dim = num_assets + 1;
        let mut actor_dims = vec![state_dim];
        actor_dims.extend(&config.network.hidden);
        actor_dims.push(action_dim);
        let actor = Mlp::new(&actor_dims, Activation::Relu, &mut rng);
        let mut critic_dims = vec![state_dim + action_dim];
        critic_dims.extend(&config.network.hidden);
        critic_dims.push(1);
        let critic = Mlp::value(&critic_dims, Activation::Relu, &mut rng);
        Self { actor, critic, state_builder: sb }
    }

    /// The state feature builder in force.
    pub fn state_builder(&self) -> &StateBuilder {
        &self.state_builder
    }

    /// Builds the state vector at period `t` of `market`.
    pub fn state(&self, market: &MarketData, t: usize, prev_weights: &[f64]) -> Vec<f64> {
        self.state_builder.build(market, t, prev_weights)
    }

    /// Runs actor inference on an explicit state vector.
    pub fn act(&self, state: &[f64]) -> Vec<f64> {
        self.actor.act(state)
    }

    /// Evaluates the critic on a state-action pair.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() + action.len() != critic.in_dim()`.
    pub fn q_value(&self, state: &[f64], action: &[f64]) -> f64 {
        let mut sa = Vec::with_capacity(state.len() + action.len());
        sa.extend_from_slice(state);
        sa.extend_from_slice(action);
        self.critic.act(&sa)[0]
    }
}

impl Policy for DdpgAgent {
    fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64> {
        let state = self.state_builder.build(ctx.market, ctx.t, ctx.prev_weights);
        self.actor.act(&state)
    }

    fn warmup_periods(&self) -> usize {
        self.state_builder.min_period()
    }

    fn name(&self) -> &str {
        "DDPG"
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use spikefolio_ann::MlpTrainer;
    use spikefolio_env::Backtester;
    use spikefolio_market::experiments::ExperimentPreset;
    use spikefolio_tensor::simplex::is_on_simplex;

    #[test]
    fn untrained_agent_backtests_cleanly() {
        let market = ExperimentPreset::experiment1().shrunk(30, 10).generate(5);
        let mut agent = DdpgAgent::new(&SdpConfig::smoke(), market.num_assets(), 1);
        let r = Backtester::default().run(&mut agent, &market);
        assert_eq!(r.policy_name, "DDPG");
        for w in &r.weights {
            assert!(is_on_simplex(w, 1e-9));
        }
    }

    #[test]
    fn critic_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let critic = Mlp::value(&[5, 7, 1], Activation::Tanh, &mut rng);
        let q = |c: &Mlp, x: &[f64]| c.act(x)[0];
        let input = [0.4, -0.2, 1.1, 0.7, -0.9];
        let (grads, d_input) = critic.backward_input(&critic.forward(&input), &[1.0]);
        let eps = 1e-6;
        // Input gradients (the slice the actor learns from).
        for i in 0..input.len() {
            let mut xp = input;
            xp[i] += eps;
            let mut xm = input;
            xm[i] -= eps;
            let num = (q(&critic, &xp) - q(&critic, &xm)) / (2.0 * eps);
            assert!((d_input[i] - num).abs() < 1e-6, "input {i}: {} vs {num}", d_input[i]);
        }
        // Spot-check first-layer weight gradients (row 0 leads the flat
        // parameter vector).
        let params = critic.flat_params();
        for col in 0..input.len() {
            let mut cp = critic.clone();
            let mut pp = params.clone();
            pp[col] += eps;
            cp.set_flat_params(&pp);
            let mut cm = critic.clone();
            let mut pm = params.clone();
            pm[col] -= eps;
            cm.set_flat_params(&pm);
            let num = (q(&cp, &input) - q(&cm, &input)) / (2.0 * eps);
            assert!((grads.layers[0].d_weights[(0, col)] - num).abs() < 1e-6);
        }
        assert!(q(&critic, &input).is_finite());
    }

    #[test]
    fn critic_training_fits_a_target() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut critic = Mlp::value(&[3, 8, 1], Activation::Relu, &mut rng);
        let mut trainer = MlpTrainer::new(&critic, spikefolio_tensor::optim::Adam::new(1e-2));
        let input = [0.5, -0.3, 0.8];
        let target = 0.042;
        for _ in 0..200 {
            let trace = critic.forward(&input);
            let mut g = critic.backward(&trace, &[trace.action()[0] - target]);
            trainer.apply(&mut critic, &mut g);
        }
        let q = critic.act(&input)[0];
        assert!((q - target).abs() < 1e-3, "critic converged to {q}, wanted {target}");
    }

    #[test]
    fn deterministic_construction_and_inference() {
        let cfg = SdpConfig::smoke();
        let a = DdpgAgent::new(&cfg, 5, 7);
        let b = DdpgAgent::new(&cfg, 5, 7);
        let state = vec![0.1; a.actor.in_dim()];
        assert_eq!(a.act(&state), b.act(&state));
        let action = a.act(&state);
        assert_eq!(a.q_value(&state, &action), b.q_value(&state, &action));
    }

    #[test]
    fn critic_input_dim_is_state_plus_action() {
        let cfg = SdpConfig::smoke();
        let agent = DdpgAgent::new(&cfg, 5, 7);
        assert_eq!(agent.critic.in_dim(), agent.actor.in_dim() + 6);
    }
}
