//! Portfolio-management environment for `spikefolio`.
//!
//! This crate implements the decision process of §II.A of the paper:
//! portfolio weight dynamics, the transaction-cost shrink factor `μ_t`, the
//! backtesting engine, and the three performance metrics of §III.A (fAPV,
//! Sharpe ratio, maximum drawdown) plus a few extras. The eq. (1)
//! average-log-return reward and its gradient live with the trainer
//! (`spikefolio::training`).
//!
//! The central abstraction is the [`Policy`] trait: anything that maps
//! market history to a weight vector on the simplex — the SDP agent, the
//! DRL baseline, or the classical strategies — can be driven by
//! [`Backtester`].
//!
//! # Example
//!
//! ```
//! use spikefolio_env::{Backtester, BacktestConfig, Policy, DecisionContext};
//! use spikefolio_market::experiments::ExperimentPreset;
//!
//! struct Uniform;
//! impl Policy for Uniform {
//!     fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64> {
//!         spikefolio_tensor::uniform_simplex(ctx.num_assets + 1)
//!     }
//! }
//!
//! let market = ExperimentPreset::experiment1().shrunk(30, 10).generate(1);
//! let result = Backtester::new(BacktestConfig::default()).run(&mut Uniform, &market);
//! assert!(result.metrics.fapv > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod backtest;
pub mod costs;
pub mod metrics;
pub mod portfolio;
pub mod state;

pub use backtest::{BacktestConfig, BacktestResult, Backtester, DecisionContext, Policy};
pub use costs::CostModel;
pub use metrics::Metrics;
pub use portfolio::PortfolioState;
pub use state::{StateBuilder, StateConfig};
