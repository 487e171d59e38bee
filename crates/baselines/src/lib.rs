//! Classical portfolio-selection baselines of Table 3.
//!
//! The paper compares SDP against five traditional strategies drawn from
//! the online portfolio-selection literature (Li & Hoi's survey taxonomy):
//!
//! | strategy | family | module |
//! |---|---|---|
//! | UCRP | benchmark (uniform constant rebalanced) | [`ucrp`] |
//! | Best Stock | benchmark (best asset in hindsight) | [`best_stock`] |
//! | M0 | follow-the-winner (prediction counts) | [`m0`] |
//! | ANTICOR | follow-the-loser (anti-correlation) | [`anticor`] |
//! | ONS | meta-learning / online convex opt. | [`ons`] |
//!
//! Every strategy implements [`spikefolio_env::Policy`] so the one
//! [`Backtester`](spikefolio_env::Backtester) drives them all — the same
//! engine the SDP and DRL agents run through, keeping Table 3 comparisons
//! apples-to-apples.
//!
//! # Example
//!
//! ```
//! use spikefolio_baselines::Ucrp;
//! use spikefolio_env::{Backtester, BacktestConfig};
//! use spikefolio_market::experiments::ExperimentPreset;
//!
//! let market = ExperimentPreset::experiment1().shrunk(30, 10).generate(7);
//! let result = Backtester::new(BacktestConfig::default()).run(&mut Ucrp::new(), &market);
//! assert!(result.fapv() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anticor;
pub mod best_stock;
pub mod buy_and_hold;
pub mod eg;
pub mod m0;
pub mod olmar;
pub mod ons;
pub mod pamr;
pub mod ucrp;

pub use anticor::Anticor;
pub use best_stock::BestStock;
pub use buy_and_hold::BuyAndHold;
pub use eg::Eg;
pub use m0::M0;
pub use olmar::Olmar;
pub use ons::Ons;
pub use pamr::Pamr;
pub use ucrp::Ucrp;

use spikefolio_env::Policy;

/// Compact roster for the scenario stress matrix: one representative per
/// survey family (meta-learning ONS, follow-the-loser ANTICOR, benchmark
/// UCRP) plus buy-and-hold as the zero-turnover control — small enough
/// that the full (universe × scenario) matrix stays fast, broad enough
/// that every family is scored under stress.
pub fn scenario_baselines() -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(Ons::new()),
        Box::new(Anticor::new()),
        Box::new(Ucrp::new()),
        Box::new(BuyAndHold::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_roster_is_compact_with_a_zero_turnover_control() {
        let names: Vec<String> = scenario_baselines().iter().map(|p| p.name().to_owned()).collect();
        assert_eq!(names, vec!["ONS", "ANTICOR", "UCRP", "Buy and Hold"]);
    }
}
