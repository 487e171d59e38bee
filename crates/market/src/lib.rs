//! Synthetic cryptocurrency market substrate for `spikefolio`.
//!
//! The paper evaluates on Poloniex OHLC data for the 11 highest-volume
//! cryptocurrencies over 2016–2021 (Table 1). That dataset is proprietary to
//! the exchange and not available offline, so this crate generates a
//! *statistically faithful* substitute: a seeded, deterministic
//! regime-switching market with
//!
//! * a common market factor plus per-asset idiosyncratic noise (crypto
//!   assets are strongly but not perfectly correlated),
//! * heavy-tailed (Student-t) shocks and Poisson jumps,
//! * regime eras calibrated to the 2016–2021 crypto cycles (2017 mania,
//!   2018 bear, COVID crash of March 2020, 2020–21 bull, May 2021
//!   correction), and
//! * OHLC candles synthesized from intra-period sub-steps so that
//!   `low ≤ open, close ≤ high` holds by construction.
//!
//! The entry point is [`experiments::ExperimentPreset`], which reproduces the
//! three train/backtest splits of Table 1, or [`generator::MarketGenerator`]
//! for custom scenarios.
//!
//! # Example
//!
//! ```
//! use spikefolio_market::experiments::ExperimentPreset;
//!
//! let preset = ExperimentPreset::experiment1();
//! let market = preset.generate(42);
//! assert_eq!(market.num_assets(), 11);
//! let (train, test) = market.split_at_date(preset.backtest_start);
//! assert!(train.num_periods() > test.num_periods());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod calibration;
pub mod candle;
pub mod data;
pub mod experiments;
pub mod generator;
pub mod io;
pub mod regime;
pub mod sanitize;
pub mod stats;
pub mod tail;
pub mod time;

pub use calibration::{MarketClass, UniverseGrid, UniverseSpec};
pub use candle::Candle;
pub use data::MarketData;
pub use generator::{AssetSpec, FactorBlock, FactorScale, GeneratorConfig, MarketGenerator};
pub use regime::{Regime, RegimeParams};
pub use sanitize::{sanitize_market, RepairPolicy, SanitizeConfig, SanitizeReport};
pub use tail::{CsvTail, CsvTailReader, TailError, TailWarning};
pub use time::Date;
