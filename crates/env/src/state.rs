//! State construction: the paper's
//! `state = {w_{t−1}, close, high, low, open}` as a flat feature vector.
//!
//! For each asset and each lag `k < window`, the builder emits the prices of
//! period `t − k` normalized by the asset's latest close — Jiang et al.'s
//! price-tensor normalization, extended with the open price as the paper's
//! state definition requires. Optionally the previous weight vector
//! `w_{t−1}` is appended, giving the policy awareness of transaction costs.

use serde::{Deserialize, Serialize};
use spikefolio_market::MarketData;

/// Configuration of the state feature layout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StateConfig {
    /// Number of trailing periods included (the paper's observation
    /// window).
    pub window: usize,
    /// Include the open price channel (the paper's state lists it; Jiang's
    /// original uses only close/high/low).
    pub include_open: bool,
    /// Append the previous weight vector `w_{t−1}` (length assets + 1).
    pub include_weights: bool,
}

impl Default for StateConfig {
    /// Window of 8 periods with all four OHLC channels and `w_{t−1}`.
    fn default() -> Self {
        Self { window: 8, include_open: true, include_weights: true }
    }
}

impl StateConfig {
    /// Number of price channels per asset-lag (3 or 4).
    pub fn channels(&self) -> usize {
        if self.include_open {
            4
        } else {
            3
        }
    }
}

/// Builds flat state vectors from market data. See the [module docs](self).
///
/// # Example
///
/// ```
/// use spikefolio_env::{StateBuilder, StateConfig};
/// use spikefolio_market::experiments::ExperimentPreset;
///
/// let market = ExperimentPreset::experiment1().shrunk(20, 5).generate(3);
/// let sb = StateBuilder::new(StateConfig::default());
/// let w_prev = vec![1.0 / 12.0; 12];
/// let s = sb.build(&market, sb.min_period(), &w_prev);
/// assert_eq!(s.len(), sb.state_dim(market.num_assets()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateBuilder {
    config: StateConfig,
}

impl StateBuilder {
    /// Creates a builder.
    ///
    /// # Panics
    ///
    /// Panics if `config.window == 0`.
    pub fn new(config: StateConfig) -> Self {
        assert!(config.window > 0, "state window must be positive");
        Self { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &StateConfig {
        &self.config
    }

    /// Dimension of the produced state vector for `num_assets` risky
    /// assets.
    pub fn state_dim(&self, num_assets: usize) -> usize {
        let price_part = num_assets * self.config.window * self.config.channels();
        let weight_part = if self.config.include_weights { num_assets + 1 } else { 0 };
        price_part + weight_part
    }

    /// Earliest period index `t` for which a full window exists.
    pub fn min_period(&self) -> usize {
        self.config.window - 1
    }

    /// Builds the state vector at period `t` (using candles up to and
    /// including `t`) with previous weights `prev_weights`.
    ///
    /// # Panics
    ///
    /// Panics if `t < min_period()`, if `t` is out of range, or if
    /// `prev_weights.len() != num_assets + 1` when weights are included.
    pub fn build(&self, data: &MarketData, t: usize, prev_weights: &[f64]) -> Vec<f64> {
        let mut state = Vec::with_capacity(self.state_dim(data.num_assets()));
        self.build_into(data, t, prev_weights, &mut state);
        state
    }

    /// [`build`](Self::build) into `state`, which is cleared first.
    ///
    /// # Panics
    ///
    /// As [`build`](Self::build).
    pub fn build_into(
        &self,
        data: &MarketData,
        t: usize,
        prev_weights: &[f64],
        state: &mut Vec<f64>,
    ) {
        assert!(t >= self.min_period(), "period {t} has no full window");
        assert!(t < data.num_periods(), "period {t} out of range");
        let n = data.num_assets();
        state.clear();
        for a in 0..n {
            let latest_close = data.close(t, a);
            for k in 0..self.config.window {
                let c = data.candle(t - k, a);
                state.push(c.close / latest_close);
                state.push(c.high / latest_close);
                state.push(c.low / latest_close);
                if self.config.include_open {
                    state.push(c.open / latest_close);
                }
            }
        }
        if self.config.include_weights {
            assert_eq!(prev_weights.len(), n + 1, "prev_weights must have length num_assets + 1");
            state.extend_from_slice(prev_weights);
        }
    }

    /// Builds the state vector from a raw OHLC window instead of a full
    /// [`MarketData`] — the serving path, where a caller ships exactly the
    /// candles the policy needs. `candles` holds `window × num_assets`
    /// entries in row-major period order, oldest period first, so
    /// `candles[p * num_assets + a]` is asset `a` at the `p`-th oldest
    /// period; the last row is "now". Produces bitwise the same vector as
    /// [`build`](Self::build) over the matching slice of market data.
    ///
    /// # Errors
    ///
    /// Returns a message if the candle count does not equal
    /// `window * num_assets`, if `num_assets == 0`, or if
    /// `prev_weights.len() != num_assets + 1` when weights are included.
    pub fn build_from_window(
        &self,
        candles: &[spikefolio_market::Candle],
        num_assets: usize,
        prev_weights: &[f64],
    ) -> Result<Vec<f64>, String> {
        if num_assets == 0 {
            return Err("window must cover at least one asset".to_string());
        }
        let expected = self.config.window * num_assets;
        if candles.len() != expected {
            return Err(format!(
                "window carries {} candles, expected {} ({} periods x {} assets)",
                candles.len(),
                expected,
                self.config.window,
                num_assets
            ));
        }
        if self.config.include_weights && prev_weights.len() != num_assets + 1 {
            return Err(format!(
                "prev_weights has length {}, expected num_assets + 1 = {}",
                prev_weights.len(),
                num_assets + 1
            ));
        }
        let last = self.config.window - 1;
        let mut state = Vec::with_capacity(self.state_dim(num_assets));
        for a in 0..num_assets {
            let latest_close = candles[last * num_assets + a].close;
            for k in 0..self.config.window {
                let c = &candles[(last - k) * num_assets + a];
                state.push(c.close / latest_close);
                state.push(c.high / latest_close);
                state.push(c.low / latest_close);
                if self.config.include_open {
                    state.push(c.open / latest_close);
                }
            }
        }
        if self.config.include_weights {
            state.extend_from_slice(prev_weights);
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikefolio_market::experiments::ExperimentPreset;

    fn market() -> MarketData {
        ExperimentPreset::experiment1().shrunk(20, 5).generate(9)
    }

    #[test]
    fn state_dim_formula() {
        let sb =
            StateBuilder::new(StateConfig { window: 5, include_open: true, include_weights: true });
        assert_eq!(sb.state_dim(11), 11 * 5 * 4 + 12);
        let sb2 = StateBuilder::new(StateConfig {
            window: 3,
            include_open: false,
            include_weights: false,
        });
        assert_eq!(sb2.state_dim(11), 11 * 3 * 3);
    }

    #[test]
    fn built_state_has_declared_dim() {
        let m = market();
        for cfg in [
            StateConfig::default(),
            StateConfig { window: 3, include_open: false, include_weights: false },
            StateConfig { window: 1, include_open: true, include_weights: true },
        ] {
            let sb = StateBuilder::new(cfg);
            let w = vec![1.0 / 12.0; 12];
            let s = sb.build(&m, sb.min_period(), &w);
            assert_eq!(s.len(), sb.state_dim(m.num_assets()));
        }
    }

    #[test]
    fn latest_close_normalizes_to_one() {
        let m = market();
        let sb = StateBuilder::new(StateConfig {
            window: 4,
            include_open: true,
            include_weights: false,
        });
        let s = sb.build(&m, 10, &[]);
        let channels = 4;
        // The first entry of each asset block is close(t)/close(t) = 1.
        for a in 0..m.num_assets() {
            let base = a * sb.config().window * channels;
            assert!((s[base] - 1.0).abs() < 1e-12, "asset {a}");
        }
    }

    #[test]
    fn weights_are_appended_verbatim() {
        let m = market();
        let sb = StateBuilder::new(StateConfig {
            window: 2,
            include_open: false,
            include_weights: true,
        });
        let mut w = vec![0.0; 12];
        w[0] = 0.25;
        w[5] = 0.75;
        let s = sb.build(&m, 5, &w);
        assert_eq!(&s[s.len() - 12..], w.as_slice());
    }

    #[test]
    fn features_are_positive_and_finite() {
        let m = market();
        let sb = StateBuilder::new(StateConfig::default());
        let w = vec![1.0 / 12.0; 12];
        for t in sb.min_period()..m.num_periods() {
            let s = sb.build(&m, t, &w);
            assert!(s.iter().all(|&v| v.is_finite() && v >= 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "no full window")]
    fn rejects_early_periods() {
        let m = market();
        let sb = StateBuilder::new(StateConfig::default());
        let w = vec![1.0 / 12.0; 12];
        let _ = sb.build(&m, sb.min_period() - 1, &w);
    }

    #[test]
    fn window_build_matches_market_build_bitwise() {
        let m = market();
        for cfg in [
            StateConfig::default(),
            StateConfig { window: 3, include_open: false, include_weights: false },
            StateConfig { window: 1, include_open: true, include_weights: true },
        ] {
            let sb = StateBuilder::new(cfg);
            let n = m.num_assets();
            let w: Vec<f64> =
                (0..=n).map(|i| (i + 1) as f64 / ((n + 2) * (n + 1) / 2) as f64).collect();
            for t in [sb.min_period(), m.num_periods() - 1] {
                // Flatten the trailing window, oldest period first.
                let mut candles = Vec::new();
                for p in (t + 1 - cfg.window)..=t {
                    for a in 0..n {
                        candles.push(m.candle(p, a));
                    }
                }
                let from_window = sb.build_from_window(&candles, n, &w).expect("valid window");
                let from_market = sb.build(&m, t, &w);
                assert_eq!(from_window.len(), from_market.len());
                for (x, y) in from_window.iter().zip(&from_market) {
                    assert_eq!(x.to_bits(), y.to_bits(), "cfg {cfg:?} t {t}");
                }
            }
        }
    }

    #[test]
    fn window_build_rejects_bad_shapes() {
        let m = market();
        let sb = StateBuilder::new(StateConfig::default());
        let n = m.num_assets();
        let w = vec![1.0 / (n + 1) as f64; n + 1];
        let mut candles = Vec::new();
        for p in 0..sb.config().window {
            for a in 0..n {
                candles.push(m.candle(p, a));
            }
        }
        // Wrong candle count.
        assert!(sb.build_from_window(&candles[1..], n, &w).is_err());
        // Zero assets.
        assert!(sb.build_from_window(&[], 0, &[]).is_err());
        // Wrong weight length.
        assert!(sb.build_from_window(&candles, n, &w[1..]).is_err());
    }

    #[test]
    fn high_channel_dominates_low_channel() {
        let m = market();
        let sb = StateBuilder::new(StateConfig {
            window: 6,
            include_open: true,
            include_weights: false,
        });
        let s = sb.build(&m, 12, &[]);
        // Layout per lag: [close, high, low, open].
        for chunk in s.chunks_exact(4) {
            assert!(chunk[1] >= chunk[2], "high {} < low {}", chunk[1], chunk[2]);
        }
    }
}
