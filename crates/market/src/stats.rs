//! Statistical diagnostics of market data.
//!
//! DESIGN.md argues the synthetic generator preserves the *statistical
//! character* of the paper's crypto data — trending regimes, fat tails,
//! strong cross-correlation, volatility clustering. This module measures
//! those properties, and the test suite asserts the generator actually
//! exhibits them (the validation of the data substitution).

use crate::data::MarketData;
use spikefolio_tensor::vector::{correlation, mean, std_dev};

/// Log returns of one asset over the whole dataset.
pub fn log_returns(data: &MarketData, asset: usize) -> Vec<f64> {
    (1..data.num_periods()).map(|t| data.log_return(t, asset)).collect()
}

/// Excess kurtosis of a sample (0 for a Gaussian; positive = fat tails).
/// Returns 0.0 for samples shorter than 4 or with zero variance.
pub fn excess_kurtosis(sample: &[f64]) -> f64 {
    if sample.len() < 4 {
        return 0.0;
    }
    let m = mean(sample);
    let n = sample.len() as f64;
    let m2 = sample.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n;
    if m2 <= 0.0 {
        return 0.0;
    }
    let m4 = sample.iter().map(|x| (x - m).powi(4)).sum::<f64>() / n;
    m4 / (m2 * m2) - 3.0
}

/// Annualized realized volatility of an asset's log returns.
pub fn realized_volatility(data: &MarketData, asset: usize) -> f64 {
    std_dev(&log_returns(data, asset)) * data.periods_per_year().sqrt()
}

/// Mean pairwise correlation of log returns across all asset pairs.
fn mean_cross_correlation(data: &MarketData) -> f64 {
    let n = data.num_assets();
    if n < 2 {
        return 1.0;
    }
    let returns: Vec<Vec<f64>> = (0..n).map(|a| log_returns(data, a)).collect();
    let mut sum = 0.0;
    let mut count = 0;
    for i in 0..n {
        for j in i + 1..n {
            sum += correlation(&returns[i], &returns[j]);
            count += 1;
        }
    }
    sum / count as f64
}

/// Lag-`k` autocorrelation of *absolute* log returns — the standard
/// volatility-clustering diagnostic (positive for clustered volatility).
pub fn abs_return_autocorrelation(data: &MarketData, asset: usize, lag: usize) -> f64 {
    let abs: Vec<f64> = log_returns(data, asset).iter().map(|r| r.abs()).collect();
    if abs.len() <= lag + 2 {
        return 0.0;
    }
    correlation(&abs[..abs.len() - lag], &abs[lag..])
}

/// Summary bundle for quick inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketStats {
    /// Per-asset annualized volatility.
    pub annual_volatility: Vec<f64>,
    /// Per-asset excess kurtosis of log returns.
    pub excess_kurtosis: Vec<f64>,
    /// Mean pairwise return correlation.
    pub mean_correlation: f64,
    /// Mean per-asset lag-1 |return| autocorrelation.
    pub mean_vol_clustering: f64,
}

/// Computes the summary bundle.
pub fn market_stats(data: &MarketData) -> MarketStats {
    let n = data.num_assets();
    let annual_volatility = (0..n).map(|a| realized_volatility(data, a)).collect();
    let excess_kurtosis_v = (0..n).map(|a| excess_kurtosis(&log_returns(data, a))).collect();
    let clustering = (0..n).map(|a| abs_return_autocorrelation(data, a, 1)).sum::<f64>() / n as f64;
    MarketStats {
        annual_volatility,
        excess_kurtosis: excess_kurtosis_v,
        mean_correlation: mean_cross_correlation(data),
        mean_vol_clustering: clustering,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::experiments::ExperimentPreset;

    fn market() -> MarketData {
        // A long window spanning several regimes.
        ExperimentPreset::experiment2().shrunk(400, 100).generate(77)
    }

    #[test]
    fn kurtosis_of_gaussianish_vs_fat_sample() {
        // Uniform sample: negative excess kurtosis (−1.2 exactly in the limit).
        let uniform: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64 / 100.0).collect();
        assert!(excess_kurtosis(&uniform) < -0.5);
        // Two-point heavy-tail mixture: strongly positive.
        let mut fat = vec![0.0; 1000];
        fat[0] = 50.0;
        fat[1] = -50.0;
        assert!(excess_kurtosis(&fat) > 10.0);
        // Degenerate cases.
        assert_eq!(excess_kurtosis(&[1.0, 1.0, 1.0, 1.0]), 0.0);
        assert_eq!(excess_kurtosis(&[1.0]), 0.0);
    }

    #[test]
    fn generated_returns_are_fat_tailed() {
        let d = market();
        let stats = market_stats(&d);
        let fat = stats.excess_kurtosis.iter().filter(|&&k| k > 0.5).count();
        assert!(
            fat >= d.num_assets() / 2,
            "only {fat}/{} assets show fat tails: {:?}",
            d.num_assets(),
            stats.excess_kurtosis
        );
    }

    #[test]
    fn generated_assets_are_positively_correlated() {
        // The common market factor must induce clear positive comovement —
        // the defining feature of the crypto cross-section.
        let stats = market_stats(&market());
        assert!(
            stats.mean_correlation > 0.2,
            "mean pairwise correlation only {}",
            stats.mean_correlation
        );
        assert!(stats.mean_correlation < 0.98, "assets must not be identical");
    }

    #[test]
    fn generated_volatility_is_crypto_scale() {
        // Crypto-like: tens of percent to a few hundred percent annualized.
        let stats = market_stats(&market());
        for (i, &v) in stats.annual_volatility.iter().enumerate() {
            assert!((0.2..5.0).contains(&v), "asset {i} annual vol {v}");
        }
    }

    #[test]
    fn regime_switching_induces_volatility_clustering() {
        let stats = market_stats(&market());
        assert!(
            stats.mean_vol_clustering > 0.0,
            "no volatility clustering: {}",
            stats.mean_vol_clustering
        );
    }

    #[test]
    fn autocorrelation_degenerate_cases() {
        let d = ExperimentPreset::experiment1().shrunk(3, 0).generate(1);
        // Short series → 0 by definition.
        assert_eq!(abs_return_autocorrelation(&d, 0, 50), 0.0);
    }
}
