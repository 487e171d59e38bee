//! Post-backtest analysis: rolling metrics and CSV export for plotting
//! value curves (the workspace's "figure" data).

use spikefolio_tensor::vector;

/// Rolling Sharpe ratio over windows of `window` periods (per-period
/// units, risk-free 0). Returns one value per full window, stepping one
/// period at a time; empty if the curve is shorter than `window + 1`.
///
/// # Panics
///
/// Panics if `window < 2`.
pub fn rolling_sharpe(values: &[f64], window: usize) -> Vec<f64> {
    assert!(window >= 2, "rolling window must be at least 2");
    if values.len() < window + 1 {
        return Vec::new();
    }
    let returns: Vec<f64> = values.windows(2).map(|w| w[1] / w[0] - 1.0).collect();
    returns
        .windows(window)
        .map(|w| {
            let sd = vector::std_dev(w);
            if sd > 0.0 {
                vector::mean(w) / sd
            } else {
                0.0
            }
        })
        .collect()
}

/// Serializes one or more value curves as CSV (`period,name1,name2,…`),
/// truncating to the shortest curve. This is the input format of the
/// reproduction "figures" (portfolio value over the backtest).
///
/// # Panics
///
/// Panics if `curves` is empty or a curve is empty.
pub fn value_curves_csv(curves: &[(&str, &[f64])]) -> String {
    assert!(!curves.is_empty(), "no curves to export");
    let len = curves.iter().map(|(_, c)| c.len()).min().expect("non-empty");
    assert!(len > 0, "empty curve");
    let mut s = String::from("period");
    for (name, _) in curves {
        s.push(',');
        s.push_str(name);
    }
    s.push('\n');
    for t in 0..len {
        s.push_str(&t.to_string());
        for (_, c) in curves {
            s.push_str(&format!(",{:.10}", c[t]));
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_sharpe_shapes() {
        let values: Vec<f64> = (0..30).map(|i| 1.0 + 0.01 * i as f64).collect();
        let rs = rolling_sharpe(&values, 10);
        assert_eq!(rs.len(), 29 - 10 + 1);
        assert!(rs.iter().all(|&v| v > 0.0), "steadily rising curve → positive sharpe");
        assert!(rolling_sharpe(&values[..5], 10).is_empty());
    }

    #[test]
    #[should_panic(expected = "rolling window")]
    fn rolling_sharpe_rejects_tiny_window() {
        let _ = rolling_sharpe(&[1.0, 1.1, 1.2], 1);
    }

    #[test]
    fn csv_export_is_well_formed() {
        let a = [1.0, 1.1, 1.2];
        let b = [1.0, 0.9, 0.8, 0.7];
        let csv = value_curves_csv(&[("sdp", &a), ("ucrp", &b)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "period,sdp,ucrp");
        assert_eq!(lines.len(), 1 + 3, "truncated to the shortest curve");
        assert!(lines[1].starts_with("0,1.0"));
    }
}
