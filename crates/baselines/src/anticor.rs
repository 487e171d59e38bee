//! ANTICOR: the anti-correlation follow-the-loser strategy of Borodin,
//! El-Yaniv & Gogan (NIPS 2003).

use spikefolio_env::{DecisionContext, Policy};
use spikefolio_tensor::simplex::renormalize;
use spikefolio_tensor::vector::{center, centered_correlation};

/// ANTICOR with window `w`.
///
/// Compares two adjacent windows of log price relatives (`LX1` over
/// `[t−2w+1, t−w]`, `LX2` over `[t−w+1, t]`). Wealth is shifted from asset
/// `i` to asset `j` when `i` outperformed `j` in the recent window but the
/// cross-window correlation `corr(LX1_i, LX2_j)` is positive — betting on
/// mean reversion. The transfer *claim* is
///
/// ```text
/// claim_{i→j} = corr(LX1_i, LX2_j)
///             + max(0, −corr(LX1_i, LX2_i))
///             + max(0, −corr(LX1_j, LX2_j))
/// ```
///
/// and each asset distributes its current weight proportionally to its
/// outgoing claims. In strongly trending (momentum) markets the
/// mean-reversion bet fails — the paper's Table 3 shows ANTICOR collapsing
/// in experiments 2 and 3, a shape our reproduction preserves.
///
/// Each decision takes one `ln` per asset: the object caches the log
/// relatives of the last `2w` periods and extends the cache by one
/// period when a decision at `t` follows one at `t − 1`. Any other `t`
/// rebuilds it from the market, so a new [`Backtester`] run of the same
/// object (which restarts at `t = 2w`, never past the previous run's
/// last `t`) never reads the previous market's relatives. Calling
/// `rebalance` by hand on a different market at the next `t` would.
/// Each window is [`center`]ed once per decision, so every correlation
/// has the bits [`correlation`](spikefolio_tensor::vector::correlation)
/// would give.
///
/// [`Backtester`]: spikefolio_env::Backtester
#[derive(Debug, Clone)]
pub struct Anticor {
    window: usize,
    weights: Vec<f64>,
    /// Log relatives of periods `(t−2w, t]`, period-major: period `s` is
    /// row `s % 2w`, one entry per asset.
    logs: Vec<f64>,
    /// The decision `t` that `logs` ends at.
    logs_t: Option<usize>,
    /// Price relatives of one period (cash first).
    relatives: Vec<f64>,
    /// The two windows, asset-major and centered: row `a` is `LX1_a`,
    /// row `m + a` is `LX2_a`, `w` entries each, minus the row's mean.
    centered: Vec<f64>,
    /// Per row of `centered`: its mean before centering.
    means: Vec<f64>,
    /// Per row of `centered`: the sum of its squares.
    sum_sq: Vec<f64>,
    /// Per asset `a`: `max(0, −corr(LX1_a, LX2_a))`.
    self_penalty: Vec<f64>,
    /// Outgoing claims, row-major `m × m`.
    claims: Vec<f64>,
}

impl Anticor {
    /// ANTICOR with the customary window of 15 periods.
    pub fn new() -> Self {
        Self::with_window(15)
    }

    /// ANTICOR with an explicit window.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`.
    pub fn with_window(window: usize) -> Self {
        assert!(window >= 2, "anticor window must be at least 2");
        Self {
            window,
            weights: Vec::new(),
            logs: Vec::new(),
            logs_t: None,
            relatives: Vec::new(),
            centered: Vec::new(),
            means: Vec::new(),
            sum_sq: Vec::new(),
            self_penalty: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Brings the log cache to the windows ending at `ctx.t`, then fills
    /// `centered`, `means` and `sum_sq` from it.
    fn load_windows(&mut self, ctx: &DecisionContext<'_>) {
        let (m, w, t) = (ctx.num_assets, self.window, ctx.t);
        let span = 2 * w;
        let first = if self.logs_t.is_some_and(|last| last + 1 == t) {
            t
        } else {
            self.logs.clear();
            self.logs.resize(span * m, 0.0);
            t + 1 - span
        };
        for s in first..=t {
            ctx.market.price_relatives_with_cash_into(s, &mut self.relatives);
            let row = &mut self.logs[(s % span) * m..][..m];
            for (l, &y) in row.iter_mut().zip(&self.relatives[1..]) {
                *l = y.ln();
            }
        }
        self.logs_t = Some(t);

        self.centered.resize(2 * m * w, 0.0);
        for k in 0..span {
            let row = &self.logs[((t + 1 - span + k) % span) * m..][..m];
            // Period k of the span is entry k % w of window k / w.
            let (half, kk) = (k / w, k % w);
            for (a, &l) in row.iter().enumerate() {
                self.centered[(half * m + a) * w + kk] = l;
            }
        }
        self.means.clear();
        self.sum_sq.clear();
        for win in self.centered.chunks_exact_mut(w) {
            let (mu, sq) = center(win);
            self.means.push(mu);
            self.sum_sq.push(sq);
        }
    }

    /// Pearson correlation of rows `r1` and `r2` of `centered`.
    fn correlation(&self, r1: usize, r2: usize) -> f64 {
        let w = self.window;
        let (x, y) = (&self.centered[r1 * w..][..w], &self.centered[r2 * w..][..w]);
        centered_correlation(x, y, self.sum_sq[r1], self.sum_sq[r2])
    }
}

impl Default for Anticor {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for Anticor {
    fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64> {
        let m = ctx.num_assets;
        if self.weights.len() != m + 1 {
            // Start uniform over risky assets.
            self.weights = vec![1.0 / m as f64; m + 1];
            self.weights[0] = 0.0;
            renormalize(&mut self.weights);
            self.logs_t = None;
        }
        let w = self.window;
        if ctx.t + 1 < 2 * w {
            return self.weights.clone();
        }
        // Windows: LX1 = (t−2w, t−w], LX2 = (t−w, t].
        self.load_windows(ctx);
        self.self_penalty.clear();
        for a in 0..m {
            let self_a = self.correlation(a, m + a);
            self.self_penalty.push((-self_a).max(0.0));
        }
        let mu2 = &self.means[m..];

        // Outgoing claims per asset pair.
        self.claims.clear();
        self.claims.resize(m * m, 0.0);
        for i in 0..m {
            for j in 0..m {
                if i == j || mu2[i] <= mu2[j] {
                    continue; // only transfer from recent winners to losers
                }
                let c_ij = self.correlation(i, m + j);
                if c_ij <= 0.0 {
                    continue;
                }
                self.claims[i * m + j] = c_ij + self.self_penalty[i] + self.self_penalty[j];
            }
        }

        // Apply proportional transfers on the risky sub-vector.
        let mut new_w = self.weights.clone();
        for (i, row) in self.claims.chunks_exact(m).enumerate() {
            let out_total: f64 = row.iter().sum();
            if out_total <= 0.0 {
                continue;
            }
            let wi = self.weights[i + 1];
            for (j, &c) in row.iter().enumerate() {
                if c > 0.0 {
                    let transfer = wi * c / out_total;
                    new_w[i + 1] -= transfer;
                    new_w[j + 1] += transfer;
                }
            }
        }
        renormalize(&mut new_w);
        self.weights.copy_from_slice(&new_w);
        new_w
    }

    fn warmup_periods(&self) -> usize {
        2 * self.window
    }

    fn name(&self) -> &str {
        "ANTICOR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikefolio_env::Backtester;
    use spikefolio_market::experiments::ExperimentPreset;
    use spikefolio_tensor::simplex::is_on_simplex;

    #[test]
    fn weights_stay_on_simplex() {
        let market = ExperimentPreset::experiment1().shrunk(60, 10).generate(13);
        let r = Backtester::default().run(&mut Anticor::with_window(5), &market);
        for w in &r.weights {
            assert!(is_on_simplex(w, 1e-9));
        }
    }

    #[test]
    fn warmup_covers_two_windows() {
        let a = Anticor::with_window(7);
        assert_eq!(a.warmup_periods(), 14);
    }

    #[test]
    fn transfers_move_weight_between_assets() {
        let market = ExperimentPreset::experiment1().shrunk(80, 20).generate(13);
        let r = Backtester::default().run(&mut Anticor::with_window(5), &market);
        // Over a volatile market, ANTICOR must actually trade.
        assert!(r.turnover > 0.1, "turnover {}", r.turnover);
        // And weights should eventually deviate from uniform.
        let max_dev = r
            .weights
            .iter()
            .map(|w| w[1..].iter().map(|&x| (x - 1.0 / 11.0).abs()).fold(0.0_f64, f64::max))
            .fold(0.0_f64, f64::max);
        assert!(max_dev > 1e-3, "max deviation {max_dev}");
    }

    #[test]
    #[should_panic(expected = "window")]
    fn tiny_window_rejected() {
        let _ = Anticor::with_window(1);
    }
}
