//! Backtesting engine: drives any [`Policy`] over a market and reports
//! metrics, value curves, and weight histories.

use crate::costs::CostModel;
use crate::metrics::Metrics;
use crate::portfolio::PortfolioState;
use serde::{Deserialize, Serialize};
use spikefolio_market::MarketData;
use spikefolio_telemetry::{labels, NoopRecorder, Record, Recorder, Stopwatch};
use spikefolio_tensor::simplex;

/// Everything a policy may inspect when deciding the next weight vector.
#[derive(Debug)]
pub struct DecisionContext<'a> {
    /// The full market dataset being traded.
    pub market: &'a MarketData,
    /// Current period index; candles up to and including `t` are known.
    pub t: usize,
    /// Number of risky assets (`M`); weight vectors are `M + 1` long.
    pub num_assets: usize,
    /// Current *drifted* portfolio weights `w'_t` (cash first).
    pub prev_weights: &'a [f64],
}

/// A portfolio policy: given history up to `t`, produce the target weight
/// vector for the next period.
///
/// Implementors must return a vector of length `num_assets + 1` (cash
/// first). The backtester defensively renormalizes the result onto the
/// simplex, but policies should aim to return valid weights themselves.
pub trait Policy {
    /// Decide target weights from the decision context.
    fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64>;

    /// Optional warm-up: periods at the start of the data the policy needs
    /// before its first real decision (e.g. an observation window). During
    /// warm-up the backtester holds cash.
    fn warmup_periods(&self) -> usize {
        0
    }

    /// Display name used in reports.
    fn name(&self) -> &str {
        "policy"
    }
}

/// Backtest configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BacktestConfig {
    /// Transaction-cost model applied at every rebalance.
    pub costs: CostModel,
    /// Per-period risk-free return used in the Sharpe ratio (eq. 16).
    pub risk_free_per_period: f64,
}

impl Default for BacktestConfig {
    fn default() -> Self {
        Self { costs: CostModel::default(), risk_free_per_period: 0.0 }
    }
}

/// Outcome of a backtest run.
#[derive(Debug, Clone, PartialEq)]
pub struct BacktestResult {
    /// Policy display name.
    pub policy_name: String,
    /// Portfolio value curve; `values[0] = 1.0`, one entry per traded
    /// period plus the start.
    pub values: Vec<f64>,
    /// Weight vector chosen at each decision step.
    pub weights: Vec<Vec<f64>>,
    /// Per-period log returns (the summands of eq. 1).
    pub log_returns: Vec<f64>,
    /// Total one-way turnover `Σ_t Σ_i |w_t,i − w'_t,i|`.
    pub turnover: f64,
    /// Value fraction `1 − μ_t` paid to transaction costs at each step.
    pub costs_paid: Vec<f64>,
    /// Metric bundle over the value curve.
    pub metrics: Metrics,
}

impl BacktestResult {
    /// Final accumulated portfolio value (eq. 15).
    pub fn fapv(&self) -> f64 {
        self.metrics.fapv
    }

    /// Total cost drag: the fraction of final value lost to transaction
    /// costs over the whole run, `1 − Π_t μ_t`. Zero when every rebalance
    /// was free.
    pub fn cost_drag(&self) -> f64 {
        1.0 - self.costs_paid.iter().map(|c| 1.0 - c).product::<f64>()
    }
}

/// Drives policies over market data. See the [crate docs](crate) for an
/// end-to-end example.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Backtester {
    config: BacktestConfig,
}

impl Backtester {
    /// Creates a backtester with the given configuration.
    pub fn new(config: BacktestConfig) -> Self {
        Self { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &BacktestConfig {
        &self.config
    }

    /// Runs `policy` over every period of `market`.
    ///
    /// At each period `t` from `policy.warmup_periods()` to the
    /// second-to-last period, the policy sees candles up to `t` and chooses
    /// weights that are then exposed to the price move of period `t + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the market has fewer than `warmup + 2` periods.
    pub fn run(&self, policy: &mut dyn Policy, market: &MarketData) -> BacktestResult {
        self.run_recorded(policy, market, &mut NoopRecorder)
    }

    /// [`run`](Self::run) with telemetry: when `rec` is enabled, each
    /// decision step emits a `"backtest_step"` record (period, portfolio
    /// value, one-way turnover of the step, cost fraction paid) under a
    /// `backtest/step` span, and the run closes with one `"backtest_end"`
    /// record. Recording is observe-only — the returned
    /// [`BacktestResult`] is identical with any recorder.
    ///
    /// # Panics
    ///
    /// Panics if the market has fewer than `warmup + 2` periods.
    pub fn run_recorded(
        &self,
        policy: &mut dyn Policy,
        market: &MarketData,
        rec: &mut dyn Recorder,
    ) -> BacktestResult {
        let warmup = policy.warmup_periods();
        let n_periods = market.num_periods();
        assert!(
            n_periods >= warmup + 2,
            "market has {n_periods} periods; need at least {} for warmup + one trade",
            warmup + 2
        );
        let n = market.num_assets();
        let mut portfolio = PortfolioState::new(n + 1);
        let mut values = vec![1.0];
        let mut weights_hist = Vec::new();
        let mut log_returns = Vec::new();
        let mut turnover = 0.0;
        let mut costs_paid = Vec::new();
        // Volume-dependent models read per-leg liquidity; the others get
        // an empty slice (typical liquidity) and skip the volume scan.
        let volume_sensitive = matches!(self.config.costs, CostModel::Frictional { .. });
        let mut liquidity: Vec<f64> = Vec::new();

        for t in warmup..n_periods - 1 {
            let step_watch = Stopwatch::start(rec);
            let mut target = {
                let ctx =
                    DecisionContext { market, t, num_assets: n, prev_weights: portfolio.weights() };
                policy.rebalance(&ctx)
            };
            assert_eq!(
                target.len(),
                n + 1,
                "policy {} returned {} weights, expected {}",
                policy.name(),
                target.len(),
                n + 1
            );
            simplex::renormalize(&mut target);
            let step_turnover =
                spikefolio_tensor::vector::l1_distance(&target, portfolio.weights());
            turnover += step_turnover;
            if volume_sensitive {
                liquidity = relative_liquidity(market, t);
            }
            let y = market.price_relatives_with_cash(t + 1);
            let r = portfolio.step_with_liquidity(&target, &y, &self.config.costs, &liquidity);
            values.push(portfolio.value());
            log_returns.push(r);
            costs_paid.push(1.0 - portfolio.last_shrink_factor());
            weights_hist.push(target);
            step_watch.stop(rec, labels::SPAN_BACKTEST_STEP);
            if rec.enabled() {
                rec.emit(
                    Record::new("backtest_step")
                        .field("t", t as u64)
                        .field("value", portfolio.value())
                        .field("log_return", r)
                        .field("turnover", step_turnover)
                        .field("cost", 1.0 - portfolio.last_shrink_factor()),
                );
            }
        }

        let metrics = Metrics::from_values(
            &values,
            market.periods_per_year(),
            self.config.risk_free_per_period,
        );
        let result = BacktestResult {
            policy_name: policy.name().to_owned(),
            values,
            weights: weights_hist,
            log_returns,
            turnover,
            costs_paid,
            metrics,
        };
        if rec.enabled() {
            rec.emit(
                Record::new("backtest_end")
                    .field("policy", result.policy_name.as_str())
                    .field("steps", result.log_returns.len() as u64)
                    .field("final_value", result.fapv())
                    .field("turnover", result.turnover)
                    .field("cost_drag", result.cost_drag()),
            );
        }
        result
    }
}

/// Per-leg relative liquidity at period `t`: the period's traded volume
/// over its trailing-window average (window `LIQUIDITY_WINDOW`), clamped
/// to `[0.05, 20]` so a single torn print can't zero out the book.
fn relative_liquidity(market: &MarketData, t: usize) -> Vec<f64> {
    const LIQUIDITY_WINDOW: usize = 20;
    let window = LIQUIDITY_WINDOW.min(t + 1);
    (0..market.num_assets())
        .map(|a| {
            let avg = market.trailing_volume(t, a, window) / window as f64;
            if avg <= 0.0 {
                1.0
            } else {
                (market.candle(t, a).volume / avg).clamp(0.05, 20.0)
            }
        })
        .collect()
}

/// Always-cash policy (useful as a control and for warm-up accounting).
#[derive(Debug, Clone, Copy, Default)]
pub struct HoldCash;

impl Policy for HoldCash {
    fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64> {
        let mut w = vec![0.0; ctx.num_assets + 1];
        w[0] = 1.0;
        w
    }

    fn name(&self) -> &str {
        "HoldCash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikefolio_market::experiments::ExperimentPreset;
    use spikefolio_tensor::uniform_simplex;

    struct Uniform;
    impl Policy for Uniform {
        fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64> {
            uniform_simplex(ctx.num_assets + 1)
        }
        fn name(&self) -> &str {
            "Uniform"
        }
    }

    struct BadWeights;
    impl Policy for BadWeights {
        fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64> {
            vec![-3.0; ctx.num_assets + 1] // invalid on purpose
        }
    }

    fn market() -> MarketData {
        ExperimentPreset::experiment1().shrunk(30, 0).generate(21)
    }

    #[test]
    fn hold_cash_preserves_value_exactly() {
        let m = market();
        let r = Backtester::default().run(&mut HoldCash, &m);
        assert!(r.values.iter().all(|&v| (v - 1.0).abs() < 1e-12));
        assert_eq!(r.metrics.fapv, 1.0);
        assert_eq!(r.turnover, 0.0);
    }

    #[test]
    fn value_curve_length_matches_trades() {
        let m = market();
        let r = Backtester::default().run(&mut Uniform, &m);
        assert_eq!(r.values.len(), m.num_periods()); // warmup 0: periods-1 trades + start
        assert_eq!(r.log_returns.len(), r.values.len() - 1);
        assert_eq!(r.weights.len(), r.log_returns.len());
    }

    #[test]
    fn log_returns_reconstruct_value_curve() {
        let m = market();
        let r = Backtester::default().run(&mut Uniform, &m);
        let total: f64 = r.log_returns.iter().sum();
        assert!((total.exp() - r.fapv()).abs() / r.fapv() < 1e-9);
    }

    #[test]
    fn invalid_policy_weights_are_renormalized() {
        let m = market();
        let r = Backtester::default().run(&mut BadWeights, &m);
        for w in &r.weights {
            assert!(spikefolio_tensor::simplex::is_on_simplex(w, 1e-9));
        }
    }

    #[test]
    fn warmup_holds_cash() {
        struct LateUniform;
        impl Policy for LateUniform {
            fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64> {
                assert!(ctx.t >= 10, "called during warmup at t={}", ctx.t);
                uniform_simplex(ctx.num_assets + 1)
            }
            fn warmup_periods(&self) -> usize {
                10
            }
        }
        let m = market();
        let r = Backtester::default().run(&mut LateUniform, &m);
        assert_eq!(r.values.len(), m.num_periods() - 10);
    }

    #[test]
    fn costs_reduce_fapv_for_high_turnover_policy() {
        struct Flipper(bool);
        impl Policy for Flipper {
            fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64> {
                self.0 = !self.0;
                let mut w = vec![0.0; ctx.num_assets + 1];
                if self.0 {
                    w[1] = 1.0
                } else {
                    w[2] = 1.0
                }
                w
            }
        }
        let m = market();
        let free =
            Backtester::new(BacktestConfig { costs: CostModel::Free, risk_free_per_period: 0.0 })
                .run(&mut Flipper(false), &m);
        let paid = Backtester::new(BacktestConfig {
            costs: CostModel::Proportional { rate: 0.0025 },
            risk_free_per_period: 0.0,
        })
        .run(&mut Flipper(false), &m);
        assert!(paid.fapv() < free.fapv());
        assert!(paid.turnover > 1.0);
    }

    #[test]
    fn cost_drag_is_positive_for_rebalancers_and_zero_when_free() {
        let m = market();
        let paid = Backtester::default().run(&mut Uniform, &m);
        assert!(paid.cost_drag() > 0.0, "uniform rebalancing paid no costs");
        assert_eq!(paid.costs_paid.len(), paid.log_returns.len());
        let free =
            Backtester::new(BacktestConfig { costs: CostModel::Free, risk_free_per_period: 0.0 })
                .run(&mut Uniform, &m);
        assert_eq!(free.cost_drag(), 0.0);
        let idle = Backtester::default().run(&mut HoldCash, &m);
        assert_eq!(idle.cost_drag(), 0.0, "holding cash paid costs");
    }

    #[test]
    fn frictional_costs_exceed_bare_commission_costs() {
        let m = market();
        let comm = Backtester::new(BacktestConfig {
            costs: CostModel::Proportional { rate: 0.0025 },
            risk_free_per_period: 0.0,
        })
        .run(&mut Uniform, &m);
        let frict = Backtester::new(BacktestConfig {
            costs: CostModel::realistic_frictions(),
            risk_free_per_period: 0.0,
        })
        .run(&mut Uniform, &m);
        assert!(
            frict.cost_drag() > comm.cost_drag(),
            "frictions {} not dearer than commission {}",
            frict.cost_drag(),
            comm.cost_drag()
        );
        assert!(frict.fapv() < comm.fapv());
    }

    #[test]
    fn recorded_run_is_identical_and_logs_every_step() {
        let m = market();
        let plain = Backtester::default().run(&mut Uniform, &m);
        let mut rec = spikefolio_telemetry::MemoryRecorder::new();
        let recorded = Backtester::default().run_recorded(&mut Uniform, &m, &mut rec);
        // Observe-only contract: the result is bitwise identical.
        assert_eq!(plain, recorded);
        // One backtest_step record per trade, plus the backtest_end.
        assert_eq!(rec.records().len(), plain.log_returns.len() + 1);
        let end = rec.records().last().unwrap();
        assert_eq!(
            end.get("steps").and_then(spikefolio_telemetry::Value::as_u64),
            Some(plain.log_returns.len() as u64)
        );
        let (_, n) = rec.span_total(labels::SPAN_BACKTEST_STEP);
        assert_eq!(n as usize, plain.log_returns.len());
    }

    #[test]
    #[should_panic(expected = "periods")]
    fn rejects_too_short_market() {
        let m = market().slice(0, 1);
        let _ = Backtester::default().run(&mut HoldCash, &m);
    }
}
