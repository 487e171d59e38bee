//! Property tests spanning crates: every policy in the workspace must
//! maintain portfolio invariants on arbitrary generated markets.

use proptest::prelude::*;
use spikefolio::agent::SdpAgent;
use spikefolio::config::SdpConfig;
use spikefolio::drl::DrlAgent;
use spikefolio_baselines::{Anticor, BestStock, BuyAndHold, Ons, Ucrp, M0};
use spikefolio_env::backtest::HoldCash;
use spikefolio_env::{BacktestConfig, BacktestResult, Backtester, CostModel, Policy};
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_market::{MarketData, UniverseGrid, UniverseSpec};
use spikefolio_scenario::Scenario;

fn market_for(seed: u64, days: i64) -> MarketData {
    ExperimentPreset::experiment1().shrunk(days, 0).generate(seed)
}

fn policies() -> Vec<Box<dyn Policy>> {
    let cfg = SdpConfig::smoke();
    vec![
        Box::new(Ons::new()),
        Box::new(BestStock::new()),
        Box::new(Anticor::with_window(4)),
        Box::new(M0::new()),
        Box::new(Ucrp::new()),
        Box::new(BuyAndHold::new()),
        Box::new(HoldCash),
        Box::new(SdpAgent::new(&cfg, 11, 5)),
        Box::new(DrlAgent::new(&cfg, 11, 5)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_policy_keeps_portfolio_invariants(seed in 0u64..1000) {
        let market = market_for(seed, 25);
        for mut policy in policies() {
            let r = Backtester::new(BacktestConfig {
                costs: CostModel::Proportional { rate: 0.0025 },
                risk_free_per_period: 0.0,
            })
            .run(policy.as_mut(), &market);
            // Value curve strictly positive and finite.
            prop_assert!(r.values.iter().all(|&v| v > 0.0 && v.is_finite()),
                "{} produced a bad value curve", r.policy_name);
            // All weights on the simplex.
            for w in &r.weights {
                prop_assert!(spikefolio_tensor::simplex::is_on_simplex(w, 1e-6),
                    "{} left the simplex: {w:?}", r.policy_name);
            }
            // Metrics well-formed.
            prop_assert!((0.0..1.0).contains(&r.metrics.mdd));
            prop_assert!(r.metrics.fapv > 0.0);
            prop_assert!(r.metrics.sharpe.is_finite());
            prop_assert!(r.turnover >= 0.0);
        }
    }

    #[test]
    fn costs_never_help(seed in 0u64..200) {
        // For any deterministic policy, adding transaction costs cannot
        // increase the final value. (Run the high-turnover UCRP.)
        let market = market_for(seed, 20);
        let free = Backtester::new(BacktestConfig { costs: CostModel::Free, risk_free_per_period: 0.0 })
            .run(&mut Ucrp::new(), &market);
        let paid = Backtester::new(BacktestConfig {
            costs: CostModel::Iterative { buy: 0.0025, sell: 0.0025 },
            risk_free_per_period: 0.0,
        })
        .run(&mut Ucrp::new(), &market);
        prop_assert!(paid.fapv() <= free.fapv() + 1e-12);
    }

    #[test]
    fn hold_cash_is_exactly_flat(seed in 0u64..200) {
        let market = market_for(seed, 15);
        let r = Backtester::default().run(&mut HoldCash, &market);
        prop_assert!(r.values.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }
}

/// CRC-32 over the little-endian bytes of every weight's `to_bits()`, in
/// run order, decision order and asset order.
fn weights_crc(runs: &[BacktestResult]) -> u32 {
    let bytes: Vec<u8> = runs
        .iter()
        .flat_map(|r| r.weights.iter().flatten())
        .flat_map(|w| w.to_bits().to_le_bytes())
        .collect();
    spikefolio_resilience::crc32(&bytes)
}

fn frictional_backtester() -> Backtester {
    Backtester::new(BacktestConfig {
        costs: CostModel::realistic_frictions(),
        risk_free_per_period: 0.0,
    })
}

/// The smoke grid's test window of every standard universe under every
/// scenario, universe-major.
fn stressed_test_windows() -> Vec<MarketData> {
    UniverseSpec::standard_set(UniverseGrid::smoke())
        .iter()
        .flat_map(|spec| {
            let (_, test) = spec.generate_split(7);
            Scenario::ALL.iter().map(move |s| s.apply(&test))
        })
        .collect()
}

/// Pins every weight ANTICOR and ONS choose on the scenario matrix's
/// smoke windows, so their incremental caches and reused buffers must
/// keep every bit of the plain arithmetic. The scorecard golden sees only
/// summary fields; this sees each decision.
#[test]
fn classical_baseline_weights_are_pinned_bitwise() {
    let windows = stressed_test_windows();
    assert_eq!(windows.len(), 20);
    let backtester = frictional_backtester();
    let crc_fresh = |make: &dyn Fn() -> Box<dyn Policy>| {
        let runs: Vec<BacktestResult> =
            windows.iter().map(|m| backtester.run(make().as_mut(), m)).collect();
        weights_crc(&runs)
    };
    let anticor = crc_fresh(&|| Box::new(Anticor::new()));
    let anticor4 = crc_fresh(&|| Box::new(Anticor::with_window(4)));
    let ons = crc_fresh(&|| Box::new(Ons::new()));
    assert_eq!(
        [anticor, anticor4, ons],
        [0xc507_50e8, 0xa186_6eb9, 0x5684_00b0],
        "classical weights moved: ANTICOR {anticor:#010x}, ANTICOR(4) {anticor4:#010x}, ONS {ons:#010x}"
    );

    // One object per strategy over two different markets in sequence
    // (crypto, then the cross-market universe: both eight assets), so the
    // state a run leaves behind reaches the next run's weights.
    let (crypto, cross) = (&windows[0], &windows[15]);
    assert_eq!(crypto.num_assets(), cross.num_assets());
    let mut anticor = Anticor::with_window(4);
    let mut ons = Ons::new();
    let carried = [
        backtester.run(&mut anticor, crypto),
        backtester.run(&mut anticor, cross),
        backtester.run(&mut ons, crypto),
        backtester.run(&mut ons, cross),
    ];
    let carried_crc = weights_crc(&carried);
    assert_eq!(carried_crc, 0x3b94_2963, "carried-over weights moved: {carried_crc:#010x}");
}
