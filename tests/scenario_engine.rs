//! Scenario-engine integration: the `spikefolio.scorecard.v1` schema
//! contract and the stress-matrix acceptance criteria, exercised through
//! the real matrix runner.
//!
//! Pinned here:
//!
//! 1. **Schema golden file** — the scorecard writer's byte-level output
//!    for a fixed document (the `spikefolio.scorecard.v1` analogue of the
//!    `spikefolio.run.v1` golden test in `telemetry_run.rs`).
//! 2. **Coverage** — one row per (universe × scenario × strategy) cell,
//!    DDPG included, and every cell parses back through `from_json`.
//! 3. **Determinism** — the same seed replays to bitwise-identical JSON,
//!    and a universe's rows are the same whichever universes run with it.
//! 4. **Friction accounting** — with realistic frictions enabled,
//!    rebalancing strategies pay positive cost drag while buy-and-hold
//!    pays nothing after its initial allocation.

use spikefolio::{run_scenario_matrix, ScenarioMatrixOptions};
use spikefolio_baselines::BuyAndHold;
use spikefolio_env::{BacktestConfig, Backtester, CostModel};
use spikefolio_market::{MarketClass, UniverseGrid, UniverseSpec};
use spikefolio_scenario::{Scenario, Scorecard, ScorecardCell, SCORECARD_SCHEMA};
use spikefolio_telemetry::NoopRecorder;

fn smoke_opts() -> ScenarioMatrixOptions {
    ScenarioMatrixOptions {
        seed: 20220314,
        universes: vec!["crypto".into(), "fx".into()],
        scenarios: vec![Scenario::Calm, Scenario::FlashCrash],
        smoke: true,
        costs: CostModel::realistic_frictions(),
    }
}

/// Byte-exact golden file for the scorecard writer: a fixed document must
/// serialize to exactly this JSON. Any change here is a schema revision
/// and needs a version bump in `SCORECARD_SCHEMA`.
#[test]
fn scorecard_writer_matches_golden_output() {
    let card = Scorecard {
        seed: 7,
        cost_model: "frictional(c=0.0025, s=0.001, k=0.005, d=0.5)".into(),
        cells: vec![ScorecardCell {
            universe: "crypto".into(),
            scenario: "flash-crash".into(),
            strategy: "SDP".into(),
            reward: -0.25,
            sharpe: -1.5,
            max_drawdown: 0.2,
            turnover: 3.5,
            cost_drag: 0.015625,
            final_value: 0.75,
        }],
    };
    let golden = concat!(
        "{\"schema\":\"spikefolio.scorecard.v1\",\"seed\":7,",
        "\"cost_model\":\"frictional(c=0.0025, s=0.001, k=0.005, d=0.5)\",",
        "\"universes\":[\"crypto\"],\"scenarios\":[\"flash-crash\"],",
        "\"strategies\":[\"SDP\"],\"cells\":[{\"universe\":\"crypto\",",
        "\"scenario\":\"flash-crash\",\"strategy\":\"SDP\",\"reward\":-0.25,",
        "\"sharpe\":-1.5,\"max_drawdown\":0.2,\"turnover\":3.5,",
        "\"cost_drag\":0.015625,\"final_value\":0.75}]}",
    );
    assert_eq!(
        card.to_json(),
        golden,
        "scorecard JSON changed — bump SCORECARD_SCHEMA if intentional"
    );
    assert_eq!(Scorecard::from_json(golden).expect("golden parses"), card);
}

/// The matrix emits one row per (universe × scenario × strategy) cell,
/// DDPG included, and the document round-trips through its own parser.
#[test]
fn matrix_scorecard_covers_every_cell_and_round_trips() {
    let opts = smoke_opts();
    let card = run_scenario_matrix(&opts, &mut NoopRecorder).expect("matrix runs");

    let universes = ["crypto", "fx"];
    let scenarios = ["calm", "flash-crash"];
    let strategies =
        ["SDP", "DRL[Jiang]", "EIIE", "DDPG", "ONS", "ANTICOR", "UCRP", "Buy and Hold"];
    assert_eq!(card.cells.len(), universes.len() * scenarios.len() * strategies.len());
    for u in universes {
        for s in scenarios {
            for strat in strategies {
                let cell = card.cell(u, s, strat);
                assert!(cell.is_some(), "missing cell ({u}, {s}, {strat})");
                let cell = cell.expect("present");
                assert!(cell.final_value.is_finite() && cell.final_value > 0.0);
                assert!(cell.reward.is_finite());
            }
        }
    }

    let json = card.to_json();
    assert!(json.starts_with(&format!("{{\"schema\":\"{SCORECARD_SCHEMA}\"")));
    assert_eq!(Scorecard::from_json(&json).expect("parses"), card);
}

/// Determinism contract: the same options and seed replay to
/// bitwise-identical scorecard JSON.
#[test]
fn matrix_replays_bitwise_under_a_pinned_seed() {
    let opts = ScenarioMatrixOptions {
        universes: vec!["equity".into()],
        scenarios: vec![Scenario::Calm, Scenario::CorrelatedMeltdown],
        ..smoke_opts()
    };
    let a = run_scenario_matrix(&opts, &mut NoopRecorder).expect("first run");
    let b = run_scenario_matrix(&opts, &mut NoopRecorder).expect("second run");
    assert_eq!(a.to_json(), b.to_json());
}

/// A universe's rows do not depend on which other universes run beside
/// it: its agents are seeded from its place in the standard set, not in
/// the requested list.
#[test]
fn subset_run_reproduces_the_universe_rows_of_a_larger_run() {
    let alone = ScenarioMatrixOptions {
        universes: vec!["fx".into()],
        scenarios: vec![Scenario::Calm],
        ..smoke_opts()
    };
    let pair =
        ScenarioMatrixOptions { universes: vec!["crypto".into(), "fx".into()], ..alone.clone() };
    let alone = run_scenario_matrix(&alone, &mut NoopRecorder).expect("fx alone");
    let pair = run_scenario_matrix(&pair, &mut NoopRecorder).expect("crypto and fx");
    let fx_rows: Vec<&ScorecardCell> = pair.cells.iter().filter(|c| c.universe == "fx").collect();
    assert_eq!(fx_rows.len(), 8);
    assert_eq!(alone.cells.iter().collect::<Vec<_>>(), fx_rows);
}

/// With realistic frictions on, every rebalancing strategy pays positive
/// cost drag while buy-and-hold's only cost is its initial allocation —
/// after the first period it trades (and pays) nothing.
#[test]
fn frictions_drag_rebalancers_but_not_buy_and_hold() {
    let opts = ScenarioMatrixOptions {
        universes: vec!["crypto".into()],
        scenarios: vec![Scenario::Calm],
        ..smoke_opts()
    };
    let card = run_scenario_matrix(&opts, &mut NoopRecorder).expect("matrix runs");
    for strategy in ["SDP", "DRL[Jiang]", "EIIE", "DDPG", "ONS", "ANTICOR", "UCRP"] {
        let cell = card.cell("crypto", "calm", strategy).expect("cell present");
        assert!(cell.cost_drag > 0.0, "{strategy} should pay costs, drag={}", cell.cost_drag);
        assert!(cell.turnover > 0.0, "{strategy} should trade");
    }

    // Pin the buy-and-hold guarantee at the costs_paid series level: the
    // initial cash → uniform allocation pays, every later step is free.
    let (_, test) = UniverseSpec::single_class(MarketClass::Crypto, 8, UniverseGrid::smoke())
        .generate_split(opts.seed);
    let result = Backtester::new(BacktestConfig {
        costs: CostModel::realistic_frictions(),
        ..BacktestConfig::default()
    })
    .run(&mut BuyAndHold::new(), &test);
    assert!(result.costs_paid[0] > 0.0, "initial allocation pays frictions");
    for (t, &c) in result.costs_paid.iter().enumerate().skip(1) {
        assert!(c.abs() <= 1e-12, "buy-and-hold paid {c} at step {t}");
    }
}
