//! The scenario matrix runner: (universe × scenario × strategy) →
//! [`Scorecard`].
//!
//! For every selected universe the runner generates the seeded market,
//! trains the four learned agents (SDP, DRL\[Jiang\], EIIE, DDPG) once on
//! the *clean* training window, then backtests each trained agent — plus
//! the classical [`scenario_baselines`] roster — on every stress overlay
//! of the test window. Training never sees the stress: the matrix
//! measures how policies fit on ordinary regimes survive tails they were
//! not shown.
//!
//! The work of a universe fans out over every core in two rounds of
//! independent jobs. The first round runs the four trainings, then the
//! (scenario × classical strategy) backtests, which need no trained agent
//! and so fill the cores the trainings leave idle. The second round runs
//! the (scenario × learned agent) backtests. Each job records into its
//! own tape. The caller replays the tapes and collects the cells in the
//! serial order: the trainings, then every cell in scorecard order.
//!
//! Determinism contract: the scorecard depends only on `(options, seed)`,
//! not on the core count, and the telemetry record sequence does not
//! depend on the core count either. A universe's agents are seeded from
//! its place in [`UniverseSpec::standard_set`], so a subset run
//! reproduces the full matrix's rows for that universe. Per-cell
//! wall-clock goes to telemetry `scenario_cell` records, never into the
//! scorecard document.

use crate::agent::SdpAgent;
use crate::config::SdpConfig;
use crate::ddpg::DdpgAgent;
use crate::drl::DrlAgent;
use crate::eiie::EiieAgent;
use crate::training::Trainer;
use spikefolio_baselines::scenario_baselines;
use spikefolio_env::{BacktestConfig, Backtester, CostModel, Policy};
use spikefolio_market::{MarketData, UniverseGrid, UniverseSpec};
use spikefolio_scenario::{Scenario, Scorecard, ScorecardCell};
use spikefolio_telemetry::{Record, Recorder, Stopwatch, TapeRecorder};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Options for one `scenarios run`.
#[derive(Debug, Clone)]
pub struct ScenarioMatrixOptions {
    /// Master seed: market generation, agent init, and training all derive
    /// from it.
    pub seed: u64,
    /// Universe names to include, each at most once (empty = the whole
    /// [`UniverseSpec::standard_set`]).
    pub universes: Vec<String>,
    /// Scenarios to include, each at most once (empty = [`Scenario::ALL`]).
    pub scenarios: Vec<Scenario>,
    /// Use the minutes-scale smoke grid and training budget (CI scale).
    pub smoke: bool,
    /// Cost model applied in every cell (training and evaluation).
    pub costs: CostModel,
}

impl Default for ScenarioMatrixOptions {
    fn default() -> Self {
        Self {
            seed: 20220314,
            universes: Vec::new(),
            scenarios: Vec::new(),
            smoke: false,
            costs: CostModel::realistic_frictions(),
        }
    }
}

/// Short human-readable tag for the scorecard's `cost_model` field.
fn describe_costs(costs: &CostModel) -> String {
    match *costs {
        CostModel::Free => "free".to_owned(),
        CostModel::Proportional { rate } => format!("proportional(rate={rate})"),
        CostModel::Iterative { buy, sell } => format!("iterative(buy={buy}, sell={sell})"),
        CostModel::Frictional { commission, half_spread, impact, depth } => {
            format!("frictional(c={commission}, s={half_spread}, k={impact}, d={depth})")
        }
    }
}

/// Resolves the universe specs for `opts`, each with its index in
/// [`UniverseSpec::standard_set`], validating requested names.
fn select_universes(opts: &ScenarioMatrixOptions) -> Result<Vec<(usize, UniverseSpec)>, String> {
    let grid = if opts.smoke { UniverseGrid::smoke() } else { UniverseGrid::standard() };
    let all: Vec<(usize, UniverseSpec)> =
        UniverseSpec::standard_set(grid).into_iter().enumerate().collect();
    if opts.universes.is_empty() {
        return Ok(all);
    }
    let known: Vec<&str> = all.iter().map(|(_, s)| s.name.as_str()).collect();
    let mut picked: Vec<(usize, UniverseSpec)> = Vec::new();
    for name in &opts.universes {
        if picked.iter().any(|(_, s)| &s.name == name) {
            return Err(format!("universe {name:?} is listed twice"));
        }
        match all.iter().find(|(_, s)| &s.name == name) {
            Some(entry) => picked.push(entry.clone()),
            None => return Err(format!("unknown universe {name:?}; known: {}", known.join(", "))),
        }
    }
    Ok(picked)
}

/// Resolves the scenarios for `opts`, rejecting a repeated one.
fn select_scenarios(opts: &ScenarioMatrixOptions) -> Result<Vec<Scenario>, String> {
    if opts.scenarios.is_empty() {
        return Ok(Scenario::ALL.to_vec());
    }
    for (i, scenario) in opts.scenarios.iter().enumerate() {
        if opts.scenarios[..i].contains(scenario) {
            return Err(format!("scenario {:?} is listed twice", scenario.name()));
        }
    }
    Ok(opts.scenarios.clone())
}

/// The training/evaluation configuration for one universe of the matrix.
fn matrix_config(opts: &ScenarioMatrixOptions) -> SdpConfig {
    let mut cfg = SdpConfig::smoke();
    if !opts.smoke {
        cfg.training.epochs = 6;
        cfg.training.steps_per_epoch = 16;
        cfg.training.batch_size = 32;
    }
    // The matrix runs whole trainings side by side (see `fan_out`), so
    // each one trains on a single thread.
    cfg.training.parallelism = 1;
    cfg.backtest.costs = opts.costs;
    cfg.seed = opts.seed;
    cfg
}

/// The learned agents of a universe, which lead each scenario's row of the
/// scorecard.
const LEARNED: usize = 4;

/// One universe's trained agent, in scorecard strategy order.
enum Learned {
    Sdp(Box<SdpAgent>),
    Drl(DrlAgent),
    Eiie(EiieAgent),
    Ddpg(DdpgAgent),
}

impl Learned {
    /// A fresh copy of the trained agent to backtest, so every cell starts
    /// from the same state.
    fn policy(&self) -> Box<dyn Policy> {
        match self {
            Self::Sdp(agent) => agent.clone(),
            Self::Drl(agent) => Box::new(agent.clone()),
            Self::Eiie(agent) => Box::new(agent.clone()),
            Self::Ddpg(agent) => Box::new(agent.clone()),
        }
    }
}

/// A first-round job's result: a trained agent or a classical cell.
enum Done {
    Trained(Box<Learned>),
    Scored(ScorecardCell),
}

/// Runs `job(i, tape)` for every `i < jobs` on `workers` threads, the
/// caller's included (one worker spawns no thread): each worker takes the
/// next index from a shared counter until none is left. Every job records
/// into its own [`TapeRecorder`] mirroring `rec`. The outputs come back
/// with their tapes in job order, so both are the same for any worker
/// count and any schedule; the caller replays the tapes.
fn fan_out<T: Send>(
    jobs: usize,
    workers: usize,
    rec: &dyn Recorder,
    job: impl Fn(usize, &mut TapeRecorder) -> T + Sync,
) -> Vec<(T, TapeRecorder)> {
    let next = AtomicUsize::new(0);
    let blank = TapeRecorder::mirroring(rec);
    let work = || {
        let mut done = Vec::new();
        loop {
            // The index publishes no data (outputs reach the caller
            // through the joins), so `Relaxed` suffices.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return done;
            }
            let mut tape = blank.clone();
            let out = job(i, &mut tape);
            done.push((i, out, tape));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(jobs)).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            // join() only fails if the worker panicked; propagating that
            // panic is the correct response.
            #[allow(clippy::expect_used)]
            done.extend(helper.join().expect("matrix worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|(i, ..)| *i);
    done.into_iter().map(|(_, out, tape)| (out, tape)).collect()
}

/// Backtests `policy` on `market`, the `scenario` overlay of the test
/// window, into one scorecard cell, and records it (with its wall-clock)
/// as a `scenario_cell` record.
fn score(
    backtester: &Backtester,
    policy: &mut dyn Policy,
    market: &MarketData,
    universe: &str,
    scenario: Scenario,
    tape: &mut TapeRecorder,
) -> ScorecardCell {
    let watch = Stopwatch::start(tape);
    let result = backtester.run(policy, market);
    let wall_s = watch.elapsed_s();
    let cell = ScorecardCell {
        universe: universe.to_owned(),
        scenario: scenario.name().to_owned(),
        strategy: result.policy_name.clone(),
        reward: result.log_returns.iter().sum(),
        sharpe: result.metrics.sharpe,
        max_drawdown: result.metrics.mdd,
        turnover: result.turnover,
        cost_drag: result.cost_drag(),
        final_value: result.fapv(),
    };
    if tape.enabled() {
        tape.emit(
            Record::new("scenario_cell")
                .field("universe", cell.universe.as_str())
                .field("scenario", cell.scenario.as_str())
                .field("strategy", cell.strategy.as_str())
                .field("reward", cell.reward)
                .field("sharpe", cell.sharpe)
                .field("max_drawdown", cell.max_drawdown)
                .field("turnover", cell.turnover)
                .field("cost_drag", cell.cost_drag)
                .field("final_value", cell.final_value)
                .field("wall_s", wall_s),
        );
    }
    cell
}

/// Runs the full matrix on every available core, emitting one telemetry
/// `scenario_cell` record per evaluated cell (with wall-clock) and
/// returning the scorecard (without wall-clock — the document is
/// bitwise-deterministic under a pinned seed, whatever the core count).
///
/// # Errors
///
/// Returns an error for an unknown or repeated universe name, or a
/// repeated scenario.
pub fn run_scenario_matrix(
    opts: &ScenarioMatrixOptions,
    rec: &mut dyn Recorder,
) -> Result<Scorecard, String> {
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    run_matrix(opts, rec, workers)
}

/// [`run_scenario_matrix`] on `workers` threads.
///
/// Each universe runs as two fan-outs: its four trainings and its
/// classical backtests, then its learned backtests. Between them, and
/// before the next universe, the caller works alone, so only the jobs of
/// one fan-out overlap.
fn run_matrix(
    opts: &ScenarioMatrixOptions,
    rec: &mut dyn Recorder,
    workers: usize,
) -> Result<Scorecard, String> {
    let specs = select_universes(opts)?;
    let scenarios = select_scenarios(opts)?;
    let cfg = matrix_config(opts);
    let backtester = Backtester::new(BacktestConfig {
        costs: opts.costs,
        risk_free_per_period: cfg.backtest.risk_free_per_period,
    });
    let classical = scenario_baselines().len();

    let mut card =
        Scorecard { seed: opts.seed, cost_model: describe_costs(&opts.costs), cells: Vec::new() };
    for (u_idx, spec) in &specs {
        let (train, test) = spec.generate_split(opts.seed);
        // Per-universe agent seed: distinct streams per universe, all
        // derived from the master seed and the universe's place in the
        // standard set, so a subset run reproduces the full matrix's rows.
        let agent_seed = opts.seed.wrapping_add(*u_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut ucfg = cfg.clone();
        ucfg.seed = agent_seed;
        let trainer = Trainer::new(&ucfg);
        let n = train.num_assets();

        type TrainJob<'a> = &'a (dyn Fn(&mut TapeRecorder) -> Learned + Sync);
        let trainings: [TrainJob<'_>; LEARNED] = [
            &|tape| {
                let mut agent = SdpAgent::new(&ucfg, n, agent_seed);
                trainer.train_sdp_with(&mut agent, &train, tape);
                Learned::Sdp(Box::new(agent))
            },
            &|tape| {
                let mut agent = DrlAgent::new(&ucfg, n, agent_seed ^ 0xd71);
                trainer.train_drl_with(&mut agent, &train, tape);
                Learned::Drl(agent)
            },
            &|tape| {
                let mut agent = EiieAgent::new(&ucfg, n, agent_seed ^ 0xe11e);
                trainer.train_eiie_with(&mut agent, &train, tape);
                Learned::Eiie(agent)
            },
            &|tape| {
                let mut agent = DdpgAgent::new(&ucfg, n, agent_seed ^ 0xddb6);
                trainer.train_ddpg_with(&mut agent, &train, tape);
                Learned::Ddpg(agent)
            },
        ];
        // Round 1: the trainings, then the classical backtests. Each of
        // those stresses its own copy of the test window and drops it, so
        // at most one stressed window per worker is alive beside a
        // training.
        let jobs = LEARNED + scenarios.len() * classical;
        let round1 = fan_out(jobs, workers, rec, |job, tape| match job.checked_sub(LEARNED) {
            None => Done::Trained(Box::new(trainings[job](tape))),
            Some(c) => {
                let scenario = scenarios[c / classical];
                let mut policy = scenario_baselines().swap_remove(c % classical);
                let stressed = scenario.apply(&test);
                Done::Scored(score(
                    &backtester,
                    policy.as_mut(),
                    &stressed,
                    &spec.name,
                    scenario,
                    tape,
                ))
            }
        });
        let mut learned = Vec::with_capacity(LEARNED);
        let mut classical_cells = Vec::with_capacity(jobs - LEARNED);
        for (done, tape) in round1 {
            match done {
                // The trainings are the first jobs, so their tapes replay
                // first and in order.
                Done::Trained(agent) => {
                    tape.replay(rec);
                    learned.push(*agent);
                }
                Done::Scored(cell) => classical_cells.push((cell, tape)),
            }
        }

        // Round 2: the learned agents on every stressed window.
        let stressed: Vec<MarketData> = scenarios.iter().map(|s| s.apply(&test)).collect();
        let learned_cells = fan_out(scenarios.len() * LEARNED, workers, rec, |job, tape| {
            let (s_idx, k) = (job / LEARNED, job % LEARNED);
            let mut policy = learned[k].policy();
            score(
                &backtester,
                policy.as_mut(),
                &stressed[s_idx],
                &spec.name,
                scenarios[s_idx],
                tape,
            )
        });

        // Each scenario's row: the learned agents, then the classical
        // roster.
        let mut learned_cells = learned_cells.into_iter();
        let mut classical_cells = classical_cells.into_iter();
        for _ in &scenarios {
            let row = learned_cells.by_ref().take(LEARNED);
            for (cell, tape) in row.chain(classical_cells.by_ref().take(classical)) {
                tape.replay(rec);
                card.cells.push(cell);
            }
        }
    }
    Ok(card)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use spikefolio_telemetry::{MemoryRecorder, NoopRecorder, Value};

    fn smoke_opts() -> ScenarioMatrixOptions {
        ScenarioMatrixOptions {
            seed: 7,
            universes: vec!["crypto".into()],
            scenarios: vec![Scenario::Calm, Scenario::FlashCrash],
            smoke: true,
            costs: CostModel::realistic_frictions(),
        }
    }

    #[test]
    fn unknown_universe_is_rejected_with_known_names() {
        let mut opts = smoke_opts();
        opts.universes = vec!["moonbase".into()];
        let err = run_scenario_matrix(&opts, &mut NoopRecorder).unwrap_err();
        assert!(err.contains("moonbase") && err.contains("crypto"), "{err}");
    }

    #[test]
    fn repeated_universe_or_scenario_is_rejected_by_name() {
        let mut opts = smoke_opts();
        opts.universes = vec!["crypto".into(), "fx".into(), "crypto".into()];
        let err = run_scenario_matrix(&opts, &mut NoopRecorder).unwrap_err();
        assert!(err.contains("\"crypto\"") && err.contains("twice"), "{err}");

        let mut opts = smoke_opts();
        opts.scenarios = vec![Scenario::Calm, Scenario::FlashCrash, Scenario::Calm];
        let err = run_scenario_matrix(&opts, &mut NoopRecorder).unwrap_err();
        assert!(err.contains("\"calm\"") && err.contains("twice"), "{err}");
    }

    /// Every record as `(kind, fields)`, with the wall-clock field dropped.
    fn clock_free(rec: &MemoryRecorder) -> Vec<(String, Vec<(String, Value)>)> {
        rec.records()
            .iter()
            .map(|r| {
                let fields = r.fields().iter().filter(|(k, _)| k != "wall_s").cloned().collect();
                (r.kind().to_owned(), fields)
            })
            .collect()
    }

    #[test]
    fn scorecard_and_telemetry_are_independent_of_the_worker_count() {
        let opts = smoke_opts();
        let run = |workers| {
            let mut rec = MemoryRecorder::new();
            let card = run_matrix(&opts, &mut rec, workers).unwrap();
            (card.to_json(), rec)
        };
        let (one_card, one) = run(1);
        let (three_card, three) = run(3);
        assert_eq!(one_card, three_card);

        let records = clock_free(&one);
        let kinds = |kind: &str| records.iter().filter(|(k, _)| k == kind).count();
        // 4 trainings' epochs, then 2 scenarios × 8 strategies.
        let epochs = 4 * matrix_config(&opts).training.epochs;
        assert_eq!((kinds("epoch"), kinds("scenario_cell")), (epochs, 16));
        assert_eq!(records, clock_free(&three));
        assert_eq!(one.counters(), three.counters());
        let span_counts = |rec: &MemoryRecorder| -> Vec<(String, u64)> {
            rec.spans().iter().map(|(label, &(_, n))| (label.clone(), n)).collect()
        };
        assert!(!one.spans().is_empty());
        assert_eq!(span_counts(&one), span_counts(&three));
    }

    #[test]
    fn records_follow_the_serial_order_at_any_worker_count() {
        let opts = ScenarioMatrixOptions {
            universes: vec!["crypto".into(), "equity".into()],
            ..smoke_opts()
        };
        let epochs = matrix_config(&opts).training.epochs as u64;
        for workers in [1, 3] {
            let mut rec = MemoryRecorder::new();
            let card = run_matrix(&opts, &mut rec, workers).unwrap();
            let mut records = rec.records().iter();
            let mut next = || records.next().expect("record stream ended early");
            for universe in card.universes() {
                // The universe's trainings, in strategy order...
                for agent in ["sdp", "drl", "eiie", "ddpg"] {
                    for epoch in 0..epochs {
                        let r = next();
                        assert_eq!(r.kind(), "epoch", "{workers} workers");
                        assert_eq!(r.get("agent").and_then(Value::as_str), Some(agent));
                        assert_eq!(r.get("epoch").and_then(Value::as_u64), Some(epoch));
                    }
                }
                // ...then its cells, in scorecard order.
                for cell in card.cells.iter().filter(|c| c.universe == universe) {
                    let r = next();
                    assert_eq!(r.kind(), "scenario_cell", "{workers} workers");
                    let field = |k| r.get(k).and_then(Value::as_str);
                    assert_eq!(field("universe"), Some(universe), "{workers} workers");
                    assert_eq!(
                        field("scenario"),
                        Some(cell.scenario.as_str()),
                        "{workers} workers"
                    );
                    assert_eq!(
                        field("strategy"),
                        Some(cell.strategy.as_str()),
                        "{workers} workers"
                    );
                }
            }
            assert!(records.next().is_none(), "{workers} workers: records past the last cell");
        }
    }

    #[test]
    fn matrix_covers_every_cell_and_emits_telemetry() {
        let opts = smoke_opts();
        let mut rec = MemoryRecorder::new();
        let card = run_scenario_matrix(&opts, &mut rec).unwrap();
        // 1 universe × 2 scenarios × (4 learned + 4 classical) strategies.
        assert_eq!(card.cells.len(), 2 * 8);
        assert_eq!(card.universes(), vec!["crypto"]);
        assert_eq!(card.scenarios(), vec!["calm", "flash-crash"]);
        let strategies = card.strategies();
        for expected in ["SDP", "DRL[Jiang]", "EIIE", "DDPG", "ONS", "Buy and Hold"] {
            assert!(strategies.contains(&expected), "missing {expected}");
        }
        // Telemetry carries wall-clock; the scorecard does not.
        let scenario_records: Vec<_> =
            rec.records().iter().filter(|r| r.kind() == "scenario_cell").collect();
        assert_eq!(scenario_records.len(), 16);
        assert!(scenario_records.iter().all(|r| r.get("wall_s").and_then(Value::as_f64).is_some()));
        assert!(!card.to_json().contains("wall_s"));
    }

    #[test]
    fn scorecard_replays_bitwise_under_the_same_seed() {
        let opts = ScenarioMatrixOptions {
            scenarios: vec![Scenario::Calm],
            universes: vec!["fx".into()],
            ..smoke_opts()
        };
        let a = run_scenario_matrix(&opts, &mut NoopRecorder).unwrap();
        let b = run_scenario_matrix(&opts, &mut NoopRecorder).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }
}
