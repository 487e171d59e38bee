//! `scenario-matrix`: `run_scenario_matrix` with the default options —
//! 4 universes × 5 stress scenarios × 8 strategies = 160 scorecard cells
//! under realistic frictions, training SDP, DRL, EIIE and DDPG once per
//! universe.

use crate::batch::{Batch, Rep};
use crate::layers::LayerSample;
use crate::trace::{BenchRecorder, ROOT};
use crate::{WorkDir, TRAINER_THREADS};
use spikefolio::agent::SdpAgent;
use spikefolio::eiie::EiieAgent;
use spikefolio::{
    run_scenario_matrix, DdpgAgent, DrlAgent, ScenarioMatrixOptions, SdpConfig, Trainer,
};
use spikefolio_baselines::scenario_baselines;
use spikefolio_env::{BacktestConfig, Backtester, CostModel, Policy};
use spikefolio_market::{UniverseGrid, UniverseSpec};
use spikefolio_resilience::crc32;
use spikefolio_scenario::{Scenario, Scorecard, ScorecardCell};
use spikefolio_telemetry::NoopRecorder;
use std::time::Instant;

fn options(seed: u64) -> ScenarioMatrixOptions {
    ScenarioMatrixOptions { seed, ..ScenarioMatrixOptions::default() }
}

/// The per-universe training configuration of the full-scale matrix
/// (6 epochs × 16 steps × batch 32 on the smoke network).
fn matrix_config(opts: &ScenarioMatrixOptions) -> SdpConfig {
    let mut cfg = SdpConfig::smoke();
    cfg.training.epochs = 6;
    cfg.training.steps_per_epoch = 16;
    cfg.training.batch_size = 32;
    cfg.training.parallelism = TRAINER_THREADS;
    cfg.backtest.costs = opts.costs;
    cfg.seed = opts.seed;
    cfg
}

fn agent_seed(opts: &ScenarioMatrixOptions, u_idx: usize) -> u64 {
    opts.seed.wrapping_add(u_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One traced matrix run, rebuilt from the public calls the verb makes so
/// each layer can be timed. Its scorecard must equal the verb's.
fn traced(opts: &ScenarioMatrixOptions, rec: &mut BenchRecorder) -> (Scorecard, u64) {
    let cfg = matrix_config(opts);
    let backtester = Backtester::new(BacktestConfig {
        costs: opts.costs,
        risk_free_per_period: cfg.backtest.risk_free_per_period,
    });
    let mut card =
        Scorecard { seed: opts.seed, cost_model: describe_costs(&opts.costs), cells: Vec::new() };
    let mut steps = 0u64;
    rec.enter(ROOT);
    for (u_idx, spec) in UniverseSpec::standard_set(UniverseGrid::standard()).iter().enumerate() {
        let (train, test) = rec.time("market.generate", |_| spec.generate_split(opts.seed));
        let seed = agent_seed(opts, u_idx);
        let mut ucfg = cfg.clone();
        ucfg.seed = seed;
        let trainer = Trainer::new(&ucfg);
        let n = train.num_assets();
        let mut sdp = SdpAgent::new(&ucfg, n, seed);
        rec.time("training.sdp", |r| trainer.train_sdp_with(&mut sdp, &train, r));
        let mut drl = DrlAgent::new(&ucfg, n, seed ^ 0xd71);
        rec.time("training.drl", |r| trainer.train_drl_with(&mut drl, &train, r));
        let mut eiie = EiieAgent::new(&ucfg, n, seed ^ 0xe11e);
        rec.time("training.eiie", |r| trainer.train_eiie_with(&mut eiie, &train, r));
        let mut ddpg = DdpgAgent::new(&ucfg, n, seed ^ 0xddb6);
        rec.time("training.ddpg", |r| trainer.train_ddpg_with(&mut ddpg, &train, r));

        for scenario in Scenario::ALL {
            let stressed = rec.time("scenario.stress", |_| scenario.apply(&test));
            let mut roster: Vec<(&str, Box<dyn Policy>)> = vec![
                ("env.backtest_learned", Box::new(sdp.clone())),
                ("env.backtest_learned", Box::new(drl.clone())),
                ("env.backtest_learned", Box::new(eiie.clone())),
                ("env.backtest_learned", Box::new(ddpg.clone())),
            ];
            roster.extend(scenario_baselines().into_iter().map(|p| ("env.backtest_classical", p)));
            for (layer, mut policy) in roster {
                let result = rec.time(layer, |_| backtester.run(policy.as_mut(), &stressed));
                steps += result.log_returns.len() as u64;
                card.cells.push(ScorecardCell {
                    universe: spec.name.clone(),
                    scenario: scenario.name().to_owned(),
                    strategy: result.policy_name.clone(),
                    reward: result.log_returns.iter().sum(),
                    sharpe: result.metrics.sharpe,
                    max_drawdown: result.metrics.mdd,
                    turnover: result.turnover,
                    cost_drag: result.cost_drag(),
                    final_value: result.fapv(),
                });
            }
        }
    }
    rec.exit();
    (card, steps)
}

/// The scorecard's `cost_model` tag, as the verb writes it.
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

/// CRC-32 of the scorecard document.
fn digest(card: &Scorecard) -> u64 {
    u64::from(crc32(card.to_json().as_bytes()))
}

/// The `scenario-matrix` workload.
pub struct ScenarioMatrix;

impl Batch for ScenarioMatrix {
    const NAME: &'static str = "scenario-matrix";
    const INPUTS: u64 = 4;
    const WORK_UNIT: &'static str = "scorecard cells";
    const GOLDEN: &'static str = include_str!("../golden/scenario-matrix.txt");

    fn work(&self) -> f64 {
        let universes = UniverseSpec::standard_set(UniverseGrid::standard()).len();
        (universes * Scenario::ALL.len() * (4 + scenario_baselines().len())) as f64
    }

    /// Market generation for every universe and initialisation of the
    /// four learned agents.
    fn setup(&self, input: u64) {
        let opts = options(input);
        let cfg = matrix_config(&opts);
        for (u_idx, spec) in UniverseSpec::standard_set(UniverseGrid::standard()).iter().enumerate()
        {
            let (train, _test) = spec.generate_split(opts.seed);
            let (n, seed) = (train.num_assets(), agent_seed(&opts, u_idx));
            std::hint::black_box((
                SdpAgent::new(&cfg, n, seed),
                DrlAgent::new(&cfg, n, seed),
                EiieAgent::new(&cfg, n, seed),
                DdpgAgent::new(&cfg, n, seed),
            ));
        }
    }

    fn untraced(&self, input: u64, _dir: &WorkDir, _rep: usize) -> Result<Rep, String> {
        let t0 = Instant::now();
        let card = run_scenario_matrix(&options(input), &mut NoopRecorder)?;
        let wall_s = t0.elapsed().as_secs_f64();
        let problem = (card.cells.len() as f64 != self.work())
            .then(|| format!("{} cells, expected {}", card.cells.len(), self.work()));
        Ok(Rep { digest: digest(&card), wall_s, op_walls_s: vec![wall_s], problem })
    }

    fn traced(
        &self,
        input: u64,
        _dir: &WorkDir,
        _rep: usize,
        rec: &mut BenchRecorder,
    ) -> Result<(Rep, LayerSample), String> {
        let (card, steps) = traced(&options(input), rec);
        let rep = Rep {
            digest: digest(&card),
            wall_s: rec.tree.total(ROOT),
            op_walls_s: Vec::new(),
            problem: None,
        };
        Ok((rep, LayerSample::from([("env.backtest_steps", steps as f64)])))
    }

    fn model(&self, input: u64) -> SdpAgent {
        let opts = options(input);
        let spec = &UniverseSpec::standard_set(UniverseGrid::standard())[0];
        let n = spec.generate_split(opts.seed).0.num_assets();
        SdpAgent::new(&matrix_config(&opts), n, agent_seed(&opts, 0))
    }
}
