//! Drivers that regenerate the paper's tables: Table 3 (strategy
//! performance), Table 4 (power/performance across hardware), and the
//! discussion-section ablations (timestep sweep, encoding comparison).

use crate::agent::SdpAgent;
use crate::config::SdpConfig;
use crate::deploy::LoihiDeployment;
use crate::drl::DrlAgent;
use crate::guarded::{train_sdp_guarded, ResilienceOptions};
use crate::training::{Trainer, TrainingLog};
use serde::{Deserialize, Serialize};
use spikefolio_baselines::{Anticor, BestStock, Ons, Ucrp, M0};
use spikefolio_env::{Backtester, Metrics, Policy};
use spikefolio_loihi::device::DeviceModel;
use spikefolio_loihi::energy::{EnergyReport, LoihiEnergyModel};
use spikefolio_loihi::LoihiChip;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_market::{sanitize_market, MarketData, SanitizeConfig};
use spikefolio_resilience::GuardConfig;
use spikefolio_telemetry::{labels, NoopRecorder, Record, Recorder};

/// The paper's measured Loihi energy per inference at `T = 5`
/// (Table 4, SDP-Exp1 row) — the calibration endpoint of the energy model.
pub const PAPER_LOIHI_NJ_PER_INF: f64 = 15.81;

/// Scale/seed options for an experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOptions {
    /// Agent/network/training configuration.
    pub config: SdpConfig,
    /// If set, shrink each preset to `(train_days, test_days)` — used by
    /// tests and quick demos. `None` runs the full Table 1 ranges.
    pub shrink: Option<(i64, i64)>,
    /// Market generation seed.
    pub market_seed: u64,
    /// If set, SDP training runs under the fault guard (per-epoch health
    /// checks + recovery policy) instead of the plain loop. With no
    /// injected faults and a healthy run the results are bitwise
    /// identical, so this is safe to leave on.
    pub guard: Option<GuardConfig>,
    /// If set, generated market data is sanitized before training and
    /// backtesting; repairs are counted under `sanitize/repairs`.
    /// Generated markets are clean by construction, so this is a no-op
    /// guardrail unless the data was mutated (fault injection, external
    /// CSV loads).
    pub sanitize: Option<SanitizeConfig>,
}

impl RunOptions {
    /// Full paper-scale run (minutes per experiment).
    pub fn paper() -> Self {
        Self {
            config: SdpConfig::paper(),
            shrink: None,
            market_seed: 2016,
            guard: None,
            sanitize: None,
        }
    }

    /// Seconds-scale run for tests and CI.
    pub fn smoke() -> Self {
        Self {
            config: SdpConfig::smoke(),
            shrink: Some((60, 20)),
            market_seed: 2016,
            guard: None,
            sanitize: None,
        }
    }

    fn preset(&self, base: ExperimentPreset) -> ExperimentPreset {
        match self.shrink {
            Some((train, test)) => base.shrunk(train, test),
            None => base,
        }
    }
}

/// Sanitizes one market split in place per the run options; counts
/// repairs under [`labels::COUNTER_SANITIZE_REPAIRS`].
///
/// # Panics
///
/// Panics when the sanitizer runs with [`RepairPolicy::Reject`]
/// (spikefolio_market::RepairPolicy) and the data has defects — an
/// experiment cannot proceed on rejected data.
fn sanitize_split(opts: &RunOptions, market: &mut MarketData, rec: &mut dyn Recorder) {
    let Some(cfg) = opts.sanitize else { return };
    match sanitize_market(market, &cfg) {
        Ok(report) => {
            let repairs = report.repairs() as u64;
            if repairs > 0 {
                rec.counter(labels::COUNTER_SANITIZE_REPAIRS, repairs);
            }
        }
        Err(e) => panic!("market data rejected by sanitizer: {e}"),
    }
}

/// Trains the SDP agent for one experiment, guarded or plain per the run
/// options.
fn train_sdp_for(
    opts: &RunOptions,
    trainer: &Trainer,
    sdp: &mut SdpAgent,
    train: &MarketData,
    rec: &mut dyn Recorder,
) -> TrainingLog {
    match opts.guard {
        Some(guard) => {
            let mut ropts = ResilienceOptions { guard, ..Default::default() };
            train_sdp_guarded(trainer, sdp, train, &mut ropts, rec).log
        }
        None => trainer.train_sdp_with(sdp, train, rec),
    }
}

/// One strategy's row of Table 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyOutcome {
    /// Strategy display name.
    pub strategy: String,
    /// Metric bundle over the backtest.
    pub metrics: Metrics,
}

/// One experiment's block of Table 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOutcome {
    /// Experiment display name ("Experiment 1" …).
    pub experiment: String,
    /// Strategy rows in the paper's order.
    pub rows: Vec<StrategyOutcome>,
    /// SDP training diagnostics.
    pub sdp_log: TrainingLog,
    /// DRL baseline training diagnostics.
    pub drl_log: TrainingLog,
}

impl ExperimentOutcome {
    /// Looks up a strategy row by name.
    pub fn row(&self, strategy: &str) -> Option<&StrategyOutcome> {
        self.rows.iter().find(|r| r.strategy == strategy)
    }
}

fn backtest_row(
    config: &SdpConfig,
    policy: &mut dyn Policy,
    market: &MarketData,
    rec: &mut dyn Recorder,
) -> StrategyOutcome {
    let result = Backtester::new(config.backtest).run_recorded(policy, market, rec);
    StrategyOutcome { strategy: result.policy_name.clone(), metrics: result.metrics }
}

/// Trains the two RL agents on one experiment's training range and
/// backtests all seven Table 3 strategies on the held-out range. Training
/// epochs and every strategy's backtest steps flow into `rec`; results are
/// identical with any recorder.
pub fn run_experiment(
    opts: &RunOptions,
    base: ExperimentPreset,
    rec: &mut dyn Recorder,
) -> ExperimentOutcome {
    let preset = opts.preset(base);
    let (mut train, mut test) = preset.generate_split(opts.market_seed);
    sanitize_split(opts, &mut train, rec);
    sanitize_split(opts, &mut test, rec);
    let trainer = Trainer::new(&opts.config);

    let mut sdp = SdpAgent::new(&opts.config, train.num_assets(), opts.config.seed);
    let sdp_log = train_sdp_for(opts, &trainer, &mut sdp, &train, rec);
    let mut drl = DrlAgent::new(&opts.config, train.num_assets(), opts.config.seed);
    let drl_log = trainer.train_drl_with(&mut drl, &train, rec);

    // ANTICOR's customary window is 15 periods; shrink it when the
    // backtest range is too short for the double-window warmup.
    let anticor_window = 15.min((test.num_periods() / 2).saturating_sub(1)).max(2);

    let rows = vec![
        backtest_row(&opts.config, &mut sdp, &test, rec),
        backtest_row(&opts.config, &mut drl, &test, rec),
        backtest_row(&opts.config, &mut Ons::new(), &test, rec),
        backtest_row(&opts.config, &mut BestStock::new(), &test, rec),
        backtest_row(&opts.config, &mut Anticor::with_window(anticor_window), &test, rec),
        backtest_row(&opts.config, &mut M0::new(), &test, rec),
        backtest_row(&opts.config, &mut Ucrp::new(), &test, rec),
    ];

    ExperimentOutcome { experiment: preset.name.to_owned(), rows, sdp_log, drl_log }
}

/// Regenerates Table 3: all three experiments, all seven strategies, with
/// telemetry threaded through every experiment.
pub fn run_table3(opts: &RunOptions, rec: &mut dyn Recorder) -> Vec<ExperimentOutcome> {
    ExperimentPreset::all().into_iter().map(|p| run_experiment(opts, p, rec)).collect()
}

/// One experiment's block of Table 4 (three device rows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerOutcome {
    /// Experiment display name.
    pub experiment: String,
    /// DRL-on-CPU, DRL-on-GPU, SDP-on-Loihi rows (paper order).
    pub rows: Vec<EnergyReport>,
}

impl PowerOutcome {
    /// The Loihi row.
    pub fn loihi(&self) -> &EnergyReport {
        &self.rows[2]
    }

    /// Energy advantage of Loihi over the CPU row (paper headline: ≥186×).
    pub fn cpu_advantage(&self) -> f64 {
        self.loihi().energy_advantage(&self.rows[0])
    }

    /// Energy advantage of Loihi over the GPU row (paper headline: ≥516×).
    pub fn gpu_advantage(&self) -> f64 {
        self.loihi().energy_advantage(&self.rows[1])
    }
}

/// Regenerates Table 4.
///
/// For each experiment, the SDP agent is trained, quantized, deployed on
/// the chip model, and run over the backtest range to collect its mean
/// per-inference event counts. The Loihi energy model is calibrated once,
/// on experiment 1's event profile, to the paper's measured
/// 15.81 nJ/inference; experiments 2–3 then use the *same* constants, so
/// their rows are genuine model extrapolations. The CPU/GPU rows cost the
/// DRL baseline's FLOPs on the fitted device models.
///
/// SDP training epochs and the deployed backtests flow into `rec`, and
/// each deployment's accumulated event counts are recorded under the
/// `loihi/*` counters — the exact inputs of the energy model, so the
/// Table 4 energy rows can be recomputed from the run log alone.
pub fn run_table4(opts: &RunOptions, rec: &mut dyn Recorder) -> Vec<PowerOutcome> {
    let trainer = Trainer::new(&opts.config);
    let chip = LoihiChip::default();
    let mut outcomes = Vec::with_capacity(3);
    let mut energy_model: Option<LoihiEnergyModel> = None;

    for base in ExperimentPreset::all() {
        let preset = opts.preset(base);
        let (mut train, mut test) = preset.generate_split(opts.market_seed);
        sanitize_split(opts, &mut train, rec);
        sanitize_split(opts, &mut test, rec);

        let mut sdp = SdpAgent::new(&opts.config, train.num_assets(), opts.config.seed);
        let _ = train_sdp_for(opts, &trainer, &mut sdp, &train, rec);
        let mut deployed = match LoihiDeployment::new_recorded(
            &sdp,
            &chip,
            &spikefolio_loihi::QuantizeOptions::default(),
            rec,
        ) {
            Ok(d) => d,
            Err(e) => panic!("paper-scale network must deploy on one chip: {e}"),
        };
        let _ = Backtester::new(opts.config.backtest).run_recorded(&mut deployed, &test, rec);
        spikefolio_loihi::telemetry::record_run_stats(
            rec,
            &deployed.total_stats,
            deployed.inferences,
        );
        let mean_stats = deployed.mean_stats().to_spike_stats();

        let model = *energy_model.get_or_insert_with(|| {
            LoihiEnergyModel::calibrated(&mean_stats, PAPER_LOIHI_NJ_PER_INF)
        });
        let t = opts.config.network.timesteps;
        let exp_no = preset.name.chars().last().unwrap_or('?');
        let loihi_row = model.report(&format!("SDP-Exp{exp_no} / Loihi (T={t})"), &mean_stats, t);
        if rec.enabled() {
            rec.emit(
                Record::new("energy_report")
                    .field("label", loihi_row.label.as_str())
                    .field("nj_per_inf", loihi_row.nj_per_inf)
                    .field("inf_per_s", loihi_row.inf_per_s)
                    .field("dyn_w", loihi_row.dyn_w),
            );
        }

        let drl = DrlAgent::new(&opts.config, train.num_assets(), opts.config.seed);
        let flops = DeviceModel::mlp_flops(&drl.network);
        // Energy constants re-anchored at the configured network scale so
        // the rows reproduce the paper's published endpoints regardless of
        // the run scale; the latency model extrapolates with FLOPs.
        let cpu = DeviceModel::cpu_corei7_7500()
            .calibrated_to(spikefolio_loihi::device::PAPER_CPU_NJ_PER_INF, flops);
        let gpu = DeviceModel::gpu_tesla_k80()
            .calibrated_to(spikefolio_loihi::device::PAPER_GPU_NJ_PER_INF, flops);
        let cpu_row = cpu.report(&format!("DRL-Exp{exp_no} / CPU"), flops);
        let gpu_row = gpu.report(&format!("DRL-Exp{exp_no} / GPU"), flops);

        outcomes.push(PowerOutcome {
            experiment: preset.name.to_owned(),
            rows: vec![cpu_row, gpu_row, loihi_row],
        });
    }
    outcomes
}

/// One point of the timestep trade-off ablation (§III.B discussion).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimestepPoint {
    /// Simulation length `T`.
    pub timesteps: usize,
    /// Dynamic energy per inference, nanojoules.
    pub nj_per_inf: f64,
    /// Inference latency, seconds.
    pub latency_s: f64,
    /// Backtest metrics of the trained policy at this `T`.
    pub metrics: Metrics,
}

/// Sweeps the simulation length `T`, retraining and redeploying at each
/// point — the paper's "trade-off for performance cost between SNNs with
/// different timesteps".
pub fn timestep_tradeoff(opts: &RunOptions, timesteps: &[usize]) -> Vec<TimestepPoint> {
    let preset = opts.preset(ExperimentPreset::experiment1());
    let (train, test) = preset.generate_split(opts.market_seed);
    let chip = LoihiChip::default();
    let mut points = Vec::with_capacity(timesteps.len());
    let mut energy_model: Option<LoihiEnergyModel> = None;

    for &t in timesteps {
        let mut config = opts.config.clone();
        config.network.timesteps = t;
        let trainer = Trainer::new(&config);
        let mut sdp = SdpAgent::new(&config, train.num_assets(), config.seed);
        let _ = trainer.train_sdp_with(&mut sdp, &train, &mut NoopRecorder);
        // Ablations have no error channel; every preset network fits one
        // chip by construction.
        #[allow(clippy::expect_used)]
        let mut deployed = LoihiDeployment::new(&sdp, &chip).expect("network fits");
        let result = Backtester::new(config.backtest).run(&mut deployed, &test);
        let stats = deployed.mean_stats().to_spike_stats();
        let model = *energy_model
            .get_or_insert_with(|| LoihiEnergyModel::calibrated(&stats, PAPER_LOIHI_NJ_PER_INF));
        points.push(TimestepPoint {
            timesteps: t,
            nj_per_inf: model.dynamic_energy(&stats) * 1e9,
            latency_s: model.latency(t),
            metrics: result.metrics,
        });
    }
    points
}

/// Outcome of the encoding-mode ablation (§II.B): deterministic vs
/// probabilistic population coding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodingPoint {
    /// `"deterministic"` or `"probabilistic"`.
    pub encoding: String,
    /// Backtest metrics.
    pub metrics: Metrics,
    /// Final training reward.
    pub final_reward: f64,
}

/// Trains and backtests one agent per encoding mode on experiment 1.
pub fn encoding_comparison(opts: &RunOptions) -> Vec<EncodingPoint> {
    let preset = opts.preset(ExperimentPreset::experiment1());
    let (train, test) = preset.generate_split(opts.market_seed);
    let mut points = Vec::with_capacity(2);
    for probabilistic in [false, true] {
        let mut config = opts.config.clone();
        config.network.probabilistic_encoding = probabilistic;
        let trainer = Trainer::new(&config);
        let mut sdp = SdpAgent::new(&config, train.num_assets(), config.seed);
        let log = trainer.train_sdp_with(&mut sdp, &train, &mut NoopRecorder);
        let result = Backtester::new(config.backtest).run(&mut sdp, &test);
        points.push(EncodingPoint {
            encoding: if probabilistic { "probabilistic" } else { "deterministic" }.to_owned(),
            metrics: result.metrics,
            final_reward: log.final_reward(),
        });
    }
    points
}

/// One row of the transaction-cost-model ablation (Ablation D).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostAblationPoint {
    /// Cost model label.
    pub model: String,
    /// Backtest metrics of the (same) trained SDP under this cost model.
    pub metrics: Metrics,
    /// Total one-way turnover of the run.
    pub turnover: f64,
}

/// Ablation D: trains one SDP agent on experiment 1, then backtests it
/// under the zero-cost, proportional, and Jiang-iterative cost models.
pub fn cost_model_ablation(opts: &RunOptions) -> Vec<CostAblationPoint> {
    use spikefolio_env::{BacktestConfig, CostModel};
    let preset = opts.preset(ExperimentPreset::experiment1());
    let (train, test) = preset.generate_split(opts.market_seed);
    let mut sdp = SdpAgent::new(&opts.config, train.num_assets(), opts.config.seed);
    let _ = Trainer::new(&opts.config).train_sdp_with(&mut sdp, &train, &mut NoopRecorder);

    let models: [(&str, CostModel); 3] = [
        ("free", CostModel::Free),
        ("proportional 25bp", CostModel::Proportional { rate: 0.0025 }),
        ("iterative 25bp/25bp", CostModel::Iterative { buy: 0.0025, sell: 0.0025 }),
    ];
    models
        .into_iter()
        .map(|(label, costs)| {
            let result = Backtester::new(BacktestConfig {
                costs,
                risk_free_per_period: opts.config.backtest.risk_free_per_period,
            })
            .run(&mut sdp.clone(), &test);
            CostAblationPoint {
                model: label.to_owned(),
                metrics: result.metrics,
                turnover: result.turnover,
            }
        })
        .collect()
}

/// One point of the spike-rate-penalty ablation: energy vs quality as the
/// regularization strength `λ` grows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatePenaltyPoint {
    /// Regularization strength.
    pub lambda: f64,
    /// Mean on-chip spikes per inference after training.
    pub spikes_per_inference: u64,
    /// Mean synops per inference after training.
    pub synops_per_inference: u64,
    /// Dynamic energy per inference under the physical (Davies-2018)
    /// constants, nanojoules.
    pub physical_nj_per_inf: f64,
    /// Backtest metrics of the trained, deployed policy.
    pub metrics: Metrics,
}

/// Sweeps the spike-rate penalty `λ`: trains, deploys, and measures the
/// on-chip event counts and backtest quality at each strength. Expected
/// shape: spike counts fall monotonically-ish with `λ` while quality
/// degrades gracefully — the energy/accuracy dial the paper's energy
/// discussion implies.
pub fn rate_penalty_ablation(opts: &RunOptions, lambdas: &[f64]) -> Vec<RatePenaltyPoint> {
    let preset = opts.preset(ExperimentPreset::experiment1());
    let (train, test) = preset.generate_split(opts.market_seed);
    let chip = LoihiChip::default();
    let physical = LoihiEnergyModel::davies2018();
    lambdas
        .iter()
        .map(|&lambda| {
            let mut config = opts.config.clone();
            config.training.rate_penalty = lambda;
            let mut sdp = SdpAgent::new(&config, train.num_assets(), config.seed);
            let _ = Trainer::new(&config).train_sdp_with(&mut sdp, &train, &mut NoopRecorder);
            // Same invariant as the timestep sweep: preset networks always
            // fit one chip.
            #[allow(clippy::expect_used)]
            let mut deployed = LoihiDeployment::new(&sdp, &chip).expect("network fits");
            let result = Backtester::new(config.backtest).run(&mut deployed, &test);
            let stats = deployed.mean_stats().to_spike_stats();
            RatePenaltyPoint {
                lambda,
                spikes_per_inference: stats.total_spikes(),
                synops_per_inference: stats.synops,
                physical_nj_per_inf: physical.dynamic_energy(&stats) * 1e9,
                metrics: result.metrics,
            }
        })
        .collect()
}

/// Extended comparison: the Table 3 roster plus EG, PAMR, OLMAR, and
/// buy-and-hold on one experiment.
pub fn run_extended_comparison(opts: &RunOptions, base: ExperimentPreset) -> ExperimentOutcome {
    use spikefolio_baselines::{BuyAndHold, Eg, Olmar, Pamr};
    let mut outcome = run_experiment(opts, base.clone(), &mut NoopRecorder);
    let preset = opts.preset(base);
    let (train, test) = preset.generate_split(opts.market_seed);
    // The architecture-faithful Jiang baseline (convolutional EIIE).
    let mut eiie = crate::eiie::EiieAgent::new(&opts.config, train.num_assets(), opts.config.seed);
    let _ = Trainer::new(&opts.config).train_eiie_with(&mut eiie, &train, &mut NoopRecorder);
    outcome.rows.push(backtest_row(&opts.config, &mut eiie, &test, &mut NoopRecorder));
    outcome.rows.push(backtest_row(&opts.config, &mut Eg::new(), &test, &mut NoopRecorder));
    outcome.rows.push(backtest_row(&opts.config, &mut Pamr::new(), &test, &mut NoopRecorder));
    let olmar_window = 5.min(test.num_periods().saturating_sub(2)).max(2);
    outcome.rows.push(backtest_row(
        &opts.config,
        &mut Olmar::with_params(olmar_window, 10.0),
        &test,
        &mut NoopRecorder,
    ));
    outcome.rows.push(backtest_row(&opts.config, &mut BuyAndHold::new(), &test, &mut NoopRecorder));
    outcome
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn tiny_opts() -> RunOptions {
        let mut opts = RunOptions::smoke();
        opts.shrink = Some((25, 8));
        opts.config.training.epochs = 1;
        opts.config.training.steps_per_epoch = 2;
        opts.config.training.batch_size = 4;
        opts
    }

    #[test]
    fn experiment_outcome_has_all_seven_strategies() {
        let out = run_experiment(&tiny_opts(), ExperimentPreset::experiment1(), &mut NoopRecorder);
        let names: Vec<&str> = out.rows.iter().map(|r| r.strategy.as_str()).collect();
        assert_eq!(names, vec!["SDP", "DRL[Jiang]", "ONS", "Best Stock", "ANTICOR", "M0", "UCRP"]);
        assert!(out.row("SDP").is_some());
        assert!(out.row("nope").is_none());
        for r in &out.rows {
            assert!(r.metrics.fapv > 0.0 && r.metrics.fapv.is_finite());
            assert!((0.0..1.0).contains(&r.metrics.mdd));
        }
    }

    #[test]
    fn table4_rows_have_expected_shape() {
        let outs = run_table4(&tiny_opts(), &mut NoopRecorder);
        assert_eq!(outs.len(), 3);
        for out in &outs {
            assert_eq!(out.rows.len(), 3);
            assert!(out.rows[0].label.contains("CPU"));
            assert!(out.rows[1].label.contains("GPU"));
            assert!(out.rows[2].label.contains("Loihi"));
            // The headline shape: Loihi orders of magnitude more efficient.
            assert!(out.cpu_advantage() > 50.0, "cpu advantage {}", out.cpu_advantage());
            assert!(out.gpu_advantage() > 100.0, "gpu advantage {}", out.gpu_advantage());
        }
        // Experiment 1 is the calibration point.
        assert!(
            (outs[0].loihi().nj_per_inf - PAPER_LOIHI_NJ_PER_INF).abs() < 1e-6,
            "calibration missed: {}",
            outs[0].loihi().nj_per_inf
        );
    }

    #[test]
    fn timestep_sweep_energy_increases_with_t() {
        let pts = timestep_tradeoff(&tiny_opts(), &[2, 8]);
        assert_eq!(pts.len(), 2);
        assert!(pts[1].nj_per_inf > pts[0].nj_per_inf, "{pts:?}");
        assert!(pts[1].latency_s > pts[0].latency_s);
    }

    #[test]
    fn encoding_comparison_runs_both_modes() {
        let pts = encoding_comparison(&tiny_opts());
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].encoding, "deterministic");
        assert_eq!(pts[1].encoding, "probabilistic");
    }

    #[test]
    fn cost_ablation_orders_as_expected() {
        let pts = cost_model_ablation(&tiny_opts());
        assert_eq!(pts.len(), 3);
        // Costs can only hurt: free ≥ proportional and free ≥ iterative.
        assert!(pts[0].metrics.fapv >= pts[1].metrics.fapv - 1e-12);
        assert!(pts[0].metrics.fapv >= pts[2].metrics.fapv - 1e-12);
        // Same policy, same decisions — turnover identical across models
        // only if the weight paths coincide; at minimum it is finite.
        assert!(pts.iter().all(|p| p.turnover.is_finite()));
    }

    #[test]
    fn rate_penalty_sweep_produces_monotone_ish_energy() {
        let pts = rate_penalty_ablation(&tiny_opts(), &[0.0, 10.0]);
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].synops_per_inference <= pts[0].synops_per_inference,
            "penalized net should not produce more synops: {pts:?}"
        );
        assert!(pts.iter().all(|p| p.physical_nj_per_inf.is_finite()));
    }

    #[test]
    fn extended_comparison_adds_five_rows() {
        let out = run_extended_comparison(&tiny_opts(), ExperimentPreset::experiment1());
        assert_eq!(out.rows.len(), 12);
        let names: Vec<&str> = out.rows.iter().map(|r| r.strategy.as_str()).collect();
        for extra in ["EIIE", "EG", "PAMR", "OLMAR", "Buy and Hold"] {
            assert!(names.contains(&extra), "missing {extra}");
        }
    }
}
