//! Cross-crate integration: checkpoints survive the full train → save →
//! reload → trade pipeline, CSV market data round-trips through a
//! backtest, and the EIIE / walk-forward extensions interoperate with the
//! rest of the stack.

use spikefolio::agent::SdpAgent;
use spikefolio::checkpoint;
use spikefolio::config::SdpConfig;
use spikefolio::eiie::EiieAgent;
use spikefolio::online::{walk_forward, WalkForwardConfig};
use spikefolio::training::Trainer;
use spikefolio_env::Backtester;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_market::io::{from_csv, to_csv};
use spikefolio_telemetry::NoopRecorder;

fn smoke_config() -> SdpConfig {
    let mut cfg = SdpConfig::smoke();
    cfg.training.epochs = 2;
    cfg.training.steps_per_epoch = 4;
    cfg.training.batch_size = 8;
    cfg
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spikefolio-it-{}-{name}", std::process::id()));
    p
}

#[test]
fn trained_checkpoint_reproduces_backtest() {
    let (train, test) = ExperimentPreset::experiment1().shrunk(50, 15).generate_split(3);
    let cfg = smoke_config();
    let mut agent = SdpAgent::new(&cfg, train.num_assets(), cfg.seed);
    let _ = Trainer::new(&cfg).train_sdp_with(&mut agent, &train, &mut NoopRecorder);
    let reference = Backtester::new(cfg.backtest).run(&mut agent.clone(), &test);

    let path = tmp("trained.ckpt");
    checkpoint::save_sdp(&agent, &path).unwrap();
    let mut restored = SdpAgent::new(&cfg, train.num_assets(), 424242);
    checkpoint::load_sdp(&mut restored, &path).unwrap();
    let replayed = Backtester::new(cfg.backtest).run(&mut restored, &test);
    std::fs::remove_file(path).ok();

    assert_eq!(reference.values, replayed.values, "checkpointed policy must trade identically");
}

#[test]
fn csv_round_trip_preserves_backtests() {
    let market = ExperimentPreset::experiment2().shrunk(30, 8).generate(5);
    let csv = to_csv(&market);
    let reloaded = from_csv(&csv, market.start_date(), market.periods_per_day()).unwrap();

    let mut a = spikefolio_baselines::Ucrp::new();
    let mut b = spikefolio_baselines::Ucrp::new();
    let r1 = Backtester::default().run(&mut a, &market);
    let r2 = Backtester::default().run(&mut b, &reloaded);
    assert_eq!(r1.values, r2.values);
    assert_eq!(r1.metrics, r2.metrics);
}

#[test]
fn eiie_trains_and_backtests_end_to_end() {
    let (train, test) = ExperimentPreset::experiment1().shrunk(60, 15).generate_split(9);
    let cfg = smoke_config();
    let mut agent = EiieAgent::new(&cfg, train.num_assets(), cfg.seed);
    let log = Trainer::new(&cfg).train_eiie_with(&mut agent, &train, &mut NoopRecorder);
    assert!(log.steps > 0);
    let r = Backtester::new(cfg.backtest).run(&mut agent, &test);
    assert!(r.fapv() > 0.0 && r.fapv().is_finite());
    for w in &r.weights {
        assert!(spikefolio_tensor::simplex::is_on_simplex(w, 1e-9));
    }
}

#[test]
fn walk_forward_compounds_across_blocks() {
    let market = ExperimentPreset::experiment3().shrunk(70, 0).generate(10);
    let cfg = smoke_config();
    let wf = WalkForwardConfig { train_window: 50, trade_window: 30, retrain_from_scratch: false };
    let result = walk_forward(&cfg, wf, &market, 11);
    // Value curve compounds: each entry is the cumulative product of the
    // per-period growth factors, so log(final) = Σ log returns.
    let final_v = *result.values.last().unwrap();
    assert!((result.metrics.fapv - final_v).abs() < 1e-12);
    assert!(result.retrainings >= 2);
}

#[test]
fn alif_agent_trains_and_cannot_deploy() {
    use spikefolio::deploy::{DeployError, LoihiDeployment};
    use spikefolio_loihi::{LoihiChip, QuantizeOptions};
    use spikefolio_snn::neuron::AdaptiveParams;
    let (train, test) = ExperimentPreset::experiment1().shrunk(40, 10).generate_split(3);
    let mut cfg = smoke_config();
    cfg.network.adaptation = Some(AdaptiveParams::new());
    let mut agent = SdpAgent::new(&cfg, train.num_assets(), cfg.seed);
    let _ = Trainer::new(&cfg).train_sdp_with(&mut agent, &train, &mut NoopRecorder);
    let r = Backtester::new(cfg.backtest).run(&mut agent, &test);
    assert!(r.fapv() > 0.0, "ALIF agent must train and trade");
    // Chip deployment is LIF-only by design.
    let deploy = LoihiDeployment::new(
        &agent,
        &LoihiChip::default(),
        &QuantizeOptions::default(),
        &mut NoopRecorder,
    );
    assert!(matches!(deploy, Err(DeployError::Quantize(_))), "ALIF deployment must be rejected");
}
