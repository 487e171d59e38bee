//! End-to-end training: the full pipeline from synthetic market through
//! STBP training to a backtested policy, at smoke scale.

use spikefolio::agent::SdpAgent;
use spikefolio::config::SdpConfig;
use spikefolio::drl::DrlAgent;
use spikefolio::training::Trainer;
use spikefolio_env::Backtester;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_telemetry::NoopRecorder;

fn smoke_config() -> SdpConfig {
    let mut cfg = SdpConfig::smoke();
    cfg.training.epochs = 5;
    cfg.training.steps_per_epoch = 12;
    cfg.training.batch_size = 16;
    cfg.training.learning_rate = 1e-3;
    cfg
}

#[test]
fn sdp_training_improves_in_sample_performance() {
    let (train, _) = ExperimentPreset::experiment1().shrunk(90, 20).generate_split(11);
    let cfg = smoke_config();
    let mut untrained = SdpAgent::new(&cfg, train.num_assets(), cfg.seed);
    let mut trained = untrained.clone();
    let log = Trainer::new(&cfg).train_sdp_with(&mut trained, &train, &mut NoopRecorder);
    assert_eq!(log.epoch_rewards.len(), cfg.training.epochs);
    assert!(log.epoch_rewards.iter().all(|r| r.is_finite()));
    // The trained policy must beat its own initialization in-sample (the
    // objective it ascended). Per-epoch reward streams are noisy batch
    // estimates, so compare end-to-end backtest log returns instead.
    let bt = Backtester::new(cfg.backtest);
    let r_untrained = bt.run(&mut untrained, &train);
    let r_trained = bt.run(&mut trained, &train);
    assert!(
        r_trained.metrics.mean_log_return >= r_untrained.metrics.mean_log_return - 1e-4,
        "in-sample performance degraded: trained {} vs untrained {}",
        r_trained.metrics.mean_log_return,
        r_untrained.metrics.mean_log_return
    );
}

#[test]
fn trained_sdp_backtests_on_heldout_data() {
    let (train, test) = ExperimentPreset::experiment1().shrunk(90, 25).generate_split(11);
    let cfg = smoke_config();
    let mut agent = SdpAgent::new(&cfg, train.num_assets(), cfg.seed);
    let _ = Trainer::new(&cfg).train_sdp_with(&mut agent, &train, &mut NoopRecorder);
    let r = Backtester::new(cfg.backtest).run(&mut agent, &test);
    assert!(r.fapv() > 0.0 && r.fapv().is_finite());
    assert!((0.0..1.0).contains(&r.metrics.mdd));
    // The policy actually trades (it is not stuck on one vertex forever).
    assert!(r.turnover.is_finite());
}

#[test]
fn both_agents_train_on_the_same_data_without_interference() {
    let (train, test) = ExperimentPreset::experiment2().shrunk(80, 20).generate_split(3);
    let cfg = smoke_config();
    let trainer = Trainer::new(&cfg);

    let mut sdp = SdpAgent::new(&cfg, train.num_assets(), cfg.seed);
    let sdp_log = trainer.train_sdp_with(&mut sdp, &train, &mut NoopRecorder);
    let mut drl = DrlAgent::new(&cfg, train.num_assets(), cfg.seed);
    let drl_log = trainer.train_drl_with(&mut drl, &train, &mut NoopRecorder);

    assert_eq!(sdp_log.steps, drl_log.steps, "identical training budgets");
    let r_sdp = Backtester::new(cfg.backtest).run(&mut sdp, &test);
    let r_drl = Backtester::new(cfg.backtest).run(&mut drl, &test);
    assert!(r_sdp.fapv().is_finite() && r_drl.fapv().is_finite());
}

#[test]
fn training_is_reproducible_under_fixed_seeds() {
    let (train, _) = ExperimentPreset::experiment1().shrunk(50, 10).generate_split(11);
    let mut cfg = smoke_config();
    cfg.training.epochs = 2;
    cfg.training.steps_per_epoch = 4;

    let run = || {
        let mut agent = SdpAgent::new(&cfg, train.num_assets(), cfg.seed);
        let log = Trainer::new(&cfg).train_sdp_with(&mut agent, &train, &mut NoopRecorder);
        (spikefolio_snn::stbp::flat_params(&agent.network), log.epoch_rewards)
    };
    let (p1, r1) = run();
    let (p2, r2) = run();
    assert_eq!(r1, r2, "reward streams differ");
    assert_eq!(p1, p2, "trained parameters differ");
}

/// CRC-32 over the little-endian bytes of `params` followed by `rewards`.
fn weights_crc(params: &[f64], rewards: &[f64]) -> u32 {
    let bytes: Vec<u8> = params.iter().chain(rewards).flat_map(|v| v.to_le_bytes()).collect();
    spikefolio_resilience::crc32(&bytes)
}

/// Pins the trained weights and reward streams of every learned agent to
/// constants, so refactors of the kernels, the dense MLP body or the
/// training loops must keep every bit of their outputs.
#[test]
fn trained_weights_are_pinned_bitwise() {
    use spikefolio::ddpg::DdpgAgent;
    use spikefolio::eiie::EiieAgent;
    use spikefolio_telemetry::NoopRecorder;

    let (train, _) = ExperimentPreset::experiment1().shrunk(120, 20).generate_split(7);
    let n = train.num_assets();
    let mut cfg = SdpConfig::smoke();
    cfg.training.epochs = 3;
    cfg.training.steps_per_epoch = 6;
    cfg.training.batch_size = 8;
    let trainer = Trainer::new(&cfg);
    let seed = 11;

    let mut sdp = SdpAgent::new(&cfg, n, seed);
    let log = trainer.train_sdp_with(&mut sdp, &train, &mut NoopRecorder);
    let sdp_crc = weights_crc(&spikefolio_snn::stbp::flat_params(&sdp.network), &log.epoch_rewards);

    let mut drl = DrlAgent::new(&cfg, n, seed);
    let log = trainer.train_drl_with(&mut drl, &train, &mut NoopRecorder);
    let drl_crc = weights_crc(&drl.network.flat_params(), &log.epoch_rewards);

    let mut eiie = EiieAgent::new(&cfg, n, seed);
    let log = trainer.train_eiie_with(&mut eiie, &train, &mut NoopRecorder);
    let eiie_crc = weights_crc(&eiie.network.flat_params(), &log.epoch_rewards);

    let mut ddpg = DdpgAgent::new(&cfg, n, seed);
    let log = trainer.train_ddpg_with(&mut ddpg, &train, &mut NoopRecorder);
    let ddpg_crc = weights_crc(&ddpg.actor.flat_params(), &log.epoch_rewards);
    let uniform = vec![1.0 / (n + 1) as f64; n + 1];
    let s = ddpg.state(&train, 30, &uniform);
    let q = ddpg.q_value(&s, &ddpg.act(&s));

    assert_eq!(sdp_crc, 0xfc34_f3dc, "SDP");
    assert_eq!(drl_crc, 0x9af6_77d7, "DRL");
    assert_eq!(eiie_crc, 0x847e_7f7f, "EIIE");
    assert_eq!(ddpg_crc, 0x9df1_6b33, "DDPG actor");
    assert_eq!(q.to_bits(), 0x3fd3_38e4_3a45_2e7e, "DDPG critic");
}

/// Pins the dense trainers' telemetry: one `"epoch"` record per epoch that
/// agrees bit for bit with the returned log, and a CRC-32 of each agent's
/// logged gradient norms (DDPG logs its actor's norm, not the critic's).
#[test]
fn dense_trainer_telemetry_is_pinned() {
    use spikefolio::ddpg::DdpgAgent;
    use spikefolio::eiie::EiieAgent;
    use spikefolio::training::TrainingLog;
    use spikefolio_telemetry::{MemoryRecorder, Value};

    let (train, _) = ExperimentPreset::experiment1().shrunk(120, 20).generate_split(7);
    let n = train.num_assets();
    let mut cfg = SdpConfig::smoke();
    cfg.training.epochs = 3;
    cfg.training.steps_per_epoch = 6;
    cfg.training.batch_size = 8;
    let trainer = Trainer::new(&cfg);
    let seed = 11;

    let check = |agent: &str, log: &TrainingLog, rec: &MemoryRecorder| -> u32 {
        let records = rec.records();
        assert_eq!(records.len(), cfg.training.epochs, "{agent}: one record per epoch");
        for (epoch, r) in records.iter().enumerate() {
            assert_eq!(r.kind(), "epoch", "{agent}");
            assert_eq!(r.get("agent").and_then(Value::as_str), Some(agent));
            assert_eq!(r.get("epoch").and_then(Value::as_u64), Some(epoch as u64), "{agent}");
            let samples = (cfg.training.steps_per_epoch * cfg.training.batch_size) as u64;
            assert_eq!(r.get("samples").and_then(Value::as_u64), Some(samples), "{agent}");
            let field = |k| r.get(k).and_then(Value::as_f64).map(f64::to_bits);
            assert_eq!(field("reward"), Some(log.epoch_rewards[epoch].to_bits()), "{agent}");
            assert_eq!(field("grad_norm"), Some(log.epoch_grad_norms[epoch].to_bits()), "{agent}");
        }
        weights_crc(&log.epoch_grad_norms, &[])
    };

    let mut rec = MemoryRecorder::new();
    let log = trainer.train_drl_with(&mut DrlAgent::new(&cfg, n, seed), &train, &mut rec);
    let drl = check("drl", &log, &rec);

    let mut rec = MemoryRecorder::new();
    let log = trainer.train_eiie_with(&mut EiieAgent::new(&cfg, n, seed), &train, &mut rec);
    let eiie = check("eiie", &log, &rec);

    let mut rec = MemoryRecorder::new();
    let log = trainer.train_ddpg_with(&mut DdpgAgent::new(&cfg, n, seed), &train, &mut rec);
    let ddpg = check("ddpg", &log, &rec);

    assert_eq!(drl, 0xa9ad_b093, "DRL grad norms");
    assert_eq!(eiie, 0x8923_5563, "EIIE grad norms");
    assert_eq!(ddpg, 0x59e5_0bda, "DDPG actor grad norms");
}
