//! Fig. 2 pipeline: train → quantize (eq. 14) → map onto the chip model →
//! backtest on-chip, verifying behaviour preservation and event accounting.

use spikefolio::agent::SdpAgent;
use spikefolio::config::SdpConfig;
use spikefolio::deploy::LoihiDeployment;
use spikefolio::training::Trainer;
use spikefolio_env::Backtester;
use spikefolio_loihi::energy::LoihiEnergyModel;
use spikefolio_loihi::LoihiChip;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_telemetry::NoopRecorder;

fn trained_agent() -> (SdpAgent, spikefolio_market::MarketData, SdpConfig) {
    let mut cfg = SdpConfig::smoke();
    cfg.training.epochs = 3;
    cfg.training.steps_per_epoch = 8;
    cfg.training.batch_size = 12;
    cfg.training.learning_rate = 1e-3;
    let (train, test) = ExperimentPreset::experiment1().shrunk(70, 20).generate_split(23);
    let mut agent = SdpAgent::new(&cfg, train.num_assets(), cfg.seed);
    let _ = Trainer::new(&cfg).train_sdp_with(&mut agent, &train, &mut NoopRecorder);
    (agent, test, cfg)
}

#[test]
fn deployed_policy_tracks_float_policy_in_backtest() {
    let (mut agent, test, cfg) = trained_agent();
    let mut deployed = LoihiDeployment::new(&agent, &LoihiChip::default()).unwrap();

    let r_float = Backtester::new(cfg.backtest).run(&mut agent, &test);
    let r_chip = Backtester::new(cfg.backtest).run(&mut deployed, &test);

    // Quantization should not change the economic outcome by much: final
    // values within a factor ~2 of each other on a short backtest.
    let ratio = r_chip.fapv() / r_float.fapv();
    assert!(
        (0.5..2.0).contains(&ratio),
        "on-chip fAPV {} vs float {} (ratio {ratio})",
        r_chip.fapv(),
        r_float.fapv()
    );
}

#[test]
fn quantization_report_is_sane() {
    let (agent, _, _) = trained_agent();
    let deployed = LoihiDeployment::new(&agent, &LoihiChip::default()).unwrap();
    let report = deployed.quantization_report();
    assert_eq!(report.ratios.len(), agent.network.depth());
    for (&r, &e) in report.ratios.iter().zip(&report.max_errors) {
        assert!(r > 0.0, "non-positive rescale ratio");
        assert!(e <= 0.5 / r + 1e-12, "quantization error {e} exceeds half step");
    }
    // Training leaves most weights non-zero.
    assert!(report.zero_fractions.iter().all(|&z| z < 0.9));
}

#[test]
fn event_counters_feed_the_energy_model() {
    let (agent, test, cfg) = trained_agent();
    let mut deployed = LoihiDeployment::new(&agent, &LoihiChip::default()).unwrap();
    let _ = Backtester::new(cfg.backtest).run(&mut deployed, &test);

    let mean = deployed.mean_stats().to_spike_stats();
    assert!(mean.encoder_spikes > 0);
    assert!(mean.synops > 0);
    assert!(mean.neuron_updates > 0);

    // Physical model: energy in a plausible silicon range (pJ–µJ).
    let physical = LoihiEnergyModel::davies2018();
    let e = physical.dynamic_energy(&mean);
    assert!(e > 1e-12 && e < 1e-3, "implausible energy {e} J");

    // Calibrated model reproduces the paper's endpoint on this workload.
    let calibrated = LoihiEnergyModel::calibrated(&mean, 15.81);
    assert!((calibrated.dynamic_energy(&mean) * 1e9 - 15.81).abs() < 1e-9);
}

#[test]
fn chip_resources_scale_with_network_size() {
    let cfg_small = SdpConfig::smoke();
    let mut cfg_large = SdpConfig::smoke();
    cfg_large.network.hidden = vec![128, 128];
    cfg_large.network.pop_in = 10;

    let small = SdpAgent::new(&cfg_small, 11, 1);
    let large = SdpAgent::new(&cfg_large, 11, 1);
    let chip = LoihiChip::default();
    let d_small = LoihiDeployment::new(&small, &chip).unwrap();
    let d_large = LoihiDeployment::new(&large, &chip).unwrap();
    assert!(
        d_large.allocation().total_synapses > d_small.allocation().total_synapses,
        "bigger network must use more synapses"
    );
    assert!(d_large.allocation().total_cores >= d_small.allocation().total_cores);
}

#[test]
fn deterministic_encoding_makes_deployment_reproducible() {
    let (agent, test, cfg) = trained_agent();
    let run = || {
        let mut deployed = LoihiDeployment::new(&agent, &LoihiChip::default()).unwrap();
        Backtester::new(cfg.backtest).run(&mut deployed, &test).values
    };
    assert_eq!(run(), run());
}
