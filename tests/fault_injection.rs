//! Chaos suite: seeded fault-injection runs across the training loop,
//! the checkpoint format, and the market-data sanitizer.
//!
//! The headline scenario is the PR's acceptance test: one scripted
//! [`FaultPlan`] corrupts an on-disk checkpoint, poisons a gradient epoch
//! with NaN, and damages market candles — and guarded training still
//! completes, recovers through rollback/repair, reports the recoveries
//! through telemetry, and lands on **bit-for-bit** the same weights as a
//! fault-free run. Determinism is the load-bearing property: every test
//! here reruns its scenario and asserts identical outcomes.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use spikefolio::agent::SdpAgent;
use spikefolio::checkpoint::{self, LoadCheckpointError};
use spikefolio::config::SdpConfig;
use spikefolio::guarded::{
    apply_market_faults, train_sdp_guarded, GuardedOutcome, ResilienceOptions,
};
use spikefolio::training::Trainer;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_market::{sanitize_market, MarketData, SanitizeConfig};
use spikefolio_resilience::{FaultPlan, GradFault, GuardConfig, MarketFaultKind};
use spikefolio_snn::stbp::{flat_params, set_flat_params};
use spikefolio_telemetry::{labels, MemoryRecorder, NoopRecorder};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spikefolio-chaos-{}-{name}", std::process::id()));
    p
}

fn tiny_cfg() -> SdpConfig {
    let mut cfg = SdpConfig::smoke();
    cfg.training.epochs = 4;
    cfg.training.steps_per_epoch = 2;
    cfg.training.batch_size = 4;
    cfg
}

fn chaos_market(seed: u64) -> MarketData {
    ExperimentPreset::experiment1().shrunk(30, 0).generate(seed)
}

/// The acceptance-scenario plan: a transient write fault on the very
/// first checkpoint, bitrot on the checkpoint that epoch 2's rollback
/// will read (successful write #2 = the post-epoch-1 state), a NaN
/// gradient at epoch 2, and three kinds of candle damage.
fn acceptance_plan() -> FaultPlan {
    FaultPlan::new(42)
        .fail_writes(checkpoint::CHECKPOINT_IO_LABEL, 1)
        .corrupt_write(checkpoint::CHECKPOINT_IO_LABEL, 2)
        .grad_fault_at(2, GradFault::NaN)
        .market_fault(3, 0, MarketFaultKind::DropNan)
        .market_fault(6, 1, MarketFaultKind::NonPositive)
        .market_fault(9, 2, MarketFaultKind::Outlier(50.0))
}

/// Runs the full damaged-data + guarded-training scenario once.
fn run_acceptance(path: &Path) -> (Vec<f64>, GuardedOutcome, MemoryRecorder, usize) {
    let plan = acceptance_plan();
    let mut market = chaos_market(7);
    apply_market_faults(&mut market, plan.market_faults());
    let report = sanitize_market(&mut market, &SanitizeConfig::default())
        .expect("repair policy never rejects");
    let repairs = report.repairs();

    let cfg = tiny_cfg();
    let trainer = Trainer::new(&cfg);
    let mut agent = SdpAgent::new(&cfg, market.num_assets(), 3);
    let mut rec = MemoryRecorder::new();
    let mut opts = ResilienceOptions {
        guard: GuardConfig::default(),
        checkpoint_path: Some(path.to_path_buf()),
        faults: plan,
    };
    let outcome = train_sdp_guarded(&trainer, &mut agent, &market, &mut opts, &mut rec);
    (flat_params(&agent.network), outcome, rec, repairs)
}

#[test]
fn chaos_run_recovers_and_is_bitwise_reproducible() {
    let path_a = tmp("acceptance-a.ckpt");
    let path_b = tmp("acceptance-b.ckpt");
    let (weights_a, outcome, rec, repairs) = run_acceptance(&path_a);

    // Training completed despite every injected fault.
    assert!(!outcome.aborted, "guarded run must not abort: {outcome:?}");
    assert_eq!(outcome.log.epoch_rewards.len(), tiny_cfg().training.epochs);
    assert!(weights_a.iter().all(|p| p.is_finite()));

    // The candle damage was found and repaired.
    assert!(repairs >= 3, "expected ≥3 sanitizer repairs, got {repairs}");

    // The NaN epoch was recovered via rollback, visible in telemetry.
    assert!(outcome.recoveries >= 1, "{outcome:?}");
    assert!(rec.counter_total(labels::COUNTER_RESILIENCE_RECOVERIES) >= 1);

    // The corrupted checkpoint was caught by its CRC and rewritten.
    assert!(outcome.corruption_detected >= 1, "{outcome:?}");
    assert!(rec.counter_total(labels::COUNTER_RESILIENCE_CORRUPTIONS) >= 1);

    // The transient write fault was absorbed by retry/backoff.
    assert!(outcome.io_retries >= 1, "{outcome:?}");
    assert!(rec.counter_total(labels::COUNTER_RESILIENCE_IO_RETRIES) >= 1);

    // After the final rewrite the on-disk checkpoint is clean and holds
    // exactly the final weights.
    let mut probe = SdpAgent::new(&tiny_cfg(), chaos_market(7).num_assets(), 3);
    checkpoint::load_sdp(&mut probe, &path_a).expect("final checkpoint must be intact");
    assert_eq!(flat_params(&probe.network), weights_a);

    // Same seed + same plan → bit-for-bit the same run (wall-clock
    // timings aside, everything must match).
    let (weights_b, outcome_b, _, _) = run_acceptance(&path_b);
    assert_eq!(weights_a, weights_b, "chaos run must be deterministic");
    assert_eq!(outcome.log.epoch_rewards, outcome_b.log.epoch_rewards);
    assert_eq!(outcome.log.epoch_grad_norms, outcome_b.log.epoch_grad_norms);
    assert_eq!(outcome.log.steps, outcome_b.log.steps);
    assert_eq!(outcome.recoveries, outcome_b.recoveries);
    assert_eq!(outcome.epochs_skipped, outcome_b.epochs_skipped);
    assert_eq!(outcome.io_retries, outcome_b.io_retries);
    assert_eq!(outcome.corruption_detected, outcome_b.corruption_detected);
    assert_eq!(outcome.aborted, outcome_b.aborted);

    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}

#[test]
fn recovered_run_matches_fault_free_training() {
    // Fault-free reference on the *same* repaired market.
    let plan = acceptance_plan();
    let mut market = chaos_market(7);
    apply_market_faults(&mut market, plan.market_faults());
    sanitize_market(&mut market, &SanitizeConfig::default()).unwrap();

    let cfg = tiny_cfg();
    let trainer = Trainer::new(&cfg);
    let mut clean = SdpAgent::new(&cfg, market.num_assets(), 3);
    let _ = trainer.train_sdp_with(&mut clean, &market, &mut NoopRecorder);

    let path = tmp("reference.ckpt");
    let (faulted_weights, outcome, _, _) = run_acceptance(&path);
    std::fs::remove_file(&path).ok();

    // Rollback restores the pre-epoch state bit-for-bit and the one-shot
    // faults are consumed on their first firing, so the recovered run is
    // indistinguishable from one where the faults never happened.
    assert!(!outcome.aborted);
    assert_eq!(flat_params(&clean.network), faulted_weights);
}

#[test]
fn rollback_restores_bitwise_identical_weights_mid_run() {
    // Poison epoch 1 of a 2-epoch run and compare against training that
    // stops after epoch 0 + retrains epoch 1 — i.e. the rollback replay
    // must reproduce the clean epoch-1 update exactly.
    let market = chaos_market(11);
    let mut cfg = tiny_cfg();
    cfg.training.epochs = 2;
    let trainer = Trainer::new(&cfg);

    let mut clean = SdpAgent::new(&cfg, market.num_assets(), 5);
    let _ = trainer.train_sdp_with(&mut clean, &market, &mut NoopRecorder);

    let mut faulted = SdpAgent::new(&cfg, market.num_assets(), 5);
    let mut opts = ResilienceOptions {
        faults: FaultPlan::new(8).grad_fault_at(1, GradFault::Inf),
        ..Default::default()
    };
    let outcome =
        train_sdp_guarded(&trainer, &mut faulted, &market, &mut opts, &mut MemoryRecorder::new());
    assert_eq!(outcome.recoveries, 1);
    assert_eq!(flat_params(&clean.network), flat_params(&faulted.network));
}

#[test]
fn truncated_checkpoint_is_detected_and_healed() {
    let path = tmp("torn.ckpt");
    let market = chaos_market(13);
    let cfg = tiny_cfg();
    let trainer = Trainer::new(&cfg);
    let mut agent = SdpAgent::new(&cfg, market.num_assets(), 9);
    // Tear the post-epoch-1 checkpoint in half; epoch 2's rollback reads it.
    let mut opts = ResilienceOptions {
        checkpoint_path: Some(path.clone()),
        faults: FaultPlan::new(21)
            .truncate_write(checkpoint::CHECKPOINT_IO_LABEL, 2)
            .grad_fault_at(2, GradFault::NaN),
        ..Default::default()
    };
    let mut rec = MemoryRecorder::new();
    let outcome = train_sdp_guarded(&trainer, &mut agent, &market, &mut opts, &mut rec);
    assert!(!outcome.aborted);
    assert!(outcome.corruption_detected >= 1, "{outcome:?}");

    // The healed checkpoint round-trips and matches the final weights.
    let mut probe = SdpAgent::new(&cfg, market.num_assets(), 9);
    checkpoint::load_sdp(&mut probe, &path).expect("healed checkpoint must load");
    assert_eq!(flat_params(&probe.network), flat_params(&agent.network));
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoint v2 round-trips arbitrary parameter bit patterns
    /// exactly, and any single flipped byte is detected — the file never
    /// silently loads wrong data.
    #[test]
    fn checkpoint_v2_checksum_round_trips_and_detects_bitrot(
        seed in 0u64..10_000,
        flip_pos in 0usize..1_000_000,
        flip_bit in 0u32..8,
    ) {
        let cfg = tiny_cfg();
        let mut agent = SdpAgent::new(&cfg, 11, seed);
        // Scramble the parameters deterministically from the seed so every
        // case checksums a different payload.
        let mut params = flat_params(&agent.network);
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for p in params.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *p = f64::from_bits(x >> 12 | 0x3ff0_0000_0000_0000); // finite, ∈ [1, 2)
        }
        set_flat_params(&mut agent.network, &params);

        let path = tmp(&format!("prop-{seed}.ckpt"));
        checkpoint::save_sdp(&agent, &path).unwrap();

        // Round trip is bit-exact.
        let mut restored = SdpAgent::new(&cfg, 11, seed.wrapping_add(1));
        checkpoint::load_sdp(&mut restored, &path).unwrap();
        let back = flat_params(&restored.network);
        prop_assert!(
            params.iter().zip(&back).all(|(a, b)| a.to_bits() == b.to_bits()),
            "round trip changed bits"
        );

        // Any single flipped byte must be rejected, never silently loaded.
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        std::fs::write(&path, &bytes).unwrap();
        let verdict = checkpoint::load_sdp(&mut restored, &path);
        std::fs::remove_file(&path).ok();
        match verdict {
            Err(
                LoadCheckpointError::Corrupt { .. }
                | LoadCheckpointError::Parse(_)
                | LoadCheckpointError::Shape { .. },
            ) => {}
            Err(LoadCheckpointError::Io(e)) => {
                return Err(format!("bitrot misclassified as IO error: {e}"));
            }
            Ok(()) => return Err(format!("flipped byte at {pos} loaded silently")),
        }
    }

    /// The sanitizer repairs arbitrary injected candle damage in one pass:
    /// a second pass always reports a clean market.
    #[test]
    fn sanitizer_repair_converges_in_one_pass(
        seed in 0u64..10_000,
        // The shrunk(30, 0) market has 60 periods; the outlier needs a
        // previous close as reference, so it starts at period 1.
        p1 in 0usize..60, a1 in 0usize..11,
        p2 in 0usize..60, a2 in 0usize..11,
        p3 in 1usize..60, a3 in 0usize..11,
        factor in 10.0f64..500.0,
    ) {
        let mut market = chaos_market(seed);
        apply_market_faults(&mut market, &[
            spikefolio_resilience::MarketFault {
                period: p1, asset: a1, kind: MarketFaultKind::DropNan,
            },
            spikefolio_resilience::MarketFault {
                period: p2, asset: a2, kind: MarketFaultKind::NonPositive,
            },
            spikefolio_resilience::MarketFault {
                period: p3, asset: a3, kind: MarketFaultKind::Outlier(factor),
            },
        ]);
        let cfg = SanitizeConfig::default();
        let first = sanitize_market(&mut market, &cfg)
            .map_err(|e| format!("repair policy rejected: {e}"))?;
        prop_assert!(!first.issues.is_empty(), "damage went undetected");
        let second = sanitize_market(&mut market, &cfg)
            .map_err(|e| format!("second pass rejected: {e}"))?;
        prop_assert!(second.clean(), "repair did not converge: {:?}", second.issues);
    }
}
