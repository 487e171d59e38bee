//! Fault-tolerant SDP training: per-epoch health checks, recovery
//! policies, and hardened checkpoint IO.
//!
//! [`train_sdp_guarded`] wraps the epoch-at-a-time
//! [`SdpTrainingSession`](crate::training::SdpTrainingSession) with a
//! guard loop. Before every epoch it snapshots the full training state
//! (parameters, Adam moments, PVM, sampling RNG, counters); after the
//! epoch it runs [`check_epoch`] over the epoch statistics and the
//! post-update parameters. A healthy epoch is committed — appended to the
//! log, checkpointed to disk (format v2, atomic write, bounded
//! retry/backoff on transient IO errors) — and training moves on. An
//! unhealthy epoch triggers the configured [`GuardPolicy`]: discard and
//! move on (`Skip`), restore and retry with a tightened gradient clip
//! (`Clip`), or restore the last-good state and retry as-is (`Rollback`,
//! which also probes the on-disk checkpoint and rewrites it when the CRC
//! says it rotted). Retries are bounded by
//! [`GuardConfig::max_retries`]; exhausting them restores the last-good
//! state and returns with [`GuardedOutcome::aborted`] set rather than
//! shipping poisoned weights.
//!
//! Everything is deterministic: snapshots capture the RNG streams, so a
//! retried epoch replays bit-for-bit, and a faulted run whose faults are
//! all recovered produces the **same final weights** as a fault-free run
//! — the strongest assertion in the chaos suite
//! (`tests/fault_injection.rs`).
//!
//! Faults come from a scripted, seeded [`FaultPlan`]: gradient-level
//! faults are applied to the session between epoch and health check, IO
//! faults inside the checkpoint save/load seams, and market faults via
//! [`apply_market_faults`] before training starts. An empty plan (the
//! default) injects nothing and leaves training bitwise identical to the
//! unguarded loop.

use crate::agent::SdpAgent;
use crate::checkpoint::{self, LoadCheckpointError};
use crate::training::{EpochStats, Trainer, TrainingLog};
use spikefolio_market::{Candle, MarketData};
use spikefolio_resilience::io::retry_io;
use spikefolio_resilience::{
    check_epoch, FaultPlan, GradFault, GuardConfig, GuardPolicy, MarketFault, MarketFaultKind,
};
use spikefolio_snn::stbp;
use spikefolio_telemetry::{labels, Record, Recorder, Stopwatch};
use std::path::PathBuf;

/// Configuration of one guarded training run.
#[derive(Debug, Clone, Default)]
pub struct ResilienceOptions {
    /// Health-check thresholds and recovery policy.
    pub guard: GuardConfig,
    /// Where to persist the last-good checkpoint (v2 format, atomic
    /// writes). `None` trains without touching disk; rollback then uses
    /// the in-memory snapshot alone.
    pub checkpoint_path: Option<PathBuf>,
    /// Scripted fault schedule. [`FaultPlan::default`] injects nothing.
    pub faults: FaultPlan,
}

/// What a guarded training run did, beyond the ordinary log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GuardedOutcome {
    /// Per-epoch diagnostics of the committed (healthy) epochs.
    pub log: TrainingLog,
    /// Unhealthy epochs that were retried to a healthy result.
    pub recoveries: u64,
    /// Epochs discarded under [`GuardPolicy::Skip`].
    pub epochs_skipped: u64,
    /// Transient checkpoint IO failures absorbed by retry/backoff.
    pub io_retries: u64,
    /// Corrupted/unreadable checkpoints detected (and rewritten) during
    /// rollback.
    pub corruption_detected: u64,
    /// Training stopped early: an epoch stayed unhealthy through the
    /// whole retry budget. The agent holds the last-good parameters.
    pub aborted: bool,
}

fn policy_label(p: GuardPolicy) -> &'static str {
    match p {
        GuardPolicy::Skip => "skip",
        GuardPolicy::Clip => "clip",
        GuardPolicy::Rollback => "rollback",
    }
}

/// Applies a scheduled gradient fault to the just-finished epoch,
/// producing the observable aftermath of a poisoned gradient: non-finite
/// statistics and (for NaN/Inf) non-finite parameters the optimizer
/// would have written.
fn apply_grad_fault(agent: &mut SdpAgent, fault: GradFault, stats: &mut EpochStats) {
    match fault {
        GradFault::NaN => {
            let mut params = stbp::flat_params(&agent.network);
            if let Some(p) = params.first_mut() {
                *p = f64::NAN;
            }
            stbp::set_flat_params(&mut agent.network, &params);
            stats.grad_norm = f64::NAN;
        }
        GradFault::Inf => {
            let mut params = stbp::flat_params(&agent.network);
            if let Some(p) = params.first_mut() {
                *p = f64::INFINITY;
            }
            stbp::set_flat_params(&mut agent.network, &params);
            stats.grad_norm = f64::INFINITY;
        }
        GradFault::Explode => {
            stats.grad_norm *= 1e12;
        }
    }
}

/// Plants the plan's market faults into `market` (NaN candles,
/// non-positive prices, outlier spikes) via the unchecked candle seam.
/// Out-of-range coordinates are ignored, so one plan works across market
/// sizes.
pub fn apply_market_faults(market: &mut MarketData, faults: &[MarketFault]) {
    for f in faults {
        if f.period >= market.num_periods() || f.asset >= market.num_assets() {
            continue;
        }
        let c = market.candle(f.period, f.asset);
        let bad = match f.kind {
            MarketFaultKind::DropNan => Candle {
                open: f64::NAN,
                high: f64::NAN,
                low: f64::NAN,
                close: f64::NAN,
                volume: c.volume,
            },
            MarketFaultKind::NonPositive => Candle { close: -c.close.abs(), ..c },
            MarketFaultKind::Outlier(factor) => {
                let close = c.close * factor;
                Candle {
                    open: c.open,
                    high: c.high.max(close),
                    low: c.low.min(close),
                    close,
                    volume: c.volume,
                }
            }
        };
        market.set_candle_unchecked(f.period, f.asset, bad);
    }
}

/// Writes the current agent parameters to the checkpoint path with
/// bounded retry/backoff, routing injected IO faults through the plan.
/// Returns whether the write ultimately succeeded.
fn write_checkpoint(
    agent: &SdpAgent,
    path: &PathBuf,
    guard: &GuardConfig,
    faults: &mut FaultPlan,
    outcome: &mut GuardedOutcome,
    rec: &mut dyn Recorder,
) -> bool {
    let watch = Stopwatch::start(rec);
    let attempt = retry_io(guard.io_retries, guard.backoff_base_ms, || {
        checkpoint::save_sdp_faulted(agent, path, Some(faults))
    });
    if attempt.retries > 0 {
        outcome.io_retries += attempt.retries as u64;
        rec.counter(labels::COUNTER_RESILIENCE_IO_RETRIES, attempt.retries as u64);
    }
    let ok = match attempt.result {
        Ok(()) => true,
        Err(e) => {
            // Training can proceed without the checkpoint; record the
            // failure so the run log shows the degraded durability.
            if rec.enabled() {
                rec.emit(
                    Record::new("health")
                        .field("event", "checkpoint_write_failed")
                        .field("error", e.to_string()),
                );
            }
            false
        }
    };
    watch.stop(rec, labels::SPAN_TRAIN_CHECKPOINT);
    ok
}

/// Rollback recovery: probe the on-disk checkpoint for integrity, then
/// restore the in-memory last-good snapshot (which also carries optimizer
/// moments and RNG streams that no checkpoint holds). A checkpoint that
/// fails its CRC is counted and rewritten from the snapshot, so the disk
/// copy heals as part of the recovery.
fn rollback_via_checkpoint(
    agent: &mut SdpAgent,
    path: &PathBuf,
    guard: &GuardConfig,
    faults: &mut FaultPlan,
    outcome: &mut GuardedOutcome,
    rec: &mut dyn Recorder,
) -> bool {
    let attempt = retry_io(guard.io_retries, guard.backoff_base_ms, || {
        match checkpoint::load_sdp_faulted(agent, path, Some(faults)) {
            Ok(()) => Ok(true),
            // Transient read errors are worth retrying; anything else
            // (corruption, syntax, shape) is a damaged file.
            Err(LoadCheckpointError::Io(e)) => Err(e),
            Err(_) => Ok(false),
        }
    });
    if attempt.retries > 0 {
        outcome.io_retries += attempt.retries as u64;
        rec.counter(labels::COUNTER_RESILIENCE_IO_RETRIES, attempt.retries as u64);
    }
    matches!(attempt.result, Ok(true))
}

/// Trains the SDP agent with per-epoch health checks and recovery. See
/// the [module docs](self) for the full protocol. With default options
/// (no faults, no checkpoint path) and a healthy run this is bitwise
/// identical to [`Trainer::train_sdp_with`].
///
/// # Panics
///
/// Panics if the market is shorter than the observation window + 2.
pub fn train_sdp_guarded(
    trainer: &Trainer,
    agent: &mut SdpAgent,
    market: &MarketData,
    opts: &mut ResilienceOptions,
    rec: &mut dyn Recorder,
) -> GuardedOutcome {
    let guard = opts.guard;
    let path = opts.checkpoint_path.clone();
    let tc = trainer.config().training;
    let mut session = trainer.sdp_session(agent, market);
    let base_clip = session.max_grad_norm();
    let mut outcome =
        GuardedOutcome { log: TrainingLog::with_capacity(tc.epochs), ..Default::default() };
    let mut best_reward: Option<f64> = None;

    // The initial state is the first "last good": persist it so rollback
    // has a disk copy to probe even before the first healthy epoch.
    if let Some(p) = &path {
        write_checkpoint(agent, p, &guard, &mut opts.faults, &mut outcome, rec);
    }

    for epoch in 0..tc.epochs {
        let snap = session.snapshot(agent);
        let mut attempts = 0u32;
        loop {
            let mut stats = session.run_epoch(agent, rec);
            if let Some(fault) = opts.faults.take_grad_fault(epoch as u64) {
                apply_grad_fault(agent, fault, &mut stats);
            }
            let params = stbp::flat_params(&agent.network);
            let health = check_epoch(stats.reward, stats.grad_norm, &params, best_reward, &guard);
            if health.healthy() {
                if attempts > 0 {
                    outcome.recoveries += 1;
                    rec.counter(labels::COUNTER_RESILIENCE_RECOVERIES, 1);
                }
                session.set_max_grad_norm(base_clip);
                outcome.log.push_epoch(&stats);
                outcome.log.steps += tc.steps_per_epoch;
                best_reward = Some(best_reward.map_or(stats.reward, |b| b.max(stats.reward)));
                if let Some(p) = &path {
                    write_checkpoint(agent, p, &guard, &mut opts.faults, &mut outcome, rec);
                }
                break;
            }

            if rec.enabled() {
                let issues: Vec<String> =
                    health.issues.iter().map(|i| i.label().to_owned()).collect();
                rec.emit(
                    Record::new("health")
                        .field("event", "unhealthy_epoch")
                        .field("epoch", epoch as u64)
                        .field("attempt", attempts as u64)
                        .field("policy", policy_label(guard.policy))
                        .field("issues", issues.join(",")),
                );
            }

            attempts += 1;
            if attempts > guard.max_retries {
                // Out of budget: hand back the last-good state instead of
                // poisoned weights.
                session.restore(agent, &snap);
                session.set_max_grad_norm(base_clip);
                outcome.aborted = true;
                if rec.enabled() {
                    rec.emit(
                        Record::new("health")
                            .field("event", "aborted")
                            .field("epoch", epoch as u64)
                            .field("retries", guard.max_retries as u64),
                    );
                }
                return outcome;
            }

            match guard.policy {
                GuardPolicy::Skip => {
                    session.restore(agent, &snap);
                    outcome.epochs_skipped += 1;
                    rec.counter(labels::COUNTER_RESILIENCE_EPOCHS_SKIPPED, 1);
                    break;
                }
                GuardPolicy::Clip => {
                    session.restore(agent, &snap);
                    let tightened = session.max_grad_norm().unwrap_or(10.0) * 0.5;
                    session.set_max_grad_norm(Some(tightened));
                }
                GuardPolicy::Rollback => {
                    if let Some(p) = &path {
                        let intact = rollback_via_checkpoint(
                            agent,
                            p,
                            &guard,
                            &mut opts.faults,
                            &mut outcome,
                            rec,
                        );
                        if !intact {
                            outcome.corruption_detected += 1;
                            rec.counter(labels::COUNTER_RESILIENCE_CORRUPTIONS, 1);
                        }
                    }
                    // The snapshot is the authoritative last-good state
                    // (it also holds optimizer moments and RNG streams);
                    // restoring it heals the agent either way.
                    session.restore(agent, &snap);
                    if let Some(p) = &path {
                        // Rewrite the checkpoint so the disk copy is clean
                        // again after detected corruption.
                        if outcome.corruption_detected > 0 {
                            write_checkpoint(agent, p, &guard, &mut opts.faults, &mut outcome, rec);
                        }
                    }
                }
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::config::SdpConfig;
    use spikefolio_market::Date;
    use spikefolio_telemetry::NoopRecorder;

    fn trending_market(periods: usize) -> MarketData {
        let mut candles = Vec::new();
        let mut up = 100.0;
        let mut down = 100.0;
        for _ in 0..periods {
            let nu = up * 1.015;
            let nd = down * 0.995;
            candles.push(Candle::new(up, nu, up, nu, 1.0));
            candles.push(Candle::new(down, down, nd, nd, 1.0));
            up = nu;
            down = nd;
        }
        MarketData::new(vec!["UP".into(), "DN".into()], Date::new(2020, 1, 1), 4, 2, candles)
    }

    fn tiny_cfg() -> SdpConfig {
        let mut cfg = SdpConfig::smoke();
        cfg.training.epochs = 3;
        cfg.training.steps_per_epoch = 2;
        cfg.training.batch_size = 4;
        cfg
    }

    #[test]
    fn faultless_guarded_run_matches_plain_training() {
        let market = trending_market(80);
        let cfg = tiny_cfg();
        let trainer = Trainer::new(&cfg);

        let mut plain = SdpAgent::new(&cfg, market.num_assets(), 3);
        let plain_log = trainer.train_sdp_with(&mut plain, &market, &mut NoopRecorder);

        let mut guarded = SdpAgent::new(&cfg, market.num_assets(), 3);
        let mut opts = ResilienceOptions::default();
        let outcome =
            train_sdp_guarded(&trainer, &mut guarded, &market, &mut opts, &mut NoopRecorder);

        assert!(!outcome.aborted);
        assert_eq!(outcome.recoveries, 0);
        assert_eq!(outcome.log.epoch_rewards, plain_log.epoch_rewards);
        assert_eq!(stbp::flat_params(&plain.network), stbp::flat_params(&guarded.network));
    }

    #[test]
    fn nan_fault_recovers_to_faultfree_weights() {
        let market = trending_market(80);
        let cfg = tiny_cfg();
        let trainer = Trainer::new(&cfg);

        let mut clean = SdpAgent::new(&cfg, market.num_assets(), 3);
        let _ = trainer.train_sdp_with(&mut clean, &market, &mut NoopRecorder);

        let mut faulted = SdpAgent::new(&cfg, market.num_assets(), 3);
        let mut opts = ResilienceOptions {
            faults: FaultPlan::new(1).grad_fault_at(1, GradFault::NaN),
            ..Default::default()
        };
        let outcome =
            train_sdp_guarded(&trainer, &mut faulted, &market, &mut opts, &mut NoopRecorder);
        assert!(!outcome.aborted);
        assert_eq!(outcome.recoveries, 1);
        // One-shot fault + bit-exact rollback: the recovered run equals
        // the fault-free run.
        assert_eq!(stbp::flat_params(&clean.network), stbp::flat_params(&faulted.network));
    }

    #[test]
    fn persistent_fault_exhausts_retries_and_aborts_cleanly() {
        let market = trending_market(80);
        let cfg = tiny_cfg();
        let trainer = Trainer::new(&cfg);
        let mut agent = SdpAgent::new(&cfg, market.num_assets(), 3);
        // Schedule more NaN faults on epoch 0 than the retry budget by
        // reusing the epoch key (take_grad_fault consumes one per retry).
        let mut plan = FaultPlan::new(9);
        for _ in 0..10 {
            plan = plan.grad_fault_at(0, GradFault::NaN);
        }
        let mut opts = ResilienceOptions {
            guard: GuardConfig { max_retries: 2, ..GuardConfig::default() },
            faults: plan,
            ..Default::default()
        };
        let before = stbp::flat_params(&agent.network);
        let outcome =
            train_sdp_guarded(&trainer, &mut agent, &market, &mut opts, &mut NoopRecorder);
        assert!(outcome.aborted);
        assert!(outcome.log.epoch_rewards.is_empty());
        // Last-good state: the initial parameters, all finite.
        assert_eq!(stbp::flat_params(&agent.network), before);
    }

    #[test]
    fn skip_policy_discards_the_epoch() {
        let market = trending_market(80);
        let cfg = tiny_cfg();
        let trainer = Trainer::new(&cfg);
        let mut agent = SdpAgent::new(&cfg, market.num_assets(), 3);
        let mut opts = ResilienceOptions {
            guard: GuardConfig { policy: GuardPolicy::Skip, ..GuardConfig::default() },
            faults: FaultPlan::new(2).grad_fault_at(1, GradFault::Inf),
            ..Default::default()
        };
        let outcome =
            train_sdp_guarded(&trainer, &mut agent, &market, &mut opts, &mut NoopRecorder);
        assert!(!outcome.aborted);
        assert_eq!(outcome.epochs_skipped, 1);
        assert_eq!(outcome.recoveries, 0);
        // One epoch discarded: only epochs-1 committed.
        assert_eq!(outcome.log.epoch_rewards.len(), cfg.training.epochs - 1);
        assert!(stbp::flat_params(&agent.network).iter().all(|p| p.is_finite()));
    }

    #[test]
    fn clip_policy_tightens_and_recovers_from_explosion() {
        let market = trending_market(80);
        let cfg = tiny_cfg();
        let trainer = Trainer::new(&cfg);
        let mut agent = SdpAgent::new(&cfg, market.num_assets(), 3);
        let mut opts = ResilienceOptions {
            guard: GuardConfig { policy: GuardPolicy::Clip, ..GuardConfig::default() },
            faults: FaultPlan::new(3).grad_fault_at(0, GradFault::Explode),
            ..Default::default()
        };
        let outcome =
            train_sdp_guarded(&trainer, &mut agent, &market, &mut opts, &mut NoopRecorder);
        assert!(!outcome.aborted);
        assert_eq!(outcome.recoveries, 1);
        assert_eq!(outcome.log.epoch_rewards.len(), cfg.training.epochs);
    }

    #[test]
    fn market_faults_land_on_the_grid() {
        let mut market = trending_market(40);
        let faults = [
            MarketFault { period: 3, asset: 0, kind: MarketFaultKind::DropNan },
            MarketFault { period: 5, asset: 1, kind: MarketFaultKind::NonPositive },
            MarketFault { period: 7, asset: 0, kind: MarketFaultKind::Outlier(1000.0) },
            MarketFault { period: 9999, asset: 0, kind: MarketFaultKind::DropNan }, // ignored
        ];
        apply_market_faults(&mut market, &faults);
        assert!(market.candle(3, 0).close.is_nan());
        assert!(market.candle(5, 1).close < 0.0);
        let spike = market.candle(7, 0);
        assert!(spike.close > 1000.0 && spike.high >= spike.close);
    }
}
