//! The live desk: a chaos-hardened continuous-learning loop.
//!
//! `spikefolio live-desk` runs the full production shape of the paper's
//! pipeline as one supervised loop: market data arrives incrementally (a
//! seeded generator revealing periods round by round, or a CSV feed
//! tailed with [`CsvTail`]), a guarded trainer ([`train_sdp_guarded`])
//! fine-tunes the incumbent policy on a sliding window, and every
//! candidate must pass a three-stage validation gate before the serving
//! [`ModelStore`] hot-swaps it in:
//!
//! 1. **integrity** — the candidate checkpoint on disk round-trips
//!    through `load_sdp` (CRC + shape validation); a rotted file is
//!    healed from the in-memory candidate and re-probed once,
//! 2. **validation** — the candidate's out-of-sample reward (mean log
//!    return of a backtest on the held-out tail of the window) must not
//!    fall below the incumbent's on the same slice,
//! 3. **drift** — the relative drift of the candidate's output-weight
//!    entropy (the PR-7 health-monitor baseline probe) against the
//!    incumbent's must stay under a bound.
//!
//! A candidate that fails any stage is **quarantined** — copied to
//! `quarantine/round-N-<kind>.ckpt` with the reason recorded on the
//! store ([`ModelStore::record_rejection`]) — and serving continues on
//! the last-good model. The desk therefore maintains one invariant above
//! all: *the serving model's out-of-sample reward never decreases*.
//!
//! Faults come from the pipeline schedule of a seeded
//! [`FaultPlan`] ([`PipelineFaultKind`]): trainer NaN epochs and worker
//! panics, corrupted candidate checkpoints, poisoned validation slices,
//! swap-time IO failures, and stalled feeds. Every recovery path is
//! deterministic and converges to the fault-free outcome, so a desk run
//! whose faults were all absorbed finishes with **bitwise identical
//! weights** to a fault-free run of the same seed — asserted by
//! `tests/live_desk.rs` via [`DeskReport::final_weights_crc`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spikefolio_blackbox::{install_panic_dump, FlightRecorder, LineageEntry};
use spikefolio_env::Backtester;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_market::{Candle, CsvTail, Date, MarketData};
use spikefolio_resilience::io::{atomic_write_faulted, retry_io};
use spikefolio_resilience::{crc32, FaultPlan, GradFault, GuardConfig, PipelineFaultKind};
use spikefolio_serve::metrics::{probe_baseline, HealthConfig};
use spikefolio_serve::ModelStore;
use spikefolio_snn::stbp::flat_params;
use spikefolio_telemetry::value::Value;
use spikefolio_telemetry::{labels, Record, Recorder};

use crate::agent::SdpAgent;
use crate::checkpoint;
use crate::config::SdpConfig;
use crate::guarded::{train_sdp_guarded, ResilienceOptions};
use crate::serving::{BackendKind, CheckpointBackendLoader, FloatPolicyBackend};
use crate::training::Trainer;

/// IO-fault label of the serving-checkpoint swap write; schedule
/// [`FaultPlan::fail_writes`] against it (the desk does this itself for
/// [`PipelineFaultKind::SwapIo`]).
pub const DESK_SWAP_IO_LABEL: &str = "desk/swap";

/// The most periods a desk may ask its feed for (warmup plus every
/// round's reveal). The generator feed builds them all up front, at about
/// 8 µs and 450 bytes per period (11 assets, 2-vCPU host): this cap is
/// about 0.8 s and 45 MB. [`run_desk`] refuses a larger run, and `desk
/// triage` a manifest claiming one, before anything is generated.
pub const MAX_FEED_PERIODS: usize = 100_000;

/// Rejects a feed larger than [`MAX_FEED_PERIODS`].
pub(crate) fn check_feed_periods(periods: usize) -> Result<(), String> {
    if periods > MAX_FEED_PERIODS {
        return Err(format!("feed of {periods} periods exceeds the {MAX_FEED_PERIODS}-period cap"));
    }
    Ok(())
}

/// Configuration of one live-desk run.
#[derive(Debug, Clone)]
pub struct DeskOptions {
    /// Model + training topology (shared by trainer and serving loader).
    pub config: SdpConfig,
    /// Master seed: generator market, warmup agent init, fault plans.
    pub seed: u64,
    /// Continuous-learning rounds after warmup.
    pub rounds: usize,
    /// Periods delivered before the first incumbent is trained.
    pub warmup: usize,
    /// New periods revealed per round (generator mode).
    pub reveal_per_round: usize,
    /// Sliding-window length in periods the trainer sees; `0` grows the
    /// window unboundedly (train on everything delivered so far).
    pub window: usize,
    /// Fraction of the window held out (from the end) as the
    /// out-of-sample validation slice.
    pub val_fraction: f64,
    /// Gate 3 bound: maximum relative entropy drift of a candidate vs
    /// the incumbent.
    pub drift_threshold: f64,
    /// Guard thresholds + IO retry budget shared by the trainer and the
    /// swap write.
    pub guard: GuardConfig,
    /// Scripted pipeline faults (see [`parse_fault_spec`]).
    pub faults: FaultPlan,
    /// Serving backend the store loads candidates into.
    pub backend: BackendKind,
    /// Working directory: `serving.ckpt`, `candidate.ckpt`, and the
    /// `quarantine/` subdirectory live here.
    pub dir: PathBuf,
    /// Tail this CSV feed instead of the seeded generator.
    pub csv: Option<PathBuf>,
    /// Feed polls without new data before a round is declared stalled
    /// and the desk stops.
    pub max_stall_polls: u32,
    /// Base of the capped exponential backoff between feed polls,
    /// milliseconds (`0` disables sleeping — used by tests).
    pub backoff_base_ms: u64,
    /// Flight-recorder dump path. `Some` arms the blackbox: pipeline
    /// events are ring-buffered and flushed here atomically on panic (a
    /// chained process hook), on every faulted round, and at run end.
    pub blackbox: Option<PathBuf>,
    /// Lineage-ledger path (`spikefolio.lineage.v1` JSONL, CRC-framed
    /// per line). `Some` appends one entry per completed round.
    pub lineage: Option<PathBuf>,
    /// Desk-top status-file path. `Some` atomically rewrites a
    /// `spikefolio.deskstatus.v1` snapshot after every round, which the
    /// `desk-top` dashboard polls.
    pub status: Option<PathBuf>,
}

impl DeskOptions {
    /// Periods the desk asks its feed for over the whole run: the warmup
    /// window plus every round's reveal.
    fn feed_periods(&self) -> usize {
        self.rounds.saturating_mul(self.reveal_per_round).saturating_add(self.warmup)
    }

    /// A fast, deterministic configuration for tests and the CI smoke:
    /// smoke-sized model, four rounds of six periods over a 40-period
    /// warmup, no sleeps.
    pub fn smoke(dir: PathBuf) -> Self {
        Self {
            config: SdpConfig::smoke(),
            seed: 20220314,
            rounds: 4,
            warmup: 40,
            reveal_per_round: 6,
            window: 0,
            val_fraction: 0.25,
            drift_threshold: 0.75,
            guard: GuardConfig { backoff_base_ms: 0, ..GuardConfig::default() },
            faults: FaultPlan::default(),
            backend: BackendKind::Float,
            dir,
            csv: None,
            max_stall_polls: 8,
            backoff_base_ms: 0,
            blackbox: None,
            lineage: None,
            status: None,
        }
    }
}

/// What one desk round did.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Periods delivered by the feed when the round trained.
    pub revealed: usize,
    /// `promoted`, `rejected:<integrity|validation|drift>`,
    /// `swap_failed`, or `stalled`.
    pub outcome: String,
    /// Labels of the pipeline faults scheduled for this round.
    pub faults: Vec<String>,
    /// Candidate out-of-sample reward (NaN when training never produced
    /// an evaluable candidate).
    pub candidate_reward: f64,
    /// Incumbent out-of-sample reward on the same validation slice.
    pub incumbent_reward: f64,
    /// Out-of-sample reward of whatever is serving after the round —
    /// the candidate's if promoted, otherwise the incumbent's. By the
    /// gate's reward floor this is always `>= incumbent_reward`.
    pub serving_reward: f64,
    /// Store version serving after the round.
    pub served_version: u64,
    /// Relative entropy drift of the candidate vs the incumbent.
    pub entropy_drift: f64,
    /// Faults absorbed this round (trainer retries, heals, swap-IO
    /// retries, stall re-polls, poisoned-validation rebuilds).
    pub recoveries: u64,
    /// Whether the round ended with an unrecovered fault (serving
    /// continues on last-good, but the desk is degraded).
    pub degraded: bool,
}

/// Outcome of a whole desk run ([`run_desk`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DeskReport {
    /// Master seed of the run.
    pub seed: u64,
    /// Per-round records in order.
    pub rounds: Vec<RoundRecord>,
    /// Candidates that passed the gate and were hot-swapped in.
    pub promotions: u64,
    /// Candidates quarantined (gate rejections + unrecovered faults).
    pub quarantines: u64,
    /// Total faults absorbed across all rounds.
    pub recoveries: u64,
    /// Feed polls that returned no new data.
    pub feed_stalls: u64,
    /// Store version serving when the desk stopped.
    pub final_version: u64,
    /// CRC-32 over the little-endian bytes of the final incumbent
    /// parameters — the cheap bitwise-reproducibility witness.
    pub final_weights_crc: u32,
    /// Every version that ever served: 1 (warmup) plus each promotion.
    /// Anything served outside this list would be a gate bypass.
    pub gate_passed_versions: Vec<u64>,
    /// Whether the *last* round ended degraded (an unrecovered fault
    /// with nothing after it to clear the flag).
    pub degraded: bool,
    /// The feed ran dry or stalled past the watchdog budget before all
    /// rounds completed.
    pub ended_early: bool,
}

impl DeskReport {
    /// The report as a `spikefolio.desk.v1` [`Value`] tree.
    pub fn to_value(&self) -> Value {
        let rounds = self
            .rounds
            .iter()
            .map(|r| {
                map([
                    ("round", Value::U64(r.round as u64)),
                    ("revealed", Value::U64(r.revealed as u64)),
                    ("outcome", Value::Str(r.outcome.clone())),
                    ("faults", Value::List(r.faults.iter().cloned().map(Value::Str).collect())),
                    ("candidate_reward", Value::F64(r.candidate_reward)),
                    ("incumbent_reward", Value::F64(r.incumbent_reward)),
                    ("serving_reward", Value::F64(r.serving_reward)),
                    ("served_version", Value::U64(r.served_version)),
                    ("entropy_drift", Value::F64(r.entropy_drift)),
                    ("recoveries", Value::U64(r.recoveries)),
                    ("degraded", Value::Bool(r.degraded)),
                ])
            })
            .collect();
        map([
            ("schema", Value::Str("spikefolio.desk.v1".to_string())),
            ("seed", Value::U64(self.seed)),
            ("promotions", Value::U64(self.promotions)),
            ("quarantines", Value::U64(self.quarantines)),
            ("recoveries", Value::U64(self.recoveries)),
            ("feed_stalls", Value::U64(self.feed_stalls)),
            ("final_version", Value::U64(self.final_version)),
            ("final_weights_crc", Value::U64(self.final_weights_crc as u64)),
            (
                "gate_passed_versions",
                Value::List(self.gate_passed_versions.iter().map(|&v| Value::U64(v)).collect()),
            ),
            ("degraded", Value::Bool(self.degraded)),
            ("ended_early", Value::Bool(self.ended_early)),
            ("rounds", Value::List(rounds)),
        ])
    }

    /// The report as one-line JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "live-desk seed {}: {} rounds, {} promoted, {} quarantined, {} recoveries, \
             {} feed stalls",
            self.seed,
            self.rounds.len(),
            self.promotions,
            self.quarantines,
            self.recoveries,
            self.feed_stalls,
        );
        for r in &self.rounds {
            let _ = writeln!(
                out,
                "  round {:>2}  {:<20} v{}  inc {:+.5}  cand {:+.5}  serve {:+.5}  \
                 drift {:.3}  recov {}{}{}",
                r.round,
                r.outcome,
                r.served_version,
                r.incumbent_reward,
                r.candidate_reward,
                r.serving_reward,
                r.entropy_drift,
                r.recoveries,
                if r.faults.is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", r.faults.join(","))
                },
                if r.degraded { "  DEGRADED" } else { "" },
            );
        }
        let _ = writeln!(
            out,
            "final: serving v{} (weights crc 0x{:08x}), health {}{}",
            self.final_version,
            self.final_weights_crc,
            if self.degraded { "DEGRADED" } else { "ok" },
            if self.ended_early { ", ended early (feed stalled)" } else { "" },
        );
        out
    }
}

/// `fields` with owned keys, in order.
fn owned_keys<const N: usize>(fields: [(&str, Value); N]) -> Vec<(String, Value)> {
    fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// A [`Value::Map`] of `fields`, in order.
pub(crate) fn map<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Map(owned_keys(fields))
}

/// Where new periods come from.
pub(crate) enum Feed {
    /// Pre-generated seeded market revealed `reveal_per_round` periods
    /// at a time — the deterministic chaos-test mode.
    Generator {
        /// The full market; rounds see `slice(0, revealed)`.
        market: MarketData,
    },
    /// A CSV feed tailed from disk; partially written final lines and
    /// incomplete trailing periods are held back by [`CsvTail`].
    Csv {
        /// The tail follower.
        tail: CsvTail,
        /// Most recent complete snapshot.
        last: Option<MarketData>,
    },
}

impl Feed {
    /// The feed geometry, in one place for the desk and for `desk
    /// triage`'s rebuild: a CSV tailed as 2 periods per day from
    /// 2016-01-01, or the seeded generator sized to deliver `periods`.
    pub(crate) fn open(csv: Option<&Path>, periods: usize, seed: u64) -> Self {
        match csv {
            Some(path) => {
                Self::Csv { tail: CsvTail::new(path, Date::new(2016, 1, 1), 2), last: None }
            }
            None => {
                // The shrunk presets emit 2 periods per day; over-generate
                // by a day so the last round never runs dry.
                let days = (periods / 2 + 2) as i64;
                Self::Generator {
                    market: ExperimentPreset::experiment1().shrunk(days, 0).generate(seed),
                }
            }
        }
    }

    /// Blocks (with capped exponential backoff) until at least `target`
    /// periods are available; `Ok(None)` means the watchdog budget ran
    /// out (generator exhausted or CSV feed stalled).
    fn advance_to(
        &mut self,
        target: usize,
        injected_stalls: u32,
        opts: &DeskOptions,
        stalls: &mut u64,
        rec: &mut dyn Recorder,
    ) -> Result<Option<MarketData>, String> {
        // Injected stalls model a feed that goes quiet for a few
        // watchdog ticks and then resumes: count them, back off, carry on.
        for k in 0..injected_stalls {
            *stalls += 1;
            rec.counter(labels::COUNTER_DESK_FEED_STALLS, 1);
            sleep_backoff(opts.backoff_base_ms, k);
        }
        match self {
            Self::Generator { market } => {
                if target > market.num_periods() {
                    return Ok(None);
                }
                Ok(Some(market.slice(0, target)))
            }
            Self::Csv { tail, last } => {
                let mut polls = 0u32;
                loop {
                    if let Some(data) = tail.poll().map_err(|e| format!("feed: {e}"))? {
                        *last = Some(data);
                    }
                    for warning in tail.take_warnings() {
                        rec.counter(labels::COUNTER_DESK_FEED_WARNINGS, 1);
                        if rec.enabled() {
                            rec.emit(
                                Record::new("desk_feed_warning")
                                    .field("kind", warning.kind())
                                    .field("line", warning.line()),
                            );
                        }
                    }
                    if let Some(data) = last {
                        if data.num_periods() >= target {
                            return Ok(Some(data.slice(0, target)));
                        }
                    }
                    if polls >= opts.max_stall_polls {
                        return Ok(None);
                    }
                    *stalls += 1;
                    rec.counter(labels::COUNTER_DESK_FEED_STALLS, 1);
                    sleep_backoff(opts.backoff_base_ms, polls);
                    polls += 1;
                }
            }
        }
    }
}

/// Sleeps `base << k` milliseconds, shift capped at 10 (matching
/// [`retry_io`]'s cap); `base == 0` never sleeps.
fn sleep_backoff(base_ms: u64, k: u32) {
    if base_ms > 0 {
        std::thread::sleep(Duration::from_millis(base_ms << k.min(10)));
    }
}

/// Splits the training window into a fit slice and an out-of-sample
/// validation slice; the validation slice keeps `min_period` periods of
/// history so its first decision has a full state. Returns
/// `(fit, val, val_from)` — `val_from` lets callers re-extract a
/// pristine validation slice after detecting poisoned data.
pub(crate) fn fit_val_split(
    window: &MarketData,
    val_fraction: f64,
    min_period: usize,
) -> (MarketData, MarketData, usize) {
    let n = window.num_periods();
    let split = ((n as f64) * (1.0 - val_fraction)) as usize;
    let val_from = split.saturating_sub(min_period);
    (window.slice(0, split), window.slice(val_from, n), val_from)
}

/// Out-of-sample reward of `agent` on `val`: mean log return of a
/// backtest. Evaluates a clone, so the agent under test is never
/// perturbed — promotions depend only on training, not on how often the
/// gate looked.
pub(crate) fn out_of_sample_reward(trainer: &Trainer, agent: &SdpAgent, val: &MarketData) -> f64 {
    let mut probe = agent.clone();
    Backtester::new(trainer.config().backtest).run(&mut probe, val).metrics.mean_log_return
}

/// Every candle finite with a positive close — the precondition for an
/// evaluable validation slice.
fn market_is_finite(m: &MarketData) -> bool {
    (0..m.num_periods()).all(|p| {
        (0..m.num_assets()).all(|a| {
            let c = m.candle(p, a);
            c.open.is_finite()
                && c.high.is_finite()
                && c.low.is_finite()
                && c.close.is_finite()
                && c.close > 0.0
        })
    })
}

/// Deterministic entropy probe of a policy: the PR-7 serving-health
/// baseline ([`probe_baseline`]) run against a float backend built from
/// the agent's network. Both sides of the drift gate use the float
/// probe, so the gate measures the *policy*, not quantization noise.
pub(crate) fn policy_entropy(agent: &SdpAgent) -> f64 {
    let backend = FloatPolicyBackend::new(agent.network.clone(), *agent.state_builder());
    probe_baseline(&backend, &HealthConfig::default(), 0).entropy
}

/// CRC-32 over the little-endian bytes of the agent's flat parameters.
fn weights_crc(agent: &SdpAgent) -> u32 {
    let bytes: Vec<u8> = flat_params(&agent.network).iter().flat_map(|p| p.to_le_bytes()).collect();
    crc32(&bytes)
}

fn fault_label(kind: PipelineFaultKind) -> String {
    match kind {
        PipelineFaultKind::TrainerNan => "nan".to_string(),
        PipelineFaultKind::TrainerPanic => "panic".to_string(),
        PipelineFaultKind::CorruptCandidate => "corrupt".to_string(),
        PipelineFaultKind::ValData => "val".to_string(),
        PipelineFaultKind::SwapIo => "swapio".to_string(),
        PipelineFaultKind::FeedStall(k) => format!("stall x{k}"),
        PipelineFaultKind::Crash => "crash".to_string(),
    }
}

/// Parses a fault-schedule spec into a [`FaultPlan`] of pipeline
/// faults: comma-separated `<kind>@<round>` tokens where kind is one of
/// `nan`, `panic`, `corrupt`, `val`, `swapio`, `crash`, or `stall`
/// (optionally `stall@<round>x<ticks>`). `crash` panics the whole desk
/// process mid-round — it has no recovery path and exists to exercise
/// the flight recorder's crash dump. Example: `"corrupt@1,nan@2,swapio@3"`.
///
/// # Errors
///
/// A message naming the offending token.
pub fn parse_fault_spec(spec: &str, seed: u64) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new(seed);
    for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let (name, at) =
            tok.split_once('@').ok_or_else(|| format!("fault {tok:?}: expected <kind>@<round>"))?;
        let (round_str, kind) = match name {
            "nan" => (at, PipelineFaultKind::TrainerNan),
            "panic" => (at, PipelineFaultKind::TrainerPanic),
            "corrupt" => (at, PipelineFaultKind::CorruptCandidate),
            "val" => (at, PipelineFaultKind::ValData),
            "swapio" => (at, PipelineFaultKind::SwapIo),
            "crash" => (at, PipelineFaultKind::Crash),
            "stall" => match at.split_once('x') {
                Some((r, ticks)) => {
                    let t: u32 = ticks
                        .parse()
                        .map_err(|_| format!("fault {tok:?}: bad stall tick count {ticks:?}"))?;
                    (r, PipelineFaultKind::FeedStall(t))
                }
                None => (at, PipelineFaultKind::FeedStall(1)),
            },
            other => {
                return Err(format!(
                    "fault {tok:?}: unknown kind {other:?} \
                     (expected nan|panic|corrupt|val|swapio|crash|stall)"
                ))
            }
        };
        let round: u64 =
            round_str.parse().map_err(|_| format!("fault {tok:?}: bad round {round_str:?}"))?;
        plan = plan.pipeline_fault(round, kind);
    }
    Ok(plan)
}

/// Flips a few bits of the candidate checkpoint on disk through the
/// plan's deterministic corruptor.
fn corrupt_file(path: &PathBuf, faults: &mut FaultPlan) -> Result<(), String> {
    let mut bytes = std::fs::read(path).map_err(|e| format!("corrupt {}: {e}", path.display()))?;
    faults.corrupt_bytes(&mut bytes);
    std::fs::write(path, &bytes).map_err(|e| format!("corrupt {}: {e}", path.display()))
}

/// The desk's on-disk layout inside [`DeskOptions::dir`].
struct DeskPaths {
    serving: PathBuf,
    candidate: PathBuf,
    quarantine_dir: PathBuf,
}

/// Schema tag of the desk-top status file ([`DeskOptions::status`]).
pub const DESK_STATUS_SCHEMA: &str = "spikefolio.deskstatus.v1";

/// Schema tag of the per-quarantine triage manifest written next to
/// every quarantined checkpoint.
pub const TRIAGE_MANIFEST_SCHEMA: &str = "spikefolio.triage.v1";

/// The desk's observability sidecar: flight recorder, lineage ledger,
/// and desk-top status file. Everything here is observe-only and
/// best-effort — a failing disk degrades the evidence, never the desk.
struct Observatory {
    flight: Option<(Arc<FlightRecorder>, PathBuf)>,
    lineage: Option<PathBuf>,
    status: Option<PathBuf>,
    seed: u64,
    rounds_total: usize,
    /// Monotone status-file revision, so pollers can detect staleness.
    status_seq: u64,
}

impl Observatory {
    fn new(opts: &DeskOptions) -> Self {
        Self {
            flight: opts
                .blackbox
                .as_ref()
                .map(|path| (Arc::new(FlightRecorder::new(256)), path.clone())),
            lineage: opts.lineage.clone(),
            status: opts.status.clone(),
            seed: opts.seed,
            rounds_total: opts.rounds,
            status_seq: 0,
        }
    }

    /// Records one flight-recorder event (no-op when the blackbox is
    /// unarmed).
    fn event<const N: usize>(&self, stage: &str, fields: [(&str, Value); N]) {
        if let Some((flight, _)) = &self.flight {
            flight.record(stage, owned_keys(fields));
        }
    }

    /// Flushes the flight recorder to its dump path, best-effort.
    fn dump(&self) {
        if let Some((flight, path)) = &self.flight {
            let _ = flight.dump(path);
        }
    }

    /// Appends one lineage entry, best-effort.
    fn lineage_append(&self, entry: &LineageEntry) {
        if let Some(path) = &self.lineage {
            let _ = entry.append(path);
        }
    }

    /// Atomically rewrites the desk-top status snapshot, best-effort.
    /// The quarantine tally and the sparkline margins derive from the
    /// report rows: a quarantine books as `rejected:<kind>`, and every
    /// round but a stalled one reached the gate and has a
    /// `(reward margin, entropy drift)` pair (NaN margin = the rewards
    /// were never computed).
    fn write_status(&mut self, report: &DeskReport, served_version: u64, done: bool) {
        let Some(path) = &self.status else { return };
        self.status_seq += 1;
        let last = report.rounds.last();
        let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
        for kind in report.rounds.iter().filter_map(|r| r.outcome.strip_prefix("rejected:")) {
            *by_kind.entry(kind).or_insert(0) += 1;
        }
        let by_kind = by_kind.into_iter().map(|(k, n)| (k.to_string(), Value::U64(n))).collect();
        let margins = report
            .rounds
            .iter()
            .filter(|r| r.outcome != "stalled")
            .map(|r| {
                Value::List(vec![
                    Value::F64(r.candidate_reward - r.incumbent_reward),
                    Value::F64(r.entropy_drift),
                ])
            })
            .collect();
        let v = map([
            ("schema", Value::Str(DESK_STATUS_SCHEMA.to_string())),
            ("seq", Value::U64(self.status_seq)),
            ("seed", Value::U64(self.seed)),
            ("rounds_total", Value::U64(self.rounds_total as u64)),
            ("rounds_done", Value::U64(report.rounds.len() as u64)),
            ("done", Value::Bool(done)),
            ("served_version", Value::U64(served_version)),
            ("promotions", Value::U64(report.promotions)),
            ("quarantines", Value::U64(report.quarantines)),
            ("quarantines_by_kind", Value::Map(by_kind)),
            ("recoveries", Value::U64(report.recoveries)),
            ("feed_stalls", Value::U64(report.feed_stalls)),
            ("degraded", Value::Bool(report.degraded)),
            ("last_round", last.map_or(Value::Null, |r| Value::U64(r.round as u64))),
            ("last_outcome", last.map_or(Value::Null, |r| Value::Str(r.outcome.clone()))),
            ("last_revealed", last.map_or(Value::Null, |r| Value::U64(r.revealed as u64))),
            ("last_candidate_reward", last.map_or(Value::Null, |r| Value::F64(r.candidate_reward))),
            ("last_incumbent_reward", last.map_or(Value::Null, |r| Value::F64(r.incumbent_reward))),
            ("last_drift", last.map_or(Value::Null, |r| Value::F64(r.entropy_drift))),
            ("margins", Value::List(margins)),
        ]);
        let _ = spikefolio_resilience::atomic_write(path, v.to_json().as_bytes());
    }
}

/// Identity of one round for the record helper.
struct RoundInfo {
    round: usize,
    revealed: usize,
    faults: Vec<String>,
    /// Store version of the incumbent the round fine-tuned from.
    parent_version: u64,
    /// First period index of this round's training window.
    window_from: usize,
    /// Fine-tune wall seconds (0 when the round never trained).
    fine_tune_wall_s: f64,
    /// When the round started, for the whole-round trace span.
    started: Instant,
}

/// Gate-side numbers of a finished round, plus which stages actually
/// ran — the triage manifest records this so a replay knows what is
/// reproducible and what was never computed.
struct GateNumbers {
    candidate_reward: f64,
    incumbent_reward: f64,
    entropy_drift: f64,
    recoveries: u64,
    degraded: bool,
    /// Integrity probe result; `None` = the probe never ran.
    integrity: Option<bool>,
    /// Whether the out-of-sample rewards were computed.
    reward_evaluated: bool,
    /// Whether the entropy-drift stage ran.
    drift_evaluated: bool,
}

/// How a round ended (the stalled case is handled at the feed).
enum RoundDecision {
    Promoted(GateNumbers),
    Quarantined { kind: &'static str, reason: String, g: GateNumbers },
    SwapFailed(GateNumbers),
}

/// Read-only desk context shared by the fine-tune, the gate and the
/// round booking.
struct DeskCtx<'a> {
    store: &'a ModelStore,
    paths: &'a DeskPaths,
    opts: &'a DeskOptions,
    trainer: &'a Trainer,
    /// Asset count of the feed (for the triage manifest).
    num_assets: usize,
}

/// Writes the `spikefolio.triage.v1` manifest next to a quarantined
/// checkpoint: everything `desk triage` needs to bitwise-replay the
/// gate (feed geometry, gate knobs, and the recorded numbers both as
/// floats and as raw f64 bits), plus the incumbent bytes it was judged
/// against. Best-effort — forensics must never fail the desk.
fn write_triage_manifest(
    ctx: &DeskCtx,
    info: &RoundInfo,
    kind: &str,
    reason: &str,
    g: &GateNumbers,
) {
    let opts = ctx.opts;
    let stem = format!("round-{}-{kind}", info.round);
    let incumbent_name = format!("{stem}.incumbent.ckpt");
    // The serving checkpoint is exactly the incumbent's bytes (it only
    // changes on promotion); snapshot it before later rounds advance it.
    let _ = std::fs::copy(&ctx.paths.serving, ctx.paths.quarantine_dir.join(&incumbent_name));
    let bits = |x: f64| Value::U64(x.to_bits());
    let v = map([
        ("schema", Value::Str(TRIAGE_MANIFEST_SCHEMA.to_string())),
        ("seed", Value::U64(opts.seed)),
        ("round", Value::U64(info.round as u64)),
        ("kind", Value::Str(kind.to_string())),
        ("reason", Value::Str(reason.to_string())),
        ("revealed", Value::U64(info.revealed as u64)),
        ("window_from", Value::U64(info.window_from as u64)),
        ("num_assets", Value::U64(ctx.num_assets as u64)),
        ("feed_periods", Value::U64(opts.feed_periods() as u64)),
        ("val_fraction", Value::F64(opts.val_fraction)),
        ("drift_threshold", Value::F64(opts.drift_threshold)),
        (
            "csv",
            opts.csv.as_ref().map_or(Value::Null, |p| Value::Str(p.to_string_lossy().into_owned())),
        ),
        (
            "integrity",
            g.integrity
                .map_or(Value::Null, |ok| Value::Str(if ok { "pass" } else { "fail" }.to_string())),
        ),
        ("reward_evaluated", Value::Bool(g.reward_evaluated)),
        ("drift_evaluated", Value::Bool(g.drift_evaluated)),
        ("candidate_reward", Value::F64(g.candidate_reward)),
        ("candidate_reward_bits", bits(g.candidate_reward)),
        ("incumbent_reward", Value::F64(g.incumbent_reward)),
        ("incumbent_reward_bits", bits(g.incumbent_reward)),
        ("entropy_drift", Value::F64(g.entropy_drift)),
        ("entropy_drift_bits", bits(g.entropy_drift)),
        ("candidate_ckpt", Value::Str(format!("{stem}.ckpt"))),
        ("incumbent_ckpt", Value::Str(incumbent_name)),
    ]);
    let _ = spikefolio_resilience::atomic_write(
        ctx.paths.quarantine_dir.join(format!("{stem}.json")),
        v.to_json().as_bytes(),
    );
}

/// Fine-tunes a candidate from the incumbent on `fit` under the epoch
/// guard. A scheduled NaN epoch is recovered inside
/// [`train_sdp_guarded`] (bit-exact rollback + replay); a scheduled
/// panic loses the whole attempt, so the desk discards it and retrains
/// from the incumbent — training is deterministic, so the retry
/// converges on the fault-free result. Returns the candidate, whether
/// the trainer aborted, and the faults absorbed.
fn fine_tune(
    ctx: &DeskCtx,
    incumbent: &SdpAgent,
    fit: &MarketData,
    round: usize,
    scheduled: &[PipelineFaultKind],
    rec: &mut dyn Recorder,
) -> (SdpAgent, bool, u64) {
    let opts = ctx.opts;
    let mut recoveries = 0u64;
    let panics = scheduled.iter().filter(|k| **k == PipelineFaultKind::TrainerPanic).count();
    for _ in 0..panics {
        let mut scratch = incumbent.clone();
        let mut topts = ResilienceOptions { guard: opts.guard, ..Default::default() };
        let _ = train_sdp_guarded(ctx.trainer, &mut scratch, fit, &mut topts, rec);
        drop(scratch); // the panicked worker's half-finished state
        recoveries += 1;
        rec.counter(labels::COUNTER_DESK_RECOVERIES, 1);
        if rec.enabled() {
            rec.emit(
                Record::new("desk_fault")
                    .field("round", round as u64)
                    .field("fault", "trainer_panic")
                    .field("action", "retrain"),
            );
        }
    }
    let train_plan = if scheduled.contains(&PipelineFaultKind::TrainerNan) {
        FaultPlan::new(opts.seed ^ round as u64).grad_fault_at(0, GradFault::NaN)
    } else {
        FaultPlan::default()
    };
    let mut candidate = incumbent.clone();
    let mut topts =
        ResilienceOptions { guard: opts.guard, faults: train_plan, ..Default::default() };
    let outcome = train_sdp_guarded(ctx.trainer, &mut candidate, fit, &mut topts, rec);
    recoveries += outcome.recoveries;
    if outcome.recoveries > 0 {
        rec.counter(labels::COUNTER_DESK_RECOVERIES, outcome.recoveries);
    }
    (candidate, outcome.aborted, recoveries)
}

/// A fine-tuned candidate and the data its round judges it on: the
/// held-out `val` slice, and the `window` it is rebuilt from (at
/// `val_from`) when poisoned.
struct Trial<'a> {
    round: usize,
    scheduled: &'a [PipelineFaultKind],
    window: &'a MarketData,
    val: MarketData,
    val_from: usize,
    candidate: &'a SdpAgent,
    /// The trainer gave up (an epoch unhealthy through the retry budget).
    aborted: bool,
    /// Faults absorbed so far this round.
    recoveries: u64,
}

/// The gate and the swap for one candidate: the validation slice's
/// finiteness check (a poisoned slice is rebuilt once from the pristine
/// window), then the three stages of the [module docs](self) in order,
/// then the hot swap. One [`GateNumbers`] fills in as the stages run,
/// and the first stage that fails returns its quarantine.
///
/// # Errors
///
/// IO failures outside the fault model: corrupting, healing or reading
/// back the candidate file.
fn run_gate(
    ctx: &DeskCtx,
    trial: Trial,
    incumbent: &SdpAgent,
    skeleton: &mut SdpAgent,
    faults: &mut FaultPlan,
    obs: &Observatory,
    rec: &mut dyn Recorder,
) -> Result<RoundDecision, String> {
    let Trial { round, scheduled, window, mut val, val_from, candidate, aborted, recoveries } =
        trial;
    let (opts, paths) = (ctx.opts, ctx.paths);
    // Loads the candidate file into the desk's skeleton agent: the same
    // full validation (CRC, syntax, shape) the serving loader applies.
    // Only the verdict is read; a failed load writes no parameter.
    let mut probe = || checkpoint::load_sdp(skeleton, &paths.candidate).is_ok();
    let reject = |kind: &'static str, reason: String, g: GateNumbers| {
        Ok(RoundDecision::Quarantined { kind, reason, g })
    };
    let mut g = GateNumbers {
        candidate_reward: f64::NAN,
        incumbent_reward: f64::NAN,
        entropy_drift: 0.0,
        recoveries,
        degraded: true,
        integrity: None,
        reward_evaluated: false,
        drift_evaluated: false,
    };

    // A poisoned slice is detected by the finiteness scan and rebuilt
    // from the pristine window before any reward is computed, so fault
    // and fault-free runs evaluate identical slices.
    if scheduled.contains(&PipelineFaultKind::ValData) {
        let p = val.num_periods() / 2;
        let nan = f64::NAN;
        let poisoned = Candle { open: nan, high: nan, low: nan, close: nan, ..val.candle(p, 0) };
        val.set_candle_unchecked(p, 0, poisoned);
    }
    if !market_is_finite(&val) {
        val = window.slice(val_from, window.num_periods());
        g.recoveries += 1;
        rec.counter(labels::COUNTER_DESK_RECOVERIES, 1);
    }
    if !market_is_finite(&val) {
        // Even the pristine window is unevaluable: refuse to gate on
        // garbage, keep serving last-good.
        return reject("validation", "validation slice non-finite even after rebuild".into(), g);
    }
    g.incumbent_reward = out_of_sample_reward(ctx.trainer, incumbent, &val);
    if aborted {
        let reason = "trainer aborted: epoch stayed unhealthy through the retry budget";
        return reject("integrity", reason.into(), g);
    }
    g.candidate_reward = out_of_sample_reward(ctx.trainer, candidate, &val);
    g.reward_evaluated = true;

    // Integrity: persist the candidate and prove the on-disk bytes
    // round-trip. A corrupted file is healed from the in-memory
    // candidate and re-probed once; corruption that persists through
    // the heal quarantines the candidate.
    g.integrity = Some(false);
    if let Err(e) = checkpoint::save_sdp(candidate, &paths.candidate) {
        return reject("integrity", format!("candidate write failed: {e}"), g);
    }
    let mut corruptions =
        scheduled.iter().filter(|k| **k == PipelineFaultKind::CorruptCandidate).count();
    if corruptions > 0 {
        corrupt_file(&paths.candidate, faults)?;
        corruptions -= 1;
    }
    let mut integrity_ok = probe();
    if !integrity_ok {
        rec.counter(labels::COUNTER_RESILIENCE_CORRUPTIONS, 1);
        let healed = checkpoint::heal_sdp(candidate, &paths.candidate)
            .map_err(|e| format!("heal {}: {e}", paths.candidate.display()))?;
        if healed {
            g.recoveries += 1;
            rec.counter(labels::COUNTER_DESK_RECOVERIES, 1);
        }
        if corruptions > 0 {
            // A persistent corruptor (e.g. bad disk) re-rots the file.
            corrupt_file(&paths.candidate, faults)?;
        }
        integrity_ok = probe();
    }
    obs.event(
        "gate/integrity",
        [("round", Value::U64(round as u64)), ("ok", Value::Bool(integrity_ok))],
    );
    if !integrity_ok {
        let reason = "candidate checkpoint failed its integrity probe even after healing";
        return reject("integrity", reason.into(), g);
    }
    g.integrity = Some(true);
    g.degraded = false;

    // Reward floor: never swap in a model that is out-of-sample worse
    // than what is serving.
    obs.event(
        "gate/reward",
        [
            ("round", Value::U64(round as u64)),
            ("candidate", Value::F64(g.candidate_reward)),
            ("incumbent", Value::F64(g.incumbent_reward)),
        ],
    );
    if !g.candidate_reward.is_finite() || g.candidate_reward < g.incumbent_reward {
        let reason = format!(
            "candidate reward {:.6} below incumbent {:.6} on the held-out slice",
            g.candidate_reward, g.incumbent_reward
        );
        return reject("validation", reason, g);
    }

    // Drift bound on the entropy baseline probe.
    let inc_entropy = policy_entropy(incumbent);
    let cand_entropy = policy_entropy(candidate);
    g.entropy_drift = (cand_entropy - inc_entropy).abs() / inc_entropy.abs().max(1e-6);
    g.drift_evaluated = true;
    obs.event(
        "gate/drift",
        [
            ("round", Value::U64(round as u64)),
            ("drift", Value::F64(g.entropy_drift)),
            ("bound", Value::F64(opts.drift_threshold)),
        ],
    );
    if !g.entropy_drift.is_finite() || g.entropy_drift > opts.drift_threshold {
        let reason =
            format!("entropy drift {:.4} over bound {:.4}", g.entropy_drift, opts.drift_threshold);
        return reject("drift", reason, g);
    }

    // Swap: republish the gate-passed bytes at the serving path (atomic
    // write, bounded retry; scheduled SwapIo faults fail the first
    // attempts) and hot-swap the store.
    if scheduled.contains(&PipelineFaultKind::SwapIo) {
        *faults = std::mem::take(faults).fail_writes(DESK_SWAP_IO_LABEL, 2);
    }
    let bytes = std::fs::read(&paths.candidate)
        .map_err(|e| format!("read {}: {e}", paths.candidate.display()))?;
    let attempt = retry_io(opts.guard.io_retries, opts.guard.backoff_base_ms, || {
        atomic_write_faulted(&paths.serving, &bytes, DESK_SWAP_IO_LABEL, Some(&mut *faults))
    });
    if attempt.retries > 0 {
        g.recoveries += attempt.retries as u64;
        rec.counter(labels::COUNTER_RESILIENCE_IO_RETRIES, attempt.retries as u64);
        rec.counter(labels::COUNTER_DESK_RECOVERIES, attempt.retries as u64);
    }
    // A reload error keeps last-good; the store counted the failure.
    let swap_started = Instant::now();
    let swapped = match attempt.result {
        Ok(()) => ctx.store.reload(&paths.serving.to_string_lossy()).ok(),
        Err(_) => None,
    };
    obs.event(
        "swap",
        [
            ("round", Value::U64(round as u64)),
            ("version", swapped.map_or(Value::Null, Value::U64)),
            ("retries", Value::U64(attempt.retries as u64)),
        ],
    );
    let Some(version) = swapped else {
        // The swap write/reload stayed broken through the retry budget:
        // serving continues on last-good, desk degraded.
        g.degraded = true;
        return Ok(RoundDecision::SwapFailed(g));
    };
    if rec.enabled() {
        // The version-tagged swap span is the trace key that joins a desk
        // round to the serving model it shipped (and onward to
        // `serve/req/*` request tracks).
        rec.span(
            &format!("desk/round/{round:03}/swap/v{version}"),
            swap_started.elapsed().as_secs_f64(),
        );
    }
    Ok(RoundDecision::Promoted(g))
}

/// Books a finished round: promotion or quarantine side effects
/// (forensic copy, triage manifest, store rejection, counters), the
/// `desk_round` telemetry record and trace spans, the lineage-ledger
/// entry, the desk-top status snapshot, the report row, and the rolling
/// degraded/recovery totals.
fn finish_round(
    report: &mut DeskReport,
    rec: &mut dyn Recorder,
    obs: &mut Observatory,
    ctx: &DeskCtx,
    info: RoundInfo,
    decision: RoundDecision,
) {
    let served_version = ctx.store.version();
    let (outcome, quarantine, serving_reward, g) = match decision {
        RoundDecision::Promoted(g) => {
            report.gate_passed_versions.push(served_version);
            report.promotions += 1;
            rec.counter(labels::COUNTER_DESK_PROMOTIONS, 1);
            ("promoted".to_string(), None, g.candidate_reward, g)
        }
        RoundDecision::Quarantined { kind, reason, g } => {
            let qpath = ctx.paths.quarantine_dir.join(format!("round-{}-{kind}.ckpt", info.round));
            // Keep the rejected bytes for forensics; a missing candidate
            // file (trainer abort) is fine.
            let _ = std::fs::copy(&ctx.paths.candidate, &qpath);
            write_triage_manifest(ctx, &info, kind, &reason, &g);
            ctx.store.record_rejection(kind, &reason);
            rec.counter(labels::COUNTER_SERVE_SWAP_REJECTED, 1);
            rec.counter(labels::COUNTER_DESK_QUARANTINES, 1);
            report.quarantines += 1;
            if rec.enabled() {
                rec.emit(
                    Record::new("desk_quarantine")
                        .field("round", info.round as u64)
                        .field("kind", kind)
                        .field("reason", reason.as_str()),
                );
            }
            (format!("rejected:{kind}"), Some((kind.to_string(), reason)), g.incumbent_reward, g)
        }
        RoundDecision::SwapFailed(g) => ("swap_failed".to_string(), None, g.incumbent_reward, g),
    };
    if rec.enabled() {
        rec.span(&format!("desk/round/{:03}/fine_tune", info.round), info.fine_tune_wall_s);
        rec.span(&format!("desk/round/{:03}", info.round), info.started.elapsed().as_secs_f64());
        rec.emit(
            Record::new("desk_round")
                .field("round", info.round as u64)
                .field("revealed", info.revealed as u64)
                .field("outcome", outcome.as_str())
                .field("served_version", served_version)
                .field("incumbent_reward", g.incumbent_reward)
                .field("candidate_reward", g.candidate_reward)
                .field("serving_reward", serving_reward)
                .field("recoveries", g.recoveries)
                .field("degraded", g.degraded)
                .field("wall_s", info.fine_tune_wall_s),
        );
    }
    obs.event(
        "round/outcome",
        [
            ("round", Value::U64(info.round as u64)),
            ("outcome", Value::Str(outcome.clone())),
            ("served_version", Value::U64(served_version)),
            ("candidate_reward", Value::F64(g.candidate_reward)),
            ("incumbent_reward", Value::F64(g.incumbent_reward)),
            ("entropy_drift", Value::F64(g.entropy_drift)),
        ],
    );
    let quarantined = quarantine.is_some();
    let (kind, reason) = quarantine.unzip();
    obs.lineage_append(&LineageEntry {
        round: info.round as u64,
        parent_version: info.parent_version,
        promoted_version: (outcome == "promoted").then_some(served_version),
        served_version,
        window_from: info.window_from as u64,
        revealed: info.revealed as u64,
        integrity_ok: g.integrity.unwrap_or(false),
        candidate_reward: g.candidate_reward,
        incumbent_reward: g.incumbent_reward,
        entropy_drift: g.entropy_drift,
        drift_bound: ctx.opts.drift_threshold,
        outcome: if quarantined { "quarantined".to_string() } else { outcome.clone() },
        kind,
        reason,
    });
    report.rounds.push(RoundRecord {
        round: info.round,
        revealed: info.revealed,
        outcome,
        faults: info.faults,
        candidate_reward: g.candidate_reward,
        incumbent_reward: g.incumbent_reward,
        serving_reward,
        served_version,
        entropy_drift: g.entropy_drift,
        recoveries: g.recoveries,
        degraded: g.degraded,
    });
    report.degraded = g.degraded;
    report.recoveries += g.recoveries;
    obs.write_status(report, served_version, false);
    if quarantined || g.recoveries > 0 {
        // A faulted round is a dump trigger: flush the evidence while
        // it is fresh (a later hard crash must not cost us this round).
        obs.dump();
    }
}

/// Runs the live desk. See the [module docs](self) for the protocol.
///
/// # Errors
///
/// A run asking for more than [`MAX_FEED_PERIODS`] periods, or an
/// unrecoverable environment failure, as a message: working directory
/// not creatable, feed never delivering the warmup window, the initial
/// serving checkpoint unwritable. Pipeline faults are *not* errors —
/// they are absorbed or quarantined and show up in the report.
pub fn run_desk(mut opts: DeskOptions, rec: &mut dyn Recorder) -> Result<DeskReport, String> {
    check_feed_periods(opts.feed_periods())?;
    let paths = DeskPaths {
        serving: opts.dir.join("serving.ckpt"),
        candidate: opts.dir.join("candidate.ckpt"),
        quarantine_dir: opts.dir.join("quarantine"),
    };
    std::fs::create_dir_all(&paths.quarantine_dir)
        .map_err(|e| format!("create {}: {e}", paths.quarantine_dir.display()))?;
    let mut faults = std::mem::take(&mut opts.faults);
    let mut obs = Observatory::new(&opts);
    if let Some((flight, path)) = &obs.flight {
        // Crash safety: a panic anywhere in this process (injected crash
        // faults included) flushes the ring before the default hook runs.
        install_panic_dump(Arc::clone(flight), path.clone());
    }

    let mut report = DeskReport {
        seed: opts.seed,
        rounds: Vec::with_capacity(opts.rounds),
        promotions: 0,
        quarantines: 0,
        recoveries: 0,
        feed_stalls: 0,
        final_version: 0,
        final_weights_crc: 0,
        gate_passed_versions: vec![1],
        degraded: false,
        ended_early: false,
    };

    // Warmup: train the first incumbent on the initial window and open
    // the store on it (version 1).
    let mut feed = Feed::open(opts.csv.as_deref(), opts.feed_periods(), opts.seed);
    let data = feed
        .advance_to(opts.warmup, 0, &opts, &mut report.feed_stalls, rec)?
        .ok_or_else(|| format!("feed never delivered the {}-period warmup window", opts.warmup))?;
    let num_assets = data.num_assets();
    let trainer = Trainer::new(&opts.config);
    let mut incumbent = SdpAgent::new(&opts.config, num_assets, opts.seed);
    let min_period = incumbent.state_builder().min_period();
    {
        let (fit, _, _) = fit_val_split(&data, opts.val_fraction, min_period);
        let mut topts = ResilienceOptions { guard: opts.guard, ..Default::default() };
        let outcome = train_sdp_guarded(&trainer, &mut incumbent, &fit, &mut topts, rec);
        if outcome.aborted {
            return Err("warmup training aborted (unhealthy without injected faults)".to_string());
        }
    }
    checkpoint::save_sdp(&incumbent, &paths.serving)
        .map_err(|e| format!("write {}: {e}", paths.serving.display()))?;
    let loader = CheckpointBackendLoader::new(opts.config.clone(), num_assets, opts.backend);
    let store = ModelStore::open(Box::new(loader), &paths.serving.to_string_lossy())?;
    obs.event(
        "warmup",
        [
            ("revealed", Value::U64(data.num_periods() as u64)),
            ("version", Value::U64(store.version())),
        ],
    );
    let ctx = DeskCtx { store: &store, paths: &paths, opts: &opts, trainer: &trainer, num_assets };
    // The gate's integrity probe loads every candidate file into this one
    // agent, whose initial weights are never read.
    let mut skeleton = SdpAgent::new(&opts.config, num_assets, 0);

    for round in 0..opts.rounds {
        let round_started = Instant::now();
        let parent_version = store.version();
        rec.counter(labels::COUNTER_DESK_ROUNDS, 1);
        let scheduled = faults.take_pipeline_faults(round as u64);
        let fault_labels: Vec<String> = scheduled.iter().map(|&k| fault_label(k)).collect();
        let mut recoveries = 0u64;

        // 1. Feed: wait for this round's data through the stall watchdog.
        let injected_stalls: u32 = scheduled
            .iter()
            .map(|k| match k {
                PipelineFaultKind::FeedStall(n) => *n,
                _ => 0,
            })
            .sum();
        if injected_stalls > 0 {
            // A stall the watchdog rode out is an absorbed fault.
            recoveries += 1;
            rec.counter(labels::COUNTER_DESK_RECOVERIES, 1);
        }
        let target = opts.warmup + (round + 1) * opts.reveal_per_round;
        let Some(data) =
            feed.advance_to(target, injected_stalls, &opts, &mut report.feed_stalls, rec)?
        else {
            // A stalled round never reached the gate: it books a report
            // row and the status file, but no lineage entry or margin.
            report.rounds.push(RoundRecord {
                round,
                revealed: 0,
                outcome: "stalled".to_string(),
                faults: fault_labels,
                candidate_reward: f64::NAN,
                incumbent_reward: f64::NAN,
                serving_reward: f64::NAN,
                served_version: store.version(),
                entropy_drift: 0.0,
                recoveries,
                degraded: true,
            });
            report.recoveries += recoveries;
            report.ended_early = true;
            report.degraded = true;
            obs.event(
                "feed/stalled",
                [("round", Value::U64(round as u64)), ("target", Value::U64(target as u64))],
            );
            obs.write_status(&report, store.version(), false);
            obs.dump();
            break;
        };
        let revealed = data.num_periods();
        obs.event(
            "feed",
            [
                ("round", Value::U64(round as u64)),
                ("revealed", Value::U64(revealed as u64)),
                ("stalls", Value::U64(u64::from(injected_stalls))),
            ],
        );
        if scheduled.contains(&PipelineFaultKind::Crash) {
            // A scripted hard crash: flush what we have (belt) and let
            // the chained panic hook append the panic event (suspenders).
            obs.event("fault/crash", [("round", Value::U64(round as u64))]);
            obs.dump();
            panic!("injected crash fault (round {round})");
        }
        let from = if opts.window > 0 { revealed.saturating_sub(opts.window) } else { 0 };
        let window = data.slice(from, revealed);
        let (fit, val, val_from) = fit_val_split(&window, opts.val_fraction, min_period);

        // 2. Fine-tune the candidate from the incumbent.
        let fine_tune_started = Instant::now();
        let (candidate, aborted, absorbed) =
            fine_tune(&ctx, &incumbent, &fit, round, &scheduled, rec);
        recoveries += absorbed;
        let fine_tune_wall_s = fine_tune_started.elapsed().as_secs_f64();
        obs.event(
            "fine_tune",
            [
                ("round", Value::U64(round as u64)),
                ("parent_version", Value::U64(parent_version)),
                ("recoveries", Value::U64(recoveries)),
                ("aborted", Value::Bool(aborted)),
            ],
        );

        // 3. Gate the candidate and swap it in if it passes.
        let trial = Trial {
            round,
            scheduled: &scheduled,
            window: &window,
            val,
            val_from,
            candidate: &candidate,
            aborted,
            recoveries,
        };
        let decision = run_gate(&ctx, trial, &incumbent, &mut skeleton, &mut faults, &obs, rec)?;
        if matches!(decision, RoundDecision::Promoted(_)) {
            incumbent = candidate;
        }

        // 4. Book the round.
        let info = RoundInfo {
            round,
            revealed,
            faults: fault_labels,
            parent_version,
            window_from: from,
            fine_tune_wall_s,
            started: round_started,
        };
        finish_round(&mut report, rec, &mut obs, &ctx, info, decision);
    }

    // Serving evidence: drive one deterministic probe batch through the
    // store's current backend — the exact model answering requests.
    let model = store.current();
    let _ = probe_baseline(model.backend.as_ref(), &HealthConfig::default(), model.version);
    report.final_version = model.version;
    report.final_weights_crc = weights_crc(&incumbent);
    obs.event("serve/probe", [("version", Value::U64(model.version))]);
    obs.write_status(&report, model.version, true);
    obs.dump();
    Ok(report)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use spikefolio_telemetry::NoopRecorder;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spikefolio_desk_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fast_opts(name: &str) -> DeskOptions {
        let mut opts = DeskOptions::smoke(tmp_dir(name));
        opts.config.training.epochs = 2;
        opts.config.training.steps_per_epoch = 2;
        opts.config.training.batch_size = 4;
        opts.rounds = 2;
        opts
    }

    #[test]
    fn fault_spec_parses_every_kind() {
        let plan = parse_fault_spec("nan@0, panic@1,corrupt@2,val@3,swapio@4,stall@5x3,crash@6", 7)
            .expect("spec parses");
        let kinds: Vec<_> = plan.pipeline_faults().iter().map(|f| (f.round, f.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (0, PipelineFaultKind::TrainerNan),
                (1, PipelineFaultKind::TrainerPanic),
                (2, PipelineFaultKind::CorruptCandidate),
                (3, PipelineFaultKind::ValData),
                (4, PipelineFaultKind::SwapIo),
                (5, PipelineFaultKind::FeedStall(3)),
                (6, PipelineFaultKind::Crash),
            ]
        );
        assert_eq!(
            parse_fault_spec("stall@2", 7).expect("bare stall").pipeline_faults()[0].kind,
            PipelineFaultKind::FeedStall(1),
        );
    }

    #[test]
    fn fault_spec_rejects_garbage() {
        assert!(parse_fault_spec("nan", 0).is_err(), "missing @round");
        assert!(parse_fault_spec("frobnicate@2", 0).is_err(), "unknown kind");
        assert!(parse_fault_spec("nan@x", 0).is_err(), "bad round");
        assert!(parse_fault_spec("stall@1xq", 0).is_err(), "bad tick count");
        assert!(parse_fault_spec("", 0).expect("empty spec").is_empty());
    }

    #[test]
    fn faultfree_desk_never_regresses_and_serves_gated_versions() {
        let opts = fast_opts("clean");
        let dir = opts.dir.clone();
        let report = run_desk(opts, &mut NoopRecorder).expect("desk runs");
        assert_eq!(report.rounds.len(), 2);
        assert!(!report.ended_early);
        assert!(!report.degraded);
        for r in &report.rounds {
            assert!(
                r.serving_reward >= r.incumbent_reward,
                "round {}: serving {} regressed below incumbent {}",
                r.round,
                r.serving_reward,
                r.incumbent_reward
            );
            assert!(
                report.gate_passed_versions.contains(&r.served_version),
                "round {} served v{} which never passed the gate",
                r.round,
                r.served_version
            );
            assert!(!r.degraded);
        }
        assert_eq!(report.promotions + report.quarantines, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn desk_reports_are_deterministic() {
        let a = run_desk(fast_opts("det_a"), &mut NoopRecorder).expect("run a");
        let b = {
            let mut opts = fast_opts("det_b");
            opts.dir = tmp_dir("det_b");
            run_desk(opts, &mut NoopRecorder).expect("run b")
        };
        assert_eq!(a.final_weights_crc, b.final_weights_crc);
        assert_eq!(a.to_json(), b.to_json());
        let _ = std::fs::remove_dir_all(tmp_dir("det_a"));
        let _ = std::fs::remove_dir_all(tmp_dir("det_b"));
    }

    #[test]
    fn report_value_tree_carries_schema_and_rounds() {
        let report = DeskReport {
            seed: 9,
            rounds: vec![RoundRecord {
                round: 0,
                revealed: 46,
                outcome: "promoted".to_string(),
                faults: vec!["nan".to_string()],
                candidate_reward: 0.01,
                incumbent_reward: 0.005,
                serving_reward: 0.01,
                served_version: 2,
                entropy_drift: 0.02,
                recoveries: 1,
                degraded: false,
            }],
            promotions: 1,
            quarantines: 0,
            recoveries: 1,
            feed_stalls: 0,
            final_version: 2,
            final_weights_crc: 0xdead_beef,
            gate_passed_versions: vec![1, 2],
            degraded: false,
            ended_early: false,
        };
        let v = report.to_value();
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("spikefolio.desk.v1"));
        assert_eq!(v.get("promotions").and_then(Value::as_u64), Some(1));
        let rounds = v.get("rounds").and_then(Value::as_list).expect("rounds list");
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].get("outcome").and_then(Value::as_str), Some("promoted"));
        let text = report.render();
        assert!(text.contains("promoted"));
        assert!(text.contains("0xdeadbeef"));
    }
}
