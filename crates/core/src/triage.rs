//! Quarantine triage: bitwise gate replay from a triage manifest.
//!
//! Every candidate the desk quarantines leaves three artifacts in
//! `quarantine/`: the rejected checkpoint bytes, a snapshot of the
//! incumbent it was judged against, and a `spikefolio.triage.v1`
//! manifest recording the feed geometry, the gate knobs, and all three
//! gate numbers — both as display floats and as raw f64 bits.
//!
//! `spikefolio desk triage` closes the post-mortem loop: it regenerates
//! the exact validation slice from the manifest (seeded generator or CSV
//! feed), reloads both checkpoints, re-runs every gate stage that ran at
//! desk time, and prints the recorded and replayed numbers side by side.
//! Because training determinism, checkpoint round-tripping, and the
//! backtester are all bit-exact, a healthy replay reproduces the
//! recorded bits *exactly* — any mismatch means the quarantine evidence
//! is unsound (wrong config, edited artifacts, or a real
//! reproducibility bug), which is precisely what triage exists to catch.

use std::path::{Path, PathBuf};

use spikefolio_market::MarketData;
use spikefolio_telemetry::value::{parse, Value};

use crate::agent::SdpAgent;
use crate::checkpoint;
use crate::config::SdpConfig;
use crate::desk::{
    check_feed_periods, fit_val_split, map, out_of_sample_reward, policy_entropy, Feed,
    TRIAGE_MANIFEST_SCHEMA,
};
use crate::training::Trainer;

/// Configuration of one triage replay.
#[derive(Debug, Clone)]
pub struct TriageOptions {
    /// Model topology of the desk run that produced the quarantine —
    /// must match, or the checkpoints fail their shape validation.
    pub config: SdpConfig,
    /// The desk working directory (containing `quarantine/`).
    pub dir: PathBuf,
    /// Round to triage; `None` picks the most recent quarantine.
    pub round: Option<u64>,
}

/// One gate number recorded at desk time vs recomputed by the replay.
#[derive(Debug, Clone, PartialEq)]
pub struct GatePair {
    /// The value the desk recorded (NaN when the stage never produced one).
    pub recorded: f64,
    /// Raw bits of the recorded value, straight from the manifest.
    pub recorded_bits: u64,
    /// The replayed value; `None` when the stage cannot be replayed
    /// (e.g. the candidate checkpoint is genuinely corrupt).
    pub replayed: Option<f64>,
}

impl GatePair {
    /// Whether the replay reproduced the recorded value bit for bit.
    /// `None` when the stage was not replayable.
    pub fn bitwise_match(&self) -> Option<bool> {
        self.replayed.map(|r| r.to_bits() == self.recorded_bits)
    }
}

/// Outcome of a triage replay ([`run_triage`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TriageReport {
    /// The manifest the replay worked from.
    pub manifest: PathBuf,
    /// Quarantined round.
    pub round: u64,
    /// Gate stage that rejected the candidate.
    pub kind: String,
    /// Recorded human-readable rejection reason.
    pub reason: String,
    /// Desk seed.
    pub seed: u64,
    /// Periods revealed when the candidate trained.
    pub revealed: u64,
    /// First period of the training window.
    pub window_from: u64,
    /// Recorded integrity-probe result (`None` = the probe never ran).
    pub integrity_recorded: Option<bool>,
    /// Replayed integrity probe: did the quarantined checkpoint load?
    pub integrity_replayed: bool,
    /// Load error of the quarantined candidate, when it failed.
    pub candidate_load_error: Option<String>,
    /// Whether the reward stage ran at desk time (recorded NaNs are
    /// expected when it did not).
    pub reward_evaluated: bool,
    /// Whether the drift stage ran at desk time.
    pub drift_evaluated: bool,
    /// Gate stage 2, candidate side.
    pub candidate_reward: GatePair,
    /// Gate stage 2, incumbent side.
    pub incumbent_reward: GatePair,
    /// Gate stage 3.
    pub entropy_drift: GatePair,
}

impl TriageReport {
    /// Whether every gate stage that ran at desk time replayed bit for
    /// bit (stages that never ran, or whose candidate is unreplayable
    /// corrupt bytes, are excluded — for an integrity quarantine the
    /// *reproduction* is the load failing again).
    pub fn reproduced(&self) -> bool {
        if self.integrity_recorded == Some(false) && self.integrity_replayed {
            // The desk saw rot but the replay loads clean: the artifact
            // on disk is not the bytes the desk judged.
            return false;
        }
        let stages = [
            (self.reward_evaluated, &self.candidate_reward),
            (self.reward_evaluated, &self.incumbent_reward),
            (self.drift_evaluated, &self.entropy_drift),
        ];
        stages.iter().all(|(ran, pair)| !ran || pair.bitwise_match() != Some(false))
    }

    /// The report as a JSON-ready [`Value`] tree.
    pub fn to_value(&self) -> Value {
        let pair = |p: &GatePair| {
            map([
                ("recorded", Value::F64(p.recorded)),
                ("recorded_bits", Value::U64(p.recorded_bits)),
                ("replayed", p.replayed.map_or(Value::Null, Value::F64)),
                ("bitwise_match", p.bitwise_match().map_or(Value::Null, Value::Bool)),
            ])
        };
        map([
            ("schema", Value::Str("spikefolio.triage-replay.v1".to_string())),
            ("round", Value::U64(self.round)),
            ("kind", Value::Str(self.kind.clone())),
            ("reason", Value::Str(self.reason.clone())),
            ("seed", Value::U64(self.seed)),
            ("revealed", Value::U64(self.revealed)),
            ("window_from", Value::U64(self.window_from)),
            ("integrity_recorded", self.integrity_recorded.map_or(Value::Null, Value::Bool)),
            ("integrity_replayed", Value::Bool(self.integrity_replayed)),
            ("reward_evaluated", Value::Bool(self.reward_evaluated)),
            ("drift_evaluated", Value::Bool(self.drift_evaluated)),
            ("candidate_reward", pair(&self.candidate_reward)),
            ("incumbent_reward", pair(&self.incumbent_reward)),
            ("entropy_drift", pair(&self.entropy_drift)),
            ("reproduced", Value::Bool(self.reproduced())),
        ])
    }

    /// The recorded-vs-replayed side-by-side table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "desk triage: round {} quarantined by the {} gate",
            self.round, self.kind
        );
        let _ = writeln!(out, "  reason:   {}", self.reason);
        let _ = writeln!(
            out,
            "  manifest: {}  (seed {}, window {}..{})",
            self.manifest.display(),
            self.seed,
            self.window_from,
            self.revealed
        );
        let _ = writeln!(out, "  {:<16} {:>24} {:>24}  bitwise", "stage", "recorded", "replayed");
        let probe = |b: Option<bool>| match b {
            Some(true) => "pass",
            Some(false) => "fail",
            None => "not run",
        };
        let _ = writeln!(
            out,
            "  {:<16} {:>24} {:>24}  {}",
            "integrity",
            probe(self.integrity_recorded),
            probe(Some(self.integrity_replayed)),
            if self.integrity_recorded == Some(self.integrity_replayed) { "=" } else { "·" },
        );
        let mut row = |label: &str, ran: bool, p: &GatePair| {
            let replayed = match p.replayed {
                Some(v) => format!("{v:+.15e}"),
                None => "unreplayable".to_string(),
            };
            let mark = if !ran {
                "· (not evaluated at desk time)"
            } else {
                match p.bitwise_match() {
                    Some(true) => "=",
                    Some(false) => "MISMATCH",
                    None => "· (candidate unreplayable)",
                }
            };
            let _ = writeln!(
                out,
                "  {:<16} {:>24} {:>24}  {mark}",
                label,
                format!("{:+.15e}", p.recorded),
                replayed,
            );
        };
        row("candidate reward", self.reward_evaluated, &self.candidate_reward);
        row("incumbent reward", self.reward_evaluated, &self.incumbent_reward);
        row("entropy drift", self.drift_evaluated, &self.entropy_drift);
        if let Some(e) = &self.candidate_load_error {
            let _ = writeln!(out, "  candidate load error: {e}");
        }
        let _ = writeln!(
            out,
            "  verdict: gate decision {}",
            if self.reproduced() {
                "REPRODUCED bitwise"
            } else {
                "NOT reproduced — evidence unsound"
            },
        );
        out
    }
}

/// A required field of the manifest [`Value`] tree, read through `get`
/// (e.g. [`Value::as_u64`]).
fn req<'v, T>(v: &'v Value, key: &str, get: fn(&'v Value) -> Option<T>) -> Result<T, String> {
    v.get(key).and_then(get).ok_or_else(|| format!("manifest is missing '{key}'"))
}

/// Finds the triage manifest for `round` (or the highest-round one)
/// under `quarantine/`.
fn find_manifest(dir: &Path, round: Option<u64>) -> Result<(PathBuf, Value), String> {
    let qdir = dir.join("quarantine");
    let entries = std::fs::read_dir(&qdir)
        .map_err(|e| format!("no quarantine directory at {}: {e}", qdir.display()))?;
    let mut best: Option<(u64, PathBuf, Value)> = None;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Ok(raw) = std::fs::read_to_string(&path) else { continue };
        let Ok(v) = parse(raw.trim()) else { continue };
        if v.get("schema").and_then(Value::as_str) != Some(TRIAGE_MANIFEST_SCHEMA) {
            continue;
        }
        let Some(r) = v.get("round").and_then(Value::as_u64) else { continue };
        if let Some(want) = round {
            if r != want {
                continue;
            }
        }
        if best.as_ref().is_none_or(|(b, _, _)| r >= *b) {
            best = Some((r, path, v));
        }
    }
    match best {
        Some((_, path, v)) => Ok((path, v)),
        None => Err(match round {
            Some(r) => format!("no triage manifest for round {r} under {}", qdir.display()),
            None => format!("no triage manifests under {}", qdir.display()),
        }),
    }
}

/// Rebuilds the feed exactly as the desk saw it at quarantine time,
/// through the desk's own [`Feed::open`]: the seeded generator
/// regenerated from the manifest's geometry, or the CSV feed re-read and
/// cut back to the recorded reveal point.
fn rebuild_feed(manifest: &Value, revealed: usize) -> Result<MarketData, String> {
    let seed = req(manifest, "seed", Value::as_u64)?;
    let feed_periods = req(manifest, "feed_periods", Value::as_u64)?;
    let feed_periods = usize::try_from(feed_periods).unwrap_or(usize::MAX);
    check_feed_periods(feed_periods)?;
    let csv = match manifest.get("csv") {
        Some(Value::Str(path)) => Some(path.as_str()),
        _ => None,
    };
    // Either feed reveals exactly the periods each round asked for, at
    // most feed_periods; a CSV file must still hold them all.
    let (data, delivers) = match Feed::open(csv.map(Path::new), feed_periods, seed) {
        Feed::Generator { market } => (market, feed_periods),
        Feed::Csv { mut tail, .. } => {
            let path = csv.unwrap_or_default();
            let data = tail
                .poll()
                .map_err(|e| format!("csv feed {path}: {e}"))?
                .ok_or_else(|| format!("csv feed {path} holds no complete periods"))?;
            let n = data.num_periods().min(feed_periods);
            (data, n)
        }
    };
    if revealed > delivers {
        return Err(format!(
            "rebuilt feed delivers {delivers} periods but the quarantine saw {revealed} — \
             an edited manifest, or a feed that shrank since the desk ran"
        ));
    }
    Ok(data.slice(0, revealed))
}

/// Replays a quarantined round's gate from its triage manifest.
///
/// # Errors
///
/// Missing/corrupt manifest, manifest geometry the desk never writes (a
/// feed over [`MAX_FEED_PERIODS`](crate::desk::MAX_FEED_PERIODS) periods,
/// a window starting past the reveal point, a validation fraction outside
/// (0, 1), an asset count the rebuilt feed does not have, or a
/// validation slice too short to backtest), a feed that can no longer
/// be rebuilt, or an incumbent snapshot that fails to load (the
/// incumbent was serving, so its snapshot must be intact — a corrupt
/// one is an environment error, not a replayable outcome).
pub fn run_triage(opts: &TriageOptions) -> Result<TriageReport, String> {
    let (manifest_path, manifest) = find_manifest(&opts.dir, opts.round)?;
    let round = req(&manifest, "round", Value::as_u64)?;
    let revealed = req(&manifest, "revealed", Value::as_u64)? as usize;
    let window_from = req(&manifest, "window_from", Value::as_u64)? as usize;
    let num_assets = req(&manifest, "num_assets", Value::as_u64)? as usize;
    let val_fraction = req(&manifest, "val_fraction", Value::as_f64)?;
    if window_from > revealed {
        return Err(format!("manifest window_from {window_from} lies past revealed {revealed}"));
    }
    if val_fraction.is_nan() || val_fraction <= 0.0 || val_fraction >= 1.0 {
        return Err(format!("manifest val_fraction {val_fraction} lies outside (0, 1)"));
    }
    let integrity_recorded = match manifest.get("integrity") {
        Some(Value::Str(s)) => Some(s == "pass"),
        _ => None,
    };
    let reward_evaluated = matches!(manifest.get("reward_evaluated"), Some(Value::Bool(true)));
    let drift_evaluated = matches!(manifest.get("drift_evaluated"), Some(Value::Bool(true)));
    let qdir = opts.dir.join("quarantine");
    let candidate_path = qdir.join(req(&manifest, "candidate_ckpt", Value::as_str)?);
    let incumbent_path = qdir.join(req(&manifest, "incumbent_ckpt", Value::as_str)?);

    // Rebuild the validation slice the gate judged on.
    let data = rebuild_feed(&manifest, revealed)?;
    if num_assets != data.num_assets() {
        return Err(format!(
            "manifest num_assets {num_assets} does not match the rebuilt feed's {}",
            data.num_assets()
        ));
    }
    let window = data.slice(window_from, revealed);
    let mut incumbent = SdpAgent::new(&opts.config, num_assets, 0);
    checkpoint::load_sdp(&mut incumbent, &incumbent_path)
        .map_err(|e| format!("incumbent snapshot {}: {e}", incumbent_path.display()))?;
    let min_period = incumbent.state_builder().min_period();
    let (_, val, _) = fit_val_split(&window, val_fraction, min_period);
    // The backtest needs a full state window plus one trade.
    if val.num_periods() < min_period + 2 {
        return Err(format!(
            "validation slice of {} periods is too short to backtest (needs {})",
            val.num_periods(),
            min_period + 2
        ));
    }

    // Integrity replay: the same full-validation load the desk probe ran.
    let mut candidate = SdpAgent::new(&opts.config, num_assets, 0);
    let (integrity_replayed, candidate_load_error, candidate) =
        match checkpoint::load_sdp(&mut candidate, &candidate_path) {
            Ok(()) => (true, None, Some(candidate)),
            Err(e) => (false, Some(e.to_string()), None),
        };

    let trainer = Trainer::new(&opts.config);
    let incumbent_replayed = out_of_sample_reward(&trainer, &incumbent, &val);
    let candidate_replayed = candidate.as_ref().map(|c| out_of_sample_reward(&trainer, c, &val));
    let drift_replayed = candidate.as_ref().map(|c| {
        let inc_e = policy_entropy(&incumbent);
        let cand_e = policy_entropy(c);
        (cand_e - inc_e).abs() / inc_e.abs().max(1e-6)
    });

    Ok(TriageReport {
        manifest: manifest_path,
        round,
        kind: req(&manifest, "kind", Value::as_str)?.to_string(),
        reason: req(&manifest, "reason", Value::as_str)?.to_string(),
        seed: req(&manifest, "seed", Value::as_u64)?,
        revealed: revealed as u64,
        window_from: window_from as u64,
        integrity_recorded,
        integrity_replayed,
        candidate_load_error,
        reward_evaluated,
        drift_evaluated,
        candidate_reward: GatePair {
            recorded: req(&manifest, "candidate_reward", Value::as_f64).unwrap_or(f64::NAN),
            recorded_bits: req(&manifest, "candidate_reward_bits", Value::as_u64)?,
            replayed: candidate_replayed,
        },
        incumbent_reward: GatePair {
            recorded: req(&manifest, "incumbent_reward", Value::as_f64).unwrap_or(f64::NAN),
            recorded_bits: req(&manifest, "incumbent_reward_bits", Value::as_u64)?,
            replayed: Some(incumbent_replayed),
        },
        entropy_drift: GatePair {
            recorded: req(&manifest, "entropy_drift", Value::as_f64).unwrap_or(f64::NAN),
            recorded_bits: req(&manifest, "entropy_drift_bits", Value::as_u64)?,
            replayed: drift_replayed,
        },
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn gate_pair_matches_on_bits_not_display() {
        let x = 0.1 + 0.2; // 0.30000000000000004
        let p = GatePair { recorded: x, recorded_bits: x.to_bits(), replayed: Some(x) };
        assert_eq!(p.bitwise_match(), Some(true));
        let q = GatePair { recorded: x, recorded_bits: 0.3f64.to_bits(), replayed: Some(x) };
        assert_eq!(q.bitwise_match(), Some(false));
        let r = GatePair { recorded: f64::NAN, recorded_bits: f64::NAN.to_bits(), replayed: None };
        assert_eq!(r.bitwise_match(), None);
    }

    #[test]
    fn missing_quarantine_dir_is_a_clear_error() {
        let opts = TriageOptions {
            config: SdpConfig::smoke(),
            dir: PathBuf::from("/nonexistent/spikefolio-triage"),
            round: None,
        };
        let err = run_triage(&opts).expect_err("no quarantine dir");
        assert!(err.contains("quarantine"), "{err}");
    }

    #[test]
    fn report_render_and_value_carry_the_verdict() {
        let pair = |x: f64| GatePair { recorded: x, recorded_bits: x.to_bits(), replayed: Some(x) };
        let report = TriageReport {
            manifest: PathBuf::from("q/round-1-drift.json"),
            round: 1,
            kind: "drift".to_string(),
            reason: "entropy drift 0.9 over bound 0.1".to_string(),
            seed: 7,
            revealed: 52,
            window_from: 0,
            integrity_recorded: Some(true),
            integrity_replayed: true,
            candidate_load_error: None,
            reward_evaluated: true,
            drift_evaluated: true,
            candidate_reward: pair(0.012),
            incumbent_reward: pair(0.003),
            entropy_drift: pair(0.9),
        };
        assert!(report.reproduced());
        let text = report.render();
        assert!(text.contains("REPRODUCED bitwise"), "{text}");
        assert!(text.contains("drift"), "{text}");
        let v = report.to_value();
        assert_eq!(v.get("reproduced"), Some(&Value::Bool(true)));
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("spikefolio.triage-replay.v1"));

        // One flipped mantissa bit on a replayed stage flips the verdict.
        let mut bad = report;
        bad.entropy_drift.replayed = Some(f64::from_bits(0.9f64.to_bits() ^ 1));
        assert!(!bad.reproduced());
        assert!(bad.render().contains("MISMATCH"));
    }
}
