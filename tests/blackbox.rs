//! Flight-recorder, lineage-ledger, and quarantine-triage acceptance
//! suite.
//!
//! The headline properties: an injected mid-round crash leaves an
//! atomically written `spikefolio.blackbox.v1` dump whose ordered event
//! tail ends at the panic; `desk triage` replays a quarantined round's
//! gate numbers **bitwise** from the manifest and artifacts alone; and
//! the lineage ledger written during a run reads back losslessly with a
//! walkable promotion ancestry.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use spikefolio::{
    render_ancestry, render_desk_top, run_desk, run_triage, DeskOptions, TriageOptions,
    TriageReport,
};
use spikefolio_blackbox::read_ledger;
use spikefolio_resilience::FaultPlan;
use spikefolio_telemetry::value::{parse, Value};
use spikefolio_telemetry::NoopRecorder;
use std::path::PathBuf;
use std::process::Command;

fn tmp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spikefolio-blackbox-{}-{name}", std::process::id()))
}

/// The smoke desk shrunk to a test-speed trainer, with the full
/// observability sidecar armed under its working directory.
fn fast_opts(name: &str) -> DeskOptions {
    let dir = tmp_dir(name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = DeskOptions::smoke(dir);
    opts.config.training.epochs = 2;
    opts.config.training.steps_per_epoch = 2;
    opts.config.training.batch_size = 4;
    opts.blackbox = Some(opts.dir.join("blackbox.json"));
    opts.lineage = Some(opts.dir.join("lineage.jsonl"));
    opts.status = Some(opts.dir.join("desk-top.json"));
    opts
}

#[test]
fn injected_crash_writes_an_ordered_blackbox_dump() {
    let dir = tmp_dir("crash-dump");
    let _ = std::fs::remove_dir_all(&dir);
    // A scripted `crash` fault panics the desk process mid-round 1; the
    // chained panic hook must flush the flight recorder on the way down.
    let out = Command::new(env!("CARGO_BIN_EXE_spikefolio"))
        .args(["live-desk", "--seed", "5", "--rounds", "2", "--epochs", "2"])
        .args(["--faults", "crash@1", "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn spikefolio");
    assert!(!out.status.success(), "a crash fault must kill the process");

    let raw = std::fs::read_to_string(dir.join("blackbox.json")).expect("crash dump written");
    let v = parse(raw.trim()).expect("dump parses as JSON");
    assert_eq!(v.get("schema").and_then(Value::as_str), Some("spikefolio.blackbox.v1"));
    let events = v.get("events").and_then(Value::as_list).expect("events array");
    assert!(!events.is_empty());

    // Sequence numbers are strictly increasing: the ring preserved order.
    let seqs: Vec<u64> =
        events.iter().map(|e| e.get("seq").and_then(Value::as_u64).unwrap()).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "unordered tail: {seqs:?}");

    // The tail runs right up to the fault: the crash event carries its
    // round, and the very last event is the panic itself.
    let stages: Vec<&str> =
        events.iter().map(|e| e.get("stage").and_then(Value::as_str).unwrap()).collect();
    assert_eq!(*stages.last().unwrap(), "panic", "{stages:?}");
    let crash = stages.iter().position(|s| *s == "fault/crash").expect("fault/crash recorded");
    assert!(crash < stages.len() - 1, "crash event must precede the panic: {stages:?}");
    assert_eq!(events[crash].get("round").and_then(Value::as_u64), Some(1));
    let message = events.last().unwrap().get("message").and_then(Value::as_str).unwrap_or("");
    assert!(message.contains("injected crash fault"), "{message:?}");
}

#[test]
fn triage_replays_a_quarantined_gate_bitwise() {
    // A zero drift bound quarantines every candidate whose entropy moved
    // at all — guaranteeing at least one manifest with the reward stage
    // (and usually the drift stage) evaluated.
    let mut opts = fast_opts("triage-drift");
    opts.rounds = 2;
    opts.drift_threshold = 0.0;
    let dir = opts.dir.clone();
    let config = opts.config.clone();
    let report = run_desk(opts, &mut NoopRecorder).expect("desk completes");
    assert!(report.quarantines >= 1, "zero drift bound must quarantine: {report:?}");

    let t = run_triage(&TriageOptions { config, dir, round: None }).expect("triage replays");
    assert!(matches!(t.kind.as_str(), "drift" | "validation"), "{t:?}");
    assert!(t.reward_evaluated, "reward stage ran at desk time: {t:?}");
    assert_eq!(t.candidate_reward.bitwise_match(), Some(true), "{t:?}");
    assert_eq!(t.incumbent_reward.bitwise_match(), Some(true), "{t:?}");
    if t.drift_evaluated {
        assert_eq!(t.entropy_drift.bitwise_match(), Some(true), "{t:?}");
    }
    assert!(t.reproduced(), "{t:?}");
}

#[test]
fn triage_reproduces_an_integrity_quarantine_as_a_failing_load() {
    // Two corruptions in round 1 re-rot the heal, so the integrity probe
    // rejects the candidate and the rotten bytes land in quarantine. The
    // *reproduction* of that quarantine is the load failing again.
    let mut opts = fast_opts("triage-integrity");
    opts.rounds = 2;
    opts.faults = spikefolio::parse_fault_spec("corrupt@1,corrupt@1", opts.seed).unwrap();
    let dir = opts.dir.clone();
    let config = opts.config.clone();
    let report = run_desk(opts, &mut NoopRecorder).expect("desk completes");
    assert_eq!(report.rounds[1].outcome, "rejected:integrity", "{report:?}");

    let t = run_triage(&TriageOptions { config, dir, round: Some(1) }).expect("triage replays");
    assert_eq!(t.kind, "integrity");
    assert_eq!(t.integrity_recorded, Some(false));
    assert!(!t.integrity_replayed, "rotten bytes must still fail to load");
    assert!(t.candidate_load_error.is_some());
    // The desk judged the *in-memory* candidate's reward before probing
    // the bytes on disk, so the candidate side is unreplayable from the
    // rotten artifact — while the incumbent still replays bitwise.
    assert_eq!(t.candidate_reward.bitwise_match(), None, "{t:?}");
    assert_eq!(t.incumbent_reward.bitwise_match(), Some(true), "{t:?}");
    assert!(t.reproduced(), "{t:?}");
}

/// Runs a one-round desk whose zero drift bound quarantines round 0,
/// sets one field of the real triage manifest it wrote to `value`, and
/// triages that round.
fn triage_edited_manifest(name: &str, key: &str, value: Value) -> Result<TriageReport, String> {
    let mut opts = fast_opts(name);
    opts.rounds = 1;
    opts.drift_threshold = 0.0;
    let dir = opts.dir.clone();
    let config = opts.config.clone();
    let report = run_desk(opts, &mut NoopRecorder).expect("desk completes");
    assert_eq!(report.rounds[0].outcome, "rejected:drift", "{report:?}");
    let path = dir.join("quarantine").join("round-0-drift.json");
    let raw = std::fs::read_to_string(&path).expect("manifest written");
    let Value::Map(mut fields) = parse(raw.trim()).expect("manifest parses") else {
        panic!("manifest is not a map: {raw}");
    };
    fields.iter_mut().find(|(k, _)| k == key).expect("manifest field").1 = value;
    std::fs::write(&path, Value::Map(fields).to_json()).unwrap();
    let result = run_triage(&TriageOptions { config, dir: dir.clone(), round: Some(0) });
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[test]
fn triage_rejects_a_window_starting_past_the_reveal() {
    let err = triage_edited_manifest("hostile-window-from", "window_from", Value::U64(999))
        .expect_err("window_from past revealed");
    assert!(err.contains("window_from"), "{err}");
}

#[test]
fn triage_rejects_a_validation_fraction_outside_the_unit_interval() {
    for (i, bad) in [-1.0, 0.0, 1.0, f64::NAN].into_iter().enumerate() {
        let name = format!("hostile-val-fraction-{i}");
        let err = triage_edited_manifest(&name, "val_fraction", Value::F64(bad))
            .expect_err("val_fraction outside (0, 1)");
        assert!(err.contains("val_fraction"), "{bad}: {err}");
    }
}

#[test]
fn triage_rejects_a_validation_slice_too_short_to_backtest() {
    let err = triage_edited_manifest("hostile-revealed", "revealed", Value::U64(1))
        .expect_err("one revealed period");
    assert!(err.contains("validation slice"), "{err}");
}

#[test]
fn triage_rejects_a_reveal_past_the_generated_feed() {
    // The one-round smoke desk asks its generator for 46 periods.
    let err = triage_edited_manifest("hostile-feed-periods", "revealed", Value::U64(47))
        .expect_err("revealed past feed_periods");
    assert!(err.contains("delivers 46 periods"), "{err}");
}

#[test]
fn triage_rejects_an_asset_count_the_feed_does_not_have() {
    let err = triage_edited_manifest("hostile-num-assets", "num_assets", Value::U64(3))
        .expect_err("3 assets against an 11-asset feed");
    assert!(err.contains("num_assets"), "{err}");
}

#[test]
fn desk_run_writes_readable_ledger_ancestry_and_status() {
    let opts = fast_opts("ledger");
    let dir = opts.dir.clone();
    let report = run_desk(opts, &mut NoopRecorder).expect("desk completes");

    let log = read_ledger(dir.join("lineage.jsonl")).expect("ledger reads");
    assert_eq!(log.skipped, 0, "a clean run's ledger has no torn lines");
    assert_eq!(log.entries.len(), report.rounds.len(), "one entry per round");
    if report.promotions > 0 {
        let chain = render_ancestry(&log, report.final_version);
        assert!(
            chain.contains(&format!("v{}", report.final_version)),
            "ancestry of the final version must start at it: {chain:?}"
        );
    }

    // The final status snapshot marks the run done and renders a frame.
    let raw = std::fs::read_to_string(dir.join("desk-top.json")).expect("status written");
    let v = parse(raw.trim()).expect("status parses");
    assert_eq!(v.get("schema").and_then(Value::as_str), Some("spikefolio.deskstatus.v1"));
    assert_eq!(v.get("done"), Some(&Value::Bool(true)));
    let frame = render_desk_top(&v);
    assert!(frame.contains("DONE"), "{frame}");

    // A clean run still flushes its blackbox at run end.
    let dump = std::fs::read_to_string(dir.join("blackbox.json")).expect("end-of-run dump");
    let d = parse(dump.trim()).expect("dump parses");
    assert_eq!(d.get("schema").and_then(Value::as_str), Some("spikefolio.blackbox.v1"));
}

#[test]
fn armed_recorder_does_not_change_the_desk_outcome() {
    // The sidecar is observe-only: a run with the blackbox, ledger, and
    // status file armed must land on bitwise the same decisions and
    // weights as a bare run of the same seed.
    let mut bare = fast_opts("bare");
    bare.blackbox = None;
    bare.lineage = None;
    bare.status = None;
    bare.faults = FaultPlan::default();
    let bare_report = run_desk(bare, &mut NoopRecorder).expect("bare run completes");
    let armed_report =
        run_desk(fast_opts("armed"), &mut NoopRecorder).expect("armed run completes");
    assert_eq!(bare_report.final_weights_crc, armed_report.final_weights_crc);
    assert_eq!(bare_report.to_json(), armed_report.to_json());
}
