//! Live-desk chaos acceptance suite.
//!
//! The headline property is the PR's acceptance test: across *any*
//! scripted fault sequence — trainer NaN epochs, panicked training
//! attempts, corrupted candidate checkpoints, poisoned validation data,
//! swap-time IO failures, feed stalls — the desk never serves a model
//! that did not pass the validation gate, the serving model's held-out
//! reward never regresses, and the whole run is bit-for-bit reproducible
//! under its seed. A recovered run must also land on exactly the weights
//! a fault-free run produces: recovery means *absorbing* the fault, not
//! merely surviving it.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use spikefolio::agent::SdpAgent;
use spikefolio::checkpoint::{heal_sdp, load_sdp, save_sdp};
use spikefolio::config::SdpConfig;
use spikefolio::{parse_fault_spec, run_desk, DeskOptions, DeskReport};
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_market::io::to_csv;
use spikefolio_resilience::crc32;
use spikefolio_snn::stbp::flat_params;
use spikefolio_telemetry::value::Value;
use spikefolio_telemetry::{labels, MemoryRecorder, NoopRecorder};
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spikefolio-live-desk-{}-{name}", std::process::id()))
}

/// The smoke desk shrunk to a test-speed trainer.
fn fast_opts(name: &str) -> DeskOptions {
    let dir = tmp_dir(name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = DeskOptions::smoke(dir);
    opts.config.training.epochs = 2;
    opts.config.training.steps_per_epoch = 2;
    opts.config.training.batch_size = 4;
    opts
}

/// Every round's gate invariants: finite serving reward never below the
/// incumbent's, and the served version always one that passed the gate.
fn assert_never_serves_ungated(report: &DeskReport) {
    for r in &report.rounds {
        if r.serving_reward.is_finite() && r.incumbent_reward.is_finite() {
            assert!(
                r.serving_reward >= r.incumbent_reward,
                "round {} served reward {} below incumbent {} ({})",
                r.round,
                r.serving_reward,
                r.incumbent_reward,
                r.outcome,
            );
        }
        assert!(
            report.gate_passed_versions.contains(&r.served_version),
            "round {} served v{} which never passed the gate (passed: {:?})",
            r.round,
            r.served_version,
            report.gate_passed_versions,
        );
    }
    assert!(
        report.gate_passed_versions.contains(&report.final_version),
        "final serving version v{} never passed the gate",
        report.final_version,
    );
}

#[test]
fn chaos_desk_serves_only_gated_models_and_is_deterministic() {
    let mut opts = fast_opts("chaos-a");
    opts.faults = parse_fault_spec("corrupt@0,nan@1,swapio@2,val@3", opts.seed).unwrap();
    let mut rec = MemoryRecorder::new();
    let report = run_desk(opts, &mut rec).expect("chaos run completes");

    assert_eq!(report.rounds.len(), 4, "all rounds ran: {report:?}");
    assert!(!report.ended_early);
    assert_never_serves_ungated(&report);

    // Every injected fault was absorbed, none left the desk degraded.
    assert!(report.recoveries >= 4, "four faults need four recoveries: {report:?}");
    assert!(!report.degraded, "all faults recover, desk must end healthy: {report:?}");
    assert_eq!(rec.counter_total(labels::COUNTER_DESK_ROUNDS), 4);
    assert!(rec.counter_total(labels::COUNTER_DESK_RECOVERIES) >= 3);
    assert!(rec.counter_total(labels::COUNTER_RESILIENCE_CORRUPTIONS) >= 1);
    assert!(rec.counter_total(labels::COUNTER_RESILIENCE_IO_RETRIES) >= 1);

    // Same seed + same fault script → bit-for-bit the same report,
    // including the CRC over the final serving weights.
    let mut opts_b = fast_opts("chaos-b");
    opts_b.faults = parse_fault_spec("corrupt@0,nan@1,swapio@2,val@3", opts_b.seed).unwrap();
    let report_b = run_desk(opts_b, &mut NoopRecorder).expect("replay completes");
    assert_eq!(report.final_weights_crc, report_b.final_weights_crc);
    assert_eq!(report.to_json(), report_b.to_json(), "chaos run must be deterministic");
}

#[test]
fn recovered_desk_matches_fault_free_run() {
    let clean = run_desk(fast_opts("clean"), &mut NoopRecorder).expect("fault-free run completes");

    let mut opts = fast_opts("recovered");
    opts.faults =
        parse_fault_spec("corrupt@0,stall@0x2,nan@1,panic@1,swapio@2,val@3", opts.seed).unwrap();
    let faulted = run_desk(opts, &mut NoopRecorder).expect("faulted run completes");

    // Recovery is exact: the faulted desk makes the same promotion
    // decisions and lands on bitwise the same serving weights.
    assert_eq!(clean.final_weights_crc, faulted.final_weights_crc);
    assert_eq!(clean.final_version, faulted.final_version);
    assert_eq!(clean.promotions, faulted.promotions);
    assert_eq!(clean.gate_passed_versions, faulted.gate_passed_versions);
    for (c, f) in clean.rounds.iter().zip(&faulted.rounds) {
        assert_eq!(c.outcome, f.outcome, "round {} diverged", c.round);
        assert_eq!(c.served_version, f.served_version);
        assert_eq!(c.serving_reward.to_bits(), f.serving_reward.to_bits());
        assert_eq!(c.candidate_reward.to_bits(), f.candidate_reward.to_bits());
    }
    // ...while the report still shows the faults were hit, not skipped.
    assert!(faulted.recoveries > clean.recoveries, "clean {clean:?} vs faulted {faulted:?}");
    assert!(faulted.feed_stalls > clean.feed_stalls);
}

#[test]
fn persistent_corruption_is_quarantined_while_serving_continues() {
    let mut opts = fast_opts("persistent-corruption");
    // Two corruption faults in the same round: the heal is re-rotted, so
    // the integrity probe must quarantine the candidate for good.
    opts.rounds = 3;
    opts.faults = parse_fault_spec("corrupt@1,corrupt@1", opts.seed).unwrap();
    let dir = opts.dir.clone();
    let mut rec = MemoryRecorder::new();
    let report = run_desk(opts, &mut rec).expect("run completes");

    let r1 = &report.rounds[1];
    assert_eq!(r1.outcome, "rejected:integrity", "{report:?}");
    assert!(r1.degraded, "an unrecovered corruption degrades its round");
    assert!(report.quarantines >= 1);
    assert!(
        dir.join("quarantine").join("round-1-integrity.ckpt").exists(),
        "quarantined bytes kept for forensics"
    );
    assert!(rec.counter_total(labels::COUNTER_SERVE_SWAP_REJECTED) >= 1);
    assert!(rec.counter_total(labels::COUNTER_DESK_QUARANTINES) >= 1);

    // Serving rode through on last-good and the desk finished its rounds.
    assert_eq!(r1.served_version, report.rounds[0].served_version);
    assert_eq!(report.rounds.len(), 3);
    assert!(!report.ended_early);
    assert!(!report.degraded, "later healthy rounds clear the degraded flag");
    assert_never_serves_ungated(&report);
}

#[test]
fn stalled_csv_feed_trips_watchdog_and_keeps_last_good() {
    let mut opts = fast_opts("csv-stall");
    std::fs::create_dir_all(&opts.dir).unwrap();
    // 44 periods on disk: enough for the 40-period warmup, not for round
    // 0's 46-period target — the feed then goes quiet forever.
    let market = ExperimentPreset::experiment1().shrunk(22, 0).generate(7);
    let csv_path = opts.dir.join("feed.csv");
    let mut csv = to_csv(&market);
    // A torn final line, as a live writer would leave mid-append: the
    // tail must hold it back rather than choke on it.
    csv.push_str("44,BTC,1.0,2.0");
    std::fs::write(&csv_path, csv).unwrap();

    opts.rounds = 2;
    opts.csv = Some(csv_path);
    opts.max_stall_polls = 2;
    let report = run_desk(opts, &mut NoopRecorder).expect("stalled run still reports");

    assert_eq!(report.rounds.len(), 1, "desk stops at the stall: {report:?}");
    assert_eq!(report.rounds[0].outcome, "stalled");
    assert!(report.ended_early);
    assert!(report.degraded, "an unresolved stall is a degraded end state");
    assert!(report.feed_stalls >= 1);
    // Last-good stays up: version 1 (the warmup incumbent) serves on.
    assert_eq!(report.final_version, 1);
    assert_eq!(report.gate_passed_versions, vec![1]);
}

#[test]
fn csv_rounds_reveal_only_the_periods_they_asked_for() {
    let mut opts = fast_opts("csv-long");
    std::fs::create_dir_all(&opts.dir).unwrap();
    // 80 periods on disk from the first poll: more than the whole run asks
    // for (40-period warmup + 3 rounds of 6).
    let market = ExperimentPreset::experiment1().shrunk(40, 0).generate(7);
    let csv_path = opts.dir.join("feed.csv");
    std::fs::write(&csv_path, to_csv(&market)).unwrap();
    opts.rounds = 3;
    opts.csv = Some(csv_path);
    let report = run_desk(opts, &mut NoopRecorder).expect("desk run completes");
    let revealed: Vec<usize> = report.rounds.iter().map(|r| r.revealed).collect();
    assert_eq!(revealed, [46, 52, 58], "each round reveals its own target");
}

/// CRC-32s of everything one desk run leaves behind, by artifact name.
/// Wall-clock fields are dropped from the telemetry records and the
/// test's temp dir is blanked out of the triage manifests, so every
/// entry is a pure function of the seed, options and fault script.
fn desk_artifact_crcs(opts: DeskOptions) -> (Vec<String>, Vec<(&'static str, u32)>) {
    let dir = opts.dir.clone();
    let mut rec = MemoryRecorder::new();
    let report = run_desk(opts, &mut rec).expect("desk run completes");
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap_or_default();

    let mut manifests: Vec<PathBuf> = std::fs::read_dir(dir.join("quarantine"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    manifests.sort();
    let dir_str = dir.to_string_lossy().into_owned();
    let mut manifest_bytes = Vec::new();
    for path in &manifests {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let raw = std::fs::read_to_string(path).unwrap().replace(&dir_str, "<dir>");
        manifest_bytes.extend_from_slice(name.as_bytes());
        manifest_bytes.extend_from_slice(raw.as_bytes());
    }

    let mut records = String::new();
    for r in rec.records() {
        let mut fields = vec![("kind".to_string(), Value::Str(r.kind().to_string()))];
        fields.extend(r.fields().iter().filter(|(k, _)| k != "wall_s").cloned());
        records.push_str(&Value::Map(fields).to_json());
        records.push('\n');
    }
    let counters: String =
        rec.counters().iter().map(|(label, n)| format!("{label}={n}\n")).collect();

    let outcomes = report.rounds.iter().map(|r| r.outcome.clone()).collect();
    let crcs = vec![
        ("report", crc32(report.to_json().as_bytes())),
        ("lineage", crc32(&read("lineage.jsonl"))),
        ("blackbox", crc32(&read("blackbox.json"))),
        ("desk_top", crc32(&read("desk-top.json"))),
        ("manifests", crc32(&manifest_bytes)),
        ("records", crc32(records.as_bytes())),
        ("counters", crc32(counters.as_bytes())),
    ];
    let _ = std::fs::remove_dir_all(&dir);
    (outcomes, crcs)
}

/// `fast_opts` with the blackbox, lineage ledger and status file armed.
fn armed_opts(name: &str) -> DeskOptions {
    let mut opts = fast_opts(name);
    opts.blackbox = Some(opts.dir.join("blackbox.json"));
    opts.lineage = Some(opts.dir.join("lineage.jsonl"));
    opts.status = Some(opts.dir.join("desk-top.json"));
    opts
}

#[test]
fn desk_artifacts_are_pinned_bitwise() {
    // Generator feed: every fault kind the desk absorbs, a heal that is
    // re-rotted, and a swap write failing through a 2-retry budget on a
    // round whose candidate passed the gate.
    let mut opts = armed_opts("pin-generator");
    opts.rounds = 5;
    opts.guard.io_retries = 2;
    opts.faults = parse_fault_spec(
        "stall@0x2,val@0,corrupt@1,corrupt@1,swapio@2,nan@3,panic@3,corrupt@4",
        opts.seed,
    )
    .unwrap();
    let (outcomes, crcs) = desk_artifact_crcs(opts);
    assert_eq!(
        outcomes,
        [
            "promoted",
            "rejected:integrity",
            "swap_failed",
            "rejected:validation",
            "rejected:validation"
        ]
    );
    assert_eq!(
        crcs,
        [
            ("report", 0x682c2684),
            ("lineage", 0xda6b237d),
            ("blackbox", 0xd4357f9e),
            ("desk_top", 0x159d5908),
            ("manifests", 0x8e10adfc),
            ("records", 0x119fee18),
            ("counters", 0x16a5afdc),
        ],
        "generator-feed desk artifacts moved"
    );

    // CSV feed: 52 periods on disk cover the warmup and the first two
    // rounds, then the feed goes quiet and round 2 stalls. A zero drift
    // bound quarantines both gated rounds, so the manifests carry the
    // feed's path. Market seed 12 reaches the drift stage in both rounds
    // (on seed 7 both candidates fail the reward floor first).
    let mut opts = armed_opts("pin-csv");
    std::fs::create_dir_all(&opts.dir).unwrap();
    let market = ExperimentPreset::experiment1().shrunk(26, 0).generate(12);
    let csv_path = opts.dir.join("feed.csv");
    std::fs::write(&csv_path, to_csv(&market)).unwrap();
    opts.rounds = 3;
    opts.csv = Some(csv_path);
    opts.max_stall_polls = 2;
    opts.drift_threshold = 0.0;
    let (outcomes, crcs) = desk_artifact_crcs(opts);
    assert_eq!(outcomes, ["rejected:drift", "rejected:drift", "stalled"]);
    assert_eq!(
        crcs,
        [
            ("report", 0x9d2872fc),
            ("lineage", 0x1090602d),
            ("blackbox", 0x259bbdec),
            ("desk_top", 0x084dcb8b),
            ("manifests", 0x7fc9965e),
            ("records", 0xdda1c217),
            ("counters", 0x3bb15f6a),
        ],
        "CSV-feed desk artifacts moved"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A hot-swap writer racing `heal_sdp` on the same path never leaves
    /// a truncated or CRC-invalid checkpoint behind: both sides go
    /// through the atomic temp-file + rename protocol, so any observer
    /// sees one complete, valid generation — never a torn hybrid.
    #[test]
    fn swap_racing_heal_never_leaves_invalid_checkpoint(
        seed in 0u64..1_000,
        writes in 1usize..4,
        heals in 1usize..4,
    ) {
        let cfg = SdpConfig::smoke();
        let swapper = SdpAgent::new(&cfg, 5, seed);
        let healer = SdpAgent::new(&cfg, 5, seed.wrapping_add(1));
        let path = tmp_dir(&format!("race-{seed}-{writes}-{heals}.ckpt"));
        save_sdp(&swapper, &path).unwrap();

        std::thread::scope(|scope| {
            let w = scope.spawn(|| {
                for _ in 0..writes {
                    save_sdp(&swapper, &path).unwrap();
                }
            });
            let h = scope.spawn(|| {
                for _ in 0..heals {
                    // heal() validates and only rewrites an invalid file;
                    // racing the swapper it may see either generation.
                    heal_sdp(&healer, &path).unwrap();
                }
            });
            w.join().unwrap();
            h.join().unwrap();
        });

        let mut probe = SdpAgent::new(&cfg, 5, seed.wrapping_add(2));
        load_sdp(&mut probe, &path)
            .map_err(|e| format!("post-race checkpoint invalid: {e}"))?;
        let got = flat_params(&probe.network);
        let is_swapper = got == flat_params(&swapper.network);
        let is_healer = got == flat_params(&healer.network);
        std::fs::remove_file(&path).ok();
        prop_assert!(
            is_swapper || is_healer,
            "post-race weights match neither racer's generation"
        );
    }
}
