//! `spikefolio` command-line interface: run any of the paper's experiments
//! from one binary.
//!
//! ```sh
//! spikefolio table3 [--full|--smoke] [--seed N] [--telemetry RUN.jsonl] [--guard] [--sanitize]
//! spikefolio table4 [--smoke] [--seed N] [--telemetry RUN.jsonl] [--guard] [--sanitize]
//! spikefolio ablation timesteps|encoding|costs|rate-penalty
//! spikefolio figures [--out DIR]
//! spikefolio stats                        # synthetic-market diagnostics
//! spikefolio telemetry summarize RUN.jsonl
//! spikefolio profile [--smoke] [--seed N] [--trace TRACE.json]
//! spikefolio bench run [--smoke] [--seed N] [--out BENCH.json]
//! spikefolio bench compare BENCH.json [--smoke] [--seed N]
//! spikefolio checkpoint init PATH [--smoke|--full] [--seed N] [--assets N]
//! spikefolio serve --checkpoint CKPT [--addr HOST:PORT] [--backend float|loihi]
//!                  [--smoke|--full] [--assets N] [--max-batch N] [--max-wait-us N]
//!                  [--queue N] [--workers N] [--deterministic] [--telemetry RUN.jsonl]
//!                  [--trace TRACE.json] [--trace-sample N] [--slo-us N]
//! spikefolio serve-top --addr HOST:PORT [--interval-ms N] [--iterations N] [--raw] [--prom]
//!                      [--lineage LEDGER.jsonl]
//! spikefolio loadgen --smoke [--checkpoint CKPT] [--seed N]
//! spikefolio loadgen --addr HOST:PORT [--requests N] [--concurrency N] [--open-rps R]
//!                    [--seed N] [--deadline-ms N] [--check-determinism] [--out REPORT.json]
//!                    [--retry N] [--backoff-ms N]
//! spikefolio loadgen --self-bench --checkpoint CKPT [--smoke|--full] [--assets N]
//!                    [--requests N] [--concurrency N] [--seed N] [--max-batch N]
//! spikefolio live-desk [--full] [--seed N] [--rounds N] [--warmup N] [--reveal N]
//!                      [--window N] [--epochs N] [--val-fraction F] [--drift-threshold F]
//!                      [--faults SPEC] [--dir DIR] [--csv FEED.csv] [--backend float|loihi]
//!                      [--out REPORT.json] [--telemetry RUN.jsonl]
//!                      [--blackbox DUMP.json] [--lineage LEDGER.jsonl] [--status STATUS.json]
//! spikefolio scenarios run [--all | --universes a,b] [--scenarios x,y] [--seed N] [--smoke]
//!                          [--out CARD.json] [--json] [--telemetry RUN.jsonl]
//! spikefolio desk triage --dir DIR [--round N] [--full] [--json]
//! spikefolio desk-top --status STATUS.json [--interval-ms N] [--iterations N] [--raw]
//! spikefolio lineage LEDGER.jsonl [--json] [--version N]
//! spikefolio profile merge --out TRACE.json A.json B.json [...]
//! ```
//!
//! Unrecognized flags are rejected with an error rather than silently
//! ignored, so a typo like `--telemtry` cannot quietly drop a run log.

use spikefolio::experiments::{
    cost_model_ablation, encoding_comparison, rate_penalty_ablation, run_table3, run_table4,
    timestep_tradeoff, RunOptions,
};
use spikefolio::figures::{backtest_value_curves, training_reward_csv};
use spikefolio::profiling::{run_bench_workloads, run_profile_workload, WorkloadOptions};
use spikefolio::report;
use spikefolio::serving::{
    run_loadgen_smoke, run_self_bench, run_serve, run_serve_top, write_reference_checkpoint,
    BackendKind, ServeRunOptions, ServeTopOptions,
};
use spikefolio::telemetry_report::{empty_run_message, format_run_summary};
use spikefolio::{
    lineage_json, parse_fault_spec, render_ancestry, render_lineage_ledger, run_desk, run_desk_top,
    run_scenario_matrix, run_triage, DeskOptions, DeskTopOptions, ScenarioMatrixOptions, SdpConfig,
    TriageOptions,
};
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_market::stats::market_stats;
use spikefolio_scenario::Scenario;
use spikefolio_serve::{run_loadgen, LoadgenOptions, ServiceConfig};
use spikefolio_telemetry::JsonlSink;

fn medium_options(seed: u64) -> RunOptions {
    let mut config = SdpConfig::paper();
    config.state.window = 6;
    config.network.hidden = vec![64, 64];
    config.network.pop_in = 6;
    config.network.pop_out = 6;
    config.training.epochs = 10;
    config.training.steps_per_epoch = 20;
    config.training.batch_size = 32;
    config.training.learning_rate = 5e-4;
    config.training.parallelism = num_threads();
    RunOptions { config, shrink: Some((240, 60)), market_seed: seed, guard: None, sanitize: None }
}

fn num_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Flags a command accepts: value-taking flags consume the next argument,
/// boolean flags stand alone.
struct FlagSpec {
    value: &'static [&'static str],
    boolean: &'static [&'static str],
}

impl FlagSpec {
    /// Validates `args` against the spec, rejecting anything unknown.
    /// Returns nothing — all lookups happen through [`flag_value`] /
    /// [`has_flag`] after validation passes.
    fn check(&self, args: &[String]) {
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if self.value.contains(&a) {
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => i += 2,
                    _ => fail(&format!("flag '{a}' requires a value")),
                }
            } else if self.boolean.contains(&a) {
                i += 1;
            } else if a.starts_with("--") {
                fail(&format!("unrecognized flag '{a}'"));
            } else {
                fail(&format!("unexpected argument '{a}'"));
            }
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\nrun 'spikefolio' without arguments for usage");
    std::process::exit(2);
}

fn parse_options(args: &[String]) -> RunOptions {
    let seed = match flag_value(args, "--seed") {
        Some(s) => {
            s.parse().unwrap_or_else(|_| fail(&format!("--seed expects an integer, got '{s}'")))
        }
        None => 2016,
    };
    let mut opts = if has_flag(args, "--full") {
        let mut opts = RunOptions::paper();
        opts.config.training.parallelism = num_threads();
        opts
    } else if has_flag(args, "--smoke") {
        RunOptions::smoke()
    } else {
        medium_options(seed)
    };
    opts.market_seed = seed;
    if has_flag(args, "--guard") {
        opts.guard = Some(spikefolio_resilience::GuardConfig::default());
    }
    if has_flag(args, "--sanitize") {
        opts.sanitize = Some(spikefolio_market::SanitizeConfig::default());
    }
    opts
}

/// Opens the `--telemetry` sink if requested, runs `f` with it (or a
/// no-op recorder), prints the report, and closes the log.
fn run_with_optional_telemetry<T>(
    args: &[String],
    run: impl FnOnce(&mut dyn spikefolio_telemetry::Recorder) -> T,
    render: impl FnOnce(&T) -> String,
) {
    match flag_value(args, "--telemetry") {
        Some(path) => {
            let mut sink = JsonlSink::create(path)
                .unwrap_or_else(|e| fail(&format!("cannot create telemetry log '{path}': {e}")));
            let out = run(&mut sink);
            print!("{}", render(&out));
            match sink.finish() {
                Ok(_) => eprintln!("telemetry log written to {path}"),
                Err(e) => fail(&format!("failed to write telemetry log '{path}': {e}")),
            }
        }
        None => {
            let out = run(&mut spikefolio_telemetry::NoopRecorder);
            print!("{}", render(&out));
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: spikefolio <command> [flags]\n\
         commands:\n  \
           table3       reproduce Table 3 (strategy performance)\n  \
           table4       reproduce Table 4 (power/performance)\n  \
           ablation <timesteps|encoding|costs|rate-penalty>\n  \
           figures      write value/reward curve CSVs\n  \
           stats        synthetic-market statistical diagnostics\n  \
           telemetry summarize <run.jsonl>   render a recorded run log\n  \
           profile      phase-profile a pinned run (--trace writes chrome-trace JSON)\n  \
           bench run    record a performance baseline (--out BENCH.json)\n  \
           bench compare <BENCH.json>        gate against a recorded baseline\n  \
           checkpoint init <PATH>            write a fresh reference checkpoint\n  \
           serve        serve a checkpoint over NDJSON/TCP (--checkpoint CKPT)\n  \
           serve-top    live metrics dashboard for a running server (--addr HOST:PORT)\n  \
           loadgen      drive a server: --smoke | --addr HOST:PORT | --self-bench\n  \
           live-desk    continuous-learning loop: train, gate, hot-swap (--faults SPEC)\n  \
           scenarios run  stress-suite matrix: universes × scenarios × strategies scorecard\n  \
           desk triage  replay a quarantined candidate's gate bitwise (--dir DIR)\n  \
           desk-top     live desk dashboard from a status file (--status PATH)\n  \
           lineage <LEDGER.jsonl>            render the model lineage ledger\n  \
           profile merge --out T.json A B    merge chrome traces onto one timeline\n\
         flags: --full | --smoke | --seed N | --out DIR | --telemetry RUN.jsonl\n        \
                --trace TRACE.json (profile) | --guard (fault-guarded SDP training)\n        \
                --sanitize (market data sanitizer)"
    );
    std::process::exit(2);
}

/// Parses the shared `--smoke` / `--seed` flags of the profile and bench
/// commands into workload options (paper-scale kernels by default).
fn workload_options(args: &[String]) -> WorkloadOptions {
    let seed = match flag_value(args, "--seed") {
        Some(s) => {
            s.parse().unwrap_or_else(|_| fail(&format!("--seed expects an integer, got '{s}'")))
        }
        None => 2016,
    };
    if has_flag(args, "--smoke") {
        WorkloadOptions::smoke(seed)
    } else {
        WorkloadOptions::full(seed)
    }
}

/// Parses a numeric `flag` from `args`, falling back to `default`.
fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match flag_value(args, flag) {
        Some(s) => {
            s.parse().unwrap_or_else(|_| fail(&format!("{flag} expects a number, got '{s}'")))
        }
        None => default,
    }
}

/// Model topology for the serving commands: `--full` means paper scale,
/// anything else the smoke topology (what `checkpoint init --smoke` and
/// the CI fixtures use).
fn serve_config(args: &[String]) -> SdpConfig {
    if has_flag(args, "--full") {
        SdpConfig::paper()
    } else {
        SdpConfig::smoke()
    }
}

/// The exact `bench run` invocation that regenerates the baseline at
/// `path` with the same workload flags as the current compare.
fn bench_regen_hint(path: &str, args: &[String]) -> String {
    let mut cmd = String::from("spikefolio bench run");
    if has_flag(args, "--smoke") {
        cmd.push_str(" --smoke");
    } else if has_flag(args, "--full") {
        cmd.push_str(" --full");
    }
    if let Some(seed) = flag_value(args, "--seed") {
        cmd.push_str(&format!(" --seed {seed}"));
    }
    cmd.push_str(&format!(" --out {path}"));
    cmd
}

const RUN_FLAGS: FlagSpec =
    FlagSpec { value: &["--seed"], boolean: &["--full", "--smoke", "--guard", "--sanitize"] };
const PROFILE_FLAGS: FlagSpec =
    FlagSpec { value: &["--seed", "--trace"], boolean: &["--full", "--smoke"] };
const BENCH_FLAGS: FlagSpec =
    FlagSpec { value: &["--seed", "--out"], boolean: &["--full", "--smoke"] };
const TELEMETRY_RUN_FLAGS: FlagSpec = FlagSpec {
    value: &["--seed", "--telemetry"],
    boolean: &["--full", "--smoke", "--guard", "--sanitize"],
};
const FIGURES_FLAGS: FlagSpec = FlagSpec {
    value: &["--seed", "--out"],
    boolean: &["--full", "--smoke", "--guard", "--sanitize"],
};
const SERVE_FLAGS: FlagSpec = FlagSpec {
    value: &[
        "--checkpoint",
        "--addr",
        "--backend",
        "--assets",
        "--max-batch",
        "--max-wait-us",
        "--queue",
        "--workers",
        "--telemetry",
        "--seed",
        "--trace",
        "--trace-sample",
        "--slo-us",
    ],
    boolean: &["--full", "--smoke", "--deterministic"],
};
const SERVE_TOP_FLAGS: FlagSpec = FlagSpec {
    value: &["--addr", "--interval-ms", "--iterations", "--lineage"],
    boolean: &["--raw", "--prom"],
};
const LOADGEN_FLAGS: FlagSpec = FlagSpec {
    value: &[
        "--checkpoint",
        "--addr",
        "--requests",
        "--concurrency",
        "--open-rps",
        "--seed",
        "--deadline-ms",
        "--out",
        "--max-batch",
        "--assets",
        "--retry",
        "--backoff-ms",
    ],
    boolean: &["--full", "--smoke", "--self-bench", "--check-determinism"],
};
const LIVE_DESK_FLAGS: FlagSpec = FlagSpec {
    value: &[
        "--seed",
        "--rounds",
        "--warmup",
        "--reveal",
        "--window",
        "--epochs",
        "--val-fraction",
        "--drift-threshold",
        "--faults",
        "--dir",
        "--csv",
        "--backend",
        "--out",
        "--telemetry",
        "--blackbox",
        "--lineage",
        "--status",
    ],
    boolean: &["--full"],
};
const CHECKPOINT_FLAGS: FlagSpec =
    FlagSpec { value: &["--seed", "--assets"], boolean: &["--full", "--smoke"] };
const TRIAGE_FLAGS: FlagSpec =
    FlagSpec { value: &["--dir", "--round"], boolean: &["--full", "--json"] };
const DESK_TOP_FLAGS: FlagSpec =
    FlagSpec { value: &["--status", "--interval-ms", "--iterations"], boolean: &["--raw"] };
const LINEAGE_FLAGS: FlagSpec = FlagSpec { value: &["--version"], boolean: &["--json"] };
const SCENARIOS_FLAGS: FlagSpec = FlagSpec {
    value: &["--seed", "--universes", "--scenarios", "--out", "--telemetry"],
    boolean: &["--all", "--smoke", "--json"],
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "table3" => {
            TELEMETRY_RUN_FLAGS.check(&args[1..]);
            let opts = parse_options(&args[1..]);
            run_with_optional_telemetry(
                &args[1..],
                |rec| run_table3(&opts, rec),
                |outcomes| report::format_table3(outcomes),
            );
        }
        "table4" => {
            TELEMETRY_RUN_FLAGS.check(&args[1..]);
            let opts = parse_options(&args[1..]);
            run_with_optional_telemetry(
                &args[1..],
                |rec| run_table4(&opts, rec),
                |outcomes| report::format_table4(outcomes),
            );
        }
        "ablation" => {
            let Some(which) = args.get(1) else { usage() };
            RUN_FLAGS.check(&args[2..]);
            let opts = parse_options(&args[2..]);
            match which.as_str() {
                "timesteps" => {
                    let pts = timestep_tradeoff(&opts, &[1, 2, 5, 10, 20]);
                    print!("{}", report::format_timestep_tradeoff(&pts));
                }
                "encoding" => {
                    let pts = encoding_comparison(&opts);
                    print!("{}", report::format_encoding_comparison(&pts));
                }
                "costs" => {
                    let pts = cost_model_ablation(&opts);
                    print!("{}", report::format_cost_ablation(&pts));
                }
                "rate-penalty" => {
                    let pts = rate_penalty_ablation(&opts, &[0.0, 0.5, 2.0, 10.0]);
                    print!("{}", report::format_rate_penalty(&pts));
                }
                other => fail(&format!("unknown ablation '{other}'")),
            }
        }
        "figures" => {
            FIGURES_FLAGS.check(&args[1..]);
            let opts = parse_options(&args[1..]);
            let out = flag_value(&args[1..], "--out").unwrap_or("target/figures").to_owned();
            let dir = std::path::Path::new(&out);
            std::fs::create_dir_all(dir).expect("create output directory");
            for (i, preset) in ExperimentPreset::all().into_iter().enumerate() {
                let (curves, log) = backtest_value_curves(&opts, preset);
                std::fs::write(dir.join(format!("experiment{}_value_curves.csv", i + 1)), curves)
                    .expect("write curves");
                std::fs::write(
                    dir.join(format!("experiment{}_sdp_reward.csv", i + 1)),
                    training_reward_csv(&log),
                )
                .expect("write rewards");
                println!("experiment {} → {}", i + 1, dir.display());
            }
        }
        "stats" => {
            RUN_FLAGS.check(&args[1..]);
            let opts = parse_options(&args[1..]);
            for preset in ExperimentPreset::all() {
                let market = match opts.shrink {
                    Some((a, b)) => preset.clone().shrunk(a, b).generate(opts.market_seed),
                    None => preset.generate(opts.market_seed),
                };
                let s = market_stats(&market);
                println!(
                    "{}: mean corr {:.3}, vol clustering {:.3}, vol range {:.2}–{:.2}, kurtosis range {:.1}–{:.1}",
                    preset.name,
                    s.mean_correlation,
                    s.mean_vol_clustering,
                    s.annual_volatility.iter().cloned().fold(f64::INFINITY, f64::min),
                    s.annual_volatility.iter().cloned().fold(0.0, f64::max),
                    s.excess_kurtosis.iter().cloned().fold(f64::INFINITY, f64::min),
                    s.excess_kurtosis.iter().cloned().fold(0.0, f64::max),
                );
            }
        }
        "telemetry" => {
            match args.get(1).map(String::as_str) {
                Some("summarize") => {}
                Some(other) => fail(&format!("unknown telemetry subcommand '{other}'")),
                None => usage(),
            }
            let Some(path) = args.get(2) else {
                fail("telemetry summarize expects a run-log path");
            };
            if let Some(extra) = args.get(3) {
                fail(&format!("unexpected argument '{extra}'"));
            }
            let summary = spikefolio_telemetry::summarize_file(path)
                .unwrap_or_else(|e| fail(&format!("cannot read run log '{path}': {e}")));
            // An empty or header-only log gets one clear message and a
            // clean exit instead of a bare record count that looks like a
            // rendering bug.
            if let Some(msg) = empty_run_message(path, &summary) {
                println!("{msg}");
                return;
            }
            print!("{}", format_run_summary(&summary));
        }
        "profile" if args.get(1).map(String::as_str) == Some("merge") => {
            // `profile merge --out T.json A.json B.json ...` takes
            // positional trace paths, so it parses its own arguments
            // instead of going through FlagSpec.
            let a = &args[2..];
            let mut out: Option<&str> = None;
            let mut inputs: Vec<&str> = Vec::new();
            let mut i = 0;
            while i < a.len() {
                match a[i].as_str() {
                    "--out" => match a.get(i + 1) {
                        Some(v) if !v.starts_with("--") => {
                            out = Some(v);
                            i += 2;
                        }
                        _ => fail("flag '--out' requires a value"),
                    },
                    s if s.starts_with("--") => fail(&format!("unrecognized flag '{s}'")),
                    s => {
                        inputs.push(s);
                        i += 1;
                    }
                }
            }
            let Some(out) = out else { fail("profile merge requires --out TRACE.json") };
            if inputs.len() < 2 {
                fail("profile merge expects at least two input trace files");
            }
            let docs: Vec<(String, String)> = inputs
                .iter()
                .map(|p| {
                    let text = std::fs::read_to_string(p)
                        .unwrap_or_else(|e| fail(&format!("cannot read trace '{p}': {e}")));
                    let label = std::path::Path::new(p)
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_else(|| (*p).to_owned());
                    (label, text)
                })
                .collect();
            let mut merged =
                spikefolio_profile::merge_chrome_traces(&docs).unwrap_or_else(|e| fail(&e));
            merged.push('\n');
            std::fs::write(out, merged)
                .unwrap_or_else(|e| fail(&format!("cannot write trace '{out}': {e}")));
            println!("merged {} traces into {out} (load in Perfetto)", inputs.len());
        }
        "profile" => {
            PROFILE_FLAGS.check(&args[1..]);
            let opts = workload_options(&args[1..]);
            let report = run_profile_workload(&opts);
            if let Some(path) = flag_value(&args[1..], "--trace") {
                // Self-validate before writing: a trace Perfetto cannot
                // parse is worse than no trace.
                if let Err(e) = spikefolio_telemetry::value::parse(&report.trace_json) {
                    fail(&format!("generated chrome trace is not valid JSON: {e}"));
                }
                std::fs::write(path, &report.trace_json)
                    .unwrap_or_else(|e| fail(&format!("cannot write trace '{path}': {e}")));
                eprintln!("chrome trace written to {path} (load in Perfetto or chrome://tracing)");
            }
            print!("{}", report.phase_tree);
            print!("{}", report.cost.render());
            if let Some(s) = report.train_sparsity {
                println!("training effective sparsity (last epoch): {:.1}%", s * 100.0);
            }
        }
        "bench" => match args.get(1).map(String::as_str) {
            Some("run") => {
                BENCH_FLAGS.check(&args[2..]);
                let opts = workload_options(&args[2..]);
                let baseline = run_bench_workloads(&opts);
                let out = match flag_value(&args[2..], "--out") {
                    Some(p) => p.to_owned(),
                    None => format!("BENCH_{}.json", baseline.created_unix),
                };
                let mut json = baseline.to_json();
                json.push('\n');
                std::fs::write(&out, json)
                    .unwrap_or_else(|e| fail(&format!("cannot write baseline '{out}': {e}")));
                for e in &baseline.entries {
                    println!("{:<16} {:>12.6}s  (best of {})", e.name, e.wall_s, e.reps);
                }
                println!("bench baseline written to {out}");
            }
            Some("compare") => {
                let Some(path) = args.get(2) else {
                    fail("bench compare expects a baseline path");
                };
                BENCH_FLAGS.check(&args[3..]);
                let opts = workload_options(&args[3..]);
                let regen = bench_regen_hint(path, &args[3..]);
                let raw = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    fail(&format!("cannot read baseline '{path}': {e}\nrecord one with: {regen}"))
                });
                let baseline = spikefolio_profile::BenchBaseline::parse(&raw).unwrap_or_else(|e| {
                    fail(&format!("invalid baseline '{path}': {e}\nre-record it with: {regen}"))
                });
                let current = run_bench_workloads(&opts);
                let report = spikefolio_profile::compare(
                    &baseline,
                    &current,
                    &spikefolio_profile::CompareThresholds::default(),
                );
                print!("{}", report.render());
                if !report.passed() {
                    if report.suspects_stale_baseline() {
                        eprintln!(
                            "baseline '{path}' looks stale (current run is anomalously fast \
                             against it)\nre-record it with: {regen}"
                        );
                    }
                    std::process::exit(1);
                }
            }
            Some(other) => fail(&format!("unknown bench subcommand '{other}'")),
            None => usage(),
        },
        "checkpoint" => {
            match args.get(1).map(String::as_str) {
                Some("init") => {}
                Some(other) => fail(&format!("unknown checkpoint subcommand '{other}'")),
                None => usage(),
            }
            let Some(path) = args.get(2) else {
                fail("checkpoint init expects an output path");
            };
            CHECKPOINT_FLAGS.check(&args[3..]);
            let a = &args[3..];
            let config = serve_config(a);
            let assets = parsed_flag(a, "--assets", 5usize);
            let seed = parsed_flag(a, "--seed", 2016u64);
            write_reference_checkpoint(path, &config, assets, seed).unwrap_or_else(|e| fail(&e));
            println!("reference checkpoint written to {path} (assets {assets}, seed {seed})");
        }
        "serve" => {
            SERVE_FLAGS.check(&args[1..]);
            let a = &args[1..];
            let Some(checkpoint) = flag_value(a, "--checkpoint") else {
                fail("serve requires --checkpoint PATH (see 'spikefolio checkpoint init')");
            };
            let backend: BackendKind = flag_value(a, "--backend")
                .unwrap_or("float")
                .parse()
                .unwrap_or_else(|e: String| fail(&e));
            let mut service = ServiceConfig::default();
            service.batch.max_batch = parsed_flag(a, "--max-batch", service.batch.max_batch);
            service.batch.max_wait_us = parsed_flag(a, "--max-wait-us", service.batch.max_wait_us);
            service.queue_capacity = parsed_flag(a, "--queue", service.queue_capacity);
            service.workers = parsed_flag(a, "--workers", num_threads().min(4));
            service.deterministic = has_flag(a, "--deterministic");
            let opts = ServeRunOptions {
                addr: flag_value(a, "--addr").unwrap_or("127.0.0.1:7878").to_owned(),
                checkpoint: checkpoint.to_owned(),
                config: serve_config(a),
                num_assets: parsed_flag(a, "--assets", 5usize),
                backend,
                service,
                telemetry: flag_value(a, "--telemetry").map(str::to_owned),
                trace: flag_value(a, "--trace").map(str::to_owned),
                trace_sample: parsed_flag(a, "--trace-sample", 0u64),
                slo_us: flag_value(a, "--slo-us").map(|s| {
                    s.parse()
                        .unwrap_or_else(|_| fail(&format!("--slo-us expects a number, got '{s}'")))
                }),
            };
            run_serve(&opts).unwrap_or_else(|e| fail(&e));
        }
        "serve-top" => {
            SERVE_TOP_FLAGS.check(&args[1..]);
            let a = &args[1..];
            let Some(addr) = flag_value(a, "--addr") else {
                fail("serve-top requires --addr HOST:PORT");
            };
            let opts = ServeTopOptions {
                addr: addr.to_owned(),
                interval_ms: parsed_flag(a, "--interval-ms", 1000u64),
                iterations: parsed_flag(a, "--iterations", 0usize),
                raw: has_flag(a, "--raw"),
                prometheus: has_flag(a, "--prom"),
                lineage: flag_value(a, "--lineage").map(str::to_owned),
            };
            run_serve_top(&opts).unwrap_or_else(|e| fail(&e));
        }
        "loadgen" => {
            LOADGEN_FLAGS.check(&args[1..]);
            let a = &args[1..];
            let seed = parsed_flag(a, "--seed", 2016u64);
            if has_flag(a, "--self-bench") {
                let Some(checkpoint) = flag_value(a, "--checkpoint") else {
                    fail("loadgen --self-bench requires --checkpoint PATH");
                };
                // 2048 requests: long enough that steady-state full
                // batches dominate the warm-up's partial ones.
                let load = LoadgenOptions {
                    requests: parsed_flag(a, "--requests", 2048usize),
                    concurrency: parsed_flag(a, "--concurrency", 32usize),
                    seed,
                    ..Default::default()
                };
                let mut service = ServiceConfig::default();
                service.batch.max_batch = parsed_flag(a, "--max-batch", service.batch.max_batch);
                // One worker on both sides: the bench isolates what the
                // micro-batcher buys, not worker-level parallelism (which
                // would mask it by scaling the unbatched side too).
                service.workers = 1;
                let config = serve_config(a);
                let assets = parsed_flag(a, "--assets", 5usize);
                let (batching, unbatched) =
                    run_self_bench(checkpoint, &config, assets, &load, service)
                        .unwrap_or_else(|e| fail(&e));
                println!("-- batching (max_batch {}) --", service.batch.max_batch.max(2));
                print!("{}", batching.render());
                println!("-- unbatched (max_batch 1) --");
                print!("{}", unbatched.render());
                let ratio = if unbatched.throughput_rps > 0.0 {
                    batching.throughput_rps / unbatched.throughput_rps
                } else {
                    f64::INFINITY
                };
                println!("batching speedup: {ratio:.2}x");
            } else if has_flag(a, "--smoke") {
                let outcome = run_loadgen_smoke(flag_value(a, "--checkpoint"), seed)
                    .unwrap_or_else(|e| fail(&e));
                print!("{}", outcome.report.render());
                if outcome.passed() {
                    println!("serve smoke: PASS (deterministic double-run, clean shutdown)");
                } else {
                    eprintln!(
                        "serve smoke: FAIL (clean_shutdown {}, deterministic {:?}, \
                         served {}/{}, shed {}+{}, errors {})",
                        outcome.clean_shutdown,
                        outcome.report.deterministic,
                        outcome.report.served,
                        outcome.report.requests,
                        outcome.report.shed_queue_full,
                        outcome.report.shed_deadline,
                        outcome.report.errors,
                    );
                    std::process::exit(1);
                }
            } else {
                let Some(addr) = flag_value(a, "--addr") else {
                    fail("loadgen expects --smoke, --self-bench, or --addr HOST:PORT");
                };
                let load = LoadgenOptions {
                    requests: parsed_flag(a, "--requests", 256usize),
                    concurrency: parsed_flag(a, "--concurrency", 8usize),
                    open_rps: flag_value(a, "--open-rps").map(|s| {
                        s.parse().unwrap_or_else(|_| {
                            fail(&format!("--open-rps expects a number, got '{s}'"))
                        })
                    }),
                    seed,
                    deadline_ms: flag_value(a, "--deadline-ms").map(|s| {
                        s.parse().unwrap_or_else(|_| {
                            fail(&format!("--deadline-ms expects a number, got '{s}'"))
                        })
                    }),
                    runs: if has_flag(a, "--check-determinism") { 2 } else { 1 },
                    connect_retries: parsed_flag(a, "--retry", 0u32),
                    connect_backoff_ms: parsed_flag(a, "--backoff-ms", 50u64),
                };
                let report = run_loadgen(addr, &load).unwrap_or_else(|e| fail(&e));
                print!("{}", report.render());
                if let Some(out) = flag_value(a, "--out") {
                    let mut json = report.to_json();
                    json.push('\n');
                    std::fs::write(out, json)
                        .unwrap_or_else(|e| fail(&format!("cannot write report '{out}': {e}")));
                    eprintln!("loadgen report written to {out}");
                }
                if report.deterministic == Some(false) {
                    eprintln!("determinism check FAILED: passes disagreed bitwise");
                    std::process::exit(1);
                }
            }
        }
        "scenarios" => match args.get(1).map(String::as_str) {
            Some("run") => {
                SCENARIOS_FLAGS.check(&args[2..]);
                let a = &args[2..];
                let subset = flag_value(a, "--universes").is_some()
                    || flag_value(a, "--scenarios").is_some();
                if has_flag(a, "--all") && subset {
                    fail("--all cannot be combined with --universes/--scenarios");
                }
                if !has_flag(a, "--all") && !subset {
                    fail(
                        "scenarios run expects --all (full matrix) or a subset via \
                         --universes/--scenarios",
                    );
                }
                let mut opts = ScenarioMatrixOptions::default();
                opts.seed = parsed_flag(a, "--seed", opts.seed);
                opts.smoke = has_flag(a, "--smoke");
                if let Some(list) = flag_value(a, "--universes") {
                    opts.universes = list.split(',').map(str::to_owned).collect();
                }
                if let Some(list) = flag_value(a, "--scenarios") {
                    opts.scenarios = list
                        .split(',')
                        .map(|name| {
                            Scenario::from_name(name).unwrap_or_else(|| {
                                let known: Vec<&str> =
                                    Scenario::ALL.iter().map(Scenario::name).collect();
                                fail(&format!(
                                    "unknown scenario '{name}'; known: {}",
                                    known.join(", ")
                                ))
                            })
                        })
                        .collect();
                }
                let json = has_flag(a, "--json");
                let out = flag_value(a, "--out").map(str::to_owned);
                run_with_optional_telemetry(
                    a,
                    |rec| run_scenario_matrix(&opts, rec).unwrap_or_else(|e| fail(&e)),
                    |card| {
                        if let Some(path) = &out {
                            let mut doc = card.to_json();
                            doc.push('\n');
                            std::fs::write(path, doc).unwrap_or_else(|e| {
                                fail(&format!("cannot write scorecard '{path}': {e}"))
                            });
                            eprintln!("scorecard written to {path}");
                        }
                        if json {
                            let mut doc = card.to_json();
                            doc.push('\n');
                            doc
                        } else {
                            card.render()
                        }
                    },
                );
            }
            Some(other) => fail(&format!("unknown scenarios subcommand '{other}'")),
            None => usage(),
        },
        "desk" => match args.get(1).map(String::as_str) {
            Some("triage") => {
                TRIAGE_FLAGS.check(&args[2..]);
                let a = &args[2..];
                let Some(dir) = flag_value(a, "--dir") else {
                    fail("desk triage requires --dir DIR (the live-desk working directory)");
                };
                let opts = TriageOptions {
                    config: serve_config(a),
                    dir: std::path::PathBuf::from(dir),
                    round: flag_value(a, "--round").map(|s| {
                        s.parse().unwrap_or_else(|_| {
                            fail(&format!("--round expects an integer, got '{s}'"))
                        })
                    }),
                };
                let report = run_triage(&opts).unwrap_or_else(|e| fail(&e));
                if has_flag(a, "--json") {
                    println!("{}", report.to_value().to_json());
                } else {
                    print!("{}", report.render());
                }
                if !report.reproduced() {
                    std::process::exit(1);
                }
            }
            Some(other) => fail(&format!("unknown desk subcommand '{other}'")),
            None => usage(),
        },
        "desk-top" => {
            DESK_TOP_FLAGS.check(&args[1..]);
            let a = &args[1..];
            let Some(status) = flag_value(a, "--status") else {
                fail("desk-top requires --status PATH (the desk's status file)");
            };
            let opts = DeskTopOptions {
                path: std::path::PathBuf::from(status),
                interval_ms: parsed_flag(a, "--interval-ms", 1000u64),
                iterations: parsed_flag(a, "--iterations", 0usize),
                raw: has_flag(a, "--raw"),
            };
            run_desk_top(&opts).unwrap_or_else(|e| fail(&e));
        }
        "lineage" => {
            let Some(path) = args.get(1) else {
                fail("lineage expects a ledger path");
            };
            if path.starts_with("--") {
                fail("lineage expects the ledger path first, then flags");
            }
            LINEAGE_FLAGS.check(&args[2..]);
            let a = &args[2..];
            let log = spikefolio_blackbox::read_ledger(path)
                .unwrap_or_else(|e| fail(&format!("cannot read ledger '{path}': {e}")));
            if let Some(v) = flag_value(a, "--version") {
                let version: u64 = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--version expects an integer, got '{v}'")));
                let chain = render_ancestry(&log, version);
                if chain.is_empty() {
                    println!("v{version} has no promotion trail in {path}");
                } else {
                    println!("{chain}");
                }
            } else if has_flag(a, "--json") {
                println!("{}", lineage_json(&log));
            } else {
                print!("{}", render_lineage_ledger(&log));
            }
        }
        "live-desk" => {
            LIVE_DESK_FLAGS.check(&args[1..]);
            let a = &args[1..];
            let dir =
                std::path::PathBuf::from(flag_value(a, "--dir").unwrap_or("target/live-desk"));
            // The observability sidecar is on by default, filed under the
            // desk directory; flags repoint the individual outputs.
            let blackbox = flag_value(a, "--blackbox")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| dir.join("blackbox.json"));
            let lineage = flag_value(a, "--lineage")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| dir.join("lineage.jsonl"));
            let status = flag_value(a, "--status")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| dir.join("desk-top.json"));
            let mut opts = DeskOptions::smoke(dir);
            opts.blackbox = Some(blackbox);
            opts.lineage = Some(lineage);
            opts.status = Some(status);
            if has_flag(a, "--full") {
                opts.config = SdpConfig::paper();
                opts.config.training.parallelism = num_threads();
            }
            opts.seed = parsed_flag(a, "--seed", opts.seed);
            opts.rounds = parsed_flag(a, "--rounds", opts.rounds);
            opts.warmup = parsed_flag(a, "--warmup", opts.warmup);
            opts.reveal_per_round = parsed_flag(a, "--reveal", opts.reveal_per_round);
            opts.window = parsed_flag(a, "--window", opts.window);
            opts.config.training.epochs = parsed_flag(a, "--epochs", opts.config.training.epochs);
            opts.val_fraction = parsed_flag(a, "--val-fraction", opts.val_fraction);
            opts.drift_threshold = parsed_flag(a, "--drift-threshold", opts.drift_threshold);
            opts.csv = flag_value(a, "--csv").map(std::path::PathBuf::from);
            opts.backend = flag_value(a, "--backend")
                .unwrap_or("float")
                .parse()
                .unwrap_or_else(|e: String| fail(&e));
            if let Some(spec) = flag_value(a, "--faults") {
                opts.faults = parse_fault_spec(spec, opts.seed).unwrap_or_else(|e| fail(&e));
            }
            let out = flag_value(a, "--out").map(str::to_owned);
            run_with_optional_telemetry(
                a,
                |rec| run_desk(opts.clone(), rec).unwrap_or_else(|e| fail(&e)),
                |report| {
                    if let Some(path) = &out {
                        let mut json = report.to_json();
                        json.push('\n');
                        std::fs::write(path, json).unwrap_or_else(|e| {
                            fail(&format!("cannot write report '{path}': {e}"))
                        });
                        eprintln!("desk report written to {path}");
                    }
                    report.render()
                },
            );
        }
        other => fail(&format!("unknown command '{other}'")),
    }
}
