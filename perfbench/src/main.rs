//! `perfbench`: the spikefolio benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scenario-matrix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each workload runs one user-facing verb on inputs generated from
//! `--seed`, repeats it for `--seconds`, checks its outputs bitwise, and
//! prints every metric by name and unit. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs traced
//! repetitions and reports the per-layer metrics. See `perfbench/README.md`.

mod batch;
mod calib;
mod desk;
mod layers;
mod matrix;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::{Path, PathBuf};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["scenario-matrix", "serve-open-loop", "desk-rounds"];

/// Trainer threads (`config.training.parallelism`). The trainer is
/// bitwise thread-invariant, so this changes timing only.
pub const TRAINER_THREADS: usize = 1;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed region in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (repetitions or requests).
    pub attempted: u64,
    /// Operations whose output failed its check, or that errored.
    pub failed: u64,
    /// Reported metrics: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let Some(value) = argv.get(i + 1) else { usage() };
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str())).unwrap_or_else(|| usage());
    if !(seconds > 0.0 && seconds <= 120.0) {
        usage();
    }
    Args { workload, seed, seconds, trace }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>` under the current directory.
    pub fn create(name: &str) -> std::io::Result<Self> {
        let dir = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let args = parse_args();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} | budget: trainer parallelism {}, \
         serve workers 1, loadgen 1 connection + 2 threads | nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        TRAINER_THREADS,
        sys::nproc()
    );
    let result = match args.workload.as_str() {
        "scenario-matrix" => batch::run(&matrix::ScenarioMatrix, &args),
        "serve-open-loop" => serve::run(&args),
        "desk-rounds" => batch::run(&desk::DeskRounds, &args),
        _ => usage(),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for line in &out.notes {
        println!("{line}");
    }
    for (name, value, unit) in &out.metrics {
        println!("metric {name} = {value} {unit}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("failed_frac = {failed_frac} ({} of {} attempted)", out.failed, out.attempted);
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
