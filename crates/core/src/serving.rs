//! Concrete serving backends and CLI drivers behind `spikefolio-serve`.
//!
//! The serve crate is policy-agnostic; this module plugs the repo's real
//! policies into it: the float SNN backend (the batched engine, bitwise
//! batch-composition invariant) and
//! the Loihi-quantized emulation backend (eq. (14) quantization +
//! fixed-point chip model), both constructed from the same
//! shape-validated v1/v2 checkpoints the trainer writes. It also hosts
//! the `spikefolio serve` / `spikefolio loadgen` subcommand
//! implementations, including the CI smoke flow and the
//! batching-vs-unbatched self benchmark.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spikefolio_env::StateBuilder;
use spikefolio_loihi::chip::{LoihiChip, LoihiRunStats};
use spikefolio_loihi::QuantizeOptions;
use spikefolio_market::Candle;
use spikefolio_serve::{
    run_loadgen, InferenceBackend, LoadReport, LoadgenOptions, ModelLoader, ModelStore, Server,
    ServerHandle, ServerOptions, Service, ServiceConfig,
};
use spikefolio_snn::{BatchNetworkTrace, BatchWorkspace, SdpNetwork};
use spikefolio_telemetry::value::{parse, Value};
use spikefolio_telemetry::NoopRecorder;
use spikefolio_tensor::Matrix;

use crate::agent::SdpAgent;
use crate::checkpoint;
use crate::config::SdpConfig;
use crate::deploy::{DeployError, LoihiDeployment};

/// Which policy implementation answers requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The float SNN running the PR 1 batched kernels.
    Float,
    /// The Loihi-quantized fixed-point emulation (per-sample chip
    /// inference; batching still amortizes queueing and dispatch).
    Loihi,
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "float" | "snn" => Ok(Self::Float),
            "loihi" => Ok(Self::Loihi),
            other => Err(format!("unknown backend {other:?} (expected float|loihi)")),
        }
    }
}

/// Parses a flat `[open, high, low, close]` stream into candles for
/// [`StateBuilder::build_from_window`].
fn candles_from_flat(flat: &[f64]) -> Result<Vec<Candle>, String> {
    if !flat.len().is_multiple_of(4) {
        return Err(format!(
            "window carries {} values, expected a multiple of 4 ([open,high,low,close] per candle)",
            flat.len()
        ));
    }
    Ok(flat
        .chunks_exact(4)
        .map(|c| Candle { open: c[0], high: c[1], low: c[2], close: c[3], volume: 0.0 })
        .collect())
}

/// The float SNN backend: one forward pass per micro-batch, singletons
/// included, each sample encoded with its own request-seeded RNG, so
/// served weights are independent of batch composition.
///
/// Every micro-batch runs [`SdpNetwork::forward_batch`], the event-driven
/// drive, on the `Wᵀ` the network builds at its first inference rather
/// than at load, so a hot swap holds no second `Wᵀ` while the old model
/// drains.
#[derive(Debug)]
pub struct FloatPolicyBackend {
    network: SdpNetwork,
    state_builder: StateBuilder,
    // Recycled forward buffers: at paper scale the (T·B)×dim stack
    // allocations cost as much as the batched GEMMs save, so the last
    // workspace is parked here between micro-batches. The forward pass
    // overwrites every cell it reads, so reuse cannot leak state across
    // calls; a size mismatch just rebuilds. Taken out of the lock for
    // the duration of the forward pass so concurrent workers never
    // serialize on it — a loser simply allocates its own.
    scratch: Mutex<Option<(usize, BatchWorkspace, BatchNetworkTrace)>>,
    // Per-layer firing rates of the most recent micro-batch, feeding the
    // serving health monitor's drift EWMA.
    rates: Mutex<Option<Vec<f64>>>,
}

impl Clone for FloatPolicyBackend {
    fn clone(&self) -> Self {
        Self::new(self.network.clone(), self.state_builder)
    }
}

impl FloatPolicyBackend {
    /// Wraps a trained network and its state layout.
    pub fn new(network: SdpNetwork, state_builder: StateBuilder) -> Self {
        Self { network, state_builder, scratch: Mutex::new(None), rates: Mutex::new(None) }
    }
}

impl InferenceBackend for FloatPolicyBackend {
    fn name(&self) -> &str {
        "snn-float"
    }

    fn state_dim(&self) -> usize {
        self.network.config().state_dim
    }

    fn action_dim(&self) -> usize {
        self.network.config().action_dim
    }

    fn infer_batch(&self, states: &[f64], seeds: &[u64]) -> Vec<Vec<f64>> {
        let batch = seeds.len();
        let dim = self.state_dim();
        let Ok(matrix) = Matrix::try_from_vec(batch, dim, states.to_vec()) else {
            // Shape mismatches are caught at admission; if one slips
            // through, emit rejectable output instead of panicking a
            // batcher worker.
            return vec![vec![f64::NAN; self.action_dim()]; batch];
        };
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let cached = self.scratch.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
        let (mut ws, mut trace) = match cached {
            Some((b, ws, trace)) if b == batch => (ws, trace),
            _ => (
                BatchWorkspace::new(&self.network, batch),
                BatchNetworkTrace::new(&self.network, batch),
            ),
        };
        self.network.forward_batch(&matrix, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
        let actions = (0..batch).map(|b| trace.action(b).to_vec()).collect();
        *self.rates.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
            Some(self.network.layer_firing_rates(&trace.layer_spikes, batch as u64));
        *self.scratch.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
            Some((batch, ws, trace));
        actions
    }

    fn layer_firing_rates(&self) -> Option<Vec<f64>> {
        self.rates.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    fn state_from_window(
        &self,
        candles_flat: &[f64],
        num_assets: usize,
        prev_weights: &[f64],
    ) -> Result<Vec<f64>, String> {
        let candles = candles_from_flat(candles_flat)?;
        self.state_builder.build_from_window(&candles, num_assets, prev_weights)
    }
}

/// The Loihi backend: a [`LoihiDeployment`] driven with one request-seeded
/// RNG per sample. The chip model is sequential, so a micro-batch runs
/// sample by sample; event counts accumulate across requests.
#[derive(Debug)]
pub struct LoihiPolicyBackend {
    deployment: LoihiDeployment,
    total_stats: Mutex<LoihiRunStats>,
}

impl LoihiPolicyBackend {
    /// Deploys `agent` on `chip` (eq. (14) quantization, then mapping).
    ///
    /// # Errors
    ///
    /// Quantization or chip-mapping failures.
    pub fn new(
        agent: &SdpAgent,
        chip: &LoihiChip,
        opts: &QuantizeOptions,
    ) -> Result<Self, DeployError> {
        let deployment = LoihiDeployment::new(agent, chip, opts, &mut NoopRecorder)?;
        Ok(Self { deployment, total_stats: Mutex::new(LoihiRunStats::default()) })
    }

    /// Accumulated on-chip event counts across every served sample.
    pub fn total_stats(&self) -> LoihiRunStats {
        *self.total_stats.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl InferenceBackend for LoihiPolicyBackend {
    fn name(&self) -> &str {
        "loihi-quantized"
    }

    fn state_dim(&self) -> usize {
        self.deployment.state_dim()
    }

    fn action_dim(&self) -> usize {
        self.deployment.action_dim()
    }

    fn infer_batch(&self, states: &[f64], seeds: &[u64]) -> Vec<Vec<f64>> {
        let dim = self.state_dim();
        let mut out = Vec::with_capacity(seeds.len());
        let mut batch_stats = LoihiRunStats::default();
        for (b, &seed) in seeds.iter().enumerate() {
            let Some(row) = states.get(b * dim..(b + 1) * dim) else {
                out.push(vec![f64::NAN; self.action_dim()]);
                continue;
            };
            let (action, stats) = self.deployment.infer(row, &mut StdRng::seed_from_u64(seed));
            batch_stats += stats;
            out.push(action);
        }
        *self.total_stats.lock().unwrap_or_else(std::sync::PoisonError::into_inner) += batch_stats;
        out
    }

    fn state_from_window(
        &self,
        candles_flat: &[f64],
        num_assets: usize,
        prev_weights: &[f64],
    ) -> Result<Vec<f64>, String> {
        let candles = candles_from_flat(candles_flat)?;
        self.deployment.state_builder().build_from_window(&candles, num_assets, prev_weights)
    }
}

/// A [`ModelLoader`] that builds backends from the trainer's v1/v2
/// checkpoints: every load constructs a fresh agent skeleton from the
/// fixed `(config, num_assets)` pair, so `load_sdp`'s shape validation
/// rejects any checkpoint that does not match the serving topology.
pub struct CheckpointBackendLoader {
    config: SdpConfig,
    num_assets: usize,
    kind: BackendKind,
    chip: LoihiChip,
    quantize: QuantizeOptions,
}

impl CheckpointBackendLoader {
    /// A loader for the given serving topology.
    pub fn new(config: SdpConfig, num_assets: usize, kind: BackendKind) -> Self {
        Self {
            config,
            num_assets,
            kind,
            chip: LoihiChip::default(),
            quantize: QuantizeOptions::default(),
        }
    }
}

impl ModelLoader for CheckpointBackendLoader {
    fn load(&self, source: &str) -> Result<Box<dyn InferenceBackend>, String> {
        let mut agent = SdpAgent::new(&self.config, self.num_assets, 0);
        checkpoint::load_sdp(&mut agent, source)
            .map_err(|e| format!("checkpoint {source}: {e}"))?;
        match self.kind {
            BackendKind::Float => {
                let state_builder = *agent.state_builder();
                Ok(Box::new(FloatPolicyBackend::new(agent.network, state_builder)))
            }
            BackendKind::Loihi => Ok(Box::new(
                LoihiPolicyBackend::new(&agent, &self.chip, &self.quantize)
                    .map_err(|e| e.to_string())?,
            )),
        }
    }
}

/// Writes a reference checkpoint: a freshly initialized (untrained but
/// fully valid) agent for `(config, num_assets, seed)` — the seeded model
/// the CI smoke flow and the self benchmark serve.
///
/// # Errors
///
/// IO failures as a message.
pub fn write_reference_checkpoint(
    path: &str,
    config: &SdpConfig,
    num_assets: usize,
    seed: u64,
) -> Result<(), String> {
    let agent = SdpAgent::new(config, num_assets, seed);
    checkpoint::save_sdp(&agent, path).map_err(|e| format!("write {path}: {e}"))
}

/// Everything `spikefolio serve` needs.
#[derive(Debug, Clone)]
pub struct ServeRunOptions {
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Checkpoint to serve.
    pub checkpoint: String,
    /// Model topology the checkpoint must match.
    pub config: SdpConfig,
    /// Risky-asset count of the serving universe.
    pub num_assets: usize,
    /// Float or Loihi backend.
    pub backend: BackendKind,
    /// Queue / batch / worker configuration.
    pub service: ServiceConfig,
    /// Optional JSONL run-log path for the final telemetry flush.
    pub telemetry: Option<String>,
    /// Optional Chrome-trace JSON output path, written at shutdown when
    /// request-trace sampling is on (load in Perfetto / `chrome://tracing`).
    pub trace: Option<String>,
    /// Sample 1-in-N requests into the trace (`0` disables tracing).
    pub trace_sample: u64,
    /// Per-request latency SLO for the health watchdog (µs); `None`
    /// keeps the service default.
    pub slo_us: Option<u64>,
}

/// Builds the store + service + server stack for `opts` without running
/// the accept loop — shared by the CLI, the smoke flow, and tests.
///
/// # Errors
///
/// Checkpoint load or bind failures as a message.
pub fn build_server(
    opts: &ServeRunOptions,
) -> Result<(Server, ServerHandle, Arc<Service>), String> {
    let loader = CheckpointBackendLoader::new(opts.config.clone(), opts.num_assets, opts.backend);
    let store = ModelStore::open(Box::new(loader), &opts.checkpoint)?;
    let mut service_cfg = opts.service;
    service_cfg.trace_sample = opts.trace_sample;
    if let Some(slo) = opts.slo_us {
        service_cfg.health.latency_slo_us = slo;
    }
    let service = Service::start(Arc::new(store), service_cfg);
    let server = Server::bind(&opts.addr, Arc::clone(&service), ServerOptions::default())
        .map_err(|e| format!("bind {}: {e}", opts.addr))?;
    let handle = server.handle();
    Ok((server, handle, service))
}

/// `spikefolio serve`: builds the stack, prints the bound address, and
/// blocks until a client sends `{"cmd":"shutdown"}`. On exit the service
/// counters are flushed to the `--telemetry` run log when one was given.
///
/// # Errors
///
/// Build, run, or telemetry-write failures as a message.
pub fn run_serve(opts: &ServeRunOptions) -> Result<(), String> {
    let (server, handle, service) = build_server(opts)?;
    println!(
        "serving {} on {} (backend {})",
        opts.checkpoint,
        handle.addr(),
        service.store().current().backend.name()
    );
    server.run().map_err(|e| format!("server: {e}"))?;
    finish_telemetry(&service, opts.telemetry.as_deref())?;
    if let Some(path) = opts.trace.as_deref() {
        match service.trace_json() {
            Some(json) => {
                std::fs::write(path, json).map_err(|e| format!("trace {path}: {e}"))?;
                println!("wrote request trace to {path} (1-in-{} sampling)", opts.trace_sample);
            }
            None => println!("--trace given but --trace-sample is 0; no trace recorded"),
        }
    }
    let stats = service.stats();
    println!(
        "served {} requests in {} batches (max batch {}), shed {} (queue) / {} (deadline)",
        stats.served, stats.batches, stats.max_batch, stats.shed_queue_full, stats.shed_deadline
    );
    Ok(())
}

fn finish_telemetry(service: &Service, path: Option<&str>) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    let mut sink = spikefolio_telemetry::JsonlSink::create(path)
        .map_err(|e| format!("telemetry {path}: {e}"))?;
    service.flush_telemetry(&mut sink);
    sink.finish().map_err(|e| format!("telemetry {path}: {e}"))?;
    Ok(())
}

/// `spikefolio serve-top` parameters: poll a running server's `metrics`
/// verb and render a live terminal dashboard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeTopOptions {
    /// Server address to poll.
    pub addr: String,
    /// Poll interval (ms).
    pub interval_ms: u64,
    /// Number of polls; `0` polls until the server goes away.
    pub iterations: usize,
    /// Print the raw `spikefolio.metrics.v1` JSON snapshot per poll
    /// instead of the dashboard (machine-consumable).
    pub raw: bool,
    /// Print the Prometheus text exposition per poll instead of the
    /// dashboard.
    pub prometheus: bool,
    /// Desk lineage ledger to resolve the serving model's ancestry
    /// from; the chain is appended to every dashboard frame.
    pub lineage: Option<String>,
}

impl Default for ServeTopOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            interval_ms: 1000,
            iterations: 0,
            raw: false,
            prometheus: false,
            lineage: None,
        }
    }
}

/// One `metrics` round trip on a fresh connection (stateless by design:
/// a dashboard that holds no connection cannot pin a draining server).
fn fetch_metrics(addr: &str, prometheus: bool) -> Result<Value, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    let cmd = if prometheus {
        "{\"cmd\":\"metrics\",\"format\":\"prometheus\"}\n"
    } else {
        "{\"cmd\":\"metrics\"}\n"
    };
    writer.write_all(cmd.as_bytes()).map_err(|e| format!("send metrics: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| format!("read metrics: {e}"))?;
    let v = parse(line.trim()).map_err(|e| format!("parse metrics response: {e}"))?;
    if !matches!(v.get("ok"), Some(Value::Bool(true))) {
        return Err(format!("server refused metrics: {}", line.trim()));
    }
    Ok(v)
}

/// Formats one `spikefolio.metrics.v1` snapshot as the serve-top frame.
fn render_top(m: &Value) -> String {
    use std::fmt::Write as _;
    let cnt =
        |k: &str| m.get("counters").and_then(|c| c.get(k)).and_then(Value::as_u64).unwrap_or(0);
    let gauge =
        |k: &str| m.get("gauges").and_then(|g| g.get(k)).and_then(Value::as_u64).unwrap_or(0);
    let health = m.get("health");
    let hf = |k: &str| health.and_then(|h| h.get(k)).and_then(Value::as_f64).unwrap_or(0.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "spikefolio serve-top  backend {}  model v{}  uptime {:.1} s",
        m.get("backend").and_then(Value::as_str).unwrap_or("?"),
        m.get("model_version").and_then(Value::as_u64).unwrap_or(0),
        m.get("uptime_s").and_then(Value::as_f64).unwrap_or(0.0),
    );
    let _ = writeln!(
        out,
        "requests {}  served {}  shed {} queue / {} deadline  parse_errors {}  over_slo {}",
        cnt("requests"),
        cnt("served"),
        cnt("shed_queue_full"),
        cnt("shed_deadline"),
        cnt("parse_errors"),
        cnt("over_slo"),
    );
    let _ = writeln!(
        out,
        "queue depth {} (peak {})  batches {}  max batch {}",
        gauge("queue_depth"),
        gauge("queue_depth_peak"),
        cnt("batches"),
        gauge("max_batch"),
    );
    if let Some(swap) = m.get("swap") {
        let su = |k: &str| swap.get(k).and_then(Value::as_u64).unwrap_or(0);
        let mut line = format!(
            "swaps {}  io-failed {}  gate-rejected {}  last good v{}",
            su("swaps"),
            su("failures"),
            su("rejected"),
            su("last_good_version"),
        );
        if let Some(kind) = swap.get("last_rejection_kind").and_then(Value::as_str) {
            line.push_str(&format!("  [last rejection: {kind}]"));
        }
        let _ = writeln!(out, "{line}");
    }
    let degraded = matches!(health.and_then(|h| h.get("degraded")), Some(Value::Bool(true)));
    let reasons: Vec<&str> = health
        .and_then(|h| h.get("reasons"))
        .and_then(Value::as_list)
        .map(|rs| rs.iter().filter_map(Value::as_str).collect())
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "health {}  burn {:.2}  shed {:.2}  drift {:.3}{}",
        if degraded { "DEGRADED" } else { "ok" },
        hf("burn_rate"),
        hf("shed_rate"),
        hf("drift_score"),
        if reasons.is_empty() { String::new() } else { format!("  [{}]", reasons.join(", ")) },
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "stage (us)", "count", "p50", "p95", "p99", "max"
    );
    if let Some(Value::Map(stages)) = m.get("stages") {
        for (name, s) in stages {
            let sf = |k: &str| s.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{:<14} {:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                name,
                s.get("count").and_then(Value::as_u64).unwrap_or(0),
                sf("p50_us"),
                sf("p95_us"),
                sf("p99_us"),
                sf("max_us"),
            );
        }
    }
    if let Some(t) = m.get("trace") {
        if let Some(every) = t.get("sample_every").and_then(Value::as_u64) {
            let _ = writeln!(
                out,
                "trace: 1-in-{every} sampling, {} requests sampled",
                t.get("sampled").and_then(Value::as_u64).unwrap_or(0),
            );
        }
    }
    out
}

/// `spikefolio serve-top`: polls the `metrics` verb and repaints a
/// terminal dashboard (or emits raw JSON / Prometheus text with the
/// corresponding flags — one line/block per poll, suitable for piping).
///
/// # Errors
///
/// Connection or protocol failures as a message.
pub fn run_serve_top(opts: &ServeTopOptions) -> Result<(), String> {
    let mut done = 0usize;
    loop {
        let v = fetch_metrics(&opts.addr, opts.prometheus)?;
        if opts.prometheus {
            print!("{}", v.get("text").and_then(Value::as_str).unwrap_or(""));
        } else {
            let metrics = v
                .get("metrics")
                .ok_or_else(|| "metrics response carries no `metrics` map".to_string())?;
            if opts.raw {
                println!("{}", metrics.to_json());
            } else {
                if opts.iterations != 1 {
                    // Repaint in place when running as a live dashboard.
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", render_top(metrics));
                if let Some(ledger) = &opts.lineage {
                    // Ancestry of the model answering requests right now,
                    // resolved against the desk's lineage ledger (re-read
                    // per poll: the desk may still be promoting).
                    let version = metrics.get("model_version").and_then(Value::as_u64).unwrap_or(0);
                    match spikefolio_blackbox::read_ledger(ledger) {
                        Ok(log) => {
                            let chain = crate::desk_top::render_ancestry(&log, version);
                            if chain.is_empty() {
                                println!("lineage: v{version} has no promotion trail in {ledger}");
                            } else {
                                println!("lineage: {chain}");
                            }
                        }
                        Err(e) => println!("lineage: cannot read {ledger}: {e}"),
                    }
                }
            }
        }
        let _ = std::io::stdout().flush();
        done += 1;
        if opts.iterations != 0 && done >= opts.iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(opts.interval_ms.max(50)));
    }
}

/// Outcome of the scripted smoke flow ([`run_loadgen_smoke`]).
#[derive(Debug, Clone)]
pub struct SmokeOutcome {
    /// The loadgen report of the double-run.
    pub report: LoadReport,
    /// Whether the server's accept loop exited and joined cleanly.
    pub clean_shutdown: bool,
}

impl SmokeOutcome {
    /// All smoke invariants: every request served, bitwise-identical
    /// responses across the two passes, and a clean shutdown.
    pub fn passed(&self) -> bool {
        self.clean_shutdown
            && self.report.served == self.report.requests
            && self.report.shed_queue_full == 0
            && self.report.shed_deadline == 0
            && self.report.errors == 0
            && self.report.deterministic == Some(true)
    }
}

/// `spikefolio loadgen --smoke`: spins up a deterministic single-worker
/// server on a loopback port around `checkpoint` (written fresh when
/// absent), replays a seeded scripted request set twice through the real
/// TCP path, checks the responses are bitwise identical, and shuts the
/// server down.
///
/// # Errors
///
/// Any setup, load, or protocol failure as a message.
pub fn run_loadgen_smoke(checkpoint: Option<&str>, seed: u64) -> Result<SmokeOutcome, String> {
    let config = SdpConfig::smoke();
    let num_assets = 5;
    let owned_path;
    let path = match checkpoint {
        Some(p) => p,
        None => {
            let dir = std::env::temp_dir();
            owned_path = dir
                .join(format!("spikefolio_serve_smoke_{seed}.ckpt"))
                .to_string_lossy()
                .into_owned();
            write_reference_checkpoint(&owned_path, &config, num_assets, seed)?;
            &owned_path
        }
    };
    let opts = ServeRunOptions {
        addr: "127.0.0.1:0".to_string(),
        checkpoint: path.to_string(),
        config,
        num_assets,
        backend: BackendKind::Float,
        service: ServiceConfig { deterministic: true, queue_capacity: 1024, ..Default::default() },
        telemetry: None,
        trace: None,
        trace_sample: 0,
        slo_us: None,
    };
    let (server, handle, _service) = build_server(&opts)?;
    let addr = handle.addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());
    // A few connection retries: the smoke shares a loopback with whatever
    // else the test runner has saturated, and a refused first connect
    // while the listener thread warms up should not fail the smoke.
    let load = LoadgenOptions {
        requests: 64,
        concurrency: 4,
        seed,
        runs: 2,
        connect_retries: 3,
        ..Default::default()
    };
    let result = run_loadgen(&addr, &load);
    handle.shutdown();
    let clean_shutdown = matches!(server_thread.join(), Ok(Ok(())));
    Ok(SmokeOutcome { report: result?, clean_shutdown })
}

/// The batching-vs-unbatched self benchmark: serves `checkpoint` twice on
/// loopback — once with the given batching policy, once pinned to
/// `max_batch = 1` — and drives both with the identical closed-loop
/// request stream. Returns `(batching report, unbatched report)`.
///
/// # Errors
///
/// Any setup or load failure as a message.
pub fn run_self_bench(
    checkpoint: &str,
    config: &SdpConfig,
    num_assets: usize,
    load: &LoadgenOptions,
    service: ServiceConfig,
) -> Result<(LoadReport, LoadReport), String> {
    let mut reports = Vec::with_capacity(2);
    for max_batch in [service.batch.max_batch.max(2), 1] {
        let mut svc = service;
        svc.batch.max_batch = max_batch;
        let opts = ServeRunOptions {
            addr: "127.0.0.1:0".to_string(),
            checkpoint: checkpoint.to_string(),
            config: config.clone(),
            num_assets,
            backend: BackendKind::Float,
            service: svc,
            telemetry: None,
            trace: None,
            trace_sample: 0,
            slo_us: None,
        };
        let (server, handle, _service) = build_server(&opts)?;
        let addr = handle.addr().to_string();
        let server_thread = std::thread::spawn(move || server.run());
        let result = run_loadgen(&addr, load);
        handle.shutdown();
        let _ = server_thread.join();
        reports.push(result?);
    }
    let unbatched = reports.pop().unwrap_or_else(unreachable_report);
    let batching = reports.pop().unwrap_or_else(unreachable_report);
    Ok((batching, unbatched))
}

/// Placeholder satisfying the no-unwrap lint on a vec we just filled.
fn unreachable_report() -> LoadReport {
    LoadReport {
        mode: String::new(),
        requests: 0,
        served: 0,
        shed_queue_full: 0,
        shed_deadline: 0,
        errors: 0,
        wall_s: 0.0,
        throughput_rps: 0.0,
        latency: spikefolio_serve::LatencySummary::default(),
        batch_hist: Vec::new(),
        max_batch: 0,
        deterministic: None,
        server_stages: Vec::new(),
        server_degraded: None,
        connect_retries: 0,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rand::Rng;

    #[test]
    fn float_backend_matches_direct_network_act() {
        let config = SdpConfig::smoke();
        let agent = SdpAgent::new(&config, 3, 11);
        let backend = FloatPolicyBackend::new(agent.network.clone(), *agent.state_builder());
        let dim = backend.state_dim();
        let mut rng = StdRng::seed_from_u64(5);
        let states: Vec<f64> = (0..2 * dim).map(|_| rng.gen_range(0.8..1.2)).collect();
        let out = backend.infer_batch(&states, &[42, 43]);
        let mut one = spikefolio_snn::SingleSample::new(&agent.network);
        for (b, &seed) in [42u64, 43].iter().enumerate() {
            let state = &states[b * dim..(b + 1) * dim];
            let direct = one.forward(&agent.network, state, &mut StdRng::seed_from_u64(seed));
            assert_eq!(out[b], direct, "sample {b} must match its own B = 1 run");
        }
    }

    #[test]
    fn singleton_batch_updates_firing_rates() {
        // The drift monitor reads the rates of the latest micro-batch, so a
        // singleton must overwrite those of the batch before it.
        let config = SdpConfig::smoke();
        let agent = SdpAgent::new(&config, 3, 11);
        let net = agent.network.clone();
        let backend = FloatPolicyBackend::new(net.clone(), *agent.state_builder());
        let dim = backend.state_dim();
        let mut rng = StdRng::seed_from_u64(9);
        let four: Vec<f64> = (0..4 * dim).map(|_| rng.gen_range(0.8..1.2)).collect();
        backend.infer_batch(&four, &[1, 2, 3, 4]);
        let after_four = backend.layer_firing_rates().expect("rates after a batch");
        let single: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.5..1.5)).collect();
        backend.infer_batch(&single, &[77]);

        let mut one = spikefolio_snn::SingleSample::new(&net);
        one.forward(&net, &single, &mut StdRng::seed_from_u64(77));
        let own = net.layer_firing_rates(&one.trace.layer_spikes, 1);
        assert_ne!(own, after_four, "the singleton must fire unlike the batch");
        assert_eq!(backend.layer_firing_rates(), Some(own));
    }

    #[test]
    fn float_backend_replies_are_pinned() {
        // Micro-batches of 1, 2, 3, 4 and 8 seeded requests through one
        // backend: every reply must equal a run of its micro-batch on the
        // agent's own network bit for bit, and the replies' bits are pinned
        // by CRC.
        let cases = [
            ("smoke", SdpConfig::smoke(), 3, [0x76d4_a46d, 0xf8d2_d34b]),
            ("paper", SdpConfig::paper(), 11, [0xd571_f64c, 0x0e27_9b23]),
        ];
        for (shape, base, assets, crcs) in cases {
            for (probabilistic, crc) in [false, true].into_iter().zip(crcs) {
                let mut config = base.clone();
                config.network.probabilistic_encoding = probabilistic;
                let agent = SdpAgent::new(&config, assets, 11);
                let net = &agent.network;
                let backend = FloatPolicyBackend::new(net.clone(), *agent.state_builder());
                let dim = backend.state_dim();
                let mut rng = StdRng::seed_from_u64(5);
                let mut seed = 1000u64;
                let mut bytes = Vec::new();
                for batch in [1usize, 2, 3, 4, 8] {
                    let states: Vec<f64> =
                        (0..batch * dim).map(|_| rng.gen_range(0.8..1.2)).collect();
                    let seeds: Vec<u64> = (seed..seed + batch as u64).collect();
                    seed += batch as u64;
                    let replies = backend.infer_batch(&states, &seeds);

                    let matrix = Matrix::try_from_vec(batch, dim, states).unwrap();
                    let mut rngs: Vec<StdRng> =
                        seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
                    let mut ws = BatchWorkspace::new(net, batch);
                    let mut trace = BatchNetworkTrace::new(net, batch);
                    let rec = &mut NoopRecorder;
                    net.forward_batch(&matrix, &mut rngs, &mut ws, &mut trace, rec);
                    for (b, reply) in replies.iter().enumerate() {
                        let bits = |a: &[f64]| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(reply),
                            bits(trace.action(b)),
                            "{shape} probabilistic={probabilistic} B={batch} reply {b}"
                        );
                        bytes.extend(reply.iter().flat_map(|x| x.to_bits().to_le_bytes()));
                    }
                }
                assert_eq!(
                    spikefolio_resilience::crc32(&bytes),
                    crc,
                    "{shape} float replies drifted (probabilistic encoding: {probabilistic})"
                );
            }
        }
    }

    #[test]
    fn loihi_backend_replies_are_pinned() {
        // Deterministic encoding ignores the request seed; probabilistic
        // encoding draws every input spike from it.
        for (probabilistic, crc) in [(false, 0xf684_e918), (true, 0x9527_6cfa)] {
            let mut config = SdpConfig::smoke();
            config.network.probabilistic_encoding = probabilistic;
            let agent = SdpAgent::new(&config, 3, 11);
            let chip = LoihiChip::default();
            let opts = QuantizeOptions::default();
            let backend =
                || LoihiPolicyBackend::new(&agent, &chip, &opts).expect("smoke network deploys");
            let served = backend();
            let dim = served.state_dim();
            let mut rng = StdRng::seed_from_u64(5);
            let states: Vec<f64> = (0..4 * dim).map(|_| rng.gen_range(0.8..1.2)).collect();
            let seeds = [42u64, 43, 44, 45];
            let mut actions = served.infer_batch(&states[..3 * dim], &seeds[..3]);
            actions.extend(served.infer_batch(&states[3 * dim..], &seeds[3..]));

            // Every reply equals its own singleton call on a fresh backend,
            // and the served total is the sum of those calls' event counts.
            let mut summed = LoihiRunStats::default();
            for (b, &seed) in seeds.iter().enumerate() {
                let alone = backend();
                let own = alone.infer_batch(&states[b * dim..(b + 1) * dim], &[seed]);
                assert_eq!(
                    actions[b].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    own[0].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "reply {b} must match its own singleton call bitwise"
                );
                summed += alone.total_stats();
            }
            assert_eq!(served.total_stats(), summed);
            assert!(summed.synops > 0);

            let bytes: Vec<u8> =
                actions.iter().flatten().flat_map(|x| x.to_bits().to_le_bytes()).collect();
            assert_eq!(
                spikefolio_resilience::crc32(&bytes),
                crc,
                "Loihi replies drifted (probabilistic encoding: {probabilistic})"
            );
        }
    }

    #[test]
    fn candle_parsing_validates_multiple_of_four() {
        assert!(candles_from_flat(&[1.0, 2.0, 3.0]).is_err());
        let candles = candles_from_flat(&[1.0, 2.0, 0.5, 1.5]).expect("one candle");
        assert_eq!(candles.len(), 1);
        assert_eq!(candles[0].high, 2.0);
        assert_eq!(candles[0].close, 1.5);
    }

    #[test]
    fn loader_rejects_missing_and_accepts_written_checkpoint() {
        let config = SdpConfig::smoke();
        let dir = std::env::temp_dir();
        let path = dir.join("spikefolio_serving_loader_test.ckpt");
        let path_str = path.to_string_lossy().into_owned();
        write_reference_checkpoint(&path_str, &config, 3, 7).expect("write");
        let loader = CheckpointBackendLoader::new(config.clone(), 3, BackendKind::Float);
        let backend = loader.load(&path_str).expect("load");
        assert_eq!(backend.action_dim(), 4);
        assert!(loader.load("/nonexistent/nope.ckpt").is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_top_renders_snapshot_fields() {
        let json = concat!(
            r#"{"uptime_s":1.5,"backend":"snn-float","model_version":2,"#,
            r#""counters":{"requests":10,"served":9,"shed_queue_full":1,"shed_deadline":0,"#,
            r#""parse_errors":0,"over_slo":3},"#,
            r#""gauges":{"queue_depth":0,"queue_depth_peak":4,"max_batch":8},"#,
            r#""stages":{"backend_infer":{"count":9,"p50_us":12.0,"p95_us":30.0,"#,
            r#""p99_us":40.0,"max_us":44.0}},"#,
            r#""health":{"degraded":true,"reasons":["latency_burn"],"burn_rate":1.2,"#,
            r#""shed_rate":0.1,"drift_score":0.01},"#,
            r#""trace":{"sample_every":64,"sampled":2}}"#,
        );
        let v = parse(json).expect("synthetic snapshot parses");
        let frame = render_top(&v);
        assert!(frame.contains("backend snn-float"));
        assert!(frame.contains("model v2"));
        assert!(frame.contains("requests 10"));
        assert!(frame.contains("DEGRADED"));
        assert!(frame.contains("latency_burn"));
        assert!(frame.contains("backend_infer"));
        assert!(frame.contains("1-in-64 sampling"));
    }

    #[test]
    fn backend_kind_parses() {
        assert_eq!("float".parse::<BackendKind>(), Ok(BackendKind::Float));
        assert_eq!("loihi".parse::<BackendKind>(), Ok(BackendKind::Loihi));
        assert!("gpu".parse::<BackendKind>().is_err());
    }
}
