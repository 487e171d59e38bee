//! The in-process serving engine: admission queue, dynamic micro-batcher,
//! deadlines, shedding, boundary validation, graceful drain.
//!
//! Requests enter through [`Service::submit`] (or the blocking
//! [`Service::call`]) into a bounded `std::sync::mpsc` queue. Batcher
//! workers drain the queue up to [`BatchPolicy::max_batch`] requests or
//! [`BatchPolicy::max_wait_us`] microseconds — whichever comes first —
//! run one batched forward on the current model, validate every outgoing
//! weight vector, and fan results back out over per-request reply
//! channels. A full queue sheds immediately ([`ShedReason::QueueFull`]);
//! a request whose deadline expires while queued is shed at dispatch time
//! ([`ShedReason::DeadlineExceeded`]) rather than wasting a batch slot.
//! [`Service::shutdown`] closes admission, drains every queued request,
//! and joins the workers.
//!
//! Observability: every request is timed through the [`MetricsRegistry`]
//! stages (accept → queue-wait → batch-form → backend-infer; the server
//! front end adds parse and render), carries a correlation id minted at admission (or
//! earlier, at parse), and can be sampled 1-in-N into a
//! [`ChromeTraceRecorder`] so a single request's spans load in Perfetto.
//! A health monitor compares live output entropy and per-layer firing
//! rates against a baseline probed whenever a checkpoint becomes live.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spikefolio_profile::ChromeTraceRecorder;
use spikefolio_telemetry::{labels, Record, Recorder};

use crate::lock;
use crate::metrics::{
    probe_baseline, weight_entropy, HealthConfig, MetricsRegistry, MetricsSnapshot, Stage,
};
use crate::store::ModelStore;

/// Relative tolerance before a weight sum triggers renormalization.
/// Softmax output sums to 1 within a few ULP; anything past this is a
/// backend defect worth counting, not rounding noise.
const SIMPLEX_TOL: f64 = 1e-6;
/// Most negative component accepted (clamped to zero) before the vector
/// is rejected outright.
const NEG_TOL: f64 = -1e-9;

/// Micro-batch formation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest batch a worker dispatches.
    pub max_batch: usize,
    /// Longest a worker waits (µs) for the batch to fill after the first
    /// request arrives. `0` means "dispatch whatever is already queued".
    pub max_wait_us: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self { max_batch: 32, max_wait_us: 2_000 }
    }
}

/// Service construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Batch formation policy.
    pub batch: BatchPolicy,
    /// Admission queue capacity; a full queue sheds.
    pub queue_capacity: usize,
    /// Batcher worker threads. Forced to 1 in deterministic mode.
    pub workers: usize,
    /// Deterministic single-worker mode: one worker, and the protocol
    /// layer omits timing fields (and correlation ids) so identical
    /// request streams render bitwise-identical responses.
    pub deterministic: bool,
    /// Health watchdog configuration (SLO, budgets, drift threshold,
    /// baseline probe).
    pub health: HealthConfig,
    /// Request-trace sampling interval: every N-th correlation id is
    /// exported through the chrome-trace recorder. `0` disables tracing
    /// (no recorder is created at all).
    pub trace_sample: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            batch: BatchPolicy::default(),
            queue_capacity: 256,
            workers: 1,
            deterministic: false,
            health: HealthConfig::default(),
            trace_sample: 0,
        }
    }
}

/// One inference request.
#[derive(Debug, Clone)]
pub struct InferenceRequest {
    /// Caller-chosen id, echoed back in the response.
    pub id: u64,
    /// State vector; must match the serving model's `state_dim`.
    pub state: Vec<f64>,
    /// Seed for the policy's stochastic encoder. Same `(model, state,
    /// seed)` always yields bitwise the same weights.
    pub seed: u64,
    /// Absolute deadline; the request is shed if still queued past it.
    pub deadline: Option<Instant>,
    /// Correlation id. `0` means "unset": [`Service::submit`] mints one
    /// from the registry; the TCP front end mints at parse so the id
    /// covers the whole server-side path.
    pub corr: u64,
}

/// One served response.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Correlation id the request travelled under.
    pub corr: u64,
    /// Portfolio weight vector (cash first), validated finite and
    /// on-simplex.
    pub weights: Vec<f64>,
    /// Version of the model that answered.
    pub model_version: u64,
    /// Size of the micro-batch this request rode in.
    pub batch_size: usize,
    /// Time spent queued before dispatch (µs).
    pub queue_us: u64,
    /// Wall time of the batched forward (µs, whole batch).
    pub infer_us: u64,
    /// Whether the weight vector needed renormalization at the boundary.
    pub renormalized: bool,
}

/// Why a request was shed without being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was full.
    QueueFull,
    /// The deadline expired before dispatch.
    DeadlineExceeded,
    /// The service is shutting down.
    ShuttingDown,
}

/// A request that produced no weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Load-shedding: the request was never run.
    Shed(ShedReason),
    /// The request (or the model's output for it) was invalid.
    Invalid(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed(ShedReason::QueueFull) => write!(f, "shed: admission queue full"),
            ServeError::Shed(ShedReason::DeadlineExceeded) => write!(f, "shed: deadline exceeded"),
            ServeError::Shed(ShedReason::ShuttingDown) => write!(f, "shed: shutting down"),
            ServeError::Invalid(msg) => write!(f, "invalid: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Point-in-time view of the service counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Requests admitted into the queue.
    pub requests: u64,
    /// Responses served with weights.
    pub served: u64,
    /// Sheds: queue full at admission.
    pub shed_queue_full: u64,
    /// Sheds: deadline expired while queued.
    pub shed_deadline: u64,
    /// Rejected at the boundary: bad dimension / non-finite input.
    pub invalid_input: u64,
    /// Rejected at the boundary: non-finite model output.
    pub nonfinite_output: u64,
    /// Outputs renormalized back onto the simplex.
    pub renormalized: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Samples served across all batches.
    pub batched_samples: u64,
    /// Largest micro-batch dispatched.
    pub max_batch: u64,
    /// Requests currently queued.
    pub queue_depth: u64,
    /// Peak queue depth observed.
    pub queue_depth_peak: u64,
    /// Total wall time spent inside batched forwards (seconds).
    pub batch_wall_s: f64,
    /// `batch size → dispatch count` histogram.
    pub batch_hist: Vec<(usize, u64)>,
}

/// One queued unit of work.
struct Job {
    request: InferenceRequest,
    enqueued: Instant,
    reply: SyncSender<Result<InferenceResponse, ServeError>>,
}

/// Everything a batcher worker needs, bundled so the thread spawn stays
/// readable.
struct WorkerCtx {
    metrics: Arc<MetricsRegistry>,
    store: Arc<ModelStore>,
    policy: BatchPolicy,
    health: HealthConfig,
    trace: Option<Arc<Mutex<ChromeTraceRecorder>>>,
    trace_sample: u64,
    baselined: Arc<AtomicU64>,
}

/// The serving engine. Construct with [`Service::start`]; share via `Arc`.
pub struct Service {
    tx: Mutex<Option<SyncSender<Job>>>,
    metrics: Arc<MetricsRegistry>,
    store: Arc<ModelStore>,
    config: ServiceConfig,
    workers: Mutex<Vec<JoinHandle<()>>>,
    trace: Option<Arc<Mutex<ChromeTraceRecorder>>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service").field("config", &self.config).finish()
    }
}

impl Service {
    /// Starts the batcher workers and returns the running service. The
    /// health baseline is probed from the initial model before any
    /// traffic is admitted.
    pub fn start(store: Arc<ModelStore>, mut config: ServiceConfig) -> Arc<Self> {
        if config.deterministic {
            config.workers = 1;
        }
        config.workers = config.workers.max(1);
        config.batch.max_batch = config.batch.max_batch.max(1);
        config.queue_capacity = config.queue_capacity.max(1);
        let metrics = Arc::new(MetricsRegistry::new());
        let trace =
            (config.trace_sample > 0).then(|| Arc::new(Mutex::new(ChromeTraceRecorder::new())));

        let model = store.current();
        metrics.health().set_baseline(probe_baseline(
            model.backend.as_ref(),
            &config.health,
            model.version,
        ));
        let baselined = Arc::new(AtomicU64::new(model.version));
        drop(model);

        let (tx, rx) = sync_channel::<Job>(config.queue_capacity);
        let queue_rx = Arc::new(Mutex::new(rx));
        let service = Arc::new(Self {
            tx: Mutex::new(Some(tx)),
            metrics,
            store,
            config,
            workers: Mutex::new(Vec::new()),
            trace,
        });
        let mut handles = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let rx = Arc::clone(&queue_rx);
            let ctx = WorkerCtx {
                metrics: Arc::clone(&service.metrics),
                store: Arc::clone(&service.store),
                policy: config.batch,
                health: config.health,
                trace: service.trace.as_ref().map(Arc::clone),
                trace_sample: config.trace_sample,
                baselined: Arc::clone(&baselined),
            };
            let handle = std::thread::Builder::new()
                .name(format!("serve-batcher-{i}"))
                .spawn(move || worker_loop(&rx, &ctx));
            if let Ok(h) = handle {
                handles.push(h);
            }
        }
        *lock(&service.workers) = handles;
        service
    }

    /// The configuration the service is running with (after
    /// deterministic-mode normalization).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The model store behind this service.
    pub fn store(&self) -> &Arc<ModelStore> {
        &self.store
    }

    /// The metrics registry — the server front end observes its parse and
    /// render stages and mints correlation ids from it.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Validates and enqueues a request; the returned channel yields the
    /// response (or shed/invalid error) exactly once. A request arriving
    /// with `corr == 0` gets a correlation id minted here.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] for malformed input,
    /// [`ServeError::Shed`] when the queue is full or the service is
    /// shutting down.
    pub fn submit(
        &self,
        request: InferenceRequest,
    ) -> Result<Receiver<Result<InferenceResponse, ServeError>>, ServeError> {
        let accept_t0 = Instant::now();
        let mut request = request;
        if request.corr == 0 {
            request.corr = self.metrics.mint_corr();
        }
        let model = self.store.current();
        let dim = model.backend.state_dim();
        if request.state.len() != dim {
            self.metrics.invalid_input.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Invalid(format!(
                "state has {} values, model expects {dim}",
                request.state.len()
            )));
        }
        if !request.state.iter().all(|v| v.is_finite()) {
            self.metrics.invalid_input.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Invalid("state contains non-finite values".to_string()));
        }
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = Job { request, enqueued: Instant::now(), reply: reply_tx };
        let guard = lock(&self.tx);
        let Some(tx) = guard.as_ref() else {
            return Err(ServeError::Shed(ShedReason::ShuttingDown));
        };
        // Count the job before publishing it: the channel hand-off orders
        // this add before the worker's matching subtraction. Counting after
        // the send let a worker subtract first and wrap the gauge.
        let depth = self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        let sent = tx.try_send(job);
        if sent.is_err() {
            self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
        match sent {
            Ok(()) => {
                self.metrics.requests.fetch_add(1, Ordering::Relaxed);
                self.metrics.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
                self.metrics.observe_stage(Stage::Accept, accept_t0.elapsed());
                Ok(reply_rx)
            }
            Err(TrySendError::Full(_)) => {
                self.metrics.shed_queue_full.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Shed(ShedReason::QueueFull))
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::Shed(ShedReason::ShuttingDown)),
        }
    }

    /// Blocking convenience: [`submit`](Self::submit) then wait.
    ///
    /// # Errors
    ///
    /// Everything [`submit`](Self::submit) returns, plus
    /// [`ShedReason::ShuttingDown`] if the service stops before replying.
    pub fn call(&self, request: InferenceRequest) -> Result<InferenceResponse, ServeError> {
        let rx = self.submit(request)?;
        rx.recv().unwrap_or(Err(ServeError::Shed(ShedReason::ShuttingDown)))
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        let m = &self.metrics;
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            requests: c(&m.requests),
            served: c(&m.served),
            shed_queue_full: c(&m.shed_queue_full),
            shed_deadline: c(&m.shed_deadline),
            invalid_input: c(&m.invalid_input),
            nonfinite_output: c(&m.nonfinite_output),
            renormalized: c(&m.renormalized),
            batches: c(&m.batches),
            batched_samples: c(&m.batched_samples),
            max_batch: c(&m.max_batch),
            queue_depth: c(&m.queue_depth),
            queue_depth_peak: c(&m.queue_depth_peak),
            batch_wall_s: *lock(&m.batch_wall),
            batch_hist: lock(&m.batch_hist).iter().map(|(&k, &v)| (k, v)).collect(),
        }
    }

    /// Freezes the full observatory: stage histograms, per-version
    /// metrics, swap status, and the health watchdog verdict (which is
    /// evaluated — and the degraded flag updated — as part of taking the
    /// snapshot).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let model = self.store.current();
        self.metrics.snapshot(
            &self.config.health,
            model.backend.name().to_string(),
            model.version,
            self.store.swap_status(),
            (self.config.trace_sample > 0).then_some(self.config.trace_sample),
        )
    }

    /// Chrome-trace JSON of the sampled request traces, or `None` when
    /// tracing is disabled (`trace_sample == 0`).
    pub fn trace_json(&self) -> Option<String> {
        self.trace.as_ref().map(|t| lock(t).to_chrome_json())
    }

    /// Dumps all counters, the queue-depth peak gauge, the aggregate
    /// per-batch span, and a `serve_health` record into `rec`.
    /// Observe-only; typically called once at shutdown against a JSONL
    /// sink.
    pub fn flush_telemetry(&self, rec: &mut dyn Recorder) {
        let snap = self.stats();
        let m = self.metrics_snapshot();
        rec.counter(labels::COUNTER_SERVE_REQUESTS, snap.requests);
        rec.counter(labels::COUNTER_SERVE_SERVED, snap.served);
        rec.counter(labels::COUNTER_SERVE_SHED_QUEUE_FULL, snap.shed_queue_full);
        rec.counter(labels::COUNTER_SERVE_SHED_DEADLINE, snap.shed_deadline);
        rec.counter(labels::COUNTER_SERVE_INVALID_INPUT, snap.invalid_input);
        rec.counter(labels::COUNTER_SERVE_NONFINITE_OUTPUT, snap.nonfinite_output);
        rec.counter(labels::COUNTER_SERVE_RENORMALIZED, snap.renormalized);
        rec.counter(labels::COUNTER_SERVE_BATCHES, snap.batches);
        rec.counter(labels::COUNTER_SERVE_SWAPS, m.swap.swaps);
        rec.counter(labels::COUNTER_SERVE_SWAP_FAILURES, m.swap.failures);
        rec.counter(labels::COUNTER_SERVE_SWAP_REJECTED, m.swap.rejected);
        rec.counter(
            labels::COUNTER_SERVE_PARSE_ERRORS,
            self.metrics.parse_errors.load(Ordering::Relaxed),
        );
        rec.counter(labels::COUNTER_SERVE_OVER_SLO, self.metrics.over_slo.load(Ordering::Relaxed));
        rec.counter(labels::COUNTER_SERVE_TRACES_SAMPLED, m.traces_sampled);
        rec.counter(labels::COUNTER_SERVE_HEALTH_DEGRADED, u64::from(m.health.degraded));
        rec.gauge(labels::GAUGE_SERVE_QUEUE_DEPTH, snap.queue_depth_peak as f64);
        rec.gauge(labels::GAUGE_SERVE_HEALTH_DRIFT, m.health.drift_score);
        rec.gauge(labels::GAUGE_SERVE_HEALTH_BURN, m.health.burn_rate);
        rec.gauge(labels::GAUGE_SERVE_HEALTH_SHED, m.health.shed_rate);
        if snap.batches > 0 {
            rec.span(labels::SPAN_SERVE_BATCH, snap.batch_wall_s);
        }
        let mut record = Record::new("serve_health")
            .field("degraded", m.health.degraded)
            .field("drift_score", m.health.drift_score)
            .field("entropy_drift", m.health.entropy_drift)
            .field("rate_drift", m.health.rate_drift)
            .field("burn_rate", m.health.burn_rate)
            .field("shed_rate", m.health.shed_rate)
            .field("model_version", m.model_version);
        if let Some(e) = m.health.live_entropy {
            record = record.field("live_entropy", e);
        }
        if let Some(e) = m.health.baseline_entropy {
            record = record.field("baseline_entropy", e);
        }
        rec.emit(record);
    }

    /// Graceful drain: closes admission (new submits shed with
    /// [`ShedReason::ShuttingDown`]), lets the workers serve everything
    /// already queued, and joins them. Idempotent.
    pub fn shutdown(&self) {
        lock(&self.tx).take();
        let handles: Vec<JoinHandle<()>> = lock(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Collects one micro-batch: blocks for the first job, then fills up to
/// `max_batch` within `max_wait_us`. Returns the jobs plus the formation
/// time (first arrival → dispatch); `None` when the queue is closed and
/// empty.
fn collect_batch(rx: &Mutex<Receiver<Job>>, policy: BatchPolicy) -> Option<(Vec<Job>, Duration)> {
    let rx = lock(rx);
    let mut jobs = Vec::with_capacity(policy.max_batch);
    match rx.recv() {
        Ok(job) => jobs.push(job),
        Err(_) => return None,
    }
    let opened = Instant::now();
    if policy.max_wait_us == 0 {
        while jobs.len() < policy.max_batch {
            match rx.try_recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        return Some((jobs, opened.elapsed()));
    }
    let window = Duration::from_micros(policy.max_wait_us);
    while jobs.len() < policy.max_batch {
        let elapsed = opened.elapsed();
        if elapsed >= window {
            break;
        }
        match rx.recv_timeout(window - elapsed) {
            Ok(job) => jobs.push(job),
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
        }
    }
    Some((jobs, opened.elapsed()))
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, ctx: &WorkerCtx) {
    while let Some((jobs, form)) = collect_batch(rx, ctx.policy) {
        ctx.metrics.queue_depth.fetch_sub(jobs.len() as u64, Ordering::Relaxed);
        run_batch(jobs, form, ctx);
    }
}

/// Re-probes the health baseline when a hot swap changed the live model
/// version since the last probe. `compare_exchange` makes exactly one
/// worker probe each new version, covering swaps done directly on the
/// store (bypassing any service API).
fn maybe_rebaseline(ctx: &WorkerCtx, version: u64, backend: &dyn crate::InferenceBackend) {
    let seen = ctx.baselined.load(Ordering::Acquire);
    if version != seen
        && ctx
            .baselined
            .compare_exchange(seen, version, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    {
        ctx.metrics.health().set_baseline(probe_baseline(backend, &ctx.health, version));
    }
}

/// Dispatches one collected batch: sheds expired jobs, runs the rest on
/// the current model, validates and fans out the results, and feeds every
/// observability signal (stage histograms, per-version metrics, health
/// EWMAs, sampled request traces).
fn run_batch(jobs: Vec<Job>, form: Duration, ctx: &WorkerCtx) {
    let metrics = &ctx.metrics;
    let model = ctx.store.current();
    let backend = model.backend.as_ref();
    maybe_rebaseline(ctx, model.version, backend);
    let dim = backend.state_dim();
    let now = Instant::now();
    let mut live = Vec::with_capacity(jobs.len());
    for job in jobs {
        if job.request.deadline.is_some_and(|d| d <= now) {
            metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.try_send(Err(ServeError::Shed(ShedReason::DeadlineExceeded)));
        } else if job.request.state.len() != dim {
            // A hot swap cannot change dims, but stay defensive: a shape
            // mismatch must never reach `infer_batch` as a panic.
            metrics.invalid_input.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.try_send(Err(ServeError::Invalid(format!(
                "state has {} values, model expects {dim}",
                job.request.state.len()
            ))));
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }

    let batch = live.len();
    let dispatch = Instant::now();
    let queue_waits: Vec<Duration> =
        live.iter().map(|job| dispatch.duration_since(job.enqueued)).collect();
    for wait in &queue_waits {
        metrics.observe_stage(Stage::QueueWait, *wait);
        metrics.observe_stage(Stage::BatchForm, form);
    }
    let sampled: Vec<bool> = live
        .iter()
        .map(|job| ctx.trace_sample > 0 && job.request.corr % ctx.trace_sample == 0)
        .collect();
    // Queue-wait spans are recorded at dispatch so their reconstructed
    // interval ends exactly where the infer span begins.
    if sampled.iter().any(|&s| s) {
        if let Some(trace) = &ctx.trace {
            let mut t = lock(trace);
            for (job, (wait, &is_sampled)) in
                live.iter().zip(queue_waits.iter().zip(sampled.iter()))
            {
                if is_sampled {
                    let corr = job.request.corr;
                    t.span_on_track(
                        &format!("serve/req/{corr:x}/queue_wait"),
                        wait.as_secs_f64(),
                        corr,
                    );
                }
            }
            t.span_on_track("serve/batch_form", form.as_secs_f64(), 1);
        }
    }

    let mut states = Vec::with_capacity(batch * dim);
    let mut seeds = Vec::with_capacity(batch);
    for job in &live {
        states.extend_from_slice(&job.request.state);
        seeds.push(job.request.seed);
    }
    let t0 = Instant::now();
    let mut actions = backend.infer_batch(&states, &seeds);
    let infer = t0.elapsed();
    let infer_s = infer.as_secs_f64();
    let infer_us = (infer_s * 1e6) as u64;

    metrics.batches.fetch_add(1, Ordering::Relaxed);
    metrics.batched_samples.fetch_add(batch as u64, Ordering::Relaxed);
    metrics.max_batch.fetch_max(batch as u64, Ordering::Relaxed);
    *lock(&metrics.batch_wall) += infer_s;
    *lock(&metrics.batch_hist).entry(batch).or_insert(0) += 1;
    if let Some(rates) = backend.layer_firing_rates() {
        metrics.health().observe_rates(&rates);
    }
    let version_metrics = metrics.version_metrics(model.version, backend.name());

    if sampled.iter().any(|&s| s) {
        if let Some(trace) = &ctx.trace {
            let mut t = lock(trace);
            t.span_on_track("serve/batch_infer", infer_s, 1);
            for (job, &is_sampled) in live.iter().zip(sampled.iter()) {
                if is_sampled {
                    let corr = job.request.corr;
                    t.span_on_track(&format!("serve/req/{corr:x}/backend_infer"), infer_s, corr);
                    // The parent span covers enqueue → now; export-time
                    // left-edge snapping pins it over its children.
                    t.span_on_track(
                        &format!("serve/req/{corr:x}"),
                        job.enqueued.elapsed().as_secs_f64(),
                        corr,
                    );
                    metrics.count_trace_sample();
                }
            }
        }
    }

    for ((job, weights), wait) in live.into_iter().zip(actions.drain(..)).zip(queue_waits) {
        metrics.observe_stage(Stage::BackendInfer, infer);
        let queue_us = (wait.as_secs_f64() * 1e6) as u64;
        let reply = match validate_weights(weights) {
            Ok((weights, renormalized)) => {
                metrics.served.fetch_add(1, Ordering::Relaxed);
                if renormalized {
                    metrics.renormalized.fetch_add(1, Ordering::Relaxed);
                }
                if ctx.health.latency_slo_us > 0 && queue_us + infer_us > ctx.health.latency_slo_us
                {
                    metrics.over_slo.fetch_add(1, Ordering::Relaxed);
                }
                version_metrics.served.fetch_add(1, Ordering::Relaxed);
                version_metrics.infer.observe(infer);
                metrics.health().observe_entropy(weight_entropy(&weights));
                Ok(InferenceResponse {
                    id: job.request.id,
                    corr: job.request.corr,
                    weights,
                    model_version: model.version,
                    batch_size: batch,
                    queue_us,
                    infer_us,
                    renormalized,
                })
            }
            Err(msg) => {
                metrics.nonfinite_output.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Invalid(msg))
            }
        };
        let _ = job.reply.try_send(reply);
    }
}

/// Serving-boundary output validation: weights must be finite,
/// non-negative, and sum to 1. Tiny negatives are clamped, an off-simplex
/// sum is renormalized (reported via the bool), anything non-finite or
/// degenerate is rejected so it never leaves the service.
fn validate_weights(mut weights: Vec<f64>) -> Result<(Vec<f64>, bool), String> {
    if weights.is_empty() {
        return Err("model produced an empty weight vector".to_string());
    }
    let mut renormalized = false;
    for w in &mut weights {
        if !w.is_finite() {
            return Err("model produced non-finite weights".to_string());
        }
        if *w < 0.0 {
            if *w < NEG_TOL {
                return Err(format!("model produced negative weight {w}"));
            }
            *w = 0.0;
            renormalized = true;
        }
    }
    let sum: f64 = weights.iter().sum();
    if !sum.is_finite() || sum <= 0.0 {
        return Err(format!("weight sum {sum} is not renormalizable"));
    }
    if renormalized || (sum - 1.0).abs() > SIMPLEX_TOL {
        if (sum - 1.0).abs() > SIMPLEX_TOL {
            renormalized = true;
        }
        for w in &mut weights {
            *w /= sum;
        }
    }
    Ok((weights, renormalized))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::backend::InferenceBackend;
    use crate::store::ModelLoader;

    /// Deterministic test backend: weight `i` is proportional to
    /// `state[i % dim] + seed`, softmax-free but normalized.
    struct EchoBackend {
        dim: usize,
        actions: usize,
        delay: Duration,
    }

    impl InferenceBackend for EchoBackend {
        fn name(&self) -> &str {
            "echo"
        }
        fn state_dim(&self) -> usize {
            self.dim
        }
        fn action_dim(&self) -> usize {
            self.actions
        }
        fn infer_batch(&self, states: &[f64], seeds: &[u64]) -> Vec<Vec<f64>> {
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            seeds
                .iter()
                .enumerate()
                .map(|(b, &seed)| {
                    let row = &states[b * self.dim..(b + 1) * self.dim];
                    let raw: Vec<f64> = (0..self.actions)
                        .map(|i| row[i % self.dim].abs() + seed as f64 + 1.0)
                        .collect();
                    let sum: f64 = raw.iter().sum();
                    raw.into_iter().map(|v| v / sum).collect()
                })
                .collect()
        }
    }

    fn echo_loader(dim: usize, actions: usize, delay_ms: u64) -> Box<dyn ModelLoader> {
        Box::new(move |_: &str| -> Result<Box<dyn InferenceBackend>, String> {
            Ok(Box::new(EchoBackend { dim, actions, delay: Duration::from_millis(delay_ms) }))
        })
    }

    fn service(delay_ms: u64, cfg: ServiceConfig) -> Arc<Service> {
        let store = ModelStore::open(echo_loader(4, 3, delay_ms), "echo").unwrap();
        Service::start(Arc::new(store), cfg)
    }

    fn req(id: u64) -> InferenceRequest {
        InferenceRequest { id, state: vec![0.1, 0.2, 0.3, 0.4], seed: id, deadline: None, corr: 0 }
    }

    #[test]
    fn serves_a_single_request() {
        let svc = service(0, ServiceConfig::default());
        let resp = svc.call(req(7)).unwrap();
        assert_eq!(resp.id, 7);
        assert_eq!(resp.model_version, 1);
        assert_eq!(resp.weights.len(), 3);
        assert!(resp.corr > 0, "submit must mint a correlation id");
        let sum: f64 = resp.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        svc.shutdown();
        assert_eq!(svc.stats().served, 1);
    }

    #[test]
    fn rejects_bad_dimension_and_nonfinite_state() {
        let svc = service(0, ServiceConfig::default());
        let mut bad = req(1);
        bad.state.pop();
        assert!(matches!(svc.call(bad), Err(ServeError::Invalid(_))));
        let mut nan = req(2);
        nan.state[0] = f64::NAN;
        assert!(matches!(svc.call(nan), Err(ServeError::Invalid(_))));
        assert_eq!(svc.stats().invalid_input, 2);
    }

    #[test]
    fn sheds_when_queue_is_full() {
        let cfg = ServiceConfig {
            queue_capacity: 2,
            batch: BatchPolicy { max_batch: 1, max_wait_us: 0 },
            ..ServiceConfig::default()
        };
        // 50 ms per batch: the burst below cannot drain in time.
        let svc = service(50, cfg);
        let mut pending = Vec::new();
        let mut shed = 0;
        for i in 0..12 {
            match svc.submit(req(i)) {
                Ok(rx) => pending.push(rx),
                Err(ServeError::Shed(ShedReason::QueueFull)) => shed += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(shed > 0, "burst should overflow a capacity-2 queue");
        for rx in pending {
            assert!(rx.recv().unwrap().is_ok());
        }
        assert_eq!(svc.stats().shed_queue_full, shed);
    }

    #[test]
    fn queue_depth_stays_bounded_under_concurrent_submits() {
        let cfg = ServiceConfig {
            queue_capacity: 4,
            workers: 2,
            batch: BatchPolicy { max_batch: 2, max_wait_us: 0 },
            ..ServiceConfig::default()
        };
        let svc = service(0, cfg);
        let submitters = 4;
        // Queued jobs, jobs a worker holds while forming a batch, and one
        // in-flight admission per submitter.
        let bound = (cfg.queue_capacity + cfg.workers * cfg.batch.max_batch + submitters) as u64;
        std::thread::scope(|scope| {
            for t in 0..submitters {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..500 {
                        if let Ok(rx) = svc.submit(req((t * 1000 + i) as u64)) {
                            let _ = rx.recv();
                        }
                    }
                });
            }
            for _ in 0..200 {
                let depth = svc.stats().queue_depth;
                assert!(depth <= bound, "queue depth {depth} above {bound}");
                std::thread::yield_now();
            }
        });
        svc.shutdown();
        let stats = svc.stats();
        assert_eq!(stats.queue_depth, 0, "every admitted job must be counted out");
        assert!(stats.queue_depth_peak <= bound, "peak {} above {bound}", stats.queue_depth_peak);
    }

    #[test]
    fn sheds_expired_deadlines_at_dispatch() {
        let svc = service(0, ServiceConfig::default());
        let mut r = req(1);
        r.deadline = Some(Instant::now() - Duration::from_millis(1));
        match svc.call(r) {
            Err(ServeError::Shed(ShedReason::DeadlineExceeded)) => {}
            other => panic!("expected deadline shed, got {other:?}"),
        }
        assert_eq!(svc.stats().shed_deadline, 1);
    }

    #[test]
    fn batches_concurrent_requests() {
        let cfg = ServiceConfig {
            batch: BatchPolicy { max_batch: 16, max_wait_us: 20_000 },
            ..ServiceConfig::default()
        };
        // 20 ms per batch so the follow-up burst queues behind batch one.
        let svc = service(20, cfg);
        let receivers: Vec<_> = (0..12).map(|i| svc.submit(req(i)).unwrap()).collect();
        for rx in receivers {
            assert!(rx.recv().unwrap().is_ok());
        }
        let stats = svc.stats();
        assert_eq!(stats.served, 12);
        assert!(stats.max_batch > 1, "expected batching, saw max batch {}", stats.max_batch);
        assert!(stats.batches < 12, "expected fewer batches than requests");
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let cfg = ServiceConfig {
            batch: BatchPolicy { max_batch: 4, max_wait_us: 0 },
            ..ServiceConfig::default()
        };
        let svc = service(10, cfg);
        let receivers: Vec<_> = (0..8).map(|i| svc.submit(req(i)).unwrap()).collect();
        svc.shutdown();
        for rx in receivers {
            assert!(rx.recv().unwrap().is_ok(), "queued request lost in shutdown");
        }
        assert!(matches!(svc.call(req(99)), Err(ServeError::Shed(ShedReason::ShuttingDown))));
        assert_eq!(svc.stats().served, 8);
    }

    #[test]
    fn deterministic_mode_forces_single_worker() {
        let cfg = ServiceConfig { workers: 8, deterministic: true, ..ServiceConfig::default() };
        let svc = service(0, cfg);
        assert_eq!(svc.config().workers, 1);
    }

    #[test]
    fn validate_accepts_simplex() {
        let (w, renorm) = validate_weights(vec![0.25, 0.5, 0.25]).unwrap();
        assert_eq!(w, vec![0.25, 0.5, 0.25]);
        assert!(!renorm);
    }

    #[test]
    fn validate_renormalizes_off_simplex() {
        let (w, renorm) = validate_weights(vec![0.5, 0.5, 0.5]).unwrap();
        assert!(renorm);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validate_clamps_tiny_negative_and_renormalizes() {
        let (w, renorm) = validate_weights(vec![-1e-12, 0.6, 0.4]).unwrap();
        assert!(renorm);
        assert_eq!(w[0], 0.0);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_nonfinite_and_degenerate() {
        assert!(validate_weights(vec![f64::NAN, 0.5]).is_err());
        assert!(validate_weights(vec![f64::INFINITY, 0.5]).is_err());
        assert!(validate_weights(vec![0.0, 0.0]).is_err());
        assert!(validate_weights(vec![-0.5, 1.5]).is_err());
        assert!(validate_weights(Vec::new()).is_err());
    }

    #[test]
    fn flush_telemetry_reports_counters() {
        let svc = service(0, ServiceConfig::default());
        svc.call(req(1)).unwrap();
        svc.shutdown();
        let mut rec = spikefolio_telemetry::MemoryRecorder::default();
        svc.flush_telemetry(&mut rec);
        assert_eq!(rec.counter_total(labels::COUNTER_SERVE_SERVED), 1);
        assert_eq!(rec.counter_total(labels::COUNTER_SERVE_REQUESTS), 1);
        assert_eq!(rec.span_total(labels::SPAN_SERVE_BATCH).1, 1);
        assert_eq!(rec.counter_total(labels::COUNTER_SERVE_HEALTH_DEGRADED), 0);
    }

    #[test]
    fn service_stages_count_once_per_request() {
        let svc = service(0, ServiceConfig::default());
        for i in 0..9 {
            svc.call(req(i)).unwrap();
        }
        svc.shutdown();
        let snap = svc.metrics_snapshot();
        for (stage, hist) in &snap.stages {
            let expected = match stage {
                Stage::Parse | Stage::Render => 0, // server front-end stages
                _ => 9,
            };
            assert_eq!(
                hist.count,
                expected,
                "stage {} observed {} times, expected {expected}",
                stage.name(),
                hist.count
            );
        }
        assert_eq!(snap.versions.len(), 1);
        assert_eq!(snap.versions[0].served, 9);
        assert_eq!(snap.versions[0].infer.count, 9);
    }

    #[test]
    fn correlation_ids_are_distinct_and_echoed() {
        let svc = service(0, ServiceConfig::default());
        let a = svc.call(req(1)).unwrap();
        let b = svc.call(req(2)).unwrap();
        assert_ne!(a.corr, b.corr);
        // A pre-minted id is carried through untouched.
        let mut r = req(3);
        r.corr = 0xC0FFEE;
        assert_eq!(svc.call(r).unwrap().corr, 0xC0FFEE);
    }

    #[test]
    fn trace_sampling_exports_request_spans() {
        let cfg = ServiceConfig { trace_sample: 2, ..ServiceConfig::default() };
        let svc = service(0, cfg);
        for i in 0..8 {
            svc.call(req(i)).unwrap();
        }
        svc.shutdown();
        let snap = svc.metrics_snapshot();
        // Corr ids 1..=8: exactly 2, 4, 6, 8 are sampled.
        assert_eq!(snap.traces_sampled, 4);
        assert_eq!(snap.trace_sample, Some(2));
        let json = svc.trace_json().expect("tracing enabled");
        assert!(json.contains("serve/req/2/queue_wait"), "missing queue span: {json}");
        assert!(json.contains("serve/req/2/backend_infer"));
        assert!(json.contains("serve/batch_infer"));
        // Unsampled corr 3 must not appear as its own track.
        assert!(!json.contains("serve/req/3\""));
    }

    #[test]
    fn tracing_disabled_has_no_recorder() {
        let svc = service(0, ServiceConfig::default());
        svc.call(req(1)).unwrap();
        assert!(svc.trace_json().is_none());
        assert_eq!(svc.metrics_snapshot().traces_sampled, 0);
    }

    #[test]
    fn slo_burn_trips_degraded_with_slow_backend() {
        let cfg = ServiceConfig {
            health: HealthConfig { latency_slo_us: 100, ..HealthConfig::default() },
            ..ServiceConfig::default()
        };
        // Every request takes ≥ 5 ms against a 100 µs SLO.
        let svc = service(5, cfg);
        for i in 0..10 {
            svc.call(req(i)).unwrap();
        }
        let snap = svc.metrics_snapshot();
        assert!(snap.health.degraded, "burned SLO must degrade: {:?}", snap.health);
        assert!(snap.health.reasons.contains(&"latency_burn"));
        assert!(snap.health.burn_rate > 1.0);
        assert!(svc.registry().health().is_degraded());
    }

    #[test]
    fn hot_swap_rebaselines_health() {
        let svc = service(0, ServiceConfig::default());
        svc.call(req(1)).unwrap();
        assert_eq!(svc.metrics_snapshot().health.baseline_version, Some(1));
        svc.store().reload("echo").unwrap();
        svc.call(req(2)).unwrap();
        svc.shutdown();
        let snap = svc.metrics_snapshot();
        assert_eq!(snap.health.baseline_version, Some(2), "swap must re-probe the baseline");
        assert_eq!(snap.versions.len(), 2, "both versions keep their metrics");
    }
}
