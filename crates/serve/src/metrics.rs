//! The serving observatory: a lock-free metrics registry threaded through
//! every stage of the request path, plus the model-health monitors that
//! decide whether the live policy is still trustworthy.
//!
//! Three layers live here:
//!
//! * [`LatencyHistogram`] — HDR-style log-linear latency histogram over
//!   nanosecond durations. Eight sub-buckets per octave (`SUB_BITS = 3`)
//!   bound the relative quantile error at 12.5%; every operation on the
//!   hot path is a relaxed atomic, and two histograms merge exactly
//!   (bucket-wise addition loses nothing relative to observing into one).
//! * [`MetricsRegistry`] — the per-service registry: one histogram per
//!   [`Stage`] (accept, parse, queue-wait, batch-form, backend-infer,
//!   render), the admission/shed/validation counters, per-model-version
//!   serving metrics, the correlation-id mint, and the trace-sampling
//!   tally. The per-request path touches only atomics; per-batch
//!   bookkeeping (batch-size histogram, firing-rate EWMA) takes short
//!   uncontended mutexes.
//! * [`HealthMonitor`] — drift + SLO watchdog. A baseline (output-weight
//!   entropy and per-layer firing rates) is probed when a checkpoint
//!   becomes live; live serving folds the same signals into EWMAs; the
//!   watchdog compares them and combines the drift score with latency
//!   burn rate and shed rate into a `degraded` flag readable via the
//!   `metrics` verb.
//!
//! [`MetricsSnapshot`] freezes the whole registry into the schema-versioned
//! `spikefolio.metrics.v1` JSON document and also renders a
//! Prometheus-style text exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikefolio_telemetry::value::Value;

use crate::backend::InferenceBackend;
use crate::lock;
use crate::store::SwapStatus;

/// Schema tag on every `metrics` snapshot.
pub const METRICS_SCHEMA: &str = "spikefolio.metrics.v1";

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per power-of-two octave,
/// bounding the relative width of any bucket at 1/8 = 12.5%.
const SUB_BITS: u32 = 3;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Bucket count covering the full `u64` nanosecond range: the first
/// octave stores values `< 8` exactly, then `(63 - 3 + 1)` octaves of 8.
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_COUNT as usize;

/// Maps a nanosecond duration to its histogram bucket.
#[must_use]
pub fn bucket_index(ns: u64) -> usize {
    if ns < SUB_COUNT {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros();
    let group = (octave - SUB_BITS + 1) as usize;
    let sub = ((ns >> (octave - SUB_BITS)) & (SUB_COUNT - 1)) as usize;
    (group << SUB_BITS) + sub
}

/// Inclusive `(lower, upper)` nanosecond bounds of a bucket.
#[must_use]
pub fn bucket_bounds_ns(index: usize) -> (u64, u64) {
    if index < SUB_COUNT as usize {
        return (index as u64, index as u64);
    }
    let group = (index >> SUB_BITS) as u32;
    let sub = (index as u64) & (SUB_COUNT - 1);
    let shift = group - 1;
    let lower = (SUB_COUNT + sub) << shift;
    // `lower + 2^shift - 1`, ordered so the top bucket (upper bound
    // exactly `u64::MAX`) does not overflow the intermediate sum.
    let upper = (lower - 1) + (1u64 << shift);
    (lower, upper)
}

/// Lock-free log-bucketed latency histogram (nanosecond resolution).
///
/// `observe` is a handful of relaxed atomic adds; `merge_from` is exact:
/// the merged bucket counts equal those of a histogram that observed both
/// input streams directly.
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, || AtomicU64::new(0));
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one duration in nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one duration.
    pub fn observe(&self, d: Duration) {
        self.observe_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact merge: adds every bucket of `other` into `self`.
    pub fn merge_from(&self, other: &Self) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_ns.fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns.fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Freezes the histogram into a point-in-time snapshot.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_bounds_ns(i).1, n));
            }
        }
        HistogramSnapshot::from_buckets(
            buckets,
            self.count.load(Ordering::Relaxed),
            self.sum_ns.load(Ordering::Relaxed),
            self.max_ns.load(Ordering::Relaxed),
        )
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram").field("count", &self.count()).finish()
    }
}

/// Frozen view of a [`LatencyHistogram`] with derived quantiles (µs).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations.
    pub count: u64,
    /// Mean duration (µs).
    pub mean_us: f64,
    /// Median (µs, bucket upper bound — ≤ 12.5% above the true value).
    pub p50_us: f64,
    /// 95th percentile (µs).
    pub p95_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// 99.9th percentile (µs).
    pub p999_us: f64,
    /// Exact maximum (µs).
    pub max_us: f64,
    /// Non-empty buckets as `(upper_bound_ns, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    fn from_buckets(buckets: Vec<(u64, u64)>, count: u64, sum_ns: u64, max_ns: u64) -> Self {
        let pct = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let rank = ((q / 100.0 * count as f64).ceil() as u64).clamp(1, count);
            let mut cum = 0u64;
            for &(upper, n) in &buckets {
                cum += n;
                if cum >= rank {
                    // The bucket bound can overshoot the true maximum by
                    // the bucket width; the exact max caps it.
                    return upper.min(max_ns) as f64 / 1e3;
                }
            }
            max_ns as f64 / 1e3
        };
        Self {
            count,
            mean_us: if count == 0 { 0.0 } else { sum_ns as f64 / count as f64 / 1e3 },
            p50_us: pct(50.0),
            p95_us: pct(95.0),
            p99_us: pct(99.0),
            p999_us: pct(99.9),
            max_us: max_ns as f64 / 1e3,
            buckets,
        }
    }

    /// JSON form used inside the `spikefolio.metrics.v1` snapshot.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("count".to_string(), Value::U64(self.count)),
            ("mean_us".to_string(), Value::F64(self.mean_us)),
            ("p50_us".to_string(), Value::F64(self.p50_us)),
            ("p95_us".to_string(), Value::F64(self.p95_us)),
            ("p99_us".to_string(), Value::F64(self.p99_us)),
            ("p999_us".to_string(), Value::F64(self.p999_us)),
            ("max_us".to_string(), Value::F64(self.max_us)),
        ])
    }
}

/// The six instrumented stages of a request's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Admission into the service queue (`Service::submit`).
    Accept,
    /// NDJSON parse of an inference line (server front end).
    Parse,
    /// Time between enqueue and batch dispatch.
    QueueWait,
    /// Time the micro-batch spent forming (first arrival → dispatch).
    BatchForm,
    /// Wall time of the batched backend forward.
    BackendInfer,
    /// Response rendering on the connection writer (observed before the
    /// write, so a reply a client has read is already counted).
    Render,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Accept,
        Stage::Parse,
        Stage::QueueWait,
        Stage::BatchForm,
        Stage::BackendInfer,
        Stage::Render,
    ];

    /// Stable snake_case name used in snapshots and exposition.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::BatchForm => "batch_form",
            Stage::BackendInfer => "backend_infer",
            Stage::Render => "render",
        }
    }

    fn idx(self) -> usize {
        match self {
            Stage::Accept => 0,
            Stage::Parse => 1,
            Stage::QueueWait => 2,
            Stage::BatchForm => 3,
            Stage::BackendInfer => 4,
            Stage::Render => 5,
        }
    }
}

/// Per-model-version serving metrics (kept across hot swaps so a rollback
/// is visible as two populated versions).
#[derive(Debug)]
pub struct VersionMetrics {
    /// Model version this entry tracks.
    pub version: u64,
    /// Backend name at the time the version went live.
    pub backend: String,
    /// Responses served by this version.
    pub served: AtomicU64,
    /// Batched-forward wall time, attributed per request.
    pub infer: LatencyHistogram,
}

/// Health/SLO watchdog configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Per-request latency SLO (queue + infer, µs). `0` disables the
    /// latency burn monitor.
    pub latency_slo_us: u64,
    /// Fraction of requests allowed over the SLO before the burn rate
    /// reaches 1.0.
    pub burn_budget: f64,
    /// Fraction of admissions allowed to shed before the shed burn
    /// reaches 1.0.
    pub shed_budget: f64,
    /// Drift score above which the model is flagged degraded.
    pub drift_threshold: f64,
    /// Batch size of the baseline probe run at checkpoint load.
    pub probe_samples: usize,
    /// Seed for the deterministic probe states.
    pub probe_seed: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            latency_slo_us: 50_000,
            burn_budget: 0.05,
            shed_budget: 0.05,
            drift_threshold: 0.25,
            probe_samples: 4,
            probe_seed: 0xBA5E,
        }
    }
}

/// Reference signals captured when a checkpoint becomes live.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthBaseline {
    /// Model version the baseline was probed from.
    pub version: u64,
    /// Mean output-weight entropy (nats) over the probe batch.
    pub entropy: f64,
    /// Per-layer firing rates reported by the backend, if it exposes them.
    pub firing_rates: Option<Vec<f64>>,
}

/// Point-in-time health verdict included in the `metrics` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Whether any monitor tripped.
    pub degraded: bool,
    /// Which monitors tripped (`latency_burn`, `shed_rate`, `drift`).
    pub reasons: Vec<&'static str>,
    /// `(over-SLO fraction) / burn_budget`; ≥ 1.0 means the budget is burned.
    pub burn_rate: f64,
    /// Shed admissions / total admissions.
    pub shed_rate: f64,
    /// `max(entropy drift, firing-rate drift)`.
    pub drift_score: f64,
    /// Relative drift of live output entropy vs the baseline.
    pub entropy_drift: f64,
    /// Mean relative per-layer firing-rate drift vs the baseline.
    pub rate_drift: f64,
    /// Baseline entropy, if a baseline has been recorded.
    pub baseline_entropy: Option<f64>,
    /// Live entropy EWMA, if any responses were served.
    pub live_entropy: Option<f64>,
    /// Version the current baseline was probed from.
    pub baseline_version: Option<u64>,
}

/// EWMA smoothing factor for the live drift signals.
const EWMA_ALPHA: f64 = 0.1;
/// Firing-rate denominators are floored here so near-silent layers do not
/// produce unbounded relative drift.
const RATE_FLOOR: f64 = 0.01;

/// Drift + SLO monitor. Per-request entropy folding is an atomic CAS on
/// the f64 bits; rate folding is per-batch behind a short mutex.
#[derive(Default)]
pub struct HealthMonitor {
    degraded: AtomicBool,
    /// EWMA of served output entropy, stored as f64 bits (0 = unset; an
    /// entropy of exactly +0.0 is indistinguishable but harmless).
    live_entropy_bits: AtomicU64,
    state: Mutex<HealthState>,
}

#[derive(Default)]
struct HealthState {
    baseline: Option<HealthBaseline>,
    live_rates: Option<Vec<f64>>,
}

impl HealthMonitor {
    /// Installs a freshly probed baseline and resets the live EWMAs so a
    /// swapped-in model is judged against its own reference.
    pub fn set_baseline(&self, baseline: HealthBaseline) {
        let mut st = lock(&self.state);
        st.baseline = Some(baseline);
        st.live_rates = None;
        drop(st);
        self.live_entropy_bits.store(0, Ordering::Relaxed);
        self.degraded.store(false, Ordering::Relaxed);
    }

    /// Folds one served response's output entropy into the live EWMA.
    pub fn observe_entropy(&self, entropy: f64) {
        if !entropy.is_finite() {
            return;
        }
        let mut cur = self.live_entropy_bits.load(Ordering::Relaxed);
        loop {
            let next = if cur == 0 {
                entropy
            } else {
                let prev = f64::from_bits(cur);
                prev + EWMA_ALPHA * (entropy - prev)
            };
            match self.live_entropy_bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Folds one batch's per-layer firing rates into the live EWMA.
    pub fn observe_rates(&self, rates: &[f64]) {
        if rates.is_empty() {
            return;
        }
        let mut st = lock(&self.state);
        match &mut st.live_rates {
            Some(live) if live.len() == rates.len() => {
                for (l, &r) in live.iter_mut().zip(rates) {
                    *l += EWMA_ALPHA * (r - *l);
                }
            }
            slot => *slot = Some(rates.to_vec()),
        }
    }

    /// Whether the last evaluation flagged the service degraded.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Runs the watchdog against current counters and updates the
    /// degraded flag. `served`/`over_slo` gate the latency burn,
    /// `requests`/`sheds` the shed burn.
    pub fn evaluate(
        &self,
        cfg: &HealthConfig,
        served: u64,
        over_slo: u64,
        requests: u64,
        sheds: u64,
    ) -> HealthReport {
        let st = lock(&self.state);
        let baseline = st.baseline.clone();
        let live_rates = st.live_rates.clone();
        drop(st);
        let bits = self.live_entropy_bits.load(Ordering::Relaxed);
        let live_entropy = if bits == 0 { None } else { Some(f64::from_bits(bits)) };

        let entropy_drift = match (&baseline, live_entropy) {
            (Some(b), Some(live)) => (live - b.entropy).abs() / b.entropy.abs().max(1e-6),
            _ => 0.0,
        };
        let rate_drift = match (&baseline, &live_rates) {
            (Some(b), Some(live)) => match &b.firing_rates {
                Some(base) if base.len() == live.len() && !base.is_empty() => {
                    let total: f64 = base
                        .iter()
                        .zip(live)
                        .map(|(&b, &l)| (l - b).abs() / b.abs().max(RATE_FLOOR))
                        .sum();
                    total / base.len() as f64
                }
                _ => 0.0,
            },
            _ => 0.0,
        };
        let drift_score = entropy_drift.max(rate_drift);

        let burn_rate = if cfg.latency_slo_us > 0 && served > 0 && cfg.burn_budget > 0.0 {
            (over_slo as f64 / served as f64) / cfg.burn_budget
        } else {
            0.0
        };
        let shed_rate = if requests > 0 { sheds as f64 / requests as f64 } else { 0.0 };
        let shed_burn = if cfg.shed_budget > 0.0 { shed_rate / cfg.shed_budget } else { 0.0 };

        let mut reasons = Vec::new();
        if burn_rate > 1.0 {
            reasons.push("latency_burn");
        }
        if shed_burn > 1.0 {
            reasons.push("shed_rate");
        }
        if drift_score > cfg.drift_threshold {
            reasons.push("drift");
        }
        let degraded = !reasons.is_empty();
        self.degraded.store(degraded, Ordering::Relaxed);
        HealthReport {
            degraded,
            reasons,
            burn_rate,
            shed_rate,
            drift_score,
            entropy_drift,
            rate_drift,
            baseline_entropy: baseline.as_ref().map(|b| b.entropy),
            live_entropy,
            baseline_version: baseline.as_ref().map(|b| b.version),
        }
    }
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor").field("degraded", &self.is_degraded()).finish()
    }
}

/// Shannon entropy (nats) of a weight vector. Weights are assumed
/// non-negative and ~simplex (the serving boundary guarantees it); zero
/// components contribute zero.
#[must_use]
pub fn weight_entropy(weights: &[f64]) -> f64 {
    weights.iter().filter(|&&w| w > 0.0).map(|&w| -w * w.ln()).sum()
}

/// Runs the deterministic baseline probe against a backend: a seeded
/// batch of `probe_samples` states drawn uniformly from `[0.9, 1.1)`
/// (price-relative scale), whose outputs define the entropy baseline and
/// whose forward populates the backend's firing-rate observation.
#[must_use]
pub fn probe_baseline(
    backend: &dyn InferenceBackend,
    cfg: &HealthConfig,
    version: u64,
) -> HealthBaseline {
    let dim = backend.state_dim();
    let samples = cfg.probe_samples.max(1);
    let mut rng = StdRng::seed_from_u64(cfg.probe_seed);
    let mut states = Vec::with_capacity(samples * dim);
    for _ in 0..samples * dim {
        states.push(rng.gen_range(0.9..1.1));
    }
    let seeds: Vec<u64> = (0..samples as u64).map(|i| cfg.probe_seed.wrapping_add(i)).collect();
    let outputs = backend.infer_batch(&states, &seeds);
    let mut total = 0.0;
    let mut n = 0usize;
    for out in &outputs {
        let e = weight_entropy(out);
        if e.is_finite() {
            total += e;
            n += 1;
        }
    }
    let entropy = if n > 0 { total / n as f64 } else { 0.0 };
    HealthBaseline { version, entropy, firing_rates: backend.layer_firing_rates() }
}

/// The per-service metrics registry. Every per-request operation is a
/// relaxed atomic; snapshotting walks the structures without stopping
/// the world.
pub struct MetricsRegistry {
    started: Instant,
    stages: [LatencyHistogram; 6],
    next_corr: AtomicU64,
    traces_sampled: AtomicU64,
    /// Requests admitted into the queue.
    pub(crate) requests: AtomicU64,
    /// Responses served with weights.
    pub(crate) served: AtomicU64,
    /// Sheds: queue full at admission.
    pub(crate) shed_queue_full: AtomicU64,
    /// Sheds: deadline expired while queued.
    pub(crate) shed_deadline: AtomicU64,
    /// Boundary rejects: bad dimension / non-finite input.
    pub(crate) invalid_input: AtomicU64,
    /// Boundary rejects: non-finite model output.
    pub(crate) nonfinite_output: AtomicU64,
    /// Outputs renormalized back onto the simplex.
    pub(crate) renormalized: AtomicU64,
    /// Micro-batches executed.
    pub(crate) batches: AtomicU64,
    /// Samples served across all batches.
    pub(crate) batched_samples: AtomicU64,
    /// Largest micro-batch dispatched.
    pub(crate) max_batch: AtomicU64,
    /// Requests currently queued.
    pub(crate) queue_depth: AtomicU64,
    /// Peak queue depth observed.
    pub(crate) queue_depth_peak: AtomicU64,
    /// Inference lines that failed to parse at the server front end.
    pub(crate) parse_errors: AtomicU64,
    /// Served responses whose queue+infer time exceeded the latency SLO.
    pub(crate) over_slo: AtomicU64,
    pub(crate) batch_wall: Mutex<f64>,
    pub(crate) batch_hist: Mutex<BTreeMap<usize, u64>>,
    versions: Mutex<BTreeMap<u64, Arc<VersionMetrics>>>,
    health: HealthMonitor,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A fresh registry; `started` anchors the uptime gauge.
    #[must_use]
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            stages: std::array::from_fn(|_| LatencyHistogram::new()),
            next_corr: AtomicU64::new(1),
            traces_sampled: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            invalid_input: AtomicU64::new(0),
            nonfinite_output: AtomicU64::new(0),
            renormalized: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_samples: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_depth_peak: AtomicU64::new(0),
            parse_errors: AtomicU64::new(0),
            over_slo: AtomicU64::new(0),
            batch_wall: Mutex::new(0.0),
            batch_hist: Mutex::new(BTreeMap::new()),
            versions: Mutex::new(BTreeMap::new()),
            health: HealthMonitor::default(),
        }
    }

    /// The histogram for one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage.idx()]
    }

    /// Records one stage duration.
    pub fn observe_stage(&self, stage: Stage, d: Duration) {
        self.stage(stage).observe(d);
    }

    /// Mints the next correlation id (monotonic, starts at 1; 0 means
    /// "unset").
    pub fn mint_corr(&self) -> u64 {
        self.next_corr.fetch_add(1, Ordering::Relaxed)
    }

    /// Counts one request-trace sample export.
    pub fn count_trace_sample(&self) {
        self.traces_sampled.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one front-end parse failure.
    pub fn count_parse_error(&self) {
        self.parse_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The per-version metrics entry, created on first use.
    pub fn version_metrics(&self, version: u64, backend: &str) -> Arc<VersionMetrics> {
        let mut map = lock(&self.versions);
        Arc::clone(map.entry(version).or_insert_with(|| {
            Arc::new(VersionMetrics {
                version,
                backend: backend.to_string(),
                served: AtomicU64::new(0),
                infer: LatencyHistogram::new(),
            })
        }))
    }

    /// The health monitor.
    #[must_use]
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Seconds since the registry was created.
    #[must_use]
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Named counters in a stable order (snapshot + Prometheus share it).
    #[must_use]
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        vec![
            ("requests", c(&self.requests)),
            ("served", c(&self.served)),
            ("shed_queue_full", c(&self.shed_queue_full)),
            ("shed_deadline", c(&self.shed_deadline)),
            ("invalid_input", c(&self.invalid_input)),
            ("nonfinite_output", c(&self.nonfinite_output)),
            ("renormalized", c(&self.renormalized)),
            ("batches", c(&self.batches)),
            ("batched_samples", c(&self.batched_samples)),
            ("parse_errors", c(&self.parse_errors)),
            ("over_slo", c(&self.over_slo)),
            ("traces_sampled", c(&self.traces_sampled)),
        ]
    }

    /// Freezes the registry into a full snapshot. `swap` and the serving
    /// identity come from the caller (the service owns the store), as does
    /// the trace-sampling interval.
    #[must_use]
    pub fn snapshot(
        &self,
        cfg: &HealthConfig,
        backend: String,
        model_version: u64,
        swap: SwapStatus,
        trace_sample: Option<u64>,
    ) -> MetricsSnapshot {
        let served = self.served.load(Ordering::Relaxed);
        let over_slo = self.over_slo.load(Ordering::Relaxed);
        let requests = self.requests.load(Ordering::Relaxed);
        let sheds = self.shed_queue_full.load(Ordering::Relaxed)
            + self.shed_deadline.load(Ordering::Relaxed);
        let health = self.health.evaluate(cfg, served, over_slo, requests, sheds);
        let versions: Vec<VersionSnapshot> = lock(&self.versions)
            .values()
            .map(|v| VersionSnapshot {
                version: v.version,
                backend: v.backend.clone(),
                served: v.served.load(Ordering::Relaxed),
                infer: v.infer.snapshot(),
            })
            .collect();
        MetricsSnapshot {
            uptime_s: self.uptime_s(),
            backend,
            model_version,
            counters: self.counters(),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            batch_wall_s: *lock(&self.batch_wall),
            batch_hist: lock(&self.batch_hist).iter().map(|(&k, &v)| (k, v)).collect(),
            stages: Stage::ALL.map(|s| (s, self.stage(s).snapshot())).to_vec(),
            versions,
            swap,
            health,
            slo_us: cfg.latency_slo_us,
            trace_sample,
            traces_sampled: self.traces_sampled.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("requests", &self.requests.load(Ordering::Relaxed))
            .finish()
    }
}

/// Frozen per-version metrics inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionSnapshot {
    /// Model version.
    pub version: u64,
    /// Backend name when the version went live.
    pub backend: String,
    /// Responses served by this version.
    pub served: u64,
    /// Per-request infer latency under this version.
    pub infer: HistogramSnapshot,
}

/// Escapes a Prometheus label value: backslash, double quote, and
/// newline must be backslash-escaped per the text exposition format.
fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// The full `spikefolio.metrics.v1` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Seconds the service has been up.
    pub uptime_s: f64,
    /// Live backend name.
    pub backend: String,
    /// Live model version.
    pub model_version: u64,
    /// Named monotonic counters.
    pub counters: Vec<(&'static str, u64)>,
    /// Requests currently queued.
    pub queue_depth: u64,
    /// Peak queue depth.
    pub queue_depth_peak: u64,
    /// Largest micro-batch dispatched.
    pub max_batch: u64,
    /// Total wall time inside batched forwards (seconds).
    pub batch_wall_s: f64,
    /// `batch size → dispatch count`.
    pub batch_hist: Vec<(usize, u64)>,
    /// Per-stage latency, pipeline order.
    pub stages: Vec<(Stage, HistogramSnapshot)>,
    /// Per-model-version serving metrics.
    pub versions: Vec<VersionSnapshot>,
    /// Hot-swap status from the model store.
    pub swap: SwapStatus,
    /// Watchdog verdict.
    pub health: HealthReport,
    /// The latency SLO the watchdog judges against (µs).
    pub slo_us: u64,
    /// Request-trace sampling interval (`None` when tracing is off).
    pub trace_sample: Option<u64>,
    /// Request traces exported so far.
    pub traces_sampled: u64,
}

impl MetricsSnapshot {
    /// The `metrics` payload of the NDJSON response: everything under one
    /// schema-versioned map.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let counters = self.counters.iter().map(|&(k, v)| (k.to_string(), Value::U64(v))).collect();
        let gauges = vec![
            ("queue_depth".to_string(), Value::U64(self.queue_depth)),
            ("queue_depth_peak".to_string(), Value::U64(self.queue_depth_peak)),
            ("max_batch".to_string(), Value::U64(self.max_batch)),
            ("batch_wall_s".to_string(), Value::F64(self.batch_wall_s)),
        ];
        let stages = self
            .stages
            .iter()
            .map(|(s, h)| (s.name().to_string(), h.to_value()))
            .collect::<Vec<_>>();
        let batch_hist = self
            .batch_hist
            .iter()
            .map(|&(size, n)| {
                Value::Map(vec![
                    ("batch".to_string(), Value::U64(size as u64)),
                    ("count".to_string(), Value::U64(n)),
                ])
            })
            .collect();
        let versions = self
            .versions
            .iter()
            .map(|v| {
                Value::Map(vec![
                    ("version".to_string(), Value::U64(v.version)),
                    ("backend".to_string(), Value::Str(v.backend.clone())),
                    ("served".to_string(), Value::U64(v.served)),
                    ("infer".to_string(), v.infer.to_value()),
                ])
            })
            .collect();
        let swap = Value::Map(vec![
            ("swaps".to_string(), Value::U64(self.swap.swaps)),
            ("failures".to_string(), Value::U64(self.swap.failures)),
            ("last_good_version".to_string(), Value::U64(self.swap.last_good_version)),
            (
                "last_error_kind".to_string(),
                match &self.swap.last_error_kind {
                    Some(k) => Value::Str(k.clone()),
                    None => Value::Null,
                },
            ),
            (
                "last_error".to_string(),
                match &self.swap.last_error {
                    Some(m) => Value::Str(m.clone()),
                    None => Value::Null,
                },
            ),
            ("rejected".to_string(), Value::U64(self.swap.rejected)),
            (
                "rejected_by_kind".to_string(),
                Value::Map(
                    self.swap
                        .rejected_by_kind
                        .iter()
                        .map(|(k, n)| (k.clone(), Value::U64(*n)))
                        .collect(),
                ),
            ),
            (
                "last_rejection_kind".to_string(),
                match &self.swap.last_rejection_kind {
                    Some(k) => Value::Str(k.clone()),
                    None => Value::Null,
                },
            ),
            (
                "last_rejection".to_string(),
                match &self.swap.last_rejection {
                    Some(m) => Value::Str(m.clone()),
                    None => Value::Null,
                },
            ),
        ]);
        let h = &self.health;
        let opt_f = |v: Option<f64>| v.map_or(Value::Null, Value::F64);
        let health = Value::Map(vec![
            ("degraded".to_string(), Value::Bool(h.degraded)),
            (
                "reasons".to_string(),
                Value::List(h.reasons.iter().map(|r| Value::Str((*r).to_string())).collect()),
            ),
            ("burn_rate".to_string(), Value::F64(h.burn_rate)),
            ("shed_rate".to_string(), Value::F64(h.shed_rate)),
            ("drift_score".to_string(), Value::F64(h.drift_score)),
            ("entropy_drift".to_string(), Value::F64(h.entropy_drift)),
            ("rate_drift".to_string(), Value::F64(h.rate_drift)),
            ("baseline_entropy".to_string(), opt_f(h.baseline_entropy)),
            ("live_entropy".to_string(), opt_f(h.live_entropy)),
            ("baseline_version".to_string(), h.baseline_version.map_or(Value::Null, Value::U64)),
            ("slo_us".to_string(), Value::U64(self.slo_us)),
        ]);
        let trace = Value::Map(vec![
            ("sample_every".to_string(), self.trace_sample.map_or(Value::Null, Value::U64)),
            ("sampled".to_string(), Value::U64(self.traces_sampled)),
        ]);
        Value::Map(vec![
            ("uptime_s".to_string(), Value::F64(self.uptime_s)),
            ("backend".to_string(), Value::Str(self.backend.clone())),
            ("model_version".to_string(), Value::U64(self.model_version)),
            ("counters".to_string(), Value::Map(counters)),
            ("gauges".to_string(), Value::Map(gauges)),
            ("stages".to_string(), Value::Map(stages)),
            ("batch_hist".to_string(), Value::List(batch_hist)),
            ("versions".to_string(), Value::List(versions)),
            ("swap".to_string(), swap),
            ("health".to_string(), health),
            ("trace".to_string(), trace),
        ])
    }

    /// Prometheus-style text exposition of the same data.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for &(name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE spikefolio_serve_{name}_total counter");
            let _ = writeln!(out, "spikefolio_serve_{name}_total {v}");
        }
        let gauges: [(&str, f64); 6] = [
            ("queue_depth", self.queue_depth as f64),
            ("queue_depth_peak", self.queue_depth_peak as f64),
            ("max_batch", self.max_batch as f64),
            ("uptime_seconds", self.uptime_s),
            ("degraded", if self.health.degraded { 1.0 } else { 0.0 }),
            ("drift_score", self.health.drift_score),
        ];
        for (name, v) in gauges {
            let _ = writeln!(out, "# TYPE spikefolio_serve_{name} gauge");
            let _ = writeln!(out, "spikefolio_serve_{name} {v}");
        }
        // Swap counters come from the model store rather than the
        // registry; `swap_rejected` (gate said no) is deliberately a
        // different series from `swap_failures` (reload IO/validation
        // broke mid-swap).
        let swap_counters: [(&str, u64); 2] =
            [("swaps", self.swap.swaps), ("swap_failures", self.swap.failures)];
        for (name, v) in swap_counters {
            let _ = writeln!(out, "# TYPE spikefolio_serve_{name}_total counter");
            let _ = writeln!(out, "spikefolio_serve_{name}_total {v}");
        }
        // Gate rejections are labeled by the gate stage that said no, so
        // a dashboard can tell an integrity rot from a reward regression
        // without scraping logs.
        let _ = writeln!(out, "# TYPE spikefolio_serve_swap_rejected_total counter");
        if self.swap.rejected_by_kind.is_empty() {
            let _ = writeln!(out, "spikefolio_serve_swap_rejected_total {}", self.swap.rejected);
        } else {
            for (kind, n) in &self.swap.rejected_by_kind {
                let _ = writeln!(
                    out,
                    "spikefolio_serve_swap_rejected_total{{reason=\"{}\"}} {n}",
                    escape_label_value(kind)
                );
            }
        }
        let _ = writeln!(out, "# TYPE spikefolio_serve_model_version gauge");
        let _ = writeln!(out, "spikefolio_serve_model_version {}", self.model_version);
        let _ = writeln!(out, "# TYPE spikefolio_serve_stage_latency_seconds histogram");
        for (stage, h) in &self.stages {
            let name = stage.name();
            let mut cum = 0u64;
            for &(upper_ns, n) in &h.buckets {
                cum += n;
                let _ = writeln!(
                    out,
                    "spikefolio_serve_stage_latency_seconds_bucket{{stage=\"{name}\",le=\"{}\"}} {cum}",
                    upper_ns as f64 / 1e9
                );
            }
            let _ = writeln!(
                out,
                "spikefolio_serve_stage_latency_seconds_bucket{{stage=\"{name}\",le=\"+Inf\"}} {}",
                h.count
            );
            let _ = writeln!(
                out,
                "spikefolio_serve_stage_latency_seconds_sum{{stage=\"{name}\"}} {}",
                h.mean_us * h.count as f64 / 1e6
            );
            let _ = writeln!(
                out,
                "spikefolio_serve_stage_latency_seconds_count{{stage=\"{name}\"}} {}",
                h.count
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_contain_values() {
        let mut values: Vec<u64> = Vec::new();
        for shift in 0u32..64 {
            for off in [0u64, 1, 3] {
                values.push((1u64 << shift).saturating_add(off << shift.saturating_sub(2)));
            }
        }
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index not monotone at {v}");
            prev = idx;
            let (lo, hi) = bucket_bounds_ns(idx);
            assert!(lo <= v && v <= hi, "value {v} outside bucket [{lo}, {hi}]");
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for v in [8u64, 100, 1_000, 12_345, 1_000_000, 987_654_321, u64::MAX / 3] {
            let (lo, hi) = bucket_bounds_ns(bucket_index(v));
            let width = (hi - lo) as f64;
            assert!(width / lo as f64 <= 0.125 + 1e-12, "bucket too wide at {v}");
        }
    }

    #[test]
    fn exact_values_below_eight() {
        for v in 0..8u64 {
            assert_eq!(bucket_bounds_ns(bucket_index(v)), (v, v));
        }
    }

    #[test]
    fn histogram_counts_and_percentiles() {
        let h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.observe(Duration::from_micros(us));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.max_us, 1000.0);
        // Quantiles land within one bucket width (12.5%) of the truth.
        assert!((snap.p50_us - 500.0).abs() / 500.0 <= 0.125 + 1e-9, "p50 {}", snap.p50_us);
        assert!((snap.p99_us - 990.0).abs() / 990.0 <= 0.125 + 1e-9, "p99 {}", snap.p99_us);
        assert!(snap.p50_us <= snap.p95_us);
        assert!(snap.p95_us <= snap.p99_us);
        assert!(snap.p99_us <= snap.p999_us);
        assert!(snap.p999_us <= snap.max_us + 1e-9);
        assert!((snap.mean_us - 500.5).abs() < 1.0);
    }

    #[test]
    fn merge_is_exact() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let both = LatencyHistogram::new();
        for i in 0..500u64 {
            let v = i * i * 37 + 5;
            a.observe_ns(v);
            both.observe_ns(v);
        }
        for i in 0..300u64 {
            let v = i * 1_000_003 + 12;
            b.observe_ns(v);
            both.observe_ns(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), both.snapshot());
    }

    #[test]
    fn percentile_of_single_observation_is_exact() {
        let h = LatencyHistogram::new();
        h.observe(Duration::from_micros(123));
        let snap = h.snapshot();
        // The bucket bound overshoots but the exact max caps every quantile.
        assert_eq!(snap.p50_us, 123.0);
        assert_eq!(snap.p999_us, 123.0);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p99_us, 0.0);
        assert_eq!(snap.max_us, 0.0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn weight_entropy_matches_uniform() {
        let e = weight_entropy(&[0.25; 4]);
        assert!((e - (4.0f64).ln()).abs() < 1e-12);
        assert_eq!(weight_entropy(&[1.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn corr_ids_are_monotonic_from_one() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.mint_corr(), 1);
        assert_eq!(reg.mint_corr(), 2);
        assert_eq!(reg.mint_corr(), 3);
    }

    #[test]
    fn health_trips_on_latency_burn() {
        let m = HealthMonitor::default();
        let cfg = HealthConfig::default();
        // 10% of requests over SLO against a 5% budget.
        let r = m.evaluate(&cfg, 100, 10, 100, 0);
        assert!(r.degraded);
        assert!(r.reasons.contains(&"latency_burn"));
        assert!(r.burn_rate > 1.0);
        assert!(m.is_degraded());
        // Back under budget: the flag clears.
        let r = m.evaluate(&cfg, 1000, 10, 1000, 0);
        assert!(!r.degraded);
        assert!(!m.is_degraded());
    }

    #[test]
    fn health_trips_on_shed_rate() {
        let m = HealthMonitor::default();
        let r = m.evaluate(&HealthConfig::default(), 80, 0, 100, 20);
        assert!(r.degraded);
        assert!(r.reasons.contains(&"shed_rate"));
        assert!((r.shed_rate - 0.2).abs() < 1e-12);
    }

    #[test]
    fn health_trips_on_entropy_drift() {
        let m = HealthMonitor::default();
        let cfg = HealthConfig::default();
        m.set_baseline(HealthBaseline { version: 1, entropy: 1.0, firing_rates: None });
        for _ in 0..200 {
            m.observe_entropy(2.0);
        }
        let r = m.evaluate(&cfg, 10, 0, 10, 0);
        assert!(r.degraded, "entropy 1.0 -> 2.0 must trip drift: {r:?}");
        assert!(r.reasons.contains(&"drift"));
        assert!(r.drift_score > cfg.drift_threshold);
        // A fresh baseline resets the live EWMA and clears the flag.
        m.set_baseline(HealthBaseline { version: 2, entropy: 2.0, firing_rates: None });
        let r = m.evaluate(&cfg, 10, 0, 10, 0);
        assert!(!r.degraded, "rebaseline must clear drift: {r:?}");
    }

    #[test]
    fn health_trips_on_firing_rate_drift() {
        let m = HealthMonitor::default();
        let cfg = HealthConfig::default();
        m.set_baseline(HealthBaseline {
            version: 1,
            entropy: 1.0,
            firing_rates: Some(vec![0.2, 0.1]),
        });
        for _ in 0..200 {
            m.observe_entropy(1.0);
            m.observe_rates(&[0.4, 0.1]);
        }
        let r = m.evaluate(&cfg, 10, 0, 10, 0);
        assert!(r.rate_drift > 0.4, "layer 0 doubled: {r:?}");
        assert!(r.degraded);
    }

    #[test]
    fn probe_baseline_is_deterministic() {
        struct Fixed;
        impl InferenceBackend for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn state_dim(&self) -> usize {
                3
            }
            fn action_dim(&self) -> usize {
                2
            }
            fn infer_batch(&self, states: &[f64], _seeds: &[u64]) -> Vec<Vec<f64>> {
                states.chunks(3).map(|c| vec![c[0] / (c[0] + c[1]), c[1] / (c[0] + c[1])]).collect()
            }
        }
        let cfg = HealthConfig::default();
        let a = probe_baseline(&Fixed, &cfg, 1);
        let b = probe_baseline(&Fixed, &cfg, 1);
        assert_eq!(a, b);
        assert!(a.entropy > 0.0 && a.entropy < (2.0f64).ln() + 1e-9);
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.requests.fetch_add(3, Ordering::Relaxed);
        reg.served.fetch_add(3, Ordering::Relaxed);
        for s in Stage::ALL {
            reg.observe_stage(s, Duration::from_micros(250));
        }
        let vm = reg.version_metrics(1, "echo");
        vm.served.fetch_add(3, Ordering::Relaxed);
        vm.infer.observe(Duration::from_micros(200));
        reg.snapshot(
            &HealthConfig::default(),
            "echo".to_string(),
            1,
            SwapStatus {
                swaps: 1,
                failures: 1,
                last_good_version: 1,
                last_error_kind: Some("load_failed".to_string()),
                last_error: Some("boom".to_string()),
                rejected: 2,
                last_rejection_kind: Some("drift".to_string()),
                last_rejection: Some("entropy drift 0.4 over bound 0.25".to_string()),
                rejected_by_kind: vec![("drift".to_string(), 1), ("validation".to_string(), 1)],
            },
            Some(64),
        )
    }

    #[test]
    fn snapshot_value_has_schema_shape() {
        let v = sample_snapshot().to_value();
        let stages = v.get("stages").expect("stages");
        for s in Stage::ALL {
            let h = stages.get(s.name()).unwrap_or_else(|| panic!("stage {}", s.name()));
            assert_eq!(h.get("count").and_then(Value::as_u64), Some(1));
        }
        assert_eq!(
            v.get("swap").and_then(|s| s.get("last_error_kind")).and_then(Value::as_str),
            Some("load_failed")
        );
        assert_eq!(v.get("swap").and_then(|s| s.get("rejected")).and_then(Value::as_u64), Some(2));
        assert_eq!(
            v.get("swap").and_then(|s| s.get("last_rejection_kind")).and_then(Value::as_str),
            Some("drift")
        );
        let by_kind = v.get("swap").and_then(|s| s.get("rejected_by_kind")).expect("by-kind map");
        assert_eq!(by_kind.get("drift").and_then(Value::as_u64), Some(1));
        assert_eq!(by_kind.get("validation").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v.get("trace").and_then(|t| t.get("sample_every")).and_then(Value::as_u64),
            Some(64)
        );
        assert!(v.get("health").and_then(|h| h.get("degraded")).is_some());
        // The whole document must survive a JSON round trip (NDJSON line).
        let line = v.to_json();
        let parsed = spikefolio_telemetry::value::parse(&line).expect("snapshot JSON reparses");
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("requests")).and_then(Value::as_u64),
            Some(3)
        );
    }

    #[test]
    fn label_values_escape_prometheus_metacharacters() {
        assert_eq!(escape_label_value("drift"), "drift");
        assert_eq!(escape_label_value(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        // A hostile kind renders as one well-formed sample line.
        let mut snap = sample_snapshot();
        snap.swap.rejected_by_kind = vec![("bad\"kind\n".to_string(), 3)];
        let text = snap.render_prometheus();
        assert!(
            text.contains("spikefolio_serve_swap_rejected_total{reason=\"bad\\\"kind\\n\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let text = sample_snapshot().render_prometheus();
        assert!(text.contains("spikefolio_serve_requests_total 3"));
        assert!(text.contains("# TYPE spikefolio_serve_stage_latency_seconds histogram"));
        assert!(
            text.contains("stage=\"queue_wait\",le=\"+Inf\"}} 1") || {
                // `write!` escapes nothing; the literal line uses single braces.
                text.contains("stage=\"queue_wait\",le=\"+Inf\"} 1")
            }
        );
        assert!(text.contains("spikefolio_serve_degraded 0"));
        assert!(text.contains("spikefolio_serve_swap_rejected_total{reason=\"drift\"} 1"));
        assert!(text.contains("spikefolio_serve_swap_rejected_total{reason=\"validation\"} 1"));
        assert!(text.contains("spikefolio_serve_swaps_total 1"));
        // Cumulative bucket counts must be monotone per stage.
        let mut last = 0u64;
        for line in text.lines() {
            if line.starts_with("spikefolio_serve_stage_latency_seconds_bucket{stage=\"accept\"") {
                let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(n >= last);
                last = n;
            }
        }
        assert_eq!(last, 1);
    }
}
