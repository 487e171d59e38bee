//! Batching policy-inference serving: the paper's end product is a frozen
//! SDP policy answering "given this price window and the previous weights,
//! what portfolio vector now?" — this crate turns such a policy into a
//! concurrent network service without leaving the standard library.
//!
//! The crate is deliberately generic: it knows nothing about checkpoints,
//! SNNs, or Loihi. A policy enters as a [`InferenceBackend`] trait object
//! (the core crate provides the float-SNN and Loihi-quantized
//! implementations), a checkpoint source enters as a [`ModelLoader`], and
//! everything above that — hot swap, micro-batching, admission control,
//! the wire protocol, load generation — lives here and is tested with
//! plain fake backends.
//!
//! Layering:
//!
//! * [`store`] — [`ModelStore`]: the current model behind an
//!   `RwLock<Arc<…>>` with validate-then-swap reloads and rollback on
//!   failure.
//! * [`service`] — [`Service`]: bounded admission queue, dynamic
//!   micro-batcher workers (`max_batch` / `max_wait_us`), deadlines,
//!   shedding, graceful drain, and the serving-boundary weight validation.
//! * [`protocol`] — the newline-delimited JSON request/response schema
//!   (`spikefolio.serve.v1`).
//! * [`server`] — the `std::net::TcpListener` front end.
//! * [`loadgen`] — closed- and open-loop load generation with latency
//!   percentiles, batch-size distribution, and a bitwise determinism
//!   check.
//!
//! Determinism: every request carries a seed, and the batched SNN kernels
//! are batch-composition invariant (PR 1), so served weights depend only
//! on `(model, state, seed)` — never on how concurrent requests happened
//! to be grouped into batches. With a single worker the full response
//! stream is bitwise reproducible.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod backend;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod service;
pub mod store;

pub use backend::InferenceBackend;
pub use loadgen::{run_loadgen, LatencySummary, LoadReport, LoadgenOptions, ServerStage};
pub use metrics::{
    HealthConfig, HealthReport, HistogramSnapshot, LatencyHistogram, MetricsRegistry,
    MetricsSnapshot, Stage, METRICS_SCHEMA,
};
pub use protocol::SERVE_SCHEMA;
pub use server::{Server, ServerHandle, ServerOptions, MAX_LINE_BYTES};
pub use service::{
    BatchPolicy, InferenceRequest, InferenceResponse, ServeError, Service, ServiceConfig,
    ShedReason, StatsSnapshot,
};
pub use store::{LoadedModel, ModelLoader, ModelStore, SwapStatus};

/// Locks a mutex, recovering the guard from a poisoned lock — serving
/// must keep answering even if some thread panicked mid-update.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
