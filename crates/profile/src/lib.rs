//! Performance observatory for `spikefolio`: where wall-clock time and
//! synaptic work actually go inside encode → LIF forward → STBP backward
//! → update.
//!
//! Everything here builds on the [`spikefolio_telemetry::Recorder`]
//! observation substrate — the observatory adds *views* of a recorded
//! run, never new measurement hooks:
//!
//! * [`trace::ChromeTraceRecorder`] — a recorder that reconstructs every
//!   span into a `chrome://tracing` / Perfetto-loadable JSON timeline and
//!   keeps the usual aggregate totals for terminal rendering,
//! * [`trace::render_phase_tree`] — a hierarchical flame-style text
//!   summary of span totals grouped by their `/`-separated label paths,
//! * [`cost`] — the op-level cost model: dense multiply–accumulates an
//!   equivalent ANN would execute vs the spike-sparse synaptic operations
//!   the SNN actually performed, and the effective sparsity per layer,
//! * [`mod@bench`] — schema-versioned (`spikefolio.bench.v1`) performance
//!   baselines with a two-sided regression comparator; the `spikefolio
//!   bench run|compare` CLI and the `ci.sh` bench-smoke gate sit on top.
//!
//! The crate is deliberately dependency-light (telemetry only) so any
//! layer of the workspace can depend on it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod bench;
pub mod cost;
pub mod trace;

pub use bench::{compare, BenchBaseline, BenchEntry, CompareReport, CompareThresholds};
pub use cost::{CostReport, LayerCost};
pub use trace::{merge_chrome_traces, ChromeTraceRecorder};
