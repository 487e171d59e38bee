//! Run telemetry for `spikefolio`: structured training/inference
//! instrumentation with append-only JSONL run logs.
//!
//! The crate is deliberately small and dependency-free. Three primitives
//! cover everything the trainer, backtester, and Loihi deployment path
//! need to observe:
//!
//! * **counters** — monotonic event totals (`loihi/synops`, …),
//! * **gauges** — point-in-time values (`train/queue/occupancy`, …),
//! * **spans** — wall-clock durations under hierarchical labels
//!   (`train/epoch/forward_batch`, `backtest/step`, `encode`, …).
//!
//! All three flow through the [`Recorder`] trait. Instrumented code takes
//! `&mut dyn Recorder`; the default [`NoopRecorder`] reports
//! `enabled() == false` so call sites can skip any observation work, and
//! its methods compile to nothing.
//!
//! **Observe-only contract.** Recorders never feed back into computation:
//! attaching one must leave every trained parameter and reward bitwise
//! identical. Nothing in this crate draws randomness or mutates its
//! inputs; integration points gate extra *measurement* (never behaviour)
//! on [`Recorder::enabled`].
//!
//! # Run logs
//!
//! [`JsonlSink`] streams one self-describing JSON record per observation
//! unit (training epoch, backtest step, deployment) to an append-only
//! file. Counters, gauges, and spans observed since the previous record
//! are attached to the next one, so the log is a complete, ordered account
//! of the run. See [`sink`] for the schema.
//!
//! # Example
//!
//! ```
//! use spikefolio_telemetry::{MemoryRecorder, Record, Recorder, Stopwatch};
//!
//! let mut rec = MemoryRecorder::new();
//! let sw = Stopwatch::start(&rec);
//! rec.counter("loihi/synops", 1500);
//! rec.gauge("train/queue/occupancy", 2.0);
//! sw.stop(&mut rec, "train/epoch/forward_batch");
//! rec.emit(Record::new("epoch").field("reward", 0.25).field("epoch", 0u64));
//! assert_eq!(rec.counter_total("loihi/synops"), 1500);
//! assert_eq!(rec.records().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod labels;
pub mod record;
pub mod sink;
pub mod summary;
pub mod value;

pub use record::Record;
pub use sink::{JsonlSink, MemoryRecorder, TapeRecorder};
pub use summary::{summarize_file, summarize_lines, RunSummary};
pub use value::Value;

use std::time::Instant;

/// The observation interface threaded through training, backtesting, and
/// deployment.
///
/// All methods have no-op defaults so simple recorders only override what
/// they store. Implementations must be **observe-only**: recording must
/// not change any computed result (see the crate docs).
pub trait Recorder {
    /// Whether observations are stored at all. Call sites use this to skip
    /// work that exists purely to be recorded (norm computations, clones).
    /// The [`NoopRecorder`] returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to the monotonic counter `label`.
    fn counter(&mut self, label: &str, delta: u64) {
        let _ = (label, delta);
    }

    /// Observes the current value of gauge `label`.
    fn gauge(&mut self, label: &str, value: f64) {
        let _ = (label, value);
    }

    /// Records one completed wall-clock span of `seconds` under `label`.
    fn span(&mut self, label: &str, seconds: f64) {
        let _ = (label, seconds);
    }

    /// Emits one structured record (an epoch, a backtest step, …).
    fn emit(&mut self, record: Record) {
        let _ = record;
    }
}

/// The zero-cost default recorder: stores nothing, reports
/// [`enabled()`](Recorder::enabled) as `false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// A scoped wall-clock timer that only reads the clock when the recorder
/// is enabled.
///
/// Start one before a phase, [`stop`](Stopwatch::stop) it after; with a
/// [`NoopRecorder`] both ends are free (no `Instant::now` call).
#[derive(Debug)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Starts timing if `rec` is enabled; otherwise returns an inert
    /// stopwatch.
    pub fn start(rec: &(impl Recorder + ?Sized)) -> Self {
        Self { start: rec.enabled().then(Instant::now) }
    }

    /// Elapsed seconds so far (0.0 when inert).
    pub fn elapsed_s(&self) -> f64 {
        self.start.map_or(0.0, |s| s.elapsed().as_secs_f64())
    }

    /// Stops the watch and records the span under `label`; returns the
    /// elapsed seconds.
    pub fn stop(self, rec: &mut (impl Recorder + ?Sized), label: &str) -> f64 {
        match self.start {
            Some(s) => {
                let dt = s.elapsed().as_secs_f64();
                rec.span(label, dt);
                dt
            }
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_inert() {
        let mut rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.counter("a", 1);
        rec.gauge("b", 2.0);
        rec.span("c", 3.0);
        rec.emit(Record::new("kind"));
    }

    #[test]
    fn stopwatch_is_inert_with_noop() {
        let mut rec = NoopRecorder;
        let sw = Stopwatch::start(&rec);
        assert_eq!(sw.elapsed_s(), 0.0);
        assert_eq!(sw.stop(&mut rec, "x"), 0.0);
    }

    #[test]
    fn stopwatch_measures_with_enabled_recorder() {
        let mut rec = MemoryRecorder::new();
        let sw = Stopwatch::start(&rec);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let dt = sw.stop(&mut rec, "phase");
        assert!(dt > 0.0);
        let (total, count) = rec.span_total("phase");
        assert_eq!(count, 1);
        assert!((total - dt).abs() < 1e-12);
    }

    #[test]
    fn stopwatch_elapsed_is_monotonic_and_non_negative() {
        let rec = MemoryRecorder::new();
        let sw = Stopwatch::start(&rec);
        let mut prev = 0.0;
        for _ in 0..50 {
            let now = sw.elapsed_s();
            assert!(now >= 0.0);
            assert!(now >= prev, "elapsed_s went backwards: {now} < {prev}");
            prev = now;
        }
    }

    #[test]
    fn stop_emits_exactly_one_span_under_the_given_label() {
        let mut rec = MemoryRecorder::new();
        let sw = Stopwatch::start(&rec);
        let dt = sw.stop(&mut rec, "train/epoch/forward_batch");
        assert!(dt >= 0.0);
        let spanned: Vec<&str> = ["train/epoch/forward_batch", "train/epoch", "train"]
            .into_iter()
            .filter(|l| rec.span_total(l).1 > 0)
            .collect();
        assert_eq!(spanned, ["train/epoch/forward_batch"], "span under exactly one label");
        assert_eq!(rec.span_total("train/epoch/forward_batch").1, 1);
        // Nothing but the span was observed.
        assert!(rec.records().is_empty());
    }

    #[test]
    fn inert_stopwatch_records_nothing_even_into_an_enabled_recorder() {
        // Started against a disabled recorder, the watch stays inert no
        // matter which recorder it is stopped into.
        let noop = NoopRecorder;
        let sw = Stopwatch::start(&noop);
        let mut mem = MemoryRecorder::new();
        assert_eq!(sw.stop(&mut mem, "phase"), 0.0);
        assert_eq!(mem.span_total("phase"), (0.0, 0));
        assert!(mem.records().is_empty());
    }
}
