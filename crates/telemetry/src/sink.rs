//! Recorders that store observations: the JSONL file sink, an in-memory
//! recorder for tests and programmatic inspection, and an in-order tape
//! that replays into either.

use crate::record::Record;
use crate::value::Value;
use crate::Recorder;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Schema identifier stamped on every run-log line.
///
/// Bump the trailing version when a field changes meaning; adding fields
/// is backward compatible (readers must ignore unknown keys).
pub const SCHEMA: &str = "spikefolio.run.v1";

/// Shared counter/gauge/span aggregation between emitted records.
#[derive(Debug, Default, Clone)]
struct MetricWindow {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    /// label → (total seconds, span count) since the last emit.
    spans: BTreeMap<String, (f64, u64)>,
}

impl MetricWindow {
    fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.spans.is_empty()
    }

    fn take(&mut self) -> MetricWindow {
        std::mem::take(self)
    }

    /// Attaches the window's metrics to `fields` as `counters` / `gauges`
    /// / `spans` objects (omitted when empty).
    fn attach(self, fields: &mut Vec<(String, Value)>) {
        if !self.counters.is_empty() {
            fields.push((
                "counters".into(),
                Value::Map(self.counters.into_iter().map(|(k, v)| (k, Value::U64(v))).collect()),
            ));
        }
        if !self.gauges.is_empty() {
            fields.push((
                "gauges".into(),
                Value::Map(self.gauges.into_iter().map(|(k, v)| (k, Value::F64(v))).collect()),
            ));
        }
        if !self.spans.is_empty() {
            fields.push((
                "spans".into(),
                Value::Map(
                    self.spans
                        .into_iter()
                        .map(|(k, (s, n))| {
                            (
                                k,
                                Value::Map(vec![
                                    ("s".into(), Value::F64(s)),
                                    ("n".into(), Value::U64(n)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ));
        }
    }
}

/// Streams one self-describing JSON record per emit to an append-only
/// JSONL file.
///
/// # Schema
///
/// Every line is one JSON object:
///
/// ```json
/// {"schema":"spikefolio.run.v1","seq":3,"kind":"epoch",
///  "epoch":3,"reward":0.12,...,
///  "counters":{"loihi/synops":1500},
///  "gauges":{"train/queue/occupancy":2},
///  "spans":{"train/epoch/forward_batch":{"s":0.8,"n":8}}}
/// ```
///
/// * `schema` — [`SCHEMA`], stamped on every line so concatenated logs
///   stay self-describing;
/// * `seq` — 0-based record index within this sink;
/// * `kind` — the record kind (`"epoch"`, `"backtest_step"`, …);
/// * the record's own fields, in emission order;
/// * `counters` / `gauges` / `spans` — everything observed since the
///   previous emit (counter deltas, last gauge values, span totals with
///   call counts), omitted when empty.
///
/// [`finish`](JsonlSink::finish) appends a final `run_end` record with
/// whole-run counter totals and flushes the file.
#[derive(Debug)]
pub struct JsonlSink<W: Write = BufWriter<File>> {
    out: W,
    seq: u64,
    window: MetricWindow,
    counter_totals: BTreeMap<String, u64>,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a run-log file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }

    /// Opens `path` for appending (the log format is append-only, so
    /// resumed runs may share one file).
    ///
    /// # Errors
    ///
    /// Propagates the file-open error.
    pub fn append(path: impl AsRef<Path>) -> io::Result<Self> {
        let f = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self::new(BufWriter::new(f)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps any writer (e.g. a `Vec<u8>` in tests).
    pub fn new(out: W) -> Self {
        Self {
            out,
            seq: 0,
            window: MetricWindow::default(),
            counter_totals: BTreeMap::new(),
            error: None,
        }
    }

    /// The first I/O error encountered, if any. Writes after an error are
    /// dropped; check this (or use [`finish`](Self::finish)) to surface
    /// failures.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.seq
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(line.as_bytes()).and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }

    /// Writes a final `run_end` record with whole-run counter totals,
    /// flushes, and returns the writer.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error of the sink's lifetime, if any.
    pub fn finish(mut self) -> io::Result<W> {
        let totals = std::mem::take(&mut self.counter_totals);
        let mut end = Record::new("run_end").field("records", self.seq);
        if !totals.is_empty() {
            end = end.field(
                "counter_totals",
                Value::Map(totals.into_iter().map(|(k, v)| (k, Value::U64(v))).collect()),
            );
        }
        self.emit(end);
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }
}

impl<W: Write> Recorder for JsonlSink<W> {
    fn counter(&mut self, label: &str, delta: u64) {
        *self.window.counters.entry(label.to_owned()).or_insert(0) += delta;
        *self.counter_totals.entry(label.to_owned()).or_insert(0) += delta;
    }

    fn gauge(&mut self, label: &str, value: f64) {
        self.window.gauges.insert(label.to_owned(), value);
    }

    fn span(&mut self, label: &str, seconds: f64) {
        let slot = self.window.spans.entry(label.to_owned()).or_insert((0.0, 0));
        slot.0 += seconds;
        slot.1 += 1;
    }

    fn emit(&mut self, record: Record) {
        let mut fields: Vec<(String, Value)> = Vec::with_capacity(record.fields().len() + 5);
        fields.push(("schema".into(), Value::Str(SCHEMA.into())));
        fields.push(("seq".into(), Value::U64(self.seq)));
        fields.push(("kind".into(), Value::Str(record.kind().to_owned())));
        let kind_owned = record.into_fields();
        fields.extend(kind_owned);
        if !self.window.is_empty() {
            self.window.take().attach(&mut fields);
        }
        let line = Value::Map(fields).to_json();
        self.write_line(&line);
        self.seq += 1;
    }
}

/// An in-memory recorder: keeps counter totals, last gauge values, span
/// totals, and every emitted record. Used by tests and by callers that
/// want programmatic access instead of a file.
#[derive(Debug, Default, Clone)]
pub struct MemoryRecorder {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, (f64, u64)>,
    records: Vec<Record>,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total of counter `label` (0 if never incremented).
    pub fn counter_total(&self, label: &str) -> u64 {
        self.counters.get(label).copied().unwrap_or(0)
    }

    /// Last observed value of gauge `label`.
    pub fn gauge_value(&self, label: &str) -> Option<f64> {
        self.gauges.get(label).copied()
    }

    /// `(total seconds, span count)` of span `label`.
    pub fn span_total(&self, label: &str) -> (f64, u64) {
        self.spans.get(label).copied().unwrap_or((0.0, 0))
    }

    /// All emitted records, in order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// All counter totals (label-sorted).
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All span `(total seconds, span count)` pairs (label-sorted).
    pub fn spans(&self) -> &BTreeMap<String, (f64, u64)> {
        &self.spans
    }
}

impl Recorder for MemoryRecorder {
    fn counter(&mut self, label: &str, delta: u64) {
        *self.counters.entry(label.to_owned()).or_insert(0) += delta;
    }

    fn gauge(&mut self, label: &str, value: f64) {
        self.gauges.insert(label.to_owned(), value);
    }

    fn span(&mut self, label: &str, seconds: f64) {
        let slot = self.spans.entry(label.to_owned()).or_insert((0.0, 0));
        slot.0 += seconds;
        slot.1 += 1;
    }

    fn emit(&mut self, record: Record) {
        self.records.push(record);
    }
}

/// One observation held on a [`TapeRecorder`].
#[derive(Debug, Clone, PartialEq)]
enum TapeEvent {
    Counter(String, u64),
    Gauge(String, f64),
    Span(String, f64),
    Emit(Record),
}

/// An in-order recorder for work that runs away from the caller's
/// recorder, e.g. on a worker thread: it keeps every observation in
/// arrival order and [`replay`](TapeRecorder::replay)s them into another
/// recorder later, so the target sees exactly the call sequence it would
/// have seen had the work recorded into it directly.
///
/// A tape is built [`mirroring`](TapeRecorder::mirroring) its eventual
/// target's [`enabled`](Recorder::enabled): a tape for a disabled target
/// is itself disabled and buffers nothing, so instrumented code skips its
/// measurement work exactly as it would with a
/// [`NoopRecorder`](crate::NoopRecorder).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TapeRecorder {
    enabled: bool,
    events: Vec<TapeEvent>,
}

impl TapeRecorder {
    /// An empty tape whose `enabled()` equals `target`'s.
    pub fn mirroring(target: &(impl Recorder + ?Sized)) -> Self {
        Self { enabled: target.enabled(), events: Vec::new() }
    }

    /// Plays every held observation into `rec`, in the order recorded.
    pub fn replay(self, rec: &mut (impl Recorder + ?Sized)) {
        for event in self.events {
            match event {
                TapeEvent::Counter(label, delta) => rec.counter(&label, delta),
                TapeEvent::Gauge(label, value) => rec.gauge(&label, value),
                TapeEvent::Span(label, seconds) => rec.span(&label, seconds),
                TapeEvent::Emit(record) => rec.emit(record),
            }
        }
    }

    /// Holds the event `make` builds, unless the tape is disabled (then
    /// nothing is built).
    fn push(&mut self, make: impl FnOnce() -> TapeEvent) {
        if self.enabled {
            self.events.push(make());
        }
    }
}

impl Recorder for TapeRecorder {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn counter(&mut self, label: &str, delta: u64) {
        self.push(|| TapeEvent::Counter(label.to_owned(), delta));
    }

    fn gauge(&mut self, label: &str, value: f64) {
        self.push(|| TapeEvent::Gauge(label.to_owned(), value));
    }

    fn span(&mut self, label: &str, seconds: f64) {
        self.push(|| TapeEvent::Span(label.to_owned(), seconds));
    }

    fn emit(&mut self, record: Record) {
        self.push(|| TapeEvent::Emit(record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::parse;

    fn lines(buf: &[u8]) -> Vec<Value> {
        std::str::from_utf8(buf)
            .unwrap()
            .lines()
            .map(|l| parse(l).expect("valid JSON line"))
            .collect()
    }

    #[test]
    fn sink_writes_schema_stamped_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(Record::new("epoch").field("epoch", 0u64).field("reward", 0.5));
        sink.emit(Record::new("epoch").field("epoch", 1u64).field("reward", 0.75));
        let buf = sink.finish().unwrap();
        let ls = lines(&buf);
        assert_eq!(ls.len(), 3); // two epochs + run_end
        for (i, l) in ls.iter().enumerate() {
            assert_eq!(l.get("schema").and_then(Value::as_str), Some(SCHEMA));
            assert_eq!(l.get("seq").and_then(Value::as_u64), Some(i as u64));
        }
        assert_eq!(ls[0].get("kind").and_then(Value::as_str), Some("epoch"));
        assert_eq!(ls[1].get("reward").and_then(Value::as_f64), Some(0.75));
        assert_eq!(ls[2].get("kind").and_then(Value::as_str), Some("run_end"));
        assert_eq!(ls[2].get("records").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn metrics_attach_to_the_next_record_and_reset() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.counter("loihi/synops", 100);
        sink.counter("loihi/synops", 50);
        sink.gauge("train/queue/occupancy", 2.0);
        sink.span("train/epoch/forward_batch", 0.25);
        sink.span("train/epoch/forward_batch", 0.25);
        sink.emit(Record::new("epoch").field("epoch", 0u64));
        sink.emit(Record::new("epoch").field("epoch", 1u64));
        let buf = sink.finish().unwrap();
        let ls = lines(&buf);
        let first = &ls[0];
        assert_eq!(
            first.get("counters").and_then(|c| c.get("loihi/synops")).and_then(Value::as_u64),
            Some(150)
        );
        let span = first.get("spans").and_then(|s| s.get("train/epoch/forward_batch")).unwrap();
        assert_eq!(span.get("s").and_then(Value::as_f64), Some(0.5));
        assert_eq!(span.get("n").and_then(Value::as_u64), Some(2));
        // The second record carries no metric window…
        assert_eq!(ls[1].get("counters"), None);
        // …but run totals survive to run_end.
        assert_eq!(
            ls[2].get("counter_totals").and_then(|c| c.get("loihi/synops")).and_then(Value::as_u64),
            Some(150)
        );
    }

    #[test]
    fn memory_recorder_aggregates() {
        let mut rec = MemoryRecorder::new();
        rec.counter("a", 2);
        rec.counter("a", 3);
        rec.gauge("g", 1.0);
        rec.gauge("g", 4.0);
        rec.span("s", 0.5);
        rec.emit(Record::new("k"));
        assert_eq!(rec.counter_total("a"), 5);
        assert_eq!(rec.gauge_value("g"), Some(4.0));
        assert_eq!(rec.span_total("s"), (0.5, 1));
        assert_eq!(rec.records().len(), 1);
        assert_eq!(rec.counter_total("missing"), 0);
    }

    /// A fixed, clock-free observation sequence with metrics on both
    /// sides of an emit.
    fn script(rec: &mut dyn Recorder) {
        rec.counter("loihi/synops", 100);
        rec.gauge("train/queue/occupancy", 2.0);
        rec.span("train/epoch/forward_batch", 0.25);
        rec.emit(Record::new("epoch").field("epoch", 0u64).field("reward", 0.5));
        rec.counter("loihi/synops", 50);
        rec.span("train/epoch/forward_batch", 0.125);
        rec.span("train/epoch", 0.5);
        rec.emit(Record::new("scenario_cell").field("strategy", "SDP"));
        rec.gauge("train/queue/occupancy", 3.0);
    }

    #[test]
    fn replayed_tape_writes_the_same_bytes_as_direct_recording() {
        let mut direct = JsonlSink::new(Vec::new());
        script(&mut direct);
        let direct = direct.finish().unwrap();

        let mut replayed = JsonlSink::new(Vec::new());
        let mut tape = TapeRecorder::mirroring(&replayed);
        assert!(tape.enabled());
        script(&mut tape);
        tape.replay(&mut replayed);
        let replayed = replayed.finish().unwrap();
        assert_eq!(std::str::from_utf8(&replayed).unwrap(), std::str::from_utf8(&direct).unwrap());
    }

    #[test]
    fn tape_mirroring_a_disabled_recorder_buffers_nothing() {
        let mut tape = TapeRecorder::mirroring(&crate::NoopRecorder);
        assert!(!tape.enabled());
        script(&mut tape);
        let mut mem = MemoryRecorder::new();
        tape.replay(&mut mem);
        assert!(mem.records().is_empty() && mem.counters().is_empty() && mem.spans().is_empty());
    }
}
