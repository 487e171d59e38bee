//! Chrome-trace export and terminal phase summaries.
//!
//! [`ChromeTraceRecorder`] implements [`Recorder`] directly, so the
//! existing instrumentation (training phase stopwatches, batched-SNN
//! profile spans, Loihi deploy spans) feeds a timeline without any new
//! hooks. Spans arrive as *completed* durations — [`Stopwatch::stop`]
//! calls [`Recorder::span`] at the instant a phase ends — so each span is
//! reconstructed as a chrome-trace complete (`"ph":"X"`) event starting
//! `seconds` before the moment it was recorded. Nested phases (an epoch
//! enclosing its sample/forward/backward/apply sections) therefore nest
//! naturally on the timeline; at export time parents are additionally
//! snapped left to cover their label-hierarchy children, so a scheduling
//! hiccup between a parent's clock read and its record cannot break the
//! containment. Reconstruction is exact only for phases
//! timed on the recording thread; folded worker aggregates are rendered
//! as a single event ending at the fold point, which is why the
//! `spikefolio profile` workload runs single-worker.
//!
//! [`Stopwatch::stop`]: spikefolio_telemetry::Stopwatch::stop

use spikefolio_telemetry::value::Value;
use spikefolio_telemetry::{Record, Recorder};
use std::collections::BTreeMap;
use std::time::Instant;

/// One reconstructed timeline event.
#[derive(Debug, Clone, PartialEq)]
enum TraceEvent {
    /// A completed span on track `tid`: `[ts_us, ts_us + dur_us]`.
    Complete { name: String, ts_us: f64, dur_us: f64, tid: u64 },
    /// A cumulative counter sample.
    Counter { name: String, ts_us: f64, value: f64 },
    /// An instantaneous marker (one per emitted record).
    Marker { name: String, ts_us: f64 },
}

/// A [`Recorder`] that builds a `chrome://tracing` / Perfetto-loadable
/// timeline while keeping the usual aggregate totals (span, counter,
/// gauge, record) for terminal reports.
///
/// Observe-only like every recorder: it stores observations and never
/// feeds back into computation.
#[derive(Debug)]
pub struct ChromeTraceRecorder {
    origin: Instant,
    events: Vec<TraceEvent>,
    spans: BTreeMap<String, (f64, u64)>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    records: Vec<Record>,
}

impl Default for ChromeTraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTraceRecorder {
    /// Creates an empty recorder; the trace clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            events: Vec::new(),
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            records: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// `(total seconds, count)` of span `label`.
    pub fn span_total(&self, label: &str) -> (f64, u64) {
        self.spans.get(label).copied().unwrap_or((0.0, 0))
    }

    /// All span totals, label-sorted: label → (seconds, count).
    pub fn spans(&self) -> &BTreeMap<String, (f64, u64)> {
        &self.spans
    }

    /// Total of counter `label` (0 if never incremented).
    pub fn counter_total(&self, label: &str) -> u64 {
        self.counters.get(label).copied().unwrap_or(0)
    }

    /// Last observed value of gauge `label`.
    pub fn gauge_value(&self, label: &str) -> Option<f64> {
        self.gauges.get(label).copied()
    }

    /// Every emitted record, in order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Records a completed span on an explicit track. The default
    /// [`Recorder::span`] path keeps everything on `tid` 1; per-request
    /// serving traces give each sampled request its own `tid` (its
    /// correlation id) so its queue/batch/infer spans render as one lane
    /// in Perfetto instead of interleaving with other requests.
    pub fn span_on_track(&mut self, label: &str, seconds: f64, tid: u64) {
        let slot = self.spans.entry(label.to_owned()).or_insert((0.0, 0));
        slot.0 += seconds;
        slot.1 += 1;
        let dur_us = (seconds * 1e6).max(0.0);
        let ts_us = (self.now_us() - dur_us).max(0.0);
        self.events.push(TraceEvent::Complete { name: label.to_owned(), ts_us, dur_us, tid });
    }

    /// Completed spans are reconstructed from durations at record time,
    /// so a scheduling delay between a parent phase's clock read (in its
    /// stopwatch) and the recorder's shifts the parent's reconstructed
    /// interval right — past children that were recorded promptly. Span
    /// labels are hierarchical (`train/epoch/sample` nests under
    /// `train/epoch`), which pins the intended containment, so snap each
    /// parent's left edge to cover the child-labelled events recorded
    /// since that label's previous instance. The right edge needs no fix:
    /// children stop (and record) before their parent does. Children are
    /// processed before their parents (record order), so snapping is
    /// transitive through deeper nesting.
    fn nested_events(&self) -> Vec<TraceEvent> {
        let mut events = self.events.clone();
        let mut prev_index: BTreeMap<String, usize> = BTreeMap::new();
        for i in 0..events.len() {
            let TraceEvent::Complete { name, ts_us, dur_us, .. } = &events[i] else { continue };
            let (name, end_us) = (name.clone(), ts_us + dur_us);
            let prefix = format!("{name}/");
            let scan_from = prev_index.get(&name).map_or(0, |&j| j + 1);
            let mut min_ts = *ts_us;
            for ev in &events[scan_from..i] {
                if let TraceEvent::Complete { name: child, ts_us: child_ts, .. } = ev {
                    if child.starts_with(&prefix) {
                        min_ts = min_ts.min(*child_ts);
                    }
                }
            }
            if let TraceEvent::Complete { ts_us, dur_us, .. } = &mut events[i] {
                *ts_us = min_ts;
                *dur_us = end_us - min_ts;
            }
            prev_index.insert(name, i);
        }
        events
    }

    /// Serializes the timeline to chrome-trace JSON (the object form with
    /// a `traceEvents` array, loadable by `chrome://tracing` and
    /// Perfetto). Span events carry `ph: "X"`, counters `ph: "C"`, record
    /// markers `ph: "i"`; everything lives on one `pid/tid` track so
    /// containment renders as nesting.
    pub fn to_chrome_json(&self) -> String {
        let nested = self.nested_events();
        let mut events = Vec::with_capacity(nested.len());
        for ev in &nested {
            let mut fields: Vec<(String, Value)> = Vec::with_capacity(8);
            let (name, ph, ts) = match ev {
                TraceEvent::Complete { name, ts_us, .. } => (name, "X", *ts_us),
                TraceEvent::Counter { name, ts_us, .. } => (name, "C", *ts_us),
                TraceEvent::Marker { name, ts_us } => (name, "i", *ts_us),
            };
            fields.push(("name".into(), Value::Str(name.clone())));
            fields.push(("ph".into(), Value::Str(ph.into())));
            fields.push(("ts".into(), Value::F64(ts)));
            fields.push(("pid".into(), Value::U64(1)));
            let tid = match ev {
                TraceEvent::Complete { tid, .. } => *tid,
                _ => 1,
            };
            fields.push(("tid".into(), Value::U64(tid)));
            match ev {
                TraceEvent::Complete { dur_us, .. } => {
                    fields.push(("dur".into(), Value::F64(*dur_us)));
                }
                TraceEvent::Counter { value, .. } => {
                    fields.push((
                        "args".into(),
                        Value::Map(vec![("value".into(), Value::F64(*value))]),
                    ));
                }
                TraceEvent::Marker { .. } => {
                    fields.push(("s".into(), Value::Str("t".into())));
                }
            }
            events.push(Value::Map(fields));
        }
        Value::Map(vec![
            ("traceEvents".into(), Value::List(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
        .to_json()
    }
}

impl Recorder for ChromeTraceRecorder {
    fn counter(&mut self, label: &str, delta: u64) {
        let total = self.counters.entry(label.to_owned()).or_insert(0);
        *total += delta;
        let value = *total as f64;
        let ts_us = self.now_us();
        self.events.push(TraceEvent::Counter { name: label.to_owned(), ts_us, value });
    }

    fn gauge(&mut self, label: &str, value: f64) {
        self.gauges.insert(label.to_owned(), value);
        let ts_us = self.now_us();
        self.events.push(TraceEvent::Counter { name: label.to_owned(), ts_us, value });
    }

    fn span(&mut self, label: &str, seconds: f64) {
        // The span just ended: reconstruct its start from its duration.
        self.span_on_track(label, seconds, 1);
    }

    fn emit(&mut self, record: Record) {
        let ts_us = self.now_us();
        self.events.push(TraceEvent::Marker { name: record.kind().to_owned(), ts_us });
        self.records.push(record);
    }
}

/// Merges several chrome-trace JSON documents into one Perfetto-loadable
/// timeline, one process track per input.
///
/// Each entry is `(label, json)`: the label names the merged track (a
/// `process_name` metadata event), and every event from that document is
/// re-homed to a distinct `pid` so e.g. a live-desk trace and a serving
/// trace render side by side instead of colliding on `pid 1`. Timestamps
/// are preserved verbatim — tracks align exactly when the traces share a
/// clock origin (recorded in one process), and remain individually
/// correct otherwise.
///
/// # Errors
///
/// A readable message naming the offending input when a document is not
/// valid JSON, lacks a `traceEvents` array, or holds a non-object event.
pub fn merge_chrome_traces(docs: &[(String, String)]) -> Result<String, String> {
    let mut merged: Vec<Value> = Vec::new();
    for (i, (label, json)) in docs.iter().enumerate() {
        let pid = (i + 1) as u64;
        let doc = spikefolio_telemetry::value::parse(json)
            .map_err(|e| format!("{label}: not valid trace JSON: {e}"))?;
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_list)
            .ok_or_else(|| format!("{label}: missing traceEvents array"))?;
        merged.push(Value::Map(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::U64(pid)),
            ("tid".into(), Value::U64(0)),
            ("args".into(), Value::Map(vec![("name".into(), Value::Str(label.clone()))])),
        ]));
        for ev in events {
            let Value::Map(fields) = ev else {
                return Err(format!("{label}: traceEvents entry is not an object"));
            };
            let mut fields = fields.clone();
            match fields.iter_mut().find(|(k, _)| k == "pid") {
                Some((_, v)) => *v = Value::U64(pid),
                None => fields.push(("pid".into(), Value::U64(pid))),
            }
            merged.push(Value::Map(fields));
        }
    }
    Ok(Value::Map(vec![
        ("traceEvents".into(), Value::List(merged)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ])
    .to_json())
}

/// Renders span totals as an indented phase tree: labels are grouped by
/// their `/`-separated path segments, children sorted by total seconds
/// descending. Labels with recorded time show `total(s)  count  mean(ms)`;
/// purely structural path prefixes show only their subtree.
pub fn render_phase_tree(spans: &BTreeMap<String, (f64, u64)>) -> String {
    #[derive(Default)]
    struct Node {
        total: Option<(f64, u64)>,
        children: BTreeMap<String, Node>,
    }

    let mut root = Node::default();
    for (label, &(s, n)) in spans {
        let mut node = &mut root;
        for seg in label.split('/') {
            node = node.children.entry(seg.to_owned()).or_default();
        }
        node.total = Some((s, n));
    }

    // Sort key: a node's own time, or its subtree's time when structural.
    fn subtree_seconds(node: &Node) -> f64 {
        node.total.map_or(0.0, |(s, _)| s)
            + node.children.values().map(subtree_seconds).sum::<f64>()
    }

    fn push_node(out: &mut String, name: &str, node: &Node, depth: usize) {
        let indent = "  ".repeat(depth);
        match node.total {
            Some((s, n)) => {
                let mean_ms = if n > 0 { s * 1e3 / n as f64 } else { 0.0 };
                let label = format!("{indent}{name}");
                out.push_str(&format!("{label:<32} {s:>11.4}  {n:>8}  {mean_ms:>10.3}\n"));
            }
            None => {
                let label = format!("{indent}{name}/");
                out.push_str(&format!("{label:<32}\n"));
            }
        }
        let mut kids: Vec<_> = node.children.iter().collect();
        kids.sort_by(|a, b| subtree_seconds(b.1).total_cmp(&subtree_seconds(a.1)));
        for (kname, kid) in kids {
            push_node(out, kname, kid, depth + 1);
        }
    }

    let mut out = String::new();
    if spans.is_empty() {
        out.push_str("(no spans recorded)\n");
        return out;
    }
    out.push_str(&format!(
        "{:<32} {:>11}  {:>8}  {:>10}\n",
        "phase", "total(s)", "count", "mean(ms)"
    ));
    let mut tops: Vec<_> = root.children.iter().collect();
    tops.sort_by(|a, b| subtree_seconds(b.1).total_cmp(&subtree_seconds(a.1)));
    for (name, node) in tops {
        push_node(&mut out, name, node, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use spikefolio_telemetry::value::parse;
    use spikefolio_telemetry::Stopwatch;

    #[test]
    fn merge_rehomes_each_trace_to_its_own_process_track() {
        let mut desk = ChromeTraceRecorder::new();
        desk.span("desk/round/000", 1e-3);
        let mut serve = ChromeTraceRecorder::new();
        serve.span("serve/request", 5e-4);
        let merged = merge_chrome_traces(&[
            ("desk".to_owned(), desk.to_chrome_json()),
            ("serve".to_owned(), serve.to_chrome_json()),
        ])
        .unwrap();
        let v = parse(&merged).expect("merged trace is valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_list).unwrap();
        // 2 process_name metadata events + 1 span each.
        assert_eq!(events.len(), 4);
        let pid_of = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .and_then(|e| e.get("pid").and_then(Value::as_u64))
                .expect(name)
        };
        assert_eq!(pid_of("desk/round/000"), 1);
        assert_eq!(pid_of("serve/request"), 2);
        let labels: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str))
            .collect();
        assert_eq!(labels, vec!["desk", "serve"]);
    }

    #[test]
    fn merge_rejects_documents_without_trace_events() {
        let err = merge_chrome_traces(&[("bad".to_owned(), "{}".to_owned())]).unwrap_err();
        assert!(err.contains("bad"), "{err}");
        assert!(err.contains("traceEvents"), "{err}");
        let err = merge_chrome_traces(&[("junk".to_owned(), "not json".to_owned())]).unwrap_err();
        assert!(err.contains("junk"), "{err}");
    }

    #[test]
    fn spans_become_nested_complete_events() {
        let mut rec = ChromeTraceRecorder::new();
        let outer = Stopwatch::start(&rec);
        let inner = Stopwatch::start(&rec);
        std::thread::sleep(std::time::Duration::from_millis(2));
        inner.stop(&mut rec, "epoch/forward");
        outer.stop(&mut rec, "epoch");
        let v = parse(&rec.to_chrome_json()).expect("trace is valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_list).unwrap();
        assert_eq!(events.len(), 2);
        let find = |name: &str| {
            events.iter().find(|e| e.get("name").and_then(Value::as_str) == Some(name)).expect(name)
        };
        let inner = find("epoch/forward");
        let outer = find("epoch");
        let span = |e: &Value| {
            let ts = e.get("ts").and_then(Value::as_f64).unwrap();
            let dur = e.get("dur").and_then(Value::as_f64).unwrap();
            (ts, ts + dur)
        };
        let (i0, i1) = span(inner);
        let (o0, o1) = span(outer);
        assert!(o0 <= i0 && i1 <= o1, "inner [{i0},{i1}] not inside outer [{o0},{o1}]");
        assert_eq!(outer.get("ph").and_then(Value::as_str), Some("X"));
    }

    #[test]
    fn parent_spans_snap_left_to_cover_hierarchy_children() {
        let mut rec = ChromeTraceRecorder::new();
        // Simulate a delayed parent record: the child is recorded with its
        // true duration, then the parent arrives with a duration SHORTER
        // than the gap back to the child's start (as if the recording
        // thread was preempted between stopping the parent's stopwatch and
        // the recorder's own clock read).
        std::thread::sleep(std::time::Duration::from_millis(3));
        rec.span("train/epoch/sample", 2e-3);
        // The parent's reconstructed interval misses the child entirely.
        rec.span("train/epoch", 1e-3);
        // Second epoch: its child window starts after the first epoch.
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.span("train/epoch/sample", 1e-3);
        rec.span("train/epoch", 2e-3);

        let v = parse(&rec.to_chrome_json()).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_list).unwrap();
        let spans = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .map(|e| {
                    let ts = e.get("ts").and_then(Value::as_f64).unwrap();
                    let dur = e.get("dur").and_then(Value::as_f64).unwrap();
                    (ts, ts + dur)
                })
                .collect::<Vec<_>>()
        };
        let children = spans("train/epoch/sample");
        let parents = spans("train/epoch");
        assert_eq!((children.len(), parents.len()), (2, 2));
        for (i, &(c0, c1)) in children.iter().enumerate() {
            let (p0, p1) = parents[i];
            assert!(p0 <= c0 && c1 <= p1, "child {i} [{c0},{c1}] outside parent [{p0},{p1}]");
        }
        // Each epoch only covers its own children: the second epoch must
        // not have been stretched back over the first child.
        assert!(parents[1].0 > children[0].1, "second epoch swallowed the first epoch's child");
    }

    #[test]
    fn counters_gauges_and_records_are_captured() {
        let mut rec = ChromeTraceRecorder::new();
        rec.counter("profile/ops/synops", 10);
        rec.counter("profile/ops/synops", 5);
        rec.gauge("profile/ops/sparsity", 0.93);
        rec.emit(Record::new("epoch").field("reward", 0.5));
        assert_eq!(rec.counter_total("profile/ops/synops"), 15);
        assert_eq!(rec.gauge_value("profile/ops/sparsity"), Some(0.93));
        assert_eq!(rec.records().len(), 1);
        let v = parse(&rec.to_chrome_json()).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_list).unwrap();
        // 2 counter samples + 1 gauge sample + 1 record marker.
        assert_eq!(events.len(), 4);
        let last_counter = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
            .nth(1)
            .unwrap();
        assert_eq!(
            last_counter.get("args").and_then(|a| a.get("value")).and_then(Value::as_f64),
            Some(15.0),
            "counter events sample the cumulative total"
        );
    }

    #[test]
    fn phase_tree_indents_children_under_parents() {
        let mut spans = BTreeMap::new();
        spans.insert("train/epoch".to_owned(), (2.0, 2));
        spans.insert("train/epoch/forward_batch".to_owned(), (1.5, 16));
        spans.insert("train/epoch/sample".to_owned(), (0.1, 16));
        spans.insert("profile/snn/encode".to_owned(), (0.4, 16));
        let text = render_phase_tree(&spans);
        let lines: Vec<&str> = text.lines().collect();
        let idx = |needle: &str| {
            lines.iter().position(|l| l.trim_start().starts_with(needle)).expect(needle)
        };
        // Children are indented below their parent, expensive first.
        assert!(idx("train/") < idx("epoch"));
        assert!(idx("epoch") < idx("forward_batch"));
        assert!(idx("forward_batch") < idx("sample"));
        assert!(lines[idx("forward_batch")].starts_with("    "), "{text}");
        assert!(text.contains("encode"));
    }

    #[test]
    fn empty_tree_renders_placeholder() {
        assert!(render_phase_tree(&BTreeMap::new()).contains("no spans"));
    }

    #[test]
    fn span_on_track_exports_its_tid_and_counts_toward_totals() {
        let mut rec = ChromeTraceRecorder::new();
        rec.span("serve/batch", 1e-3);
        rec.span_on_track("serve/req/2a", 2e-3, 42);
        assert_eq!(rec.span_total("serve/req/2a"), (2e-3, 1));
        let v = parse(&rec.to_chrome_json()).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_list).unwrap();
        let tid = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .and_then(|e| e.get("tid"))
                .and_then(Value::as_u64)
                .expect(name)
        };
        assert_eq!(tid("serve/batch"), 1);
        assert_eq!(tid("serve/req/2a"), 42);
    }
}
