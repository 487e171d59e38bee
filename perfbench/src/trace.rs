//! The traced run's recorder: it collects the spans and counters the
//! program already emits through `&mut dyn Recorder`, adds spans the
//! benchmark times around public calls, and turns both into per-layer
//! self times.
//!
//! Program spans carry a duration but no start time, and several are
//! emitted after the fact (the trainer reports summed forward / backward
//! times once per step). Nesting therefore comes from the label, not from
//! timestamps: a fixed table names the parent of every nested program
//! span, and any other span is a child of the innermost benchmark span
//! open when it arrives.

use spikefolio_telemetry::{labels, Recorder};
use std::collections::BTreeMap;
use std::time::Instant;

/// Label of the benchmark span that wraps one whole traced repetition.
pub const ROOT: &str = "run";

/// Label of the benchmark span around a whole `run_desk` call. Its self
/// time is whatever the desk does outside its own spans, so it names no
/// layer and counts as uncovered, like [`ROOT`].
pub const DESK_RUN: &str = "desk.run";

/// Parent of each nested program span family.
fn static_parent(family: &str) -> Option<&'static str> {
    Some(match family {
        labels::SPAN_PROFILE_SNN_ENCODE | labels::SPAN_PROFILE_SNN_LIF => {
            labels::SPAN_TRAIN_FORWARD
        }
        labels::SPAN_PROFILE_SNN_STBP => labels::SPAN_TRAIN_BACKWARD,
        labels::SPAN_TRAIN_SAMPLE
        | labels::SPAN_TRAIN_FORWARD
        | labels::SPAN_TRAIN_BACKWARD
        | labels::SPAN_TRAIN_APPLY => labels::SPAN_TRAIN_EPOCH,
        DESK_FINE_TUNE | DESK_SWAP => DESK_ROUND,
        _ => return None,
    })
}

/// Desk round spans with the round number (and swap version) stripped.
pub const DESK_ROUND: &str = "desk/round";
/// Fine-tune part of a desk round.
pub const DESK_FINE_TUNE: &str = "desk/round/fine_tune";
/// Hot-swap part of a desk round.
pub const DESK_SWAP: &str = "desk/round/swap";

/// Maps a program label onto its family: `desk/round/003/swap/v4` →
/// `desk/round/swap`; every other label is its own family.
pub fn family(label: &str) -> String {
    let Some(rest) = label.strip_prefix("desk/round/") else { return label.to_owned() };
    let mut parts = rest.split('/');
    let _round = parts.next();
    match parts.next() {
        None => DESK_ROUND.to_owned(),
        Some(sub) => format!("{DESK_ROUND}/{sub}"),
    }
}

/// Span durations grouped by `(family, parent)`.
#[derive(Debug, Default, Clone)]
pub struct SpanTree {
    spans: BTreeMap<(String, String), Vec<f64>>,
}

impl SpanTree {
    /// Adds one span of `seconds` under `parent` (empty for a root).
    pub fn add(&mut self, family: &str, parent: &str, seconds: f64) {
        self.spans.entry((family.to_owned(), parent.to_owned())).or_default().push(seconds);
    }

    /// Every duration recorded for `family`, whatever its parent.
    pub fn durations(&self, family: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|((f, _), _)| f == family)
            .flat_map(|(_, d)| d.iter().copied())
            .collect()
    }

    /// Summed duration of `family` in seconds.
    pub fn total(&self, family: &str) -> f64 {
        // `+ 0.0` turns the empty sum's -0.0 into 0.0.
        self.durations(family).iter().sum::<f64>() + 0.0
    }

    /// Span count of `family`.
    pub fn count(&self, family: &str) -> usize {
        self.durations(family).len()
    }

    /// Time inside `family` not covered by its child spans, in seconds.
    pub fn self_time(&self, family: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|((_, p), _)| p == family)
            .map(|(_, d)| d.iter().sum::<f64>())
            .sum();
        self.total(family) - children
    }

    /// Every family with its self time, sorted by label.
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut families: Vec<&String> = self.spans.keys().map(|(f, _)| f).collect();
        families.dedup();
        families.into_iter().map(|f| (f.clone(), self.self_time(f))).collect()
    }

    /// Share of `root`'s time that named layers account for: the summed
    /// self time of every family except `root` and the catch-all
    /// families in `unattributed`, over `root`'s total. Time spent outside
    /// any layer call lowers it.
    pub fn coverage(&self, root: &str, unattributed: &[&str]) -> f64 {
        let wall = self.total(root);
        let covered: f64 = self
            .self_times()
            .iter()
            .filter(|(f, _)| f != root && !unattributed.contains(&f.as_str()))
            .map(|(_, s)| s)
            .sum();
        covered / wall
    }
}

/// Recorder for traced repetitions.
#[derive(Debug)]
pub struct BenchRecorder {
    open: Vec<(String, Instant)>,
    /// Spans received so far.
    pub tree: SpanTree,
    /// Counter totals by label.
    pub counters: BTreeMap<String, u64>,
    in_desk_rounds: bool,
}

impl Default for BenchRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl BenchRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            open: Vec::new(),
            tree: SpanTree::default(),
            counters: BTreeMap::new(),
            in_desk_rounds: false,
        }
    }

    /// Opens a benchmark span around a call into a layer.
    pub fn enter(&mut self, family: &str) {
        self.open.push((family.to_owned(), Instant::now()));
    }

    /// Closes the innermost benchmark span; returns its seconds.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (a benchmark bug).
    pub fn exit(&mut self) -> f64 {
        let (family, t0) = self.open.pop().expect("exit without a matching enter");
        let dt = t0.elapsed().as_secs_f64();
        let parent = self.innermost();
        self.tree.add(&family, &parent, dt);
        dt
    }

    /// Times `f` as a benchmark span.
    pub fn time<T>(&mut self, family: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(family);
        let out = f(self);
        self.exit();
        out
    }

    fn innermost(&self) -> String {
        self.open.last().map(|(f, _)| f.clone()).unwrap_or_default()
    }

    /// Counter total for `label` (0 when never incremented).
    pub fn counter_total(&self, label: &str) -> u64 {
        self.counters.get(label).copied().unwrap_or(0)
    }
}

impl Recorder for BenchRecorder {
    fn counter(&mut self, label: &str, delta: u64) {
        *self.counters.entry(label.to_owned()).or_insert(0) += delta;
        // The desk counts a round as it starts: from then on, training
        // epochs belong to a round's fine-tune, not to the warmup.
        if label == labels::COUNTER_DESK_ROUNDS {
            self.in_desk_rounds = true;
        }
    }

    fn span(&mut self, label: &str, seconds: f64) {
        let fam = family(label);
        let parent = match static_parent(&fam) {
            Some(p) => p.to_owned(),
            None if self.in_desk_rounds
                && (fam == labels::SPAN_TRAIN_EPOCH || fam == labels::SPAN_TRAIN_CHECKPOINT) =>
            {
                DESK_FINE_TUNE.to_owned()
            }
            None => self.innermost(),
        };
        self.tree.add(&fam, &parent, seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desk_labels_fold_into_families() {
        assert_eq!(family("desk/round/003"), DESK_ROUND);
        assert_eq!(family("desk/round/012/fine_tune"), DESK_FINE_TUNE);
        assert_eq!(family("desk/round/001/swap/v7"), DESK_SWAP);
        assert_eq!(family("train/epoch/apply"), "train/epoch/apply");
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = SpanTree::default();
        t.add(ROOT, "", 10.0);
        t.add("training.sdp", ROOT, 6.0);
        t.add("train/epoch", "training.sdp", 2.5);
        t.add("train/epoch", "training.sdp", 2.5);
        t.add("train/epoch/apply", "train/epoch", 1.0);
        t.add("env.backtest", ROOT, 3.0);
        assert!((t.self_time("training.sdp") - 1.0).abs() < 1e-12);
        assert!((t.self_time("train/epoch") - 4.0).abs() < 1e-12);
        assert!((t.self_time("train/epoch/apply") - 1.0).abs() < 1e-12);
        assert!((t.self_time(ROOT) - 1.0).abs() < 1e-12);
        // Everything but the root's own 1 s is inside a layer.
        assert!((t.coverage(ROOT, &[]) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn catch_all_spans_count_as_uncovered() {
        let mut t = SpanTree::default();
        t.add(ROOT, "", 10.0);
        t.add(DESK_RUN, ROOT, 9.5);
        t.add(DESK_ROUND, DESK_RUN, 6.0);
        t.add(DESK_FINE_TUNE, DESK_ROUND, 4.0);
        // Only the round (2 s self) and its fine-tune (4 s) are layers.
        assert!((t.coverage(ROOT, &[DESK_RUN]) - 0.6).abs() < 1e-12);
        assert!((t.coverage(ROOT, &[]) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn a_family_with_two_parents_is_subtracted_from_each() {
        let mut t = SpanTree::default();
        t.add(DESK_RUN, "", 10.0);
        t.add("train/epoch", DESK_RUN, 3.0);
        t.add(DESK_ROUND, DESK_RUN, 6.0);
        t.add(DESK_FINE_TUNE, DESK_ROUND, 4.0);
        t.add("train/epoch", DESK_FINE_TUNE, 3.5);
        assert_eq!(t.total("train/epoch"), 6.5);
        assert!((t.self_time(DESK_RUN) - 1.0).abs() < 1e-12);
        assert!((t.self_time(DESK_FINE_TUNE) - 0.5).abs() < 1e-12);
        assert!((t.self_time(DESK_ROUND) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_program_spans_under_open_benchmark_spans() {
        let mut rec = BenchRecorder::new();
        rec.enter(ROOT);
        rec.time("training.sdp", |r| {
            r.span(labels::SPAN_PROFILE_SNN_ENCODE, 0.001);
            r.span(labels::SPAN_TRAIN_FORWARD, 0.002);
            r.span(labels::SPAN_TRAIN_EPOCH, 0.003);
        });
        rec.exit();
        assert!((rec.tree.self_time(labels::SPAN_TRAIN_FORWARD) - 0.001).abs() < 1e-12);
        assert!((rec.tree.self_time(labels::SPAN_TRAIN_EPOCH) - 0.001).abs() < 1e-12);
        let sdp = rec.tree.total("training.sdp");
        assert!((rec.tree.self_time("training.sdp") - (sdp - 0.003)).abs() < 1e-12);
        assert_eq!(rec.tree.count(ROOT), 1);
    }

    #[test]
    fn desk_epochs_after_the_first_round_belong_to_fine_tune() {
        let mut rec = BenchRecorder::new();
        rec.enter(DESK_RUN);
        rec.span(labels::SPAN_TRAIN_EPOCH, 1.0);
        rec.counter(labels::COUNTER_DESK_ROUNDS, 1);
        rec.span(labels::SPAN_TRAIN_EPOCH, 0.5);
        rec.span("desk/round/000/fine_tune", 0.6);
        rec.span("desk/round/000/swap/v2", 0.1);
        rec.span("desk/round/000", 1.0);
        assert!((rec.tree.self_time(DESK_FINE_TUNE) - 0.1).abs() < 1e-12);
        assert!((rec.tree.self_time(DESK_ROUND) - 0.3).abs() < 1e-12);
        assert_eq!(rec.counter_total(labels::COUNTER_DESK_ROUNDS), 1);
    }
}
