//! The per-layer metrics of the traced run: their names and units, and
//! how they are read off a [`BenchRecorder`].

use crate::stats::median;
use crate::trace::{BenchRecorder, DESK_FINE_TUNE, DESK_ROUND, DESK_RUN, DESK_SWAP, ROOT};
use crate::{Outcome, WorkDir};
use spikefolio::agent::SdpAgent;
use spikefolio::checkpoint;
use spikefolio_telemetry::labels;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric a traced run reports, with its unit. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("market.generate_ms", "ms"),
    ("scenario.stress_ms", "ms"),
    ("snn.encode_ms", "ms"),
    ("snn.lif_forward_ms", "ms"),
    ("snn.stbp_backward_ms", "ms"),
    ("snn.synops", "count"),
    ("snn.dense_macs", "count"),
    ("snn.sparsity", "ratio"),
    ("train.sample_ms", "ms"),
    ("train.apply_ms", "ms"),
    ("training.sdp_ms", "ms"),
    ("training.drl_ms", "ms"),
    ("training.eiie_ms", "ms"),
    ("training.ddpg_ms", "ms"),
    ("env.backtest_learned_ms", "ms"),
    ("env.backtest_classical_ms", "ms"),
    ("env.backtest_steps", "count"),
    ("serve.accept_p50_us", "us"),
    ("serve.accept_p99_us", "us"),
    ("serve.parse_p50_us", "us"),
    ("serve.parse_p99_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.batch_form_p50_us", "us"),
    ("serve.batch_form_p99_us", "us"),
    ("serve.backend_infer_p50_us", "us"),
    ("serve.backend_infer_p99_us", "us"),
    ("serve.render_p50_us", "us"),
    ("serve.render_p99_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.batch_fill", "ratio"),
    ("serve.shed", "count"),
    ("serve.swap_ms", "ms"),
    ("serve.swap_failures", "count"),
    ("serve.heavy_p50_ms", "ms"),
    ("serve.heavy_p99_ms", "ms"),
    ("serve.light_p50_ms", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("desk.round_p50_ms", "ms"),
    ("desk.round_max_ms", "ms"),
    ("desk.fine_tune_ms", "ms"),
    ("desk.swap_ms", "ms"),
    ("desk.gate_ms", "ms"),
    ("desk.promotions", "count"),
    ("desk.quarantines", "count"),
    ("desk.promote_frac", "ratio"),
    ("loadgen.lag_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One traced repetition's layer values, keyed by metric name.
pub type LayerSample = BTreeMap<&'static str, f64>;

/// Reads every recorder-derived layer metric off one traced repetition
/// whose whole wall is the [`ROOT`] span.
pub fn sample(rec: &BenchRecorder) -> LayerSample {
    let t = &rec.tree;
    let ms = |family: &str| t.total(family) * 1e3;
    let mut s = LayerSample::new();
    s.insert("market.generate_ms", ms("market.generate"));
    s.insert("scenario.stress_ms", ms("scenario.stress"));
    s.insert("snn.encode_ms", ms(labels::SPAN_PROFILE_SNN_ENCODE));
    s.insert("snn.lif_forward_ms", ms(labels::SPAN_PROFILE_SNN_LIF));
    s.insert("snn.stbp_backward_ms", ms(labels::SPAN_PROFILE_SNN_STBP));
    let synops = rec.counter_total(labels::COUNTER_OPS_SYNOPS) as f64;
    let dense = rec.counter_total(labels::COUNTER_OPS_DENSE_MACS) as f64;
    s.insert("snn.synops", synops);
    s.insert("snn.dense_macs", dense);
    s.insert("snn.sparsity", if dense > 0.0 { synops / dense } else { 0.0 });
    s.insert("train.sample_ms", ms(labels::SPAN_TRAIN_SAMPLE));
    s.insert("train.apply_ms", ms(labels::SPAN_TRAIN_APPLY));
    s.insert("training.sdp_ms", ms("training.sdp"));
    s.insert("training.drl_ms", ms("training.drl"));
    s.insert("training.eiie_ms", ms("training.eiie"));
    s.insert("training.ddpg_ms", ms("training.ddpg"));
    s.insert("env.backtest_learned_ms", ms("env.backtest_learned"));
    s.insert("env.backtest_classical_ms", ms("env.backtest_classical"));
    let rounds = t.count(DESK_ROUND) as f64;
    if rounds > 0.0 {
        let round_ms: Vec<f64> = t.durations(DESK_ROUND).iter().map(|d| d * 1e3).collect();
        s.insert("desk.round_p50_ms", median(&round_ms));
        s.insert("desk.round_max_ms", round_ms.iter().copied().fold(0.0, f64::max));
        s.insert("desk.fine_tune_ms", ms(DESK_FINE_TUNE) / rounds);
        let swaps = t.count(DESK_SWAP).max(1) as f64;
        s.insert("desk.swap_ms", ms(DESK_SWAP) / swaps);
        s.insert("desk.gate_ms", t.self_time(DESK_ROUND) * 1e3 / rounds);
        let promotions = rec.counter_total(labels::COUNTER_DESK_PROMOTIONS) as f64;
        s.insert("desk.promotions", promotions);
        s.insert("desk.quarantines", rec.counter_total(labels::COUNTER_DESK_QUARANTINES) as f64);
        s.insert("desk.promote_frac", promotions / rounds);
    }
    s.insert("trace.coverage", t.coverage(ROOT, &[DESK_RUN]));
    s
}

/// Reports the per-key median of `samples`, overlaid with `extra`, as
/// every [`PER_LAYER`] metric (0 where neither has a value).
pub fn report(out: &mut Outcome, samples: &[LayerSample], extra: &LayerSample) {
    for &(name, unit) in &PER_LAYER {
        let value = extra.get(name).copied().unwrap_or_else(|| {
            let values: Vec<f64> = samples.iter().filter_map(|s| s.get(name).copied()).collect();
            if values.is_empty() {
                0.0
            } else {
                median(&values)
            }
        });
        out.metric(name, value, unit);
    }
}

/// Prints the self time of every span family of one traced repetition,
/// largest first, so the breakdown behind `trace.coverage` is visible.
pub fn note_self_times(out: &mut Outcome, rec: &BenchRecorder) {
    let wall = rec.tree.total(ROOT);
    let mut rows = rec.tree.self_times();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.note(format!("self time by layer (last traced repetition, wall {:.1} ms):", wall * 1e3));
    for (family, self_s) in rows {
        out.note(format!(
            "  {family:<32} {:>10.2} ms {:>6.1}%",
            self_s * 1e3,
            100.0 * self_s / wall
        ));
    }
}

/// Writes `agent` as a checkpoint and reads it back into a copy; returns
/// the save and load seconds and the file size.
fn checkpoint_roundtrip(agent: &SdpAgent, dir: &WorkDir) -> Result<(f64, f64, u64), String> {
    let path = dir.path().join("model.ckpt");
    let t0 = Instant::now();
    checkpoint::save_sdp(agent, &path).map_err(|e| format!("save {}: {e}", path.display()))?;
    let save_s = t0.elapsed().as_secs_f64();
    let mut copy = agent.clone();
    let t0 = Instant::now();
    checkpoint::load_sdp(&mut copy, &path).map_err(|e| format!("load {}: {e}", path.display()))?;
    let load_s = t0.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map_err(|e| format!("stat: {e}"))?.len();
    Ok((save_s, load_s, bytes))
}

/// `checkpoint.*` metrics for a workload's model: medians of five timed
/// save / load round trips.
pub fn checkpoint_timing(agent: &SdpAgent, dir: &WorkDir) -> Result<LayerSample, String> {
    let mut saves = Vec::new();
    let mut loads = Vec::new();
    let mut bytes = 0;
    for _ in 0..5 {
        let (save_s, load_s, b) = checkpoint_roundtrip(agent, dir)?;
        saves.push(save_s * 1e3);
        loads.push(load_s * 1e3);
        bytes = b;
    }
    let mut s = LayerSample::new();
    s.insert("checkpoint.save_ms", median(&saves));
    s.insert("checkpoint.load_ms", median(&loads));
    s.insert("checkpoint.bytes", bytes as f64);
    Ok(s)
}
