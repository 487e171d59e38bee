//! Smoke-scale runs of the Table 3 / Table 4 drivers and their report
//! formatting — the same code paths the examples and benches execute at
//! full scale.

use spikefolio::experiments::{
    encoding_comparison, run_table3, run_table4, timestep_tradeoff, RunOptions,
    PAPER_LOIHI_NJ_PER_INF,
};
use spikefolio::report;
use spikefolio_telemetry::NoopRecorder;

fn tiny_opts() -> RunOptions {
    let mut opts = RunOptions::smoke();
    opts.shrink = Some((30, 10));
    opts.config.training.epochs = 1;
    opts.config.training.steps_per_epoch = 2;
    opts.config.training.batch_size = 4;
    opts
}

#[test]
fn table3_driver_produces_three_experiments() {
    let outcomes = run_table3(&tiny_opts(), &mut NoopRecorder);
    assert_eq!(outcomes.len(), 3);
    for (out, name) in outcomes.iter().zip(["Experiment 1", "Experiment 2", "Experiment 3"]) {
        assert_eq!(out.experiment, name);
        assert_eq!(out.rows.len(), 7);
        for row in &out.rows {
            assert!(row.metrics.fapv.is_finite() && row.metrics.fapv > 0.0);
            assert!((0.0..1.0).contains(&row.metrics.mdd));
            assert!(row.metrics.sharpe.is_finite());
        }
        assert!(out.sdp_log.steps > 0);
        assert!(out.drl_log.steps > 0);
    }
    let text = report::format_table3(&outcomes);
    assert!(text.contains("Experiment 3"));
    assert!(text.lines().count() > 21, "7 rows × 3 blocks + headers");
}

#[test]
fn table4_driver_reproduces_headline_ratios() {
    let outcomes = run_table4(&tiny_opts(), &mut NoopRecorder);
    assert_eq!(outcomes.len(), 3);
    for out in &outcomes {
        // Paper headline: ≥186× vs CPU, ≥516× vs GPU. The calibrated model
        // reproduces the order of magnitude on every experiment.
        assert!(out.cpu_advantage() > 100.0, "{}: {}", out.experiment, out.cpu_advantage());
        assert!(out.gpu_advantage() > 300.0, "{}: {}", out.experiment, out.gpu_advantage());
        // Loihi idle power is the small board constant; GPU idles high.
        assert!(out.loihi().idle_w < out.rows[1].idle_w);
    }
    // Calibration endpoint: experiment 1's Loihi row hits the paper value.
    assert!((outcomes[0].loihi().nj_per_inf - PAPER_LOIHI_NJ_PER_INF).abs() < 1e-6);
    // Experiments 2–3 extrapolate with the same constants and stay close.
    for out in &outcomes[1..] {
        let nj = out.loihi().nj_per_inf;
        assert!(
            (PAPER_LOIHI_NJ_PER_INF * 0.3..PAPER_LOIHI_NJ_PER_INF * 3.0).contains(&nj),
            "{}: {nj} nJ",
            out.experiment
        );
    }
    let text = report::format_table4(&outcomes);
    assert!(text.contains("Loihi") && text.contains("CPU") && text.contains("GPU"));
    assert!(text.contains("advantage"));
}

#[test]
fn timestep_ablation_shows_energy_performance_tradeoff() {
    let points = timestep_tradeoff(&tiny_opts(), &[1, 5, 10]);
    assert_eq!(points.len(), 3);
    // Energy and latency are monotone in T (the paper's stated trade-off).
    for w in points.windows(2) {
        assert!(w[1].nj_per_inf > w[0].nj_per_inf);
        assert!(w[1].latency_s > w[0].latency_s);
    }
    let text = report::format_timestep_tradeoff(&points);
    assert!(text.contains("nJ/Inf"));
}

#[test]
fn encoding_ablation_covers_both_modes() {
    let points = encoding_comparison(&tiny_opts());
    assert_eq!(points.len(), 2);
    assert!(points.iter().all(|p| p.metrics.fapv.is_finite()));
    let text = report::format_encoding_comparison(&points);
    assert!(text.contains("deterministic") && text.contains("probabilistic"));
}
