//! Plain-text table formatting mirroring the paper's Tables 3 and 4.

use crate::experiments::{
    CostAblationPoint, EncodingPoint, ExperimentOutcome, PowerOutcome, RatePenaltyPoint,
    TimestepPoint,
};

/// Formats the full Table 3 (three experiment blocks, seven strategies
/// each) with the paper's columns: MDD, fAPV, Sharpe.
pub fn format_table3(outcomes: &[ExperimentOutcome]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{:<12} {:>10} {:>12} {:>12}\n", "Strategy", "MDD", "fAPV", "Sharpe"));
    for out in outcomes {
        s.push_str(&format!("--- {} ---\n", out.experiment));
        for row in &out.rows {
            s.push_str(&format!(
                "{:<12} {:>10.3} {:>12.4e} {:>12.3}\n",
                row.strategy, row.metrics.mdd, row.metrics.fapv, row.metrics.sharpe
            ));
        }
    }
    s
}

/// Formats Table 4 (power/performance across hardware).
pub fn format_table4(outcomes: &[PowerOutcome]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<28} {:>9} {:>9} {:>14} {:>13}\n",
        "Algorithm / Device", "Idle(W)", "Dyn(W)", "Inf/s", "nJ/Inf"
    ));
    for out in outcomes {
        for r in &out.rows {
            s.push_str(&format!(
                "{:<28} {:>9.2} {:>9.4} {:>14.1} {:>13.2}\n",
                r.label, r.idle_w, r.dyn_w, r.inf_per_s, r.nj_per_inf
            ));
        }
        s.push_str(&format!(
            "    → Loihi energy advantage: {:.0}x vs CPU, {:.0}x vs GPU\n",
            out.cpu_advantage(),
            out.gpu_advantage()
        ));
    }
    s
}

/// Formats the timestep trade-off ablation.
pub fn format_timestep_tradeoff(points: &[TimestepPoint]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:>4} {:>12} {:>12} {:>12} {:>10} {:>10}\n",
        "T", "nJ/Inf", "latency(µs)", "fAPV", "Sharpe", "MDD"
    ));
    for p in points {
        s.push_str(&format!(
            "{:>4} {:>12.2} {:>12.1} {:>12.4} {:>10.3} {:>10.3}\n",
            p.timesteps,
            p.nj_per_inf,
            p.latency_s * 1e6,
            p.metrics.fapv,
            p.metrics.sharpe,
            p.metrics.mdd
        ));
    }
    s
}

/// Formats the encoding-mode ablation.
pub fn format_encoding_comparison(points: &[EncodingPoint]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<16} {:>12} {:>10} {:>10} {:>14}\n",
        "Encoding", "fAPV", "Sharpe", "MDD", "final reward"
    ));
    for p in points {
        s.push_str(&format!(
            "{:<16} {:>12.4} {:>10.3} {:>10.3} {:>14.6}\n",
            p.encoding, p.metrics.fapv, p.metrics.sharpe, p.metrics.mdd, p.final_reward
        ));
    }
    s
}

/// Formats the transaction-cost-model ablation.
pub fn format_cost_ablation(points: &[CostAblationPoint]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<22} {:>12} {:>10} {:>10} {:>12}\n",
        "Cost model", "fAPV", "Sharpe", "MDD", "turnover"
    ));
    for p in points {
        s.push_str(&format!(
            "{:<22} {:>12.4} {:>10.3} {:>10.3} {:>12.2}\n",
            p.model, p.metrics.fapv, p.metrics.sharpe, p.metrics.mdd, p.turnover
        ));
    }
    s
}

/// Formats the spike-rate-penalty ablation.
pub fn format_rate_penalty(points: &[RatePenaltyPoint]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:>8} {:>12} {:>12} {:>14} {:>10} {:>10}\n",
        "lambda", "spikes/inf", "synops/inf", "nJ/inf(phys)", "fAPV", "Sharpe"
    ));
    for p in points {
        s.push_str(&format!(
            "{:>8.3} {:>12} {:>12} {:>14.2} {:>10.4} {:>10.3}\n",
            p.lambda,
            p.spikes_per_inference,
            p.synops_per_inference,
            p.physical_nj_per_inf,
            p.metrics.fapv,
            p.metrics.sharpe
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::experiments::{run_experiment, RunOptions};
    use spikefolio_market::experiments::ExperimentPreset;
    use spikefolio_telemetry::NoopRecorder;

    #[test]
    fn table3_formatting_contains_all_rows() {
        let mut opts = RunOptions::smoke();
        opts.shrink = Some((25, 8));
        opts.config.training.epochs = 1;
        opts.config.training.steps_per_epoch = 1;
        opts.config.training.batch_size = 2;
        let out = run_experiment(&opts, ExperimentPreset::experiment1(), &mut NoopRecorder);
        let text = format_table3(&[out]);
        for name in ["SDP", "DRL[Jiang]", "ONS", "Best Stock", "ANTICOR", "M0", "UCRP"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("Experiment 1"));
        assert!(text.contains("MDD"));
    }
}
