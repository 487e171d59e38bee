//! `desk-rounds`: `run_desk` on the `DeskOptions::smoke` model with no
//! faults — a guarded warmup, then four rounds of fine-tune, checkpoint
//! write, three-stage gate and promote-or-quarantine. Each repetition gets
//! a fresh working directory.

use crate::batch::{Batch, Rep};
use crate::layers::LayerSample;
use crate::trace::{BenchRecorder, DESK_RUN, ROOT};
use crate::{WorkDir, TRAINER_THREADS};
use spikefolio::agent::SdpAgent;
use spikefolio::{run_desk, DeskOptions, DeskReport};
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_telemetry::NoopRecorder;
use std::path::PathBuf;
use std::time::Instant;

fn options(seed: u64, dir: PathBuf) -> DeskOptions {
    let mut opts = DeskOptions { seed, ..DeskOptions::smoke(dir) };
    opts.config.training.parallelism = TRAINER_THREADS;
    opts
}

/// One desk run through `run` in a fresh directory `rep-N` under `root`;
/// the directory is made before and removed after the timed call.
fn desk_run(
    root: &WorkDir,
    input: u64,
    rep: usize,
    run: impl FnOnce(DeskOptions) -> Result<DeskReport, String>,
) -> Result<(DeskReport, f64), String> {
    let dir = root.path().join(format!("rep-{rep}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let report = run(options(input, dir.clone()));
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    Ok((report?, wall))
}

fn to_rep(report: &DeskReport, wall_s: f64) -> Rep {
    let rounds = DeskOptions::smoke(PathBuf::new()).rounds;
    let problem = (report.rounds.len() != rounds || report.ended_early).then(|| {
        format!("{} of {rounds} rounds, ended early: {}", report.rounds.len(), report.ended_early)
    });
    Rep { digest: u64::from(report.final_weights_crc), wall_s, op_walls_s: vec![wall_s], problem }
}

/// The `desk-rounds` workload.
pub struct DeskRounds;

impl Batch for DeskRounds {
    const NAME: &'static str = "desk-rounds";
    const INPUTS: u64 = 16;
    const WORK_UNIT: &'static str = "desk rounds (after warmup)";
    const GOLDEN: &'static str = include_str!("../golden/desk-rounds.txt");

    fn work(&self) -> f64 {
        DeskOptions::smoke(PathBuf::new()).rounds as f64
    }

    /// The feed's seeded market and the smoke-sized agent.
    fn setup(&self, input: u64) {
        std::hint::black_box(self.model(input));
    }

    fn untraced(&self, input: u64, dir: &WorkDir, rep: usize) -> Result<Rep, String> {
        let (report, wall) = desk_run(dir, input, rep, |o| run_desk(o, &mut NoopRecorder))?;
        Ok(to_rep(&report, wall))
    }

    fn traced(
        &self,
        input: u64,
        dir: &WorkDir,
        rep: usize,
        rec: &mut BenchRecorder,
    ) -> Result<(Rep, LayerSample), String> {
        let (report, _) = desk_run(dir, input, rep, |o| {
            rec.time(ROOT, |r| r.time(DESK_RUN, |r| run_desk(o, r)))
        })?;
        Ok((to_rep(&report, rec.tree.total(ROOT)), LayerSample::new()))
    }

    fn model(&self, input: u64) -> SdpAgent {
        let opts = options(input, PathBuf::new());
        // The day count `run_desk`'s generated feed uses: the shrunk
        // presets emit two periods a day, plus two days of slack.
        let days = ((opts.warmup + opts.rounds * opts.reveal_per_round) / 2 + 2) as i64;
        let market = ExperimentPreset::experiment1().shrunk(days, 0).generate(input);
        SdpAgent::new(&opts.config, market.num_assets(), input)
    }
}
