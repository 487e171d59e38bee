//! The run loop shared by the batch workloads (`scenario-matrix`,
//! `desk-rounds`): set-up, the timed loop over a cycle
//! of seeded inputs, output checks, and the end-to-end or per-layer
//! report.
//!
//! A run with seed `s` cycles through the inputs `s·K … s·K + K − 1`
//! (`K` = [`Batch::INPUTS`]), runs each at least three times, and combines
//! per-input medians, so every run measures the same mix of input sizes
//! and sparsities rather than one input's quirks. Times are scaled to the
//! reference host speed (see [`crate::calib`]).

use crate::calib::{self, Reference};
use crate::layers::{self, LayerSample};
use crate::stats::{mean, median};
use crate::trace::BenchRecorder;
use crate::{sys, Args, Outcome, WorkDir};
use spikefolio::agent::SdpAgent;
use std::time::Instant;

/// What one repetition of a batch workload produced.
pub struct Rep {
    /// Bitwise digest of the workload's output.
    pub digest: u64,
    /// Wall of the workload call in seconds.
    pub wall_s: f64,
    /// Wall of each user-visible operation inside the call, seconds.
    pub op_walls_s: Vec<f64>,
    /// A structural problem with the output, if any.
    pub problem: Option<String>,
}

/// A batch workload.
pub trait Batch {
    /// Workload name.
    const NAME: &'static str;
    /// Inputs per cycle.
    const INPUTS: u64;
    /// What `work` counts, for the throughput note.
    const WORK_UNIT: &'static str;
    /// Digests recorded for known inputs: one `input hex-digest` pair per
    /// line, `#` starts a comment.
    const GOLDEN: &'static str;

    /// Units of work one repetition does (samples, cells, rounds).
    fn work(&self) -> f64;
    /// Set-up a user pays before the timed work, for `input`.
    fn setup(&self, input: u64);
    /// One repetition through the library verb.
    fn untraced(&self, input: u64, dir: &WorkDir, rep: usize) -> Result<Rep, String>;
    /// One traced repetition: the same output, with each layer timed into
    /// `rec`; returns layer values the recorder cannot see.
    fn traced(
        &self,
        input: u64,
        dir: &WorkDir,
        rep: usize,
        rec: &mut BenchRecorder,
    ) -> Result<(Rep, LayerSample), String>;
    /// The workload's model, for the `checkpoint.*` metrics.
    fn model(&self, input: u64) -> SdpAgent;
}

/// Per-input expected digests: recorded ones first, then the first one
/// seen in this run.
struct Checker {
    expected: Vec<(u64, u64)>,
    recorded: usize,
}

impl Checker {
    fn new(golden: &str, inputs: &[u64]) -> Self {
        let expected: Vec<(u64, u64)> =
            parse_golden(golden).into_iter().filter(|(i, _)| inputs.contains(i)).collect();
        let recorded = expected.len();
        Self { expected, recorded }
    }

    fn check(&mut self, out: &mut Outcome, input: u64, rep: &Rep, what: &str) {
        let expect = match self.expected.iter().find(|(i, _)| *i == input) {
            Some(&(_, d)) => d,
            None => {
                self.expected.push((input, rep.digest));
                rep.digest
            }
        };
        let ok = rep.digest == expect && rep.problem.is_none();
        out.check(ok, || {
            format!(
                "{what} repetition on input {input}: digest {:016x}, expected {expect:016x}{}",
                rep.digest,
                rep.problem.as_deref().map(|p| format!("; {p}")).unwrap_or_default()
            )
        });
    }
}

/// Parses a golden-digest table; malformed lines are skipped.
fn parse_golden(text: &str) -> Vec<(u64, u64)> {
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let input = parts.next()?.parse().ok()?;
            let digest = u64::from_str_radix(parts.next()?, 16).ok()?;
            Some((input, digest))
        })
        .collect()
}

/// Runs repetitions over `inputs` in turn until `seconds` have passed
/// and at least `min_reps` have run. Returns the region's length.
fn timed_cycles(
    seconds: f64,
    inputs: &[u64],
    min_reps: usize,
    mut rep: impl FnMut(usize, u64) -> Result<(), String>,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut n = 0;
    while n < min_reps.max(1) || t0.elapsed().as_secs_f64() < seconds {
        rep(n, inputs[n % inputs.len()])?;
        n += 1;
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Untimed, checked repetitions run for at least this many seconds before
/// set-up and the timed region. On a 2-vCPU VM the first seconds of a
/// process often ran up to 15% slower than the rest, so without them a
/// run's result depended on how much of it fell into that phase.
const WARMUP_S: f64 = 3.0;

/// Timed repetitions each input gets at least, so the per-input medians
/// never rest on one sample.
const MIN_REPS_PER_INPUT: usize = 3;

/// `setup_s` is the median of at least this many set-ups…
const SETUP_REPS: usize = 9;
/// …spanning at least this many seconds in all, so even a millisecond
/// set-up is timed hundreds of times.
const SETUP_MIN_S: f64 = 1.0;

/// Runs batch workload `b` as `args` asks.
pub fn run<B: Batch>(b: &B, args: &Args) -> Result<Outcome, String> {
    let inputs: Vec<u64> = (0..B::INPUTS).map(|k| args.seed * B::INPUTS + k).collect();
    let dir = WorkDir::create(B::NAME).map_err(|e| format!("work dir: {e}"))?;
    let mut checker = Checker::new(B::GOLDEN, &inputs);
    let mut out = Outcome::default();
    out.note(format!(
        "inputs {:?}: {} of {} have recorded digests; the rest must repeat bitwise within the run",
        inputs,
        checker.recorded,
        inputs.len()
    ));

    let warmup = timed_cycles(WARMUP_S, &inputs, 1, |k, input| {
        let rep = b.untraced(input, &dir, usize::MAX - k)?;
        checker.check(&mut out, input, &rep, "warm-up");
        Ok(())
    })?;
    out.note(format!("warm-up {warmup:.2} s, untimed"));

    if !args.trace {
        // Per input: repetition walls, CPU seconds, operation walls.
        let mut per_input: Vec<[Vec<f64>; 3]> = vec![Default::default(); inputs.len()];
        let mut setups: Vec<f64> = Vec::new();
        let mut reference = Reference::default();
        // The reference work, timed before the region and after every
        // repetition; its median over the run sets the host speed.
        let mut probes = vec![reference.probe()];
        let time_setup = |setups: &mut Vec<f64>| {
            let t0 = Instant::now();
            b.setup(inputs[setups.len() % inputs.len()]);
            setups.push(t0.elapsed().as_secs_f64());
            setups.iter().sum::<f64>()
        };
        let start = Instant::now();
        let timed =
            timed_cycles(args.seconds, &inputs, MIN_REPS_PER_INPUT * inputs.len(), |n, input| {
                let cpu0 = sys::process_cpu_s();
                let rep = b.untraced(input, &dir, n)?;
                let cpu = sys::process_cpu_s() - cpu0;
                checker.check(&mut out, input, &rep, "untraced");
                probes.push(reference.probe());
                let slot = &mut per_input[(input - inputs[0]) as usize];
                slot[0].push(rep.wall_s);
                slot[1].push(cpu);
                slot[2].extend(rep.op_walls_s);
                // Set-ups run between repetitions, their total kept on pace
                // for SETUP_MIN_S over the region, so `setup_s` samples the
                // same host conditions as the timed work, not one second of
                // them: on a shared 2-vCPU host the speed of a one-second
                // window varied by up to 1.5x.
                let pace = SETUP_MIN_S * start.elapsed().as_secs_f64() / args.seconds;
                while time_setup(&mut setups) < pace {}
                Ok(())
            })?;
        while setups.len() < SETUP_REPS {
            time_setup(&mut setups);
        }
        let scale = calib::scale(median(&probes));
        let setup_total: f64 = setups.iter().sum();
        let setup_s = median(&setups) * scale;
        // Medians per input, then combined over the cycle, so one slow
        // repetition cannot move the result and every input weighs the same.
        let medians = |k: usize| per_input.iter().map(|p| median(&p[k])).collect::<Vec<_>>();
        let raw_cycle: f64 = medians(0).iter().sum();
        let wall_cycle = raw_cycle * scale;
        let cpu_per_rep = mean(&medians(1)) * scale;
        let op_ms = mean(&medians(2)) * 1e3 * scale;
        let reps: usize = per_input.iter().map(|p| p[0].len()).sum();
        let min_reps = per_input.iter().map(|p| p[0].len()).min().unwrap_or(0);
        // In the golden-file format, for regenerating the tables.
        for (input, digest) in &checker.expected {
            out.note(format!("digest {input} {digest:x}"));
        }
        let work = b.work() * inputs.len() as f64;
        out.note(format!(
            "timed region {timed:.2} s: {reps} repetitions of {} {} each (at least {min_reps} \
             per input), and {} set-ups ({setup_total:.2} s) between them",
            b.work(),
            B::WORK_UNIT,
            setups.len(),
        ));
        out.note(format!(
            "host speed: reference pass {:.4} ms, median of {} probes (range {:.4}-{:.4} ms); \
             times below are scaled by {scale:.4}; unscaled throughput {:.4} /s, \
             setup {:.6} s",
            median(&probes) * 1e3,
            probes.len(),
            probes.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
            probes.iter().copied().fold(0.0, f64::max) * 1e3,
            work / raw_cycle,
            median(&setups),
        ));
        out.metric("setup_s", setup_s, "s");
        out.metric("throughput_per_s", work / wall_cycle, "1/s");
        out.metric("latency_ms", op_ms, "ms");
        out.metric("cpu_s", cpu_per_rep, "s");
        out.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
        return Ok(out);
    }

    // Traced: each iteration runs one untraced and one traced repetition
    // of the same input; their wall ratio is the tracing overhead.
    let mut samples: Vec<LayerSample> = Vec::new();
    let mut ratios = Vec::new();
    let mut last = None;
    let timed = timed_cycles(args.seconds, &inputs, 1, |n, input| {
        let plain = b.untraced(input, &dir, 2 * n)?;
        checker.check(&mut out, input, &plain, "untraced");
        let mut rec = BenchRecorder::new();
        let (traced, extra) = b.traced(input, &dir, 2 * n + 1, &mut rec)?;
        checker.check(&mut out, input, &traced, "traced");
        ratios.push(traced.wall_s / plain.wall_s);
        let mut s = layers::sample(&rec);
        s.extend(extra);
        samples.push(s);
        last = Some(rec);
        Ok(())
    })?;
    let rec = last.expect("at least one traced repetition");
    let mut extra = layers::checkpoint_timing(&b.model(inputs[0]), &dir)?;
    extra.insert("trace.overhead_frac", median(&ratios) - 1.0);
    out.note(format!(
        "timed region {timed:.2} s: {} untraced + {} traced repetitions",
        ratios.len(),
        ratios.len()
    ));
    layers::note_self_times(&mut out, &rec);
    layers::report(&mut out, &samples, &extra);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_tables_parse_with_comments() {
        let t = parse_golden("# header\n0 00ff\n\n17 a794c846\nbad line\n");
        assert_eq!(t, vec![(0, 0xff), (17, 0xa794_c846)]);
    }

    #[test]
    fn checker_prefers_recorded_digests_then_first_seen() {
        let rep = |digest| Rep { digest, wall_s: 1.0, op_walls_s: Vec::new(), problem: None };
        let mut c = Checker::new("4 10\n9 99\n", &[4, 5]);
        assert_eq!(c.recorded, 1);
        let mut out = Outcome::default();
        c.check(&mut out, 4, &rep(0x10), "t");
        c.check(&mut out, 5, &rep(7), "t");
        c.check(&mut out, 5, &rep(7), "t");
        assert_eq!((out.attempted, out.failed), (3, 0));
        c.check(&mut out, 4, &rep(0x11), "t");
        c.check(&mut out, 5, &rep(8), "t");
        assert_eq!((out.attempted, out.failed), (5, 2));
    }

    #[test]
    fn every_recorded_table_parses() {
        for text in [crate::matrix::ScenarioMatrix::GOLDEN, crate::desk::DeskRounds::GOLDEN] {
            let rows = parse_golden(text);
            let lines = text.lines().filter(|l| !l.starts_with('#')).count();
            assert_eq!(rows.len(), lines);
        }
    }
}
