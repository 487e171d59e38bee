//! Host-speed calibration for the batch workloads, and for the serve
//! workload's set-up time.
//!
//! On a shared VM the same single-threaded work runs up to 1.4 times
//! slower for minutes at a time, in wall and CPU time alike, so no
//! statistic inside one run removes it. The batch workloads therefore time
//! a fixed piece of benchmark-owned work — a spiking-layer-like
//! matrix-vector loop plus an Adam-like pass over an L2-sized buffer —
//! between their repetitions, and scale the run's wall, CPU and set-up
//! times by how fast that work ran over the run. A change to the program
//! cannot change this work, so it moves the scaled times as it moves the
//! raw ones; a host slowdown moves both the workload and the reference and
//! cancels out. Raw times are printed next to the scaled ones.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Neurons of the reference layer.
const N: usize = 64;
/// Time steps of one reference pass.
const STEPS: usize = 24;
/// Floats of the optimizer-like buffer (256 KB).
const BUF: usize = 64 * 1024;
/// Times the layer and the buffer update repeat within one pass.
const ROUNDS: usize = 10;
/// Passes timed per probe; the probe reports their median.
const PASSES: usize = 11;

/// Duration of one reference pass on the host the scaled times are
/// expressed at: scaled time = raw time × `REFERENCE_PASS_S` ÷ measured
/// pass time. It is a fixed constant, so scaled times compare across
/// hosts and commits.
pub const REFERENCE_PASS_S: f64 = 1.0e-3;

/// The fixed work and its buffers.
pub struct Reference {
    weights: Vec<f32>,
    params: Vec<f32>,
    moments: Vec<f32>,
}

impl Default for Reference {
    fn default() -> Self {
        let weights = (0..N * N).map(|i| ((i * 7919 % 97) as f32 - 48.0) / 400.0).collect();
        let params = (0..BUF).map(|i| (i % 13) as f32 / 13.0).collect();
        Self { weights, params, moments: vec![0.0; BUF] }
    }
}

impl Reference {
    /// One pass: `ROUNDS` times, `STEPS` leaky integrate-and-fire updates
    /// of a dense `N × N` layer, then an Adam-like update of the buffer.
    fn pass(&mut self) -> f32 {
        (0..ROUNDS).map(|_| self.round()).sum()
    }

    fn round(&mut self) -> f32 {
        let mut v = [0f32; N];
        let mut x = [0f32; N];
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = (i % 3) as f32;
        }
        let mut spikes = 0f32;
        for _ in 0..STEPS {
            for (i, vi) in v.iter_mut().enumerate() {
                let row = &self.weights[i * N..(i + 1) * N];
                let s: f32 = row.iter().zip(&x).map(|(w, x)| w * x).sum();
                *vi = 0.9 * *vi + s + 0.05;
            }
            for (vi, xi) in v.iter_mut().zip(x.iter_mut()) {
                *xi = if *vi > 0.5 { 1.0 } else { 0.0 };
                *vi -= 0.5 * *xi;
                spikes += *xi;
            }
        }
        let g = black_box(spikes) * 1e-4;
        for (p, m) in self.params.iter_mut().zip(self.moments.iter_mut()) {
            *m = 0.9 * *m + 0.1 * g * *p;
            *p -= 1e-3 * *m / ((*m * *m).sqrt() + 1e-8);
        }
        spikes + self.params[BUF / 2]
    }

    /// Times `PASSES` passes and returns the median pass time in seconds.
    pub fn probe(&mut self) -> f64 {
        let mut times = [0f64; PASSES];
        for t in &mut times {
            let t0 = Instant::now();
            black_box(self.pass());
            *t = t0.elapsed().as_secs_f64();
        }
        median(&times)
    }
}

/// Factor that scales a time measured on a host whose reference pass
/// took `pass_s` to the reference host.
pub fn scale(pass_s: f64) -> f64 {
    REFERENCE_PASS_S / pass_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_are_deterministic_and_positive() {
        let (mut a, mut b) = (Reference::default(), Reference::default());
        for _ in 0..3 {
            assert_eq!(a.pass().to_bits(), b.pass().to_bits());
        }
        assert!(a.probe() > 0.0);
    }

    #[test]
    fn scale_halves_times_on_a_host_twice_as_slow() {
        assert!((scale(2.0 * REFERENCE_PASS_S) - 0.5).abs() < 1e-12);
        assert!((scale(REFERENCE_PASS_S) - 1.0).abs() < 1e-12);
    }
}
