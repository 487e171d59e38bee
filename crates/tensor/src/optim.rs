//! First-order optimizers operating on flat parameter buffers.
//!
//! Both the spiking (STBP) and dense (DRL baseline) trainers update their
//! parameters through this module, so the two agents share identical
//! optimization semantics — important when comparing them in Table 3/4.

/// Plain SGD with optional momentum.
///
/// # Example
///
/// ```
/// use spikefolio_tensor::optim::{Optimizer, Sgd};
///
/// let mut opt = Sgd::new(0.1);
/// let mut w = vec![1.0];
/// let slot = opt.register(1);
/// opt.step(slot, &mut w, &[2.0]); // w -= 0.1 * 2.0
/// assert!((w[0] - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<Vec<f64>>,
}

impl Sgd {
    /// SGD with learning rate `lr` and no momentum.
    pub fn new(lr: f64) -> Self {
        Self { lr, momentum: 0.0, velocity: Vec::new() }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        Self { lr, momentum, velocity: Vec::new() }
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction.
///
/// The paper trains SDP with a learning rate of `1e-5` (Table 2); Adam is
/// the de-facto optimizer of both Jiang et al. and the PopSAN line of work
/// the paper builds on.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    state: Vec<AdamSlot>,
}

#[derive(Debug, Clone)]
struct AdamSlot {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Adam with the standard betas `(0.9, 0.999)` and `eps = 1e-8`.
    pub fn new(lr: f64) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, state: Vec::new() }
    }

    /// Adam with explicit hyperparameters.
    pub fn with_params(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        Self { lr, beta1, beta2, eps, state: Vec::new() }
    }
}

/// Handle to a registered parameter buffer within an optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSlot(usize);

/// A network's gradient buffers, as a minibatch loop sums, averages and
/// clips them. The STBP and MLP trainers clip through the shared
/// [`clip_global_norm`](Gradients::clip_global_norm).
pub trait Gradients {
    /// Accumulates `other` into `self` (summing a minibatch).
    ///
    /// # Panics
    ///
    /// Implementations panic on shape mismatch.
    fn accumulate(&mut self, other: &Self);

    /// Multiplies every gradient by `alpha`.
    fn scale(&mut self, alpha: f64);

    /// Global L2 norm across every gradient.
    fn global_norm(&self) -> f64;

    /// Clips the global norm to `max_norm` (no-op if already below).
    fn clip_global_norm(&mut self, max_norm: f64) {
        let n = self.global_norm();
        if n > max_norm && n > 0.0 {
            self.scale(max_norm / n);
        }
    }
}

/// A first-order optimizer over flat `f64` buffers.
///
/// Usage: `register` each parameter buffer once (obtaining a [`ParamSlot`]),
/// then call `step(slot, params, grads)` every update. Implementations keep
/// whatever per-buffer state they need (momenta, moment estimates).
pub trait Optimizer {
    /// Registers a parameter buffer of length `len`, returning its slot.
    fn register(&mut self, len: usize) -> ParamSlot;

    /// Applies one update: mutates `params` in place given `grads`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()` or doesn't match the
    /// registered length, or if `slot` was not issued by this optimizer.
    fn step(&mut self, slot: ParamSlot, params: &mut [f64], grads: &[f64]);

    /// Learning rate currently in force.
    fn learning_rate(&self) -> f64;

    /// Overrides the learning rate (e.g. for schedules).
    fn set_learning_rate(&mut self, lr: f64);
}

impl Optimizer for Sgd {
    fn register(&mut self, len: usize) -> ParamSlot {
        self.velocity.push(vec![0.0; len]);
        ParamSlot(self.velocity.len() - 1)
    }

    fn step(&mut self, slot: ParamSlot, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        let vel = &mut self.velocity[slot.0];
        assert_eq!(vel.len(), params.len(), "slot length mismatch");
        if self.momentum == 0.0 {
            for (p, g) in params.iter_mut().zip(grads) {
                *p -= self.lr * g;
            }
        } else {
            for ((p, g), v) in params.iter_mut().zip(grads).zip(vel.iter_mut()) {
                *v = self.momentum * *v + g;
                *p -= self.lr * *v;
            }
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

impl Optimizer for Adam {
    fn register(&mut self, len: usize) -> ParamSlot {
        self.state.push(AdamSlot { m: vec![0.0; len], v: vec![0.0; len], t: 0 });
        ParamSlot(self.state.len() - 1)
    }

    fn step(&mut self, slot: ParamSlot, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        let s = &mut self.state[slot.0];
        assert_eq!(s.m.len(), params.len(), "slot length mismatch");
        s.t += 1;
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let b1t = 1.0 - beta1.powi(s.t as i32);
        let b2t = 1.0 - beta2.powi(s.t as i32);
        for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(&mut s.m).zip(&mut s.v) {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / b1t;
            let v_hat = *v / b2t;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2 with gradient 2(x-3).
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize, start: f64) -> f64 {
        let slot = opt.register(1);
        let mut x = vec![start];
        for _ in 0..steps {
            let g = 2.0 * (x[0] - 3.0);
            opt.step(slot, &mut x, &[g]);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let x = run_quadratic(&mut opt, 100, 0.0);
        assert!((x - 3.0).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let x = run_quadratic(&mut opt, 200, 0.0);
        assert!((x - 3.0).abs() < 1e-4, "x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.2);
        let x = run_quadratic(&mut opt, 300, 0.0);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // With bias correction the first Adam step is ≈ lr * sign(grad).
        let mut opt = Adam::new(0.01);
        let slot = opt.register(1);
        let mut x = vec![0.0];
        opt.step(slot, &mut x, &[1e-3]);
        assert!((x[0] + 0.01).abs() < 1e-6, "x = {}", x[0]);
    }

    #[test]
    fn multiple_slots_are_independent() {
        let mut opt = Adam::new(0.1);
        let a = opt.register(1);
        let b = opt.register(1);
        let mut xa = vec![0.0];
        let mut xb = vec![0.0];
        for _ in 0..10 {
            opt.step(a, &mut xa, &[1.0]);
        }
        // Slot b has taken no steps: its state must be untouched.
        opt.step(b, &mut xb, &[1.0]);
        assert!((xb[0] + 0.1).abs() < 1e-6, "xb = {}", xb[0]);
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Sgd::new(0.1);
        opt.set_learning_rate(0.5);
        assert_eq!(opt.learning_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_grad_length_panics() {
        let mut opt = Sgd::new(0.1);
        let slot = opt.register(2);
        let mut x = vec![0.0];
        opt.step(slot, &mut x, &[1.0]);
    }
}
