//! EIIE: the *Ensemble of Identical Independent Evaluators* policy of
//! Jiang, Xu & Liang (2017) — the reference DRL\[Jiang\] architecture.
//!
//! Each asset's price window is scored by the **same** small convolutional
//! network (weight sharing across assets), the previous portfolio weight is
//! appended before the final scoring layer, and a learned cash bias joins
//! the softmax:
//!
//! ```text
//! per asset:   (channels × window) ──conv1+ReLU──► (c1 × window−k+1)
//!              ──conv2+ReLU──► (c2 × 1) ──[⊕ prev weight]──► score
//! portfolio:   softmax(cash_bias, score_1, …, score_m)
//! ```

use crate::conv::{Conv1d, Conv1dGradients};
use rand::Rng;
use spikefolio_tensor::ops::{softmax_backward_into, softmax_in_place};
use spikefolio_tensor::optim::{Gradients, Optimizer, ParamSlot};
use spikefolio_tensor::{vector, Matrix};

/// Shape of an EIIE network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EiieConfig {
    /// Price channels per asset (3 without, 4 with the open price).
    pub channels: usize,
    /// Observation window length.
    pub window: usize,
    /// First convolution's output channels (Jiang uses 2).
    pub conv1_channels: usize,
    /// First convolution's kernel width (Jiang uses 3).
    pub conv1_kernel: usize,
    /// Second convolution's output channels (Jiang uses 20).
    pub conv2_channels: usize,
}

impl EiieConfig {
    /// Jiang's published EIIE hyperparameters for a given input shape.
    pub fn jiang(channels: usize, window: usize) -> Self {
        Self {
            channels,
            window,
            conv1_channels: 2,
            conv1_kernel: 3.min(window),
            conv2_channels: 20,
        }
    }

    /// Validates the shape.
    ///
    /// # Errors
    ///
    /// Returns a message if any dimension is zero or the kernel exceeds
    /// the window.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.window == 0 {
            return Err("channels and window must be positive".into());
        }
        if self.conv1_channels == 0 || self.conv2_channels == 0 || self.conv1_kernel == 0 {
            return Err("conv dims must be positive".into());
        }
        if self.conv1_kernel > self.window {
            return Err(format!(
                "conv1 kernel {} exceeds window {}",
                self.conv1_kernel, self.window
            ));
        }
        Ok(())
    }
}

/// The EIIE policy network. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct Eiie {
    config: EiieConfig,
    conv1: Conv1d,
    conv2: Conv1d,
    /// Final scoring weights over `[z2(c2); prev_weight]`.
    head: Vec<f64>,
    head_bias: f64,
    cash_bias: f64,
}

/// Forward trace of an EIIE evaluation: every asset's intermediates,
/// stored asset-major in flat buffers.
///
/// A trace can be reused: [`Eiie::forward_into`] overwrites it in place,
/// so a training loop that keeps one allocates nothing per sample.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EiieTrace {
    /// Asset windows, `assets × (channels · window)`.
    inputs: Vec<f64>,
    /// First-convolution outputs, `assets × (conv1_channels · len1)`.
    pre1: Vec<f64>,
    /// Their ReLU.
    act1: Vec<f64>,
    /// Second-convolution outputs, `assets × conv2_channels`.
    pre2: Vec<f64>,
    /// Their ReLU.
    z2: Vec<f64>,
    /// Each asset's previous portfolio weight.
    prev: Vec<f64>,
    action: Vec<f64>,
}

impl EiieTrace {
    /// The softmax action (cash first).
    pub fn action(&self) -> &[f64] {
        &self.action
    }
}

/// Reusable backward-pass buffers of one [`Eiie`], including the
/// sample's gradient before it joins the minibatch sum.
#[derive(Debug, Clone)]
pub struct EiieScratch {
    dz: Vec<f64>,
    d_pre2: Vec<f64>,
    d_pre1: Vec<f64>,
    /// One asset's first-convolution gradient, summed over positions.
    asset_conv1: Conv1dGradients,
    /// The sample's gradient, summed over assets.
    sample: EiieGradients,
}

impl EiieScratch {
    /// Buffers sized for `net`.
    pub fn new(net: &Eiie) -> Self {
        Self {
            dz: Vec::new(),
            d_pre2: vec![0.0; net.config.conv2_channels],
            d_pre1: vec![0.0; net.config.conv1_channels * net.len1()],
            asset_conv1: Conv1dGradients::zeros(&net.conv1),
            sample: EiieGradients::zeros(net),
        }
    }
}

/// Gradients of every EIIE parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct EiieGradients {
    /// Shared first-convolution gradients (summed across assets).
    pub conv1: Conv1dGradients,
    /// Shared second-convolution gradients.
    pub conv2: Conv1dGradients,
    /// Scoring-head gradients.
    pub d_head: Vec<f64>,
    /// Scoring-head bias gradient.
    pub d_head_bias: f64,
    /// Cash-bias gradient.
    pub d_cash_bias: f64,
}

impl EiieGradients {
    fn zeros(net: &Eiie) -> Self {
        Self {
            conv1: Conv1dGradients::zeros(&net.conv1),
            conv2: Conv1dGradients::zeros(&net.conv2),
            d_head: vec![0.0; net.head.len()],
            d_head_bias: 0.0,
            d_cash_bias: 0.0,
        }
    }

    fn fill(&mut self, value: f64) {
        self.conv1.fill(value);
        self.conv2.fill(value);
        self.d_head.fill(value);
        self.d_head_bias = value;
        self.d_cash_bias = value;
    }
}

impl Gradients for EiieGradients {
    fn accumulate(&mut self, other: &EiieGradients) {
        self.conv1.d_weights.add_scaled(1.0, &other.conv1.d_weights);
        vector::axpy(&mut self.conv1.d_bias, 1.0, &other.conv1.d_bias);
        self.conv2.d_weights.add_scaled(1.0, &other.conv2.d_weights);
        vector::axpy(&mut self.conv2.d_bias, 1.0, &other.conv2.d_bias);
        vector::axpy(&mut self.d_head, 1.0, &other.d_head);
        self.d_head_bias += other.d_head_bias;
        self.d_cash_bias += other.d_cash_bias;
    }

    fn scale(&mut self, alpha: f64) {
        self.conv1.d_weights.scale(alpha);
        self.conv1.d_bias.iter_mut().for_each(|g| *g *= alpha);
        self.conv2.d_weights.scale(alpha);
        self.conv2.d_bias.iter_mut().for_each(|g| *g *= alpha);
        self.d_head.iter_mut().for_each(|g| *g *= alpha);
        self.d_head_bias *= alpha;
        self.d_cash_bias *= alpha;
    }

    fn global_norm(&self) -> f64 {
        let mut sq = 0.0;
        for conv in [&self.conv1, &self.conv2] {
            sq += conv.d_weights.as_slice().iter().map(|g| g * g).sum::<f64>();
            sq += conv.d_bias.iter().map(|g| g * g).sum::<f64>();
        }
        sq += self.d_head.iter().map(|g| g * g).sum::<f64>();
        sq += self.d_head_bias * self.d_head_bias;
        sq += self.d_cash_bias * self.d_cash_bias;
        sq.sqrt()
    }
}

impl Eiie {
    /// Builds an EIIE network.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new<R: Rng + ?Sized>(config: EiieConfig, rng: &mut R) -> Self {
        config.validate().expect("invalid EIIE configuration");
        let conv1 = Conv1d::new(config.channels, config.conv1_channels, config.conv1_kernel, rng);
        let len1 = config.window - config.conv1_kernel + 1;
        let conv2 = Conv1d::new(config.conv1_channels, config.conv2_channels, len1, rng);
        let head: Vec<f64> =
            (0..config.conv2_channels + 1).map(|_| rng.gen_range(-0.1..0.1)).collect();
        Self { config, conv1, conv2, head, head_bias: 0.0, cash_bias: 0.0 }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &EiieConfig {
        &self.config
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.conv1.num_params() + self.conv2.num_params() + self.head.len() + 2
    }

    /// Length of the first convolution's output (the second's kernel).
    fn len1(&self) -> usize {
        self.config.window - self.config.conv1_kernel + 1
    }

    /// Forward pass.
    ///
    /// `assets[a]` is the `channels × window` price window of asset `a`;
    /// `prev_weights` is the previous portfolio vector (cash first,
    /// `assets.len() + 1` long).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward(&self, assets: &[Matrix], prev_weights: &[f64]) -> EiieTrace {
        assert!(!assets.is_empty(), "need at least one asset");
        assert_eq!(prev_weights.len(), assets.len() + 1, "prev_weights length mismatch");
        let mut windows =
            Vec::with_capacity(assets.len() * self.config.channels * self.config.window);
        for (a, input) in assets.iter().enumerate() {
            assert_eq!(
                input.shape(),
                (self.config.channels, self.config.window),
                "asset {a} window shape mismatch"
            );
            windows.extend_from_slice(input.as_slice());
        }
        let mut trace = EiieTrace::default();
        self.forward_into(&windows, prev_weights, &mut trace);
        trace
    }

    /// Forward pass into a reused trace, which is fully overwritten.
    ///
    /// `windows` holds the assets' `channels × window` price windows back
    /// to back (row-major, asset-major); `prev_weights` is the previous
    /// portfolio vector (cash first, one longer than the asset count).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward_into(&self, windows: &[f64], prev_weights: &[f64], trace: &mut EiieTrace) {
        let m = prev_weights.len().saturating_sub(1);
        assert!(m > 0, "need at least one asset");
        let cfg = &self.config;
        let (cw, c1l, c2) =
            (cfg.channels * cfg.window, cfg.conv1_channels * self.len1(), cfg.conv2_channels);
        assert_eq!(windows.len(), m * cw, "window buffer length mismatch");
        trace.inputs.clear();
        trace.inputs.extend_from_slice(windows);
        trace.prev.clear();
        trace.prev.extend_from_slice(&prev_weights[1..]);
        for buf in [&mut trace.pre1, &mut trace.act1] {
            buf.resize(m * c1l, 0.0);
        }
        for buf in [&mut trace.pre2, &mut trace.z2] {
            buf.resize(m * c2, 0.0);
        }
        trace.action.clear();
        trace.action.push(self.cash_bias);
        for a in 0..m {
            let pre1 = &mut trace.pre1[a * c1l..(a + 1) * c1l];
            self.conv1.forward_into(&windows[a * cw..(a + 1) * cw], cfg.window, pre1);
            let act1 = &mut trace.act1[a * c1l..(a + 1) * c1l];
            for (y, &x) in act1.iter_mut().zip(pre1.iter()) {
                *y = x.max(0.0);
            }
            let pre2 = &mut trace.pre2[a * c2..(a + 1) * c2];
            self.conv2.forward_into(act1, self.len1(), pre2);
            let z2 = &mut trace.z2[a * c2..(a + 1) * c2];
            for (y, &x) in z2.iter_mut().zip(pre2.iter()) {
                *y = x.max(0.0);
            }
            let mut score = self.head_bias + self.head[c2] * trace.prev[a];
            for (w, z) in self.head.iter().zip(z2.iter()) {
                score += w * z;
            }
            trace.action.push(score);
        }
        softmax_in_place(&mut trace.action);
    }

    /// Inference only, on asset windows laid out as for
    /// [`forward_into`](Self::forward_into).
    pub fn act(&self, windows: &[f64], prev_weights: &[f64]) -> Vec<f64> {
        let mut trace = EiieTrace::default();
        self.forward_into(windows, prev_weights, &mut trace);
        trace.action
    }

    /// The empty minibatch sum of this network's gradients, for
    /// [`backward_acc`](Self::backward_acc) to fold samples into. It is
    /// `−0.0` throughout, the exact identity of IEEE addition, so the first
    /// fold yields that sample's gradient bit for bit.
    pub fn empty_gradients(&self) -> EiieGradients {
        let mut grads = EiieGradients::zeros(self);
        grads.fill(-0.0);
        grads
    }

    /// Backward pass from `∂L/∂action`.
    ///
    /// # Panics
    ///
    /// Panics if `d_action.len() != trace.action.len()`.
    pub fn backward(&self, trace: &EiieTrace, d_action: &[f64]) -> EiieGradients {
        let mut scratch = EiieScratch::new(self);
        self.sample_gradients(trace, d_action, &mut scratch);
        scratch.sample
    }

    /// Backward pass from `∂L/∂action` that adds this sample's gradients
    /// into the minibatch sum `acc`: bitwise
    /// `acc.accumulate(&self.backward(trace, d_action))`.
    ///
    /// # Panics
    ///
    /// As [`backward`](Self::backward), or if `scratch` or `acc` was sized
    /// for another shape.
    pub fn backward_acc(
        &self,
        trace: &EiieTrace,
        d_action: &[f64],
        scratch: &mut EiieScratch,
        acc: &mut EiieGradients,
    ) {
        self.sample_gradients(trace, d_action, scratch);
        acc.accumulate(&scratch.sample);
    }

    /// One sample's gradients into `scratch.sample`, summed over assets in
    /// asset order from `+0.0`.
    ///
    /// Each asset's first-convolution gradient is a sum over positions, so
    /// it builds in `scratch.asset_conv1` and then joins the sample sum.
    /// The second convolution's kernel spans its whole input
    /// (`out_len == 1`), so each of its gradient entries gains one product
    /// per asset; that product goes straight into the sample sum, which is
    /// never `−0.0`, so `acc + (0.0 + p) == acc + p` keeps the bits.
    fn sample_gradients(&self, trace: &EiieTrace, d_action: &[f64], scratch: &mut EiieScratch) {
        let cfg = &self.config;
        let (cw, c1l, c2) =
            (cfg.channels * cfg.window, cfg.conv1_channels * self.len1(), cfg.conv2_channels);
        let EiieScratch { dz, d_pre2, d_pre1, asset_conv1, sample: grads } = scratch;
        dz.resize(trace.action.len(), 0.0);
        softmax_backward_into(&trace.action, d_action, dz);
        grads.fill(0.0);
        grads.d_cash_bias = dz[0];
        for (a, &ds) in dz[1..].iter().enumerate() {
            if ds == 0.0 {
                continue;
            }
            let z2 = &trace.z2[a * c2..(a + 1) * c2];
            grads.d_head_bias += ds;
            for (g, z) in grads.d_head.iter_mut().zip(z2) {
                *g += ds * z;
            }
            grads.d_head[c2] += ds * trace.prev[a];
            // Back through the z2 ReLU into conv2.
            for ((g, &z), &h) in
                d_pre2.iter_mut().zip(&trace.pre2[a * c2..(a + 1) * c2]).zip(&self.head)
            {
                *g = if z > 0.0 { ds * h } else { 0.0 };
            }
            d_pre1.fill(0.0);
            self.conv2.backward_into(
                &trace.act1[a * c1l..(a + 1) * c1l],
                self.len1(),
                d_pre2,
                (grads.conv2.d_weights.as_mut_slice(), &mut grads.conv2.d_bias),
                Some(d_pre1),
            );
            // Back through the first ReLU into conv1.
            for (g, &z) in d_pre1.iter_mut().zip(&trace.pre1[a * c1l..(a + 1) * c1l]) {
                if z <= 0.0 {
                    *g = 0.0;
                }
            }
            asset_conv1.fill(0.0);
            self.conv1.backward_into(
                &trace.inputs[a * cw..(a + 1) * cw],
                cfg.window,
                d_pre1,
                (asset_conv1.d_weights.as_mut_slice(), &mut asset_conv1.d_bias),
                None,
            );
            grads.conv1.d_weights.add_scaled(1.0, &asset_conv1.d_weights);
            vector::axpy(&mut grads.conv1.d_bias, 1.0, &asset_conv1.d_bias);
        }
    }

    /// Flattens all parameters (test helper; order matches
    /// [`set_flat_params`](Self::set_flat_params)).
    pub fn flat_params(&self) -> Vec<f64> {
        let mut v = Vec::new();
        v.extend_from_slice(self.conv1.weights.as_slice());
        v.extend_from_slice(&self.conv1.bias);
        v.extend_from_slice(self.conv2.weights.as_slice());
        v.extend_from_slice(&self.conv2.bias);
        v.extend_from_slice(&self.head);
        v.push(self.head_bias);
        v.push(self.cash_bias);
        v
    }

    /// Restores parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if the length doesn't match.
    pub fn set_flat_params(&mut self, flat: &[f64]) {
        let mut idx = 0;
        let mut take = |n: usize| {
            let s = &flat[idx..idx + n];
            idx += n;
            s.to_vec()
        };
        let w1 = take(self.conv1.weights.len());
        self.conv1.weights.as_mut_slice().copy_from_slice(&w1);
        self.conv1.bias = take(self.conv1.bias.len());
        let w2 = take(self.conv2.weights.len());
        self.conv2.weights.as_mut_slice().copy_from_slice(&w2);
        self.conv2.bias = take(self.conv2.bias.len());
        self.head = take(self.head.len());
        self.head_bias = take(1)[0];
        self.cash_bias = take(1)[0];
        assert_eq!(idx, flat.len(), "flat parameter vector has wrong length");
    }

    /// Flattens gradients in parameter order (test helper).
    pub fn flat_grads(grads: &EiieGradients) -> Vec<f64> {
        let mut v = Vec::new();
        v.extend_from_slice(grads.conv1.d_weights.as_slice());
        v.extend_from_slice(&grads.conv1.d_bias);
        v.extend_from_slice(grads.conv2.d_weights.as_slice());
        v.extend_from_slice(&grads.conv2.d_bias);
        v.extend_from_slice(&grads.d_head);
        v.push(grads.d_head_bias);
        v.push(grads.d_cash_bias);
        v
    }
}

/// Trainer pairing an [`Eiie`] with an optimizer.
#[derive(Debug)]
pub struct EiieTrainer<O: Optimizer> {
    optimizer: O,
    slots: [ParamSlot; 6],
    /// Optional global-norm clip applied to the flattened gradient.
    pub max_grad_norm: Option<f64>,
}

impl<O: Optimizer> EiieTrainer<O> {
    /// Registers `net`'s parameters.
    pub fn new(net: &Eiie, mut optimizer: O) -> Self {
        let slots = [
            optimizer.register(net.conv1.weights.len()),
            optimizer.register(net.conv1.bias.len()),
            optimizer.register(net.conv2.weights.len()),
            optimizer.register(net.conv2.bias.len()),
            optimizer.register(net.head.len()),
            optimizer.register(2), // head_bias + cash_bias
        ];
        Self { optimizer, slots, max_grad_norm: Some(10.0) }
    }

    /// Applies one descent step, clipping `grads` in place to the
    /// global-norm cap first.
    pub fn apply(&mut self, net: &mut Eiie, grads: &mut EiieGradients) {
        if let Some(max) = self.max_grad_norm {
            let flat = Eiie::flat_grads(grads);
            let norm = flat.iter().map(|g| g * g).sum::<f64>().sqrt();
            if norm > max && norm > 0.0 {
                grads.scale(max / norm);
            }
        }
        self.optimizer.step(
            self.slots[0],
            net.conv1.weights.as_mut_slice(),
            grads.conv1.d_weights.as_slice(),
        );
        self.optimizer.step(self.slots[1], &mut net.conv1.bias, &grads.conv1.d_bias);
        self.optimizer.step(
            self.slots[2],
            net.conv2.weights.as_mut_slice(),
            grads.conv2.d_weights.as_slice(),
        );
        self.optimizer.step(self.slots[3], &mut net.conv2.bias, &grads.conv2.d_bias);
        self.optimizer.step(self.slots[4], &mut net.head, &grads.d_head);
        let mut tail = [net.head_bias, net.cash_bias];
        self.optimizer.step(self.slots[5], &mut tail, &[grads.d_head_bias, grads.d_cash_bias]);
        net.head_bias = tail[0];
        net.cash_bias = tail[1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use spikefolio_tensor::optim::Adam;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    fn windows(m: usize, cfg: &EiieConfig, scale: f64) -> Vec<Matrix> {
        (0..m)
            .map(|a| {
                Matrix::from_fn(cfg.channels, cfg.window, |r, c| {
                    1.0 + scale * ((a + 1) as f64 * 0.1) * ((r + c) as f64 * 0.37).sin()
                })
            })
            .collect()
    }

    #[test]
    fn action_is_on_simplex() {
        let cfg = EiieConfig::jiang(3, 8);
        let net = Eiie::new(cfg, &mut rng());
        let assets = windows(4, &cfg, 1.0);
        let pw = vec![0.2; 5];
        let a = net.forward(&assets, &pw).action().to_vec();
        assert_eq!(a.len(), 5);
        assert!(spikefolio_tensor::simplex::is_on_simplex(&a, 1e-12));
    }

    #[test]
    fn weight_sharing_means_identical_assets_get_identical_scores() {
        let cfg = EiieConfig::jiang(3, 8);
        let net = Eiie::new(cfg, &mut rng());
        let w = windows(1, &cfg, 1.0).pop().unwrap();
        let assets = vec![w.clone(), w];
        let a = net.forward(&assets, &[0.2, 0.4, 0.4]).action().to_vec();
        assert!((a[1] - a[2]).abs() < 1e-12, "identical inputs, identical weights → tie");
    }

    #[test]
    fn gradients_match_finite_differences() {
        let cfg = EiieConfig {
            channels: 2,
            window: 6,
            conv1_channels: 2,
            conv1_kernel: 3,
            conv2_channels: 4,
        };
        let net = Eiie::new(cfg, &mut rng());
        let assets = windows(3, &cfg, 1.0);
        let pw = [0.1, 0.3, 0.3, 0.3];
        let c = [1.0, -0.5, 0.8, -1.2];
        let trace = net.forward(&assets, &pw);
        let grads = net.backward(&trace, &c);
        let analytic = Eiie::flat_grads(&grads);
        let params = net.flat_params();
        assert_eq!(analytic.len(), params.len());
        let loss = |n: &Eiie| -> f64 {
            n.forward(&assets, &pw).action().iter().zip(&c).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-6;
        for i in 0..params.len() {
            let mut pp = params.clone();
            pp[i] += eps;
            let mut np = net.clone();
            np.set_flat_params(&pp);
            let mut pm = params.clone();
            pm[i] -= eps;
            let mut nm = net.clone();
            nm.set_flat_params(&pm);
            let num = (loss(&np) - loss(&nm)) / (2.0 * eps);
            assert!(
                (analytic[i] - num).abs() < 1e-5,
                "param {i}: analytic {} vs numeric {num}",
                analytic[i]
            );
        }
    }

    #[test]
    fn training_steers_action() {
        let cfg = EiieConfig::jiang(3, 6);
        let mut net = Eiie::new(cfg, &mut rng());
        let assets = windows(3, &cfg, 1.0);
        let pw = [0.25; 4];
        let before = net.forward(&assets, &pw).action()[1];
        let mut trainer = EiieTrainer::new(&net, Adam::new(1e-2));
        for _ in 0..100 {
            let trace = net.forward(&assets, &pw);
            let mut grads = net.backward(&trace, &[0.0, -1.0, 0.0, 0.0]);
            trainer.apply(&mut net, &mut grads);
        }
        let after = net.forward(&assets, &pw).action()[1];
        assert!(after > before + 0.2, "a[1] went {before} → {after}");
    }

    #[test]
    fn flat_round_trip() {
        let cfg = EiieConfig::jiang(4, 8);
        let net = Eiie::new(cfg, &mut rng());
        let flat = net.flat_params();
        let mut net2 = Eiie::new(cfg, &mut rng());
        net2.set_flat_params(&flat);
        assert_eq!(net2.flat_params(), flat);
        assert_eq!(net.num_params(), flat.len());
    }

    fn bits(g: &EiieGradients) -> Vec<u64> {
        Eiie::flat_grads(g).iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn in_place_fold_matches_accumulating_backward_bitwise() {
        let cfg = EiieConfig::jiang(3, 6);
        let mut net = Eiie::new(cfg, &mut rng());
        // A first-convolution channel that is dead for every window here.
        net.conv1.bias[1] = -100.0;
        let mut assets = windows(3, &cfg, 1.0);
        assets[1][(2, 3)] = -0.0;
        let pw = [0.25, -0.0, 0.5, 0.25];
        let d_actions = [
            [-1.0, 0.5, 0.0, 2.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.3, -0.7, 1.1, -0.2],
            [-0.0, 1.0, -1.0, 0.5],
        ];
        let trace = net.forward(&assets, &pw);
        let mut flat = Vec::new();
        for a in &assets {
            flat.extend_from_slice(a.as_slice());
        }
        let mut reused = EiieTrace::default();
        net.forward_into(&flat, &pw, &mut reused);
        assert_eq!(reused, trace);

        let mut scratch = EiieScratch::new(&net);
        let mut whole = net.backward(&trace, &d_actions[0]);
        let mut folded = net.empty_gradients();
        for (i, d) in d_actions.iter().enumerate() {
            if i > 0 {
                whole.accumulate(&net.backward(&trace, d));
            }
            net.backward_acc(&reused, d, &mut scratch, &mut folded);
        }
        assert_eq!(bits(&folded), bits(&whole), "from empty");

        let mut acc = whole.clone();
        acc.accumulate(&net.backward(&trace, &d_actions[2]));
        net.backward_acc(&trace, &d_actions[2], &mut scratch, &mut whole);
        assert_eq!(bits(&whole), bits(&acc), "non-empty");

        // A −0.0 cash entry over a zero upstream gradient gives every
        // sample a −0.0 cash-bias gradient, which the sum must keep.
        let silent = [-0.0, 0.0, 0.0, 0.0];
        let mut whole = net.backward(&trace, &silent);
        whole.accumulate(&net.backward(&trace, &silent));
        let mut folded = net.empty_gradients();
        for _ in 0..2 {
            net.backward_acc(&trace, &silent, &mut scratch, &mut folded);
        }
        assert_eq!(whole.d_cash_bias.to_bits(), (-0.0f64).to_bits());
        assert_eq!(bits(&folded), bits(&whole), "−0.0 cash gradient");
    }

    #[test]
    fn config_validation() {
        assert!(EiieConfig::jiang(3, 8).validate().is_ok());
        assert!(EiieConfig { channels: 0, ..EiieConfig::jiang(3, 8) }.validate().is_err());
        let bad = EiieConfig { conv1_kernel: 9, ..EiieConfig::jiang(3, 8) };
        assert!(bad.validate().is_err());
        // jiang() clamps the kernel for tiny windows.
        assert!(EiieConfig::jiang(3, 2).validate().is_ok());
    }
}
