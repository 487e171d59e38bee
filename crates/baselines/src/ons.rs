//! ONS: Online Newton Step (Agarwal, Hazan, Kale & Schapire, ICML 2006).

use spikefolio_env::{DecisionContext, Policy};
use spikefolio_tensor::simplex::{project_to_simplex_into, renormalize};
use spikefolio_tensor::vector::dot;
use spikefolio_tensor::Matrix;

/// Online Newton Step over the risky assets.
///
/// Maintains the running Hessian-like matrix `A_t = Σ ∇_s∇_sᵀ + I` and
/// gradient sum `b_t = (1 + 1/β) Σ ∇_s` of the log-wealth objective
/// (`∇_s = y_s / (w·y_s)`), and plays
///
/// ```text
/// w_{t+1} = Π^{A_t}_Δ ( δ · A_t⁻¹ b_t )
/// ```
///
/// where `Π^{A}_Δ` is the projection onto the simplex in the `A`-norm,
/// computed here by projected gradient descent on the quadratic. Default
/// parameters follow the OLPS toolbox: `η = 0, β = 1, δ = 1/8`.
///
/// The fold and the projection's iterations run in buffers the object
/// keeps; only the Newton solve and the returned weights allocate.
#[derive(Debug, Clone)]
pub struct Ons {
    beta: f64,
    delta: f64,
    a: Matrix,
    b: Vec<f64>,
    weights: Vec<f64>,
    last_seen: Option<usize>,
    /// Price relatives of the period being folded (cash first), turned
    /// into the gradient `∇_s` in place.
    relatives: Vec<f64>,
    projection: ProjectionScratch,
}

/// Buffers [`Ons::project_a_norm`] reuses across its iterations.
#[derive(Debug, Clone, Default)]
struct ProjectionScratch {
    /// `w − p`, then the descent step the next projection reads.
    diff: Vec<f64>,
    /// `A(w − p)`.
    grad: Vec<f64>,
    /// The simplex projection's sort buffer.
    sorted: Vec<f64>,
}

impl Ons {
    /// ONS with the OLPS-toolbox defaults (`β = 1`, `δ = 1/8`).
    pub fn new() -> Self {
        Self::with_params(1.0, 0.125)
    }

    /// ONS with explicit `β` and `δ`.
    ///
    /// # Panics
    ///
    /// Panics if `beta <= 0` or `delta <= 0`.
    pub fn with_params(beta: f64, delta: f64) -> Self {
        assert!(beta > 0.0 && delta > 0.0, "beta and delta must be positive");
        Self {
            beta,
            delta,
            a: Matrix::zeros(0, 0),
            b: Vec::new(),
            weights: Vec::new(),
            last_seen: None,
            relatives: Vec::new(),
            projection: ProjectionScratch::default(),
        }
    }

    /// Projection onto the simplex in the `A`-norm via projected gradient
    /// descent: minimize `(w−p)ᵀA(w−p)` over the simplex. Writes the
    /// result into `w`.
    fn project_a_norm(
        a: &Matrix,
        p: &[f64],
        iters: usize,
        s: &mut ProjectionScratch,
        w: &mut Vec<f64>,
    ) {
        project_to_simplex_into(p, &mut s.sorted, w);
        // Lipschitz-ish step from the trace (A ⪰ I so trace/m ≥ 1).
        let m = p.len();
        let trace: f64 = (0..m).map(|i| a[(i, i)]).sum();
        let step = 1.0 / (2.0 * trace.max(1.0));
        s.grad.resize(m, 0.0);
        for _ in 0..iters {
            // grad = 2A(w − p)
            s.diff.clear();
            s.diff.extend(w.iter().zip(p).map(|(x, y)| x - y));
            a.matvec_into(&s.diff, &mut s.grad);
            // The descent step overwrites `diff`; the projection reads it.
            for ((d, &wi), &g) in s.diff.iter_mut().zip(w.iter()).zip(&s.grad) {
                *d = wi - 2.0 * step * g;
            }
            project_to_simplex_into(&s.diff, &mut s.sorted, w);
        }
    }
}

impl Default for Ons {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for Ons {
    fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64> {
        let m = ctx.num_assets;
        if self.weights.len() != m {
            self.a = Matrix::identity(m);
            self.b = vec![0.0; m];
            self.weights = vec![1.0 / m as f64; m];
            self.last_seen = None;
        }
        // Fold in every newly observed period.
        let from = self.last_seen.map(|t| t + 1).unwrap_or(1.min(ctx.t));
        for t in from..=ctx.t {
            if t == 0 {
                continue;
            }
            ctx.market.price_relatives_with_cash_into(t, &mut self.relatives);
            let grad = &mut self.relatives[1..];
            let wy = dot(&self.weights, grad).max(1e-12);
            grad.iter_mut().for_each(|yi| *yi /= wy);
            self.a.add_outer(1.0, grad, grad);
            for (bi, &g) in self.b.iter_mut().zip(grad.iter()) {
                *bi += (1.0 + 1.0 / self.beta) * g;
            }
        }
        self.last_seen = Some(ctx.t);

        // Newton point and A-norm projection.
        let p: Vec<f64> = match self.a.solve(&self.b) {
            Some(x) => x.iter().map(|&v| self.delta * v).collect(),
            None => self.weights.clone(),
        };
        Self::project_a_norm(&self.a, &p, 60, &mut self.projection, &mut self.weights);

        let mut w = Vec::with_capacity(m + 1);
        w.push(0.0);
        w.extend_from_slice(&self.weights);
        renormalize(&mut w);
        w
    }

    fn warmup_periods(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "ONS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikefolio_env::Backtester;
    use spikefolio_market::experiments::ExperimentPreset;
    use spikefolio_tensor::simplex::{is_on_simplex, project_to_simplex};

    /// [`Ons::project_a_norm`] on fresh buffers.
    fn project_a_norm(a: &Matrix, p: &[f64], iters: usize) -> Vec<f64> {
        let mut w = Vec::new();
        Ons::project_a_norm(a, p, iters, &mut ProjectionScratch::default(), &mut w);
        w
    }

    #[test]
    fn weights_stay_on_simplex() {
        let market = ExperimentPreset::experiment1().shrunk(40, 10).generate(17);
        let r = Backtester::default().run(&mut Ons::new(), &market);
        for w in &r.weights {
            assert!(is_on_simplex(w, 1e-6));
        }
    }

    #[test]
    fn a_norm_projection_of_feasible_point_is_identity() {
        let a = Matrix::identity(3);
        let p = [0.2, 0.5, 0.3];
        let w = project_a_norm(&a, &p, 100);
        for (x, y) in w.iter().zip(&p) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn a_norm_projection_lands_on_simplex() {
        let mut a = Matrix::identity(3);
        a[(0, 0)] = 5.0; // anisotropic metric
        let w = project_a_norm(&a, &[2.0, -1.0, 0.4], 200);
        assert!(is_on_simplex(&w, 1e-6), "{w:?}");
    }

    #[test]
    fn anisotropic_projection_differs_from_euclidean() {
        // With a strongly anisotropic A, the A-norm projection should favor
        // moving along cheap directions.
        let mut a = Matrix::identity(2);
        a[(0, 0)] = 100.0;
        let p = [0.5, 0.9];
        let w_a = project_a_norm(&a, &p, 500);
        let w_e = project_to_simplex(&p);
        let d: f64 = w_a.iter().zip(&w_e).map(|(x, y)| (x - y).abs()).sum();
        assert!(d > 1e-3, "projections unexpectedly equal: {w_a:?} vs {w_e:?}");
    }

    #[test]
    fn ons_adapts_over_time() {
        let market = ExperimentPreset::experiment1().shrunk(60, 10).generate(17);
        let r = Backtester::default().run(&mut Ons::new(), &market);
        assert!(r.turnover > 0.01, "ONS should trade, turnover {}", r.turnover);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_params_rejected() {
        let _ = Ons::with_params(0.0, 0.1);
    }
}
