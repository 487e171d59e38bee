//! Numerically stable reductions used by the policy decoders.

/// Numerically stable log-sum-exp: `ln Σ exp(x_i)`.
///
/// Returns `f64::NEG_INFINITY` for an empty slice.
///
/// # Example
///
/// ```
/// let lse = spikefolio_tensor::log_sum_exp(&[0.0, 0.0]);
/// assert!((lse - (2.0f64).ln()).abs() < 1e-12);
/// ```
pub fn log_sum_exp(x: &[f64]) -> f64 {
    if x.is_empty() {
        return f64::NEG_INFINITY;
    }
    let m = x.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    if m.is_infinite() {
        return m;
    }
    let s: f64 = x.iter().map(|&v| (v - m).exp()).sum();
    m + s.ln()
}

/// Numerically stable softmax in place: `x_i ← exp(x_i) / Σ exp(x_j)`.
///
/// This is the paper's decoder normalization (eq. 10 applied to the
/// exponentiated `tempAction` of Algorithm 1). The result always sums to
/// 1 and lies on the probability simplex.
///
/// # Example
///
/// ```
/// let mut w = [1.0, 1.0, 1.0];
/// spikefolio_tensor::softmax_in_place(&mut w);
/// assert!(w.iter().all(|&v| (v - 1.0 / 3.0).abs() < 1e-12));
/// ```
pub fn softmax_in_place(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let m = x.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let mut s = 0.0;
    for v in x.iter_mut() {
        *v = (*v - m).exp();
        s += *v;
    }
    if s > 0.0 {
        for v in x.iter_mut() {
            *v /= s;
        }
    } else {
        // All inputs were -inf; fall back to uniform.
        let u = 1.0 / x.len() as f64;
        x.iter_mut().for_each(|v| *v = u);
    }
}

/// Backward pass of softmax: given output `y = softmax(x)` and upstream
/// gradient `dy`, returns `dx`.
///
/// Uses the standard Jacobian–vector product
/// `dx_i = y_i (dy_i - Σ_j y_j dy_j)`.
///
/// # Panics
///
/// Panics if `y.len() != dy.len()`.
pub fn softmax_backward(y: &[f64], dy: &[f64]) -> Vec<f64> {
    let mut dx = vec![0.0; y.len()];
    softmax_backward_into(y, dy, &mut dx);
    dx
}

/// [`softmax_backward`] into a caller-owned buffer, which is fully
/// overwritten.
///
/// # Panics
///
/// Panics if the three lengths disagree.
pub fn softmax_backward_into(y: &[f64], dy: &[f64], dx: &mut [f64]) {
    assert_eq!(y.len(), dy.len(), "softmax_backward: length mismatch");
    assert_eq!(y.len(), dx.len(), "softmax_backward: output length mismatch");
    let inner: f64 = y.iter().zip(dy).map(|(a, b)| a * b).sum();
    for (d, (&yi, &di)) in dx.iter_mut().zip(y.iter().zip(dy)) {
        *d = yi * (di - inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_handles_large_values() {
        let v = [1000.0, 1000.0];
        assert!((log_sum_exp(&v) - (1000.0 + (2.0f64).ln())).abs() < 1e-9);
    }

    #[test]
    fn log_sum_exp_empty_is_neg_inf() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    /// [`softmax_in_place`] on a copy of `x`.
    fn softmax(x: &[f64]) -> Vec<f64> {
        let mut y = x.to_vec();
        softmax_in_place(&mut y);
        y
    }

    #[test]
    fn softmax_sums_to_one_and_preserves_order() {
        let y = softmax(&[1.0, 2.0, 3.0]);
        assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(y[0] < y[1] && y[1] < y[2]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0]);
        let b = softmax(&[101.0, 102.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_all_neg_inf_falls_back_to_uniform() {
        let y = softmax(&[f64::NEG_INFINITY, f64::NEG_INFINITY]);
        assert_eq!(y, vec![0.5, 0.5]);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let x = [0.3, -1.2, 0.7, 0.1];
        let dy = [1.0, -0.5, 0.25, 2.0];
        let y = softmax(&x);
        let dx = softmax_backward(&y, &dy);
        let eps = 1e-6;
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let yp = softmax(&xp);
            let ym = softmax(&xm);
            let num: f64 =
                yp.iter().zip(&ym).zip(&dy).map(|((p, m), d)| d * (p - m) / (2.0 * eps)).sum();
            assert!((dx[i] - num).abs() < 1e-6, "component {i}: {} vs {}", dx[i], num);
        }
    }
}
