//! Helper operations on `&[f64]` vectors.
//!
//! Vectors in the workspace are plain slices/`Vec<f64>`; these free functions
//! cover the handful of numeric kernels shared by the SNN, the environment,
//! and the baseline strategies.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// assert_eq!(spikefolio_tensor::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// In-place `a += alpha * b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(a: &mut [f64], alpha: f64, b: &[f64]) {
    assert_eq!(a.len(), b.len(), "axpy: length mismatch {} vs {}", a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += alpha * y;
    }
}

/// Element-wise sum of all entries.
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Arithmetic mean; returns 0.0 for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        sum(a) / a.len() as f64
    }
}

/// Population variance; returns 0.0 for slices shorter than 2.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / a.len() as f64
}

/// Population standard deviation.
pub fn std_dev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

/// Euclidean (L2) norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Maximum value; returns `f64::NEG_INFINITY` for an empty slice.
pub fn max(a: &[f64]) -> f64 {
    a.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
}

/// Minimum value; returns `f64::INFINITY` for an empty slice.
pub fn min(a: &[f64]) -> f64 {
    a.iter().fold(f64::INFINITY, |m, &v| m.min(v))
}

/// Index of the maximum element (first occurrence); `None` if empty or if
/// every element is NaN.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Pearson correlation of two equal-length samples; 0.0 if either side has
/// zero variance.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "correlation: length mismatch");
    if a.len() < 2 {
        return 0.0;
    }
    let (ma, mb) = (mean(a), mean(b));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

/// Element-wise absolute difference summed: `Σ |a_i - b_i|` (turnover).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "l1_distance: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[3.0, 4.0], &[3.0, 4.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = vec![1.0, 2.0];
        axpy(&mut a, 2.0, &[10.0, 20.0]);
        assert_eq!(a, vec![21.0, 42.0]);
    }

    #[test]
    fn stats_on_known_sample() {
        let s = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&s), 5.0);
        assert_eq!(variance(&s), 4.0);
        assert_eq!(std_dev(&s), 2.0);
    }

    #[test]
    fn stats_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(max(&[]), f64::NEG_INFINITY);
        assert_eq!(min(&[]), f64::INFINITY);
    }

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN, 2.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN]), None);
        // Ties resolve to the first occurrence.
        assert_eq!(argmax(&[5.0, 5.0]), Some(0));
    }

    #[test]
    fn correlation_of_linear_series_is_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((correlation(&a, &b) - 1.0).abs() < 1e-12);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((correlation(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_degenerate_is_zero() {
        assert_eq!(correlation(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(correlation(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn l1_distance_is_turnover() {
        assert_eq!(l1_distance(&[0.5, 0.5], &[1.0, 0.0]), 1.0);
    }
}
