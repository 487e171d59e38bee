//! Probability-simplex utilities shared by the policies and baselines.
//!
//! Portfolio weight vectors live on the simplex `Δ^n = {w : w_i ≥ 0,
//! Σ w_i = 1}`. The [ONS baseline] needs Euclidean projection onto `Δ^n`
//! ([`project_to_simplex`], the algorithm of Duchi et al. 2008; its
//! buffer-reusing form [`project_to_simplex_into`]), and several
//! strategies start from the uniform point ([`uniform_simplex`]).
//!
//! [ONS baseline]: https://doi.org/10.1145/1143844.1143846

/// Returns the uniform vector `(1/n, …, 1/n)`.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Example
///
/// ```
/// assert_eq!(spikefolio_tensor::uniform_simplex(4), vec![0.25; 4]);
/// ```
pub fn uniform_simplex(n: usize) -> Vec<f64> {
    assert!(n > 0, "uniform_simplex: n must be positive");
    vec![1.0 / n as f64; n]
}

/// Euclidean projection of `v` onto the probability simplex.
///
/// Implements the `O(n log n)` sort-based algorithm of Duchi, Shalev-Shwartz,
/// Singer & Chandra (ICML 2008). The result is the unique point on the
/// simplex closest to `v` in L2 distance. Allocating wrapper over
/// [`project_to_simplex_into`].
///
/// # Panics
///
/// Panics if `v` is empty.
///
/// # Example
///
/// ```
/// let w = spikefolio_tensor::project_to_simplex(&[0.5, 0.5, 0.5]);
/// assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// ```
pub fn project_to_simplex(v: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(v.len());
    project_to_simplex_into(v, &mut Vec::with_capacity(v.len()), &mut out);
    out
}

/// [`project_to_simplex`] into `out`, sorting a copy of `v` in `scratch`.
/// Both buffers are cleared first, so whatever they held is ignored and
/// a caller can reuse them across calls without allocating.
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn project_to_simplex_into(v: &[f64], scratch: &mut Vec<f64>, out: &mut Vec<f64>) {
    assert!(!v.is_empty(), "project_to_simplex: empty input");
    scratch.clear();
    scratch.extend_from_slice(v);
    scratch.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let mut css = 0.0;
    let mut theta = 0.0;
    for (i, &ui) in scratch.iter().enumerate() {
        css += ui;
        let t = (css - 1.0) / (i + 1) as f64;
        if ui - t > 0.0 {
            theta = t;
        }
    }
    out.clear();
    out.extend(v.iter().map(|&x| (x - theta).max(0.0)));
}

/// Checks whether `w` lies on the probability simplex within tolerance
/// `tol` (all entries ≥ `-tol` and the sum within `tol` of 1).
pub fn is_on_simplex(w: &[f64], tol: f64) -> bool {
    !w.is_empty()
        && w.iter().all(|&x| x >= -tol && x.is_finite())
        && (w.iter().sum::<f64>() - 1.0).abs() <= tol
}

/// Renormalizes `w` in place so that it sums to 1, clamping negatives to 0.
/// Falls back to the uniform point if everything clamps to zero.
pub fn renormalize(w: &mut [f64]) {
    if w.is_empty() {
        return;
    }
    let mut s = 0.0;
    for x in w.iter_mut() {
        if !x.is_finite() || *x < 0.0 {
            *x = 0.0;
        }
        s += *x;
    }
    if s > 0.0 {
        w.iter_mut().for_each(|x| *x /= s);
    } else {
        let u = 1.0 / w.len() as f64;
        w.iter_mut().for_each(|x| *x = u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `v` reshaped by `mode`: 0 as drawn, 1 snapped to a coarse grid (so
    /// entries tie), 2 all negative, 3 scaled to large magnitudes.
    fn shaped(v: &[f64], mode: u32) -> Vec<f64> {
        v.iter()
            .map(|&x| match mode {
                0 => x,
                1 => (x * 2.0).round() / 2.0,
                2 => -x.abs() - 1e-3,
                _ => x * 1e12,
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Buffers left dirty by another length and other values, then
        /// reused call after call, give a fresh projection's bits.
        #[test]
        fn reused_dirty_buffers_project_like_fresh_ones(
            first in proptest::collection::vec(-2.0f64..2.0, 1..12),
            second in proptest::collection::vec(-2.0f64..2.0, 1..12),
            mode in 0u32..4,
            junk in proptest::collection::vec(-1e6f64..1e6, 0..16),
        ) {
            let mut scratch = junk.clone();
            let mut out = junk;
            out.push(f64::NAN);
            for v in [shaped(&first, mode), shaped(&second, mode), shaped(&first[..1], mode)] {
                project_to_simplex_into(&v, &mut scratch, &mut out);
                let fresh = project_to_simplex(&v);
                prop_assert!(bits(&out) == bits(&fresh), "{v:?}: reused {out:?}, fresh {fresh:?}");
            }
        }
    }

    #[test]
    fn uniform_is_on_simplex() {
        assert!(is_on_simplex(&uniform_simplex(7), 1e-12));
    }

    #[test]
    fn projection_of_simplex_point_is_identity() {
        let w = [0.2, 0.3, 0.5];
        let p = project_to_simplex(&w);
        for (a, b) in w.iter().zip(&p) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_lands_on_simplex() {
        let cases: [&[f64]; 4] =
            [&[10.0, -3.0, 0.5], &[0.0, 0.0, 0.0], &[-1.0, -2.0], &[100.0, 100.0, 100.0, 100.0]];
        for v in cases {
            let p = project_to_simplex(v);
            assert!(is_on_simplex(&p, 1e-9), "projection of {v:?} gave {p:?}");
        }
    }

    #[test]
    fn projection_of_dominant_coordinate_is_vertex() {
        let p = project_to_simplex(&[5.0, 0.0, 0.0]);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert_eq!(&p[1..], &[0.0, 0.0]);
    }

    #[test]
    fn projection_is_idempotent() {
        let p1 = project_to_simplex(&[0.9, -0.4, 0.8, 0.1]);
        let p2 = project_to_simplex(&p1);
        for (a, b) in p1.iter().zip(&p2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn renormalize_handles_bad_inputs() {
        let mut w = vec![-1.0, f64::NAN, 0.0];
        renormalize(&mut w);
        assert!(is_on_simplex(&w, 1e-12));
        let mut w2 = vec![2.0, 2.0];
        renormalize(&mut w2);
        assert_eq!(w2, vec![0.5, 0.5]);
    }

    #[test]
    fn is_on_simplex_rejects_bad_vectors() {
        assert!(!is_on_simplex(&[], 1e-9));
        assert!(!is_on_simplex(&[0.5, 0.6], 1e-9));
        assert!(!is_on_simplex(&[-0.5, 1.5], 1e-9));
        assert!(!is_on_simplex(&[f64::NAN, 1.0], 1e-9));
    }
}
