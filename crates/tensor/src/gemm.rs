//! Batch-major GEMM kernels for the batched SNN execution engine.
//!
//! These operate on raw row-major slices with explicit dimensions so callers
//! can address *row blocks* of larger stacked matrices (e.g. the timestep
//! blocks of a `(T·B) × dim` spike raster) without copying. The
//! [`Matrix`](crate::Matrix) wrappers `matmul_into`,
//! `matmul_transposed_into`, `affine_transposed_into` and
//! `add_matmul_transposed_lhs` build on them.
//!
//! # Determinism contract
//!
//! The kernels are written so that batched network execution reproduces the
//! per-sample code paths *bitwise*:
//!
//! * [`gemm_nt`] computes every output element as one k-ascending
//!   single-accumulator dot product — the exact summation order of
//!   [`Matrix::matvec`](crate::Matrix::matvec). Blocking is applied over the
//!   `(m, n)` output tiles only, never over `k`, so tiling changes memory
//!   access order but not a single floating-point result. Exact-zero `a`
//!   entries (non-spikes) are skipped; a `±0.0` addend cannot change the
//!   accumulator's bits because the running sum is never `-0.0`.
//! * [`gemm_nn`] accumulates `out[i] += a[i][l] · b[l]` with `l` ascending
//!   and skips zero `a` entries — the exact order (and sparsity shortcut) of
//!   [`Matrix::matvec_transposed`](crate::Matrix::matvec_transposed).
//! * [`gemm_tn_acc`] accumulates rank-1 updates row by row, matching the
//!   `alpha · x · y` evaluation order of
//!   [`Matrix::add_outer`](crate::Matrix::add_outer).

/// Register-block width for [`gemm_nt`] and
/// [`Matrix::matvec_into`](crate::Matrix::matvec_into): each k-sweep drives
/// `TILE` independent accumulator chains (one per output), hiding FP add
/// latency without touching any chain's summation order.
pub(crate) const TILE: usize = 8;

/// `out[m × n] = a[m × k] · b[n × k]ᵀ`.
///
/// Every element is a single k-ascending dot product, so each output row
/// equals `b_matrix.matvec(a_row)` bitwise. Zero `a` entries are skipped:
/// their `±0.0` products can never flip an accumulator bit (the running sum
/// is never `-0.0` under round-to-nearest), and spike rasters — the main
/// `a` operand — are mostly zeros. `out` is fully overwritten.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_nt(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_nt: a length {} != {m}x{k}", a.len());
    assert_eq!(b.len(), n * k, "gemm_nt: b length {} != {n}x{k}", b.len());
    assert_eq!(out.len(), m * n, "gemm_nt: out length {} != {m}x{n}", out.len());
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut j0 = 0;
        while j0 < n {
            let jw = TILE.min(n - j0);
            if jw == TILE {
                // Full tile: TILE independent accumulator chains per
                // k-sweep hide FP add latency; each chain is still one
                // k-ascending dot, so results match matvec bitwise.
                let mut brows: [&[f64]; TILE] = [&[]; TILE];
                for (jj, brow) in brows.iter_mut().enumerate() {
                    let j = j0 + jj;
                    *brow = &b[j * k..(j + 1) * k];
                }
                let mut acc = [0.0f64; TILE];
                for (kk, &x) in arow.iter().enumerate() {
                    if x == 0.0 {
                        continue;
                    }
                    for (av, brow) in acc.iter_mut().zip(&brows) {
                        *av += x * brow[kk];
                    }
                }
                orow[j0..j0 + TILE].copy_from_slice(&acc);
            } else {
                for j in j0..j0 + jw {
                    let brow = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0;
                    for (x, y) in arow.iter().zip(brow) {
                        if *x == 0.0 {
                            continue;
                        }
                        acc += x * y;
                    }
                    orow[j] = acc;
                }
            }
            j0 += jw;
        }
    }
}

/// `out[m × n] = a[m × k] · b[k × n]`, overwriting `out`.
///
/// Row `i` of the result accumulates `a[i][l] · b_row(l)` with `l` ascending
/// and zero `a` entries skipped, so it equals
/// `b_matrix.matvec_transposed(a_row)` bitwise (spike-derived deltas are
/// often sparse, making the skip worthwhile).
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_nn(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_nn: a length {} != {m}x{k}", a.len());
    assert_eq!(b.len(), k * n, "gemm_nn: b length {} != {k}x{n}", b.len());
    assert_eq!(out.len(), m * n, "gemm_nn: out length {} != {m}x{n}", out.len());
    out.iter_mut().for_each(|v| *v = 0.0);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (l, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[l * n..(l + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// `out[m × n] += alpha · a[rows × m]ᵀ · b[rows × n]`.
///
/// Accumulates one rank-1 update per `a`/`b` row pair, rows ascending, with
/// zero `a` entries skipped — each row contributes exactly like
/// `out_matrix.add_outer(alpha, a_row, b_row)`. This is the single-GEMM
/// weight-gradient kernel: with `a` the stacked `Δc(t)` rows and `b` the
/// stacked input spikes, it forms `∇W += α · Σ_t Δc(t)ᵀ · o_in(t)`.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_tn_acc(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    rows: usize,
    m: usize,
    n: usize,
) {
    assert_eq!(a.len(), rows * m, "gemm_tn_acc: a length {} != {rows}x{m}", a.len());
    assert_eq!(b.len(), rows * n, "gemm_tn_acc: b length {} != {rows}x{n}", b.len());
    assert_eq!(out.len(), m * n, "gemm_tn_acc: out length {} != {m}x{n}", out.len());
    for r in 0..rows {
        let arow = &a[r * m..(r + 1) * m];
        let brow = &b[r * n..(r + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += alpha * av * bv;
            }
        }
    }
}

/// Dense multiply–accumulate count of an `m×k · k×n` product: the work a
/// kernel with no sparsity skip would perform. Saturates instead of
/// overflowing on pathological shapes.
pub fn dense_mac_count(m: usize, k: usize, n: usize) -> u64 {
    (m as u64).saturating_mul(k as u64).saturating_mul(n as u64)
}

/// Multiply–accumulates the zero-skipping kernels actually perform for an
/// `a[m × k]` left operand fanned out over `n` outputs: every *non-zero*
/// `a` entry costs `n` MACs ([`gemm_nt`] row-dot form, [`gemm_nn`] and
/// [`gemm_tn_acc`] row-broadcast form alike). With a spike raster as `a`
/// this is exactly `spikes · n` — the synaptic-operation count of the
/// neuromorphic cost model.
///
/// Saturates instead of overflowing.
pub fn effective_mac_count(a: &[f64], n: usize) -> u64 {
    let nonzero = a.iter().filter(|&&x| x != 0.0).count() as u64;
    nonzero.saturating_mul(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Small deterministic pseudo-random fill without an RNG dependency.
        Matrix::from_fn(rows, cols, |r, c| {
            let x = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((r * cols + c + 1) as u64)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    #[test]
    fn gemm_nt_rows_match_matvec_bitwise() {
        let mut a = mat(7, 13, 1); // 7 samples × 13 features
                                   // Exact zeros exercise the sparsity skip against the dense matvec.
        for i in 0..7 {
            a.row_mut(i)[i % 13] = 0.0;
            a.row_mut(i)[(i + 5) % 13] = 0.0;
        }
        let w = mat(5, 13, 2); // 5 outputs × 13 features
        let mut out = vec![0.0; 7 * 5];
        gemm_nt(a.as_slice(), w.as_slice(), &mut out, 7, 13, 5);
        for i in 0..7 {
            let per_sample = w.matvec(a.row(i));
            assert_eq!(&out[i * 5..(i + 1) * 5], per_sample.as_slice(), "row {i}");
        }
    }

    #[test]
    fn gemm_nt_tiling_covers_ragged_edges() {
        // Dimensions straddling the tile size exercise the partial tiles.
        for (m, n) in [(1, 1), (8, 8), (9, 17), (16, 3)] {
            let a = mat(m, 4, 3);
            let b = mat(n, 4, 4);
            let mut out = vec![f64::NAN; m * n];
            gemm_nt(a.as_slice(), b.as_slice(), &mut out, m, 4, n);
            for i in 0..m {
                for j in 0..n {
                    let expect: f64 = a.row(i).iter().zip(b.row(j)).map(|(x, y)| x * y).sum();
                    assert!((out[i * n + j] - expect).abs() < 1e-12, "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn gemm_nn_rows_match_matvec_transposed_bitwise() {
        let mut a = mat(6, 9, 5);
        // Inject exact zeros to exercise the sparsity skip.
        for i in 0..6 {
            a.row_mut(i)[i % 9] = 0.0;
        }
        let w = mat(9, 4, 6);
        let mut out = vec![0.0; 6 * 4];
        gemm_nn(a.as_slice(), w.as_slice(), &mut out, 6, 9, 4);
        for i in 0..6 {
            let per_sample = w.matvec_transposed(a.row(i));
            assert_eq!(&out[i * 4..(i + 1) * 4], per_sample.as_slice(), "row {i}");
        }
    }

    #[test]
    fn gemm_nn_overwrites_stale_output() {
        let a = mat(2, 3, 7);
        let b = mat(3, 2, 8);
        let mut out = vec![99.0; 4];
        gemm_nn(a.as_slice(), b.as_slice(), &mut out, 2, 3, 2);
        let reference = a.matmul(&b);
        for (x, y) in out.iter().zip(reference.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn gemm_tn_acc_matches_summed_outer_products() {
        let a = mat(11, 5, 9); // 11 stacked delta rows, 5 outputs
        let b = mat(11, 7, 10); // 11 stacked input rows, 7 inputs
        let mut fast = Matrix::zeros(5, 7);
        gemm_tn_acc(1.0, a.as_slice(), b.as_slice(), fast.as_mut_slice(), 11, 5, 7);
        let mut reference = Matrix::zeros(5, 7);
        for r in 0..11 {
            reference.add_outer(1.0, a.row(r), b.row(r));
        }
        assert_eq!(fast, reference, "row-ascending rank-1 order must match add_outer");
    }

    #[test]
    fn gemm_tn_acc_scales_and_accumulates() {
        let a = mat(3, 2, 11);
        let b = mat(3, 2, 12);
        let mut out = Matrix::filled(2, 2, 1.0);
        gemm_tn_acc(0.5, a.as_slice(), b.as_slice(), out.as_mut_slice(), 3, 2, 2);
        let mut reference = Matrix::filled(2, 2, 1.0);
        for r in 0..3 {
            reference.add_outer(0.5, a.row(r), b.row(r));
        }
        assert_eq!(out, reference);
    }

    #[test]
    fn op_counts_report_dense_and_effective_macs() {
        assert_eq!(dense_mac_count(7, 13, 5), 7 * 13 * 5);
        assert_eq!(dense_mac_count(usize::MAX, usize::MAX, 2), u64::MAX);
        // 2 of 6 entries are exact zeros: only 4 fan out over n = 3.
        let a = [0.0, 1.0, 0.5, 0.0, -2.0, 1.0];
        assert_eq!(effective_mac_count(&a, 3), 4 * 3);
        assert_eq!(effective_mac_count(&[], 3), 0);
        // A dense operand costs the full dense count.
        let dense = [1.0; 12]; // 4×3 lhs
        assert_eq!(effective_mac_count(&dense, 5), dense_mac_count(4, 3, 5));
    }

    #[test]
    #[should_panic(expected = "gemm_nt: a length")]
    fn gemm_nt_rejects_bad_dims() {
        let mut out = vec![0.0; 4];
        gemm_nt(&[1.0; 5], &[1.0; 6], &mut out, 2, 3, 2);
    }
}
