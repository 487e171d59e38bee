//! Event-driven sparse spike kernels and the compact spike-set
//! representation behind them.
//!
//! A spike raster is mostly zeros: at paper scale roughly one in five
//! synapses sees an event per timestep (the committed bench baseline
//! measured ~518k synops against ~2.49M dense MACs at batch 1). The dense
//! GEMM kernels in [`crate::gemm`] already *skip* zero entries, but they
//! still **scan** every entry — once per output tile — to find the active
//! ones. The kernels here invert that: a [`SpikeSet`] records the active
//! column indices of every raster row once, and the compute kernels touch
//! only those columns.
//!
//! # Determinism contract
//!
//! Every kernel reproduces the dense reference **bitwise**:
//!
//! * [`spike_drive`] accumulates `out[b][j] += x_k · wt[k][j]` with `k`
//!   ascending over the active set — the same additions, in the same
//!   order, as the k-ascending zero-skipping dot products of
//!   [`crate::gemm::gemm_nt`]. Each output element is one accumulator
//!   chain; the 8-wide inner lanes run *across* independent `j` chains and
//!   never reassociate within one. A narrow layer (at most
//!   [`REG_TILE_MAX_OUT`] outputs) holds each chain in a register tile
//!   instead of in `out`: the tile starts at `0.0`, takes the sample's
//!   events k-ascending, and is stored once. Each element still sees
//!   `0.0 + x₁w₁ + x₂w₂ + …` in that order, so where the chain lives
//!   cannot change a bit.
//! * [`spike_outer_acc`] applies rank-1 updates row-ascending with the
//!   `(alpha · a) · b` evaluation order of
//!   [`crate::gemm::gemm_tn_acc`]. Skipping zero `b` columns cannot flip
//!   an accumulator bit: a `±0.0` addend only matters when the running sum
//!   is `-0.0`, which a sum of non-`-0.0` addends never produces under
//!   round-to-nearest.

use crate::Matrix;

/// Compact event representation of a spike raster or stacked spike
/// matrix: per row, the ascending column indices of the non-zero entries
/// (CSR without values — values stay in the dense matrix, which batch
/// drivers keep anyway for the backward pass, so graded "soft" spikes are
/// handled transparently).
///
/// Iteration order is fully deterministic: rows in push order, indices
/// ascending within a row — the exact traversal order of the dense
/// zero-skipping kernels, which is what makes the sparse kernels bitwise
/// reproducible.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpikeSet {
    cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes `indices` for row `r`.
    row_ptr: Vec<u32>,
    /// Active column indices, ascending within each row.
    indices: Vec<u32>,
}

impl SpikeSet {
    /// An empty set over `cols` columns (no rows yet).
    ///
    /// # Panics
    ///
    /// Panics if `cols` exceeds `u32::MAX` (indices are stored as `u32`).
    pub fn new(cols: usize) -> Self {
        assert!(cols <= u32::MAX as usize, "SpikeSet supports at most 2^32-1 columns");
        Self { cols, row_ptr: vec![0], indices: Vec::new() }
    }

    /// Builds the set of one dense matrix (every `!= 0.0` entry is an
    /// event).
    pub fn from_matrix(m: &Matrix) -> Self {
        let mut set = Self::new(m.cols());
        for r in 0..m.rows() {
            set.push_row(m.row(r));
        }
        set
    }

    /// Drops all rows (capacity is kept for reuse across calls).
    pub fn clear(&mut self) {
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.indices.clear();
    }

    /// Appends one row: records the ascending indices of every non-zero
    /// entry of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` disagrees with the set's column count.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "push_row: row length {} != {}", row.len(), self.cols);
        // Branchless compaction: writing the candidate index
        // unconditionally and bumping the cursor by the 0/1 comparison
        // keeps the scan free of data-dependent branches — raster
        // occupancy is ~50% during training, the worst case for the
        // branch predictor.
        let start = self.indices.len();
        self.indices.resize(start + row.len(), 0);
        let buf = &mut self.indices[start..];
        let mut len = 0usize;
        for (k, &x) in row.iter().enumerate() {
            buf[len] = k as u32;
            len += usize::from(x != 0.0);
        }
        self.indices.truncate(start + len);
        let end = u32::try_from(self.indices.len()).expect("SpikeSet event count overflows u32");
        self.row_ptr.push(end);
    }

    /// Number of recorded rows.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Column count the set was built for.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of events (non-zero entries) across all rows.
    pub fn nnz(&self) -> u64 {
        self.indices.len() as u64
    }

    /// The ascending active column indices of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[u32] {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        &self.indices[lo..hi]
    }

    /// Reconstructs the 0/1 occupancy matrix of the recorded events
    /// (`1.0` where an event was pushed). Round-trip check:
    /// `SpikeSet::from_matrix(m).occupancy()` marks exactly the non-zero
    /// entries of `m`.
    pub fn occupancy(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows(), self.cols);
        for r in 0..self.rows() {
            let row = m.row_mut(r);
            for &k in self.row(r) {
                row[k as usize] = 1.0;
            }
        }
        m
    }
}

/// `out[b][j] += x · w[j]` across eight independent `j` lanes. Each `out[j]`
/// is its own accumulator chain, so the unrolling changes instruction-level
/// parallelism (and lets the autovectorizer emit SIMD mul+add) without
/// reordering any chain — bitwise identical to the naive loop.
///
/// Always inlined: at small fan-out (the final population layer is ~a
/// dozen outputs) a real call per event would cost as much as the madds.
#[inline(always)]
fn axpy_lanes(x: f64, w: &[f64], out: &mut [f64]) {
    debug_assert_eq!(w.len(), out.len());
    let lanes = out.len() & !7;
    let (o8, o_tail) = out.split_at_mut(lanes);
    let (w8, w_tail) = w.split_at(lanes);
    for (o, wv) in o8.chunks_exact_mut(8).zip(w8.chunks_exact(8)) {
        o[0] += x * wv[0];
        o[1] += x * wv[1];
        o[2] += x * wv[2];
        o[3] += x * wv[3];
        o[4] += x * wv[4];
        o[5] += x * wv[5];
        o[6] += x * wv[6];
        o[7] += x * wv[7];
    }
    for (o, &wv) in o_tail.iter_mut().zip(w_tail) {
        *o += x * wv;
    }
}

/// Widest layer whose drive runs in register tiles: up to this many
/// outputs, [`spike_drive`] accumulates each sample's row in
/// const-width tiles (32/24/16/8 lanes, then a 1–7 tail) over all of the
/// sample's events and stores it once; wider layers stream every event's
/// `Wᵀ` row through `out`.
///
/// Measured in release (`target-cpu=native`, 2-vCPU AVX-512 VM), one
/// timestep at B = 4 with half the inputs spiking, best of 9 runs: at
/// 576→24 (the smoke desk's input layer) the tiles take 5.0–6.7 µs
/// against 11.3–16.2 µs streamed, since the streaming form reloads and
/// restores the whole output row per event and store-to-load forwarding
/// sets its pace; at 3640→64 they run 1.2–1.5× faster. At 3640→96 and
/// 3640→128 they run at 0.80–1.18× the streaming form: those layers are
/// bound by streaming `Wᵀ` rows (2.8–3.7 MB) from memory, not by the
/// output row, so the paper-shape hidden layers keep the streaming form.
pub const REG_TILE_MAX_OUT: usize = 64;

/// One `W`-lane register tile of a sample's drive: output columns
/// `j0..j0 + W` accumulate every event k-ascending from `0.0`, then store
/// once.
#[inline(always)]
fn drive_tile<const W: usize>(
    vrow: &[f64],
    active: &[u32],
    wt: &[f64],
    n: usize,
    j0: usize,
    orow: &mut [f64],
) {
    let mut acc = [0.0f64; W];
    for &ki in active {
        let ki = ki as usize;
        let x = vrow[ki];
        let w = &wt[ki * n + j0..ki * n + j0 + W];
        for (a, &wv) in acc.iter_mut().zip(w) {
            *a += x * wv;
        }
    }
    orow[j0..j0 + W].copy_from_slice(&acc);
}

/// The last `n − j0 < 8` columns of a sample's drive, as [`drive_tile`].
#[inline(always)]
fn drive_tail(vrow: &[f64], active: &[u32], wt: &[f64], n: usize, j0: usize, orow: &mut [f64]) {
    let mut acc = [0.0f64; 8];
    let acc = &mut acc[..n - j0];
    for &ki in active {
        let ki = ki as usize;
        let x = vrow[ki];
        for (a, &wv) in acc.iter_mut().zip(&wt[ki * n + j0..(ki + 1) * n]) {
            *a += x * wv;
        }
    }
    orow[j0..].copy_from_slice(acc);
}

/// One sample's drive row of a narrow layer (`n ≤ REG_TILE_MAX_OUT`) in
/// register tiles: 32 lanes while they fit, then one 24-, 16- or 8-lane
/// tile, then the tail. Overwrites every element of `orow`.
fn drive_row_tiled(vrow: &[f64], active: &[u32], wt: &[f64], n: usize, orow: &mut [f64]) {
    let mut j0 = 0;
    while n - j0 >= 32 {
        drive_tile::<32>(vrow, active, wt, n, j0, orow);
        j0 += 32;
    }
    match n - j0 {
        24.. => {
            drive_tile::<24>(vrow, active, wt, n, j0, orow);
            j0 += 24;
        }
        16.. => {
            drive_tile::<16>(vrow, active, wt, n, j0, orow);
            j0 += 16;
        }
        8.. => {
            drive_tile::<8>(vrow, active, wt, n, j0, orow);
            j0 += 8;
        }
        _ => {}
    }
    if j0 < n {
        drive_tail(vrow, active, wt, n, j0, orow);
    }
}

/// Event-driven synaptic drive: `out[bsz × n] = vals[bsz × k] · wt[k × n]`
/// where only the columns recorded in `set` (stack rows
/// `row0..row0 + bsz`) are touched. `wt` is the **transposed** weight
/// matrix (`in_dim × out_dim`), so each event streams one contiguous row.
///
/// The result is bitwise identical to
/// [`crate::gemm::gemm_nt`]`(vals, w, out, bsz, k, n)` with `w` the
/// untransposed `n × k` weights (see the [module docs](self)). `out` is
/// fully overwritten.
///
/// Returns the synaptic-operation count actually performed:
/// `events · n`, the event-driven cost-model quantity. Callers compare it
/// against the cost model's independently derived synops so kernels and
/// accounting cannot drift apart.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions, or the set
/// does not cover `row0 + bsz` rows of width `k`.
#[allow(clippy::too_many_arguments)] // mirrors the gemm kernel signature shape
pub fn spike_drive(
    vals: &[f64],
    set: &SpikeSet,
    row0: usize,
    wt: &[f64],
    out: &mut [f64],
    bsz: usize,
    k: usize,
    n: usize,
) -> u64 {
    assert_eq!(vals.len(), bsz * k, "spike_drive: vals length {} != {bsz}x{k}", vals.len());
    assert_eq!(wt.len(), k * n, "spike_drive: wt length {} != {k}x{n}", wt.len());
    assert_eq!(out.len(), bsz * n, "spike_drive: out length {} != {bsz}x{n}", out.len());
    assert_eq!(set.cols(), k, "spike_drive: set width {} != {k}", set.cols());
    assert!(
        row0 + bsz <= set.rows(),
        "spike_drive: set has {} rows, need {}",
        set.rows(),
        row0 + bsz
    );
    let mut events = 0u64;
    // Per sample, the event list is the iteration space: no scan, no
    // data-dependent branch per presynaptic neuron.
    for b in 0..bsz {
        let active = set.row(row0 + b);
        events += active.len() as u64;
        let vrow = &vals[b * k..(b + 1) * k];
        let orow = &mut out[b * n..(b + 1) * n];
        if n <= REG_TILE_MAX_OUT {
            drive_row_tiled(vrow, active, wt, n, orow);
        } else {
            orow.fill(0.0);
            for &ki in active {
                let ki = ki as usize;
                axpy_lanes(vrow[ki], &wt[ki * n..(ki + 1) * n], orow);
            }
        }
    }
    events.saturating_mul(n as u64)
}

/// Event-driven weight-gradient accumulation:
/// `out[m × n] += alpha · a[rows × m]ᵀ · b[rows × n]`, touching only the
/// `b` columns recorded in `set` — the sparse counterpart of
/// [`crate::gemm::gemm_tn_acc`] with `b` the stacked input spikes.
///
/// Bitwise identical to the dense kernel: each output element receives
/// its contributions in the same row-ascending order.
///
/// Returns the multiply–accumulates actually performed
/// (`Σ_r nonzero(a_r) · active(b_r)`).
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions or the set does
/// not describe `b` (`rows × n`).
#[allow(clippy::too_many_arguments)]
pub fn spike_outer_acc(
    alpha: f64,
    a: &[f64],
    b_vals: &[f64],
    set: &SpikeSet,
    out: &mut [f64],
    rows: usize,
    m: usize,
    n: usize,
) -> u64 {
    assert_eq!(a.len(), rows * m, "spike_outer_acc: a length {} != {rows}x{m}", a.len());
    assert_eq!(b_vals.len(), rows * n, "spike_outer_acc: b length {} != {rows}x{n}", b_vals.len());
    assert_eq!(out.len(), m * n, "spike_outer_acc: out length {} != {m}x{n}", out.len());
    assert_eq!(set.cols(), n, "spike_outer_acc: set width {} != {n}", set.cols());
    assert_eq!(set.rows(), rows, "spike_outer_acc: set has {} rows, need {rows}", set.rows());
    // Below this occupancy the indexed gather (scalar, but touching only
    // active columns) beats streaming the whole row; above it the full
    // contiguous update vectorizes and wins. Both accumulate the same
    // per-element contributions in the same order — the extra `coef·0.0`
    // addends of the full-row form cannot flip an accumulator bit (see
    // the module docs' signed-zero argument).
    const GATHER_MAX_EIGHTHS: usize = 1;
    let mut macs = 0u64;
    for r in 0..rows {
        let active = set.row(r);
        if active.is_empty() {
            continue;
        }
        let gather = active.len() * 8 <= n * GATHER_MAX_EIGHTHS;
        let arow = &a[r * m..(r + 1) * m];
        let brow = &b_vals[r * n..(r + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            macs += active.len() as u64;
            let coef = alpha * av;
            let orow = &mut out[i * n..(i + 1) * n];
            if gather {
                for &idx in active {
                    let idx = idx as usize;
                    orow[idx] += coef * brow[idx];
                }
            } else {
                // Same inner form as `gemm_tn_acc`: the whole row,
                // SIMD-friendly contiguous.
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += coef * bv;
                }
            }
        }
    }
    macs
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::gemm;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let x = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((r * cols + c + 1) as u64)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    /// A raster-like 0/1 matrix with deterministic ~30% density.
    fn raster(rows: usize, cols: usize, seed: u64) -> Matrix {
        mat(rows, cols, seed).map(|v| if v > 0.2 { 1.0 } else { 0.0 })
    }

    #[test]
    fn spike_set_round_trips_occupancy() {
        let m = raster(7, 13, 3);
        let set = SpikeSet::from_matrix(&m);
        assert_eq!(set.rows(), 7);
        assert_eq!(set.cols(), 13);
        assert_eq!(set.occupancy(), m, "0/1 raster must round-trip exactly");
        let nonzero = m.as_slice().iter().filter(|&&x| x != 0.0).count() as u64;
        assert_eq!(set.nnz(), nonzero);
    }

    #[test]
    fn spike_set_indices_ascend_deterministically() {
        let m = raster(5, 24, 9);
        let set = SpikeSet::from_matrix(&m);
        for r in 0..set.rows() {
            let row = set.row(r);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {r} not strictly ascending");
        }
        // Clearing and pushing the same rows again is bit-for-bit identical.
        let mut again = set.clone();
        again.clear();
        for r in 0..m.rows() {
            again.push_row(m.row(r));
        }
        assert_eq!(again, set);
    }

    #[test]
    fn spike_set_handles_empty_and_full_rows() {
        let mut m = Matrix::zeros(3, 6);
        m.row_mut(1).iter_mut().for_each(|v| *v = 1.0);
        let set = SpikeSet::from_matrix(&m);
        assert!(set.row(0).is_empty());
        assert_eq!(set.row(1), &[0, 1, 2, 3, 4, 5]);
        assert!(set.row(2).is_empty());
        assert_eq!(set.nnz(), 6);
    }

    #[test]
    fn clear_keeps_width_and_resets_rows() {
        let mut set = SpikeSet::from_matrix(&raster(4, 5, 1));
        set.clear();
        assert_eq!(set.rows(), 0);
        assert_eq!(set.cols(), 5);
        assert_eq!(set.nnz(), 0);
        set.push_row(&[0.0, 2.0, 0.0, -1.0, 0.0]);
        assert_eq!(set.row(0), &[1, 3]);
    }

    #[test]
    fn spike_drive_matches_gemm_nt_bitwise() {
        let (bsz, k, n) = (5, 17, 11);
        let a = raster(bsz, k, 4);
        let w = mat(n, k, 5); // out × in, the gemm_nt layout
        let wt = w.transposed();
        let set = SpikeSet::from_matrix(&a);
        let mut dense = vec![0.0; bsz * n];
        gemm::gemm_nt(a.as_slice(), w.as_slice(), &mut dense, bsz, k, n);
        let mut sparse = vec![f64::NAN; bsz * n];
        let synops = spike_drive(a.as_slice(), &set, 0, wt.as_slice(), &mut sparse, bsz, k, n);
        assert_eq!(sparse, dense, "sparse drive must equal the dense kernel exactly");
        assert_eq!(synops, set.nnz() * n as u64);
    }

    #[test]
    fn spike_drive_handles_graded_soft_spikes() {
        // Non-binary "soft" spike values must flow through the value path.
        let (bsz, k, n) = (3, 9, 7);
        let a = mat(bsz, k, 8).map(|v| if v > 0.0 { v } else { 0.0 });
        let w = mat(n, k, 9);
        let set = SpikeSet::from_matrix(&a);
        let mut dense = vec![0.0; bsz * n];
        gemm::gemm_nt(a.as_slice(), w.as_slice(), &mut dense, bsz, k, n);
        let mut sparse = vec![0.0; bsz * n];
        spike_drive(a.as_slice(), &set, 0, w.transposed().as_slice(), &mut sparse, bsz, k, n);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn spike_drive_matches_gemm_nt_bitwise_at_every_tile_width() {
        // Widths around every register-tile boundary, the threshold and
        // the streaming form; graded soft spikes, stale NaN output.
        let (bsz, k) = (3, 41);
        let a = mat(bsz, k, 31).map(|v| if v > -0.1 { v + 0.1 } else { 0.0 });
        let set = SpikeSet::from_matrix(&a);
        for n in [1, 7, 8, 9, 23, 24, 25, 31, 32, 33, 48, 63, 64, 65, 128] {
            let w = mat(n, k, 32 + n as u64);
            let mut dense = vec![0.0; bsz * n];
            gemm::gemm_nt(a.as_slice(), w.as_slice(), &mut dense, bsz, k, n);
            let mut sparse = vec![f64::NAN; bsz * n];
            let wt = w.transposed();
            let synops = spike_drive(a.as_slice(), &set, 0, wt.as_slice(), &mut sparse, bsz, k, n);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sparse), bits(&dense), "n = {n}");
            assert_eq!(synops, set.nnz() * n as u64, "n = {n}");
        }
    }

    #[test]
    fn spike_drive_overwrites_stale_output_rows() {
        let (bsz, k, n) = (2, 6, 4);
        let a = Matrix::zeros(bsz, k); // silent input: drive must be all zero
        let set = SpikeSet::from_matrix(&a);
        let w = mat(n, k, 12);
        let mut out = vec![42.0; bsz * n];
        let synops =
            spike_drive(a.as_slice(), &set, 0, w.transposed().as_slice(), &mut out, bsz, k, n);
        assert!(out.iter().all(|&v| v == 0.0));
        assert_eq!(synops, 0);
    }

    #[test]
    fn spike_drive_addresses_row_blocks_of_a_stack() {
        // A (T·B) stack: the kernel must read the right row block.
        let (t_max, bsz, k, n) = (3, 2, 8, 5);
        let stack = raster(t_max * bsz, k, 13);
        let w = mat(n, k, 14);
        let set = SpikeSet::from_matrix(&stack);
        for t in 0..t_max {
            let block = &stack.as_slice()[t * bsz * k..(t + 1) * bsz * k];
            let mut dense = vec![0.0; bsz * n];
            gemm::gemm_nt(block, w.as_slice(), &mut dense, bsz, k, n);
            let mut sparse = vec![0.0; bsz * n];
            spike_drive(block, &set, t * bsz, w.transposed().as_slice(), &mut sparse, bsz, k, n);
            assert_eq!(sparse, dense, "timestep {t}");
        }
    }

    #[test]
    fn spike_outer_acc_matches_gemm_tn_acc_bitwise() {
        let (rows, m, n) = (11, 5, 9);
        let a = mat(rows, m, 15); // dense delta stack
        let b = raster(rows, n, 16); // sparse input spikes
        let set = SpikeSet::from_matrix(&b);
        let mut dense = mat(m, n, 17); // non-zero start: kernel accumulates
        let mut sparse = dense.clone();
        gemm::gemm_tn_acc(0.7, a.as_slice(), b.as_slice(), dense.as_mut_slice(), rows, m, n);
        let macs = spike_outer_acc(
            0.7,
            a.as_slice(),
            b.as_slice(),
            &set,
            sparse.as_mut_slice(),
            rows,
            m,
            n,
        );
        assert_eq!(sparse, dense, "sparse gradient kernel must match dense bitwise");
        assert!(macs > 0);
    }

    #[test]
    fn spike_outer_acc_skips_silent_rows_without_changing_results() {
        let (rows, m, n) = (6, 4, 7);
        let a = mat(rows, m, 18);
        let mut b = raster(rows, n, 19);
        b.row_mut(2).iter_mut().for_each(|v| *v = 0.0); // silent timestep
        let set = SpikeSet::from_matrix(&b);
        let mut dense = Matrix::zeros(m, n);
        let mut sparse = Matrix::zeros(m, n);
        gemm::gemm_tn_acc(1.0, a.as_slice(), b.as_slice(), dense.as_mut_slice(), rows, m, n);
        spike_outer_acc(1.0, a.as_slice(), b.as_slice(), &set, sparse.as_mut_slice(), rows, m, n);
        assert_eq!(sparse, dense);
    }

    #[test]
    #[should_panic(expected = "spike_drive: set width")]
    fn spike_drive_rejects_mismatched_set() {
        let a = raster(2, 4, 20);
        let set = SpikeSet::from_matrix(&raster(2, 5, 20));
        let mut out = vec![0.0; 2 * 3];
        let w = mat(4, 3, 21);
        spike_drive(a.as_slice(), &set, 0, w.as_slice(), &mut out, 2, 4, 3);
    }

    #[test]
    #[should_panic(expected = "push_row: row length")]
    fn push_row_rejects_wrong_width() {
        let mut set = SpikeSet::new(4);
        set.push_row(&[1.0, 0.0]);
    }
}
