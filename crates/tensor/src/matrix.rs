//! Row-major dense matrix of `f64` values.

use crate::gemm::TILE;
use crate::ShapeError;

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse of the workspace: network weights, price
/// windows, and spike rasters are all stored in this type. Data is owned and
/// contiguous, so iteration over rows is cache-friendly.
///
/// # Example
///
/// ```
/// use spikefolio_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row {i} has length {} but expected {cols}", row.len());
            data.extend_from_slice(row);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Creates a matrix from an owned data vector in row-major order.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `data.len() != rows * cols`.
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(format!(
                "data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates an identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col index {c} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|r| self.data[r * self.cols + c]).collect()
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// Matrix–vector product into a caller-owned buffer: `out = self * x`.
    ///
    /// Every output is one k-ascending single-accumulator dot product. Rows
    /// go in blocks of eight that share one sweep over `x`, so eight
    /// independent chains hide the add latency without changing any chain's
    /// order; leftover rows run alone. Zero inputs are not skipped, so NaN
    /// and ±inf propagate as in a plain dot product. `out` is fully
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: vector length {} != cols {}", x.len(), self.cols);
        assert_eq!(
            out.len(),
            self.rows,
            "matvec: output length {} != rows {}",
            out.len(),
            self.rows
        );
        let k = self.cols;
        let mut blocks = out.chunks_exact_mut(TILE);
        for (b, oblk) in (&mut blocks).enumerate() {
            let base = b * TILE * k;
            let rows: [&[f64]; TILE] =
                std::array::from_fn(|j| &self.data[base + j * k..base + (j + 1) * k]);
            let mut acc = [0.0f64; TILE];
            for (kk, &xv) in x.iter().enumerate() {
                for (av, row) in acc.iter_mut().zip(&rows) {
                    *av += row[kk] * xv;
                }
            }
            oblk.copy_from_slice(&acc);
        }
        let done = self.rows - self.rows % TILE;
        let rest = blocks.into_remainder();
        for (r, o) in (done..).zip(rest.iter_mut()) {
            let row = &self.data[r * k..(r + 1) * k];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *o = acc;
        }
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.matvec_transposed_into(x, &mut out);
        out
    }

    /// Transposed matrix–vector product into a caller-owned buffer:
    /// `out = selfᵀ * x`, accumulating row by row with zero `x` entries
    /// skipped (spike vectors are sparse). `out` is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `out.len() != cols`.
    pub fn matvec_transposed_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(
            x.len(),
            self.rows,
            "matvec_transposed: vector length {} != rows {}",
            x.len(),
            self.rows
        );
        assert_eq!(
            out.len(),
            self.cols,
            "matvec_transposed: output length {} != cols {}",
            out.len(),
            self.cols
        );
        out.fill(0.0);
        for (r, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &w) in out.iter_mut().zip(row) {
                *o += w * xv;
            }
        }
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: lhs cols {} != rhs rows {}",
            self.cols, other.rows
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let dst = &mut out.data[r * other.cols..(r + 1) * other.cols];
                for (d, &b) in dst.iter_mut().zip(orow) {
                    *d += a * b;
                }
            }
        }
        out
    }

    /// Matrix–matrix product into a caller-owned output: `out = self * other`.
    ///
    /// Allocation-free variant of [`Matrix::matmul`] built on
    /// [`gemm_nn`](crate::gemm::gemm_nn); `out` is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows` or `out` is not
    /// `self.rows × other.cols`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul_into: lhs cols {} != rhs rows {}",
            self.cols, other.rows
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul_into: out shape {:?} != {:?}",
            out.shape(),
            (self.rows, other.cols)
        );
        crate::gemm::gemm_nn(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// Batched matrix product against a transposed weight matrix:
    /// `out = self * otherᵀ`.
    ///
    /// With `self` holding one sample per row, row `i` of `out` equals
    /// `other.matvec(self.row(i))` bitwise (see [`gemm_nt`](crate::gemm::gemm_nt)).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols` or `out` is not
    /// `self.rows × other.rows`.
    pub fn matmul_transposed_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed_into: lhs cols {} != rhs cols {}",
            self.cols, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "matmul_transposed_into: out shape {:?} != {:?}",
            out.shape(),
            (self.rows, other.rows)
        );
        crate::gemm::gemm_nt(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.rows,
        );
    }

    /// Batched affine map `out = self * wᵀ + bias` with the bias broadcast
    /// across rows: row `i` of `out` is `w · self.row(i) + bias`.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or `bias.len() != w.rows`.
    pub fn affine_transposed_into(&self, w: &Matrix, bias: &[f64], out: &mut Matrix) {
        assert_eq!(
            bias.len(),
            w.rows,
            "affine_transposed_into: bias length {} != w rows {}",
            bias.len(),
            w.rows
        );
        self.matmul_transposed_into(w, out);
        for r in 0..out.rows {
            let row = &mut out.data[r * out.cols..(r + 1) * out.cols];
            for (o, &b) in row.iter_mut().zip(bias) {
                *o += b;
            }
        }
    }

    /// Accumulates `alpha * aᵀ * b` into `self`, where `a` and `b` share
    /// their row count: the sum of per-row outer products
    /// `alpha · a.row(r) ⊗ b.row(r)` in row-ascending order (the batched
    /// form of repeated [`Matrix::add_outer`] calls).
    ///
    /// # Panics
    ///
    /// Panics if `a.rows != b.rows` or `self` is not `a.cols × b.cols`.
    pub fn add_matmul_transposed_lhs(&mut self, alpha: f64, a: &Matrix, b: &Matrix) {
        assert_eq!(
            a.rows, b.rows,
            "add_matmul_transposed_lhs: a rows {} != b rows {}",
            a.rows, b.rows
        );
        assert_eq!(
            self.shape(),
            (a.cols, b.cols),
            "add_matmul_transposed_lhs: self shape {:?} != {:?}",
            self.shape(),
            (a.cols, b.cols)
        );
        crate::gemm::gemm_tn_acc(alpha, &a.data, &b.data, &mut self.data, a.rows, a.cols, b.cols);
    }

    /// Returns the transpose of `self`.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.data[c * self.cols + r])
    }

    /// Writes the transpose of `self` into `out` without allocating.
    ///
    /// Used by the event-driven forward path, which re-transposes the
    /// weights into a reusable workspace buffer once per batched call.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `cols × rows`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose_into: out shape {:?} != {:?}",
            out.shape(),
            (self.cols, self.rows)
        );
        // Tiled copy: within a tile both the source rows and the
        // destination rows are short contiguous runs, so one side of the
        // transpose no longer strides a cache line per element. Pure data
        // movement — bit-for-bit the same result as the naive loop.
        const TILE: usize = 32;
        for r0 in (0..self.rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(self.rows);
            for c0 in (0..self.cols).step_by(TILE) {
                let c1 = (c0 + TILE).min(self.cols);
                for r in r0..r1 {
                    let src = &self.data[r * self.cols + c0..r * self.cols + c1];
                    for (c, &v) in (c0..).zip(src) {
                        out.data[c * self.rows + r] = v;
                    }
                }
            }
        }
    }

    /// Adds `alpha * x yᵀ` (outer product) into `self` in place.
    ///
    /// Used for gradient accumulation `∇W += δ ⊗ input`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `y.len() != cols`.
    pub fn add_outer(&mut self, alpha: f64, x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), self.rows, "add_outer: x length {} != rows {}", x.len(), self.rows);
        assert_eq!(y.len(), self.cols, "add_outer: y length {} != cols {}", y.len(), self.cols);
        for (r, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (w, &yv) in row.iter_mut().zip(y) {
                *w += alpha * xv * yv;
            }
        }
    }

    /// Element-wise in-place addition of `alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_scaled: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sets every element to zero, retaining the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Maximum absolute value of any element (0.0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Solves the linear system `self · x = b` by Gaussian elimination with
    /// partial pivoting. Returns `None` if the matrix is singular (pivot
    /// below `1e-12`) or not square.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != rows`.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        if self.rows != self.cols {
            return None;
        }
        assert_eq!(b.len(), self.rows, "solve: rhs length mismatch");
        let n = self.rows;
        // Augmented working copy.
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            for r in col + 1..n {
                if a[r * n + col].abs() > a[pivot * n + col].abs() {
                    pivot = r;
                }
            }
            if a[pivot * n + col].abs() < 1e-12 {
                return None;
            }
            if pivot != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot * n + c);
                }
                x.swap(col, pivot);
            }
            let p = a[col * n + col];
            for r in col + 1..n {
                let f = a[r * n + col] / p;
                if f == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= f * a[col * n + c];
                }
                x[r] -= f * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut s = x[col];
            for c in col + 1..n {
                s -= a[col * n + c] * x[c];
            }
            x[col] = s / a[col * n + col];
        }
        Some(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_values() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_round_trips() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "row 1")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn try_from_vec_checks_length() {
        assert!(Matrix::try_from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::try_from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    /// The single-chain dot the tiled `matvec` must reproduce bitwise.
    fn naive_matvec(m: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..m.rows())
            .map(|r| {
                let mut acc = 0.0;
                for (a, b) in m.row(r).iter().zip(x) {
                    acc += a * b;
                }
                acc
            })
            .collect()
    }

    /// Ordinary values with exact zeros and −0.0 sprinkled in.
    fn value(i: usize, salt: usize) -> f64 {
        match (i.wrapping_mul(0x9e37_79b9) ^ salt.wrapping_mul(0x85eb_ca6b)) % 23 {
            0 => 0.0,
            1 => -0.0,
            _ => ((i * 31 + salt * 17) % 61) as f64 / 7.0 - 4.0,
        }
    }

    #[test]
    fn tiled_matvec_is_bitwise_the_single_chain_dot() {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for rows in [1, 7, 8, 9, 24, 36] {
            for cols in [0, 1, 420] {
                // Case 0: ordinary values only, so every output is compared
                // bit for bit. Case 1: NaN, +inf and −inf in the weights,
                // each in a row of its own where rows allow, the +inf facing
                // a zero input. Cases 2–4: one of them in `x`, which
                // reaches every output.
                for case in 0..5 {
                    let mut m = Matrix::from_fn(rows, cols, |r, c| value(r * cols + c, case));
                    let mut x: Vec<f64> = (0..cols).map(|c| value(c, case + 7)).collect();
                    if cols > 0 {
                        match case {
                            0 => {}
                            1 => {
                                for (j, &v) in specials.iter().enumerate() {
                                    m[((j * 5) % rows, (j * 13) % cols)] = v;
                                }
                                // 0 · inf is NaN: a kernel that skipped
                                // zero inputs would miss it.
                                x[13 % cols] = 0.0;
                            }
                            _ => x[(case * 97) % cols] = specials[case - 2],
                        }
                    }
                    let mut into = vec![f64::NAN; rows];
                    m.matvec_into(&x, &mut into);
                    let expect = naive_matvec(&m, &x);
                    for got in [m.matvec(&x), into] {
                        for (r, (g, want)) in got.iter().zip(&expect).enumerate() {
                            if want.is_nan() {
                                assert!(g.is_nan(), "{rows}x{cols} case {case} row {r}: {g}");
                            } else {
                                assert_eq!(
                                    g.to_bits(),
                                    want.to_bits(),
                                    "{rows}x{cols} case {case} row {r}: {g} != {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matvec_transposed_into_overwrites_its_buffer() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut out = vec![9.0; 3];
        m.matvec_transposed_into(&[2.0, -1.0], &mut out);
        assert_eq!(out, m.matvec_transposed(&[2.0, -1.0]));
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = [2.0, -1.0];
        assert_eq!(m.matvec_transposed(&x), m.transposed().matvec(&x));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_is_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn transpose_into_matches_transposed() {
        let m = Matrix::from_fn(4, 7, |r, c| (r * 7 + c) as f64 * 0.25);
        let mut out = Matrix::filled(7, 4, f64::NAN);
        m.transpose_into(&mut out);
        assert_eq!(out, m.transposed());
    }

    #[test]
    #[should_panic(expected = "transpose_into: out shape")]
    fn transpose_into_rejects_wrong_shape() {
        let m = Matrix::zeros(2, 3);
        let mut out = Matrix::zeros(2, 3);
        m.transpose_into(&mut out);
    }

    #[test]
    fn add_outer_accumulates_gradient() {
        let mut g = Matrix::zeros(2, 3);
        g.add_outer(2.0, &[1.0, -1.0], &[1.0, 0.0, 2.0]);
        assert_eq!(g, Matrix::from_rows(&[&[2.0, 0.0, 4.0], &[-2.0, 0.0, -4.0]]));
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 3.0);
        a.add_scaled(0.5, &b);
        assert_eq!(a, Matrix::filled(2, 2, 2.5));
        a.scale(2.0);
        assert_eq!(a, Matrix::filled(2, 2, 5.0));
    }

    #[test]
    fn norms_and_sums() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.sum(), 7.0);
    }

    #[test]
    fn map_preserves_shape() {
        let m = Matrix::from_fn(2, 2, |r, c| (r + c) as f64);
        let doubled = m.map(|v| 2.0 * v);
        assert_eq!(doubled[(1, 1)], 4.0);
        assert_eq!(doubled.shape(), m.shape());
    }

    #[test]
    fn fill_zero_clears_values() {
        let mut m = Matrix::filled(2, 2, 9.0);
        m.fill_zero();
        assert_eq!(m, Matrix::zeros(2, 2));
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::identity(2);
        assert!(!format!("{m}").is_empty());
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x_true = [1.5, -0.5];
        let b = a.matvec(&x_true);
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
        let rect = Matrix::zeros(2, 3);
        assert!(rect.solve(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn solve_identity_is_identity() {
        let i = Matrix::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.solve(&b).unwrap(), b.to_vec());
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 * 0.5 - 2.0);
        let b = Matrix::from_fn(4, 2, |r, c| (r + c) as f64 * 0.25);
        let mut out = Matrix::filled(3, 2, f64::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn matmul_transposed_into_rows_match_matvec_bitwise() {
        let samples = Matrix::from_fn(5, 6, |r, c| ((r * 6 + c) as f64).sin());
        let w = Matrix::from_fn(3, 6, |r, c| ((r * 6 + c) as f64).cos());
        let mut out = Matrix::zeros(5, 3);
        samples.matmul_transposed_into(&w, &mut out);
        for r in 0..5 {
            assert_eq!(out.row(r), w.matvec(samples.row(r)).as_slice(), "row {r}");
        }
    }

    #[test]
    fn affine_transposed_into_broadcasts_bias() {
        let samples = Matrix::from_fn(4, 3, |r, c| (r + c) as f64);
        let w = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64 * 0.1);
        let bias = [1.0, -2.0];
        let mut out = Matrix::zeros(4, 2);
        samples.affine_transposed_into(&w, &bias, &mut out);
        for r in 0..4 {
            let z = w.matvec(samples.row(r));
            for (j, &b) in bias.iter().enumerate() {
                assert!((out[(r, j)] - (z[j] + b)).abs() < 1e-12, "({r},{j})");
            }
        }
    }

    #[test]
    fn add_matmul_transposed_lhs_matches_outer_sum() {
        let a = Matrix::from_fn(6, 2, |r, c| (r as f64 - c as f64) * 0.3);
        let b = Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f64 * 0.2 - 1.0);
        let mut fast = Matrix::zeros(2, 3);
        fast.add_matmul_transposed_lhs(1.5, &a, &b);
        let mut reference = Matrix::zeros(2, 3);
        for r in 0..6 {
            reference.add_outer(1.5, a.row(r), b.row(r));
        }
        assert_eq!(fast, reference);
    }

    #[test]
    #[should_panic(expected = "matmul_into: out shape")]
    fn matmul_into_rejects_bad_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let mut out = Matrix::zeros(3, 2);
        a.matmul_into(&b, &mut out);
    }
}
