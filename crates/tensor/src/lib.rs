//! Minimal dense linear algebra for the `spikefolio` workspace.
//!
//! Every other crate in the workspace builds on the two value types defined
//! here: [`Matrix`] (row-major, `f64`) and plain `&[f64]` slices for vectors
//! (helpers in [`vector`]). The crate deliberately avoids external BLAS or
//! ndarray dependencies: the networks in the paper are small (hidden layers
//! of 128 neurons, eleven assets), so a straightforward, well-tested
//! implementation is both sufficient and fully auditable.
//!
//! # Example
//!
//! ```
//! use spikefolio_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let x = [1.0, 1.0];
//! let y = a.matvec(&x);
//! assert_eq!(y, vec![3.0, 7.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gemm;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod optim;
pub mod simplex;
pub mod sparse;
pub mod vector;

pub use matrix::Matrix;
pub use ops::{log_sum_exp, softmax_in_place};
pub use simplex::{project_to_simplex, uniform_simplex};

/// Error type for shape mismatches in tensor operations.
///
/// Most operations in this crate panic on shape mismatch (the shapes are
/// static properties of the networks being built and a mismatch is a
/// programming error), but fallible entry points such as
/// [`Matrix::try_from_vec`] return this error instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    msg: String,
}

impl ShapeError {
    /// Creates a new shape error with the given description.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shape mismatch: {}", self.msg)
    }
}

impl std::error::Error for ShapeError {}
