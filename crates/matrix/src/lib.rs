//! Dense and sparse linear algebra substrate for the SD-VBS suite.
//!
//! The original SD-VBS distribution carries its own small matrix library in
//! `common/c` (transpose, multiply, inversion, solvers) because the
//! benchmarks must be self-contained and analyzable. This crate plays the
//! same role for the Rust reproduction: it implements every matrix
//! computation the nine benchmarks need, from scratch, with no external
//! numerical dependencies.
//!
//! Provided factorizations and solvers:
//!
//! * [`Lu`] — LU with partial pivoting (solve, inverse, determinant), used
//!   by the KLT tracker and the SVM interior-point trainer.
//! * [`Qr`] — Householder QR and least-squares solve, used by image stitch
//!   (RANSAC model fitting) and segmentation discretization.
//! * [`SymEigen`] — cyclic Jacobi eigendecomposition of symmetric matrices,
//!   used by normalized-cuts segmentation and patch PCA in texture
//!   synthesis.
//! * [`Svd`] — one-sided (Hestenes) Jacobi singular value decomposition,
//!   used by image stitch.
//! * [`conjugate_gradient`] — CG for symmetric positive definite systems
//!   (the paper's "Conjugate Matrix" kernel in SVM).
//! * [`CsrMatrix`] + [`lanczos`] — sparse symmetric matrices and a Lanczos
//!   eigensolver so normalized cuts can run at full image resolution.
//!
//! # Examples
//!
//! ```
//! use sdvbs_matrix::Matrix;
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let b = vec![1.0, 2.0];
//! let x = a.lu().expect("nonsingular").solve(&b).unwrap();
//! let r = a.matvec(&x);
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cg;
mod eigen;
mod error;
#[cfg(test)]
mod lanczos_reference;
mod lu;
mod mat;
mod qr;
mod sparse;
mod svd;

pub use cg::{conjugate_gradient, CgOutcome, LinearOperator};
pub use eigen::SymEigen;
pub use error::{MatrixError, Result};
pub use lu::Lu;
pub use mat::Matrix;
pub use qr::Qr;
pub use sparse::{lanczos, lanczos_deflated, CsrMatrix, LanczosResult, SparseBuilder};
pub use svd::Svd;
