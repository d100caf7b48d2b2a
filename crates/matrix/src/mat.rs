//! Dense row-major matrix of `f64` values.

use crate::eigen::SymEigen;
use crate::error::{MatrixError, Result};
use crate::lu::Lu;
use crate::qr::Qr;
use crate::svd::Svd;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix of `f64` values.
///
/// This is the workhorse container of the suite's numerical substrate. It is
/// intentionally simple — contiguous storage, explicit loops — mirroring the
/// "clean C" philosophy of SD-VBS, which keeps the code easy to analyze and
/// transform.
///
/// # Examples
///
/// ```
/// use sdvbs_matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = (&a * &b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::DimensionMismatch {
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row index {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow row `i` mutably.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.rows,
            "row index {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "column index {j} out of bounds for {} columns",
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yi = acc;
        }
        y
    }

    /// Matrix product `A B`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                expected: (self.cols, rhs.cols),
                found: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner traversal contiguous for both
        // operands, which matters for the larger SVM working sets.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, r) in orow.iter_mut().zip(rrow) {
                    *o += aik * r;
                }
            }
        }
        Ok(out)
    }

    /// Gram matrix `Aᵀ A` (always symmetric positive semi-definite).
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        if self.cols == 0 {
            return g;
        }
        // Row i adds `row[a] · row[a..]` to the upper part of G's row a,
        // one slice at a time; each entry still sums over i ascending.
        for row in self.data.chunks_exact(self.cols) {
            for (a, (&ra, g_row)) in row
                .iter()
                .zip(g.data.chunks_exact_mut(self.cols))
                .enumerate()
            {
                if ra == 0.0 {
                    continue;
                }
                for (gab, &rb) in g_row[a..].iter_mut().zip(&row[a..]) {
                    *gab += ra * rb;
                }
            }
        }
        for a in 0..self.cols {
            for b in 0..a {
                g[(a, b)] = g[(b, a)];
            }
        }
        g
    }

    /// Extracts the sub-matrix with rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are out of bounds or reversed.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "column range out of bounds");
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute entry, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Whether the matrix is symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::NotSquare`] for non-square input and
    /// [`MatrixError::Singular`] if a pivot collapses to zero.
    pub fn lu(&self) -> Result<Lu> {
        Lu::new(self)
    }

    /// Householder QR factorization.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::Empty`] for an empty matrix.
    pub fn qr(&self) -> Result<Qr> {
        Qr::new(self)
    }

    /// Cyclic-Jacobi eigendecomposition of a symmetric matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::NotSquare`] for non-square input.
    pub fn sym_eigen(&self) -> Result<SymEigen> {
        SymEigen::new(self)
    }

    /// One-sided Jacobi singular value decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::Empty`] for an empty matrix or
    /// [`MatrixError::NoConvergence`] if sweeps fail to converge.
    pub fn svd(&self) -> Result<Svd> {
        Svd::new(self)
    }

    /// Inverse via LU factorization.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Matrix::lu`].
    pub fn inverse(&self) -> Result<Matrix> {
        self.lu()?.inverse()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Result<Matrix>;

    fn add(self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::DimensionMismatch {
                expected: self.shape(),
                found: rhs.shape(),
            });
        }
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o += r;
        }
        Ok(out)
    }
}

impl Sub for &Matrix {
    type Output = Result<Matrix>;

    fn sub(self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::DimensionMismatch {
                expected: self.shape(),
                found: rhs.shape(),
            });
        }
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o -= r;
        }
        Ok(out)
    }
}

impl Mul for &Matrix {
    type Output = Result<Matrix>;

    fn mul(self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  ")?;
            let cshow = self.cols.min(8);
            for j in 0..cshow {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Gram product as written before the slice loop: every entry of
    /// the upper triangle through bounds-checked `(row, col)` indexing.
    fn reference_gram(m: &Matrix) -> Matrix {
        let mut g = Matrix::zeros(m.cols, m.cols);
        for i in 0..m.rows {
            let row = m.row(i);
            for a in 0..m.cols {
                let ra = row[a];
                if ra == 0.0 {
                    continue;
                }
                for b in a..m.cols {
                    g[(a, b)] += ra * row[b];
                }
            }
        }
        for a in 0..m.cols {
            for b in 0..a {
                g[(a, b)] = g[(b, a)];
            }
        }
        g
    }

    /// `gram` equals the indexed loop to the bit: every width 1–64, the
    /// texture PCA's 3,360×40 neighborhood matrix, empty shapes, and rows
    /// with zero entries (the `ra == 0.0` skip, which also keeps a `-0.0`
    /// or a NaN product out of the sums) or wholly zero.
    #[test]
    fn gram_matches_the_indexed_loop_bit_for_bit() {
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut shapes: Vec<(usize, usize)> = (1..=64).map(|c| (c + 5, c)).collect();
        shapes.extend([(3360, 40), (0, 5), (5, 0), (0, 0), (1, 1)]);
        for (rows, cols) in shapes {
            let m = Matrix::from_fn(rows, cols, |i, _| {
                let x = next();
                match (i % 7, x) {
                    (3, _) => 0.0,
                    (_, x) if x < 0.2 => 0.0,
                    (_, x) if x < 0.25 => -0.0,
                    (_, x) if x > 0.999 => f64::INFINITY,
                    (_, x) => (x - 0.5) * 255.0,
                }
            });
            let bits = |g: &Matrix| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&m.gram()) == bits(&reference_gram(&m)),
                "{rows}x{cols}"
            );
        }
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert!(i.is_symmetric(0.0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0, 2.0], &[0.0, 3.0, 1.0]]);
        let x = vec![2.0, 1.0, 0.5];
        let y = a.matvec(&x);
        assert_eq!(y, vec![2.0, 3.5]);
    }

    #[test]
    fn gram_is_symmetric_psd() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        assert!(g.is_symmetric(0.0));
        assert_eq!(g[(0, 0)], 35.0);
        assert_eq!(g[(0, 1)], 44.0);
        assert_eq!(g[(1, 1)], 56.0);
    }

    #[test]
    fn submatrix_extracts_block() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = a.submatrix(1, 3, 2, 4);
        assert_eq!(s, Matrix::from_rows(&[&[6.0, 7.0], &[10.0, 11.0]]));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]);
        let s = (&a + &b).unwrap();
        let d = (&s - &b).unwrap();
        assert_eq!(d, a);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }

    #[test]
    fn debug_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a:?}").is_empty());
    }
}
