//! Sparse symmetric matrices (CSR) and a Lanczos eigensolver.
//!
//! Normalized-cuts segmentation builds a pixel-affinity graph whose dense
//! form would not fit in memory at CIF resolution (101 376 pixels →
//! 10¹⁰ entries). SD-VBS sidesteps this by restricting affinities to a
//! spatial neighborhood; we store that sparse matrix in CSR form and extract
//! the leading eigenvectors with Lanczos iteration.

use crate::cg::LinearOperator;
use crate::eigen::SymEigen;
use crate::error::{MatrixError, Result};
use crate::mat::Matrix;

/// Compressed sparse row matrix, assumed (and validated to be) structurally
/// square.
///
/// # Examples
///
/// ```
/// use sdvbs_matrix::SparseBuilder;
///
/// let mut b = SparseBuilder::new(3);
/// b.push(0, 1, 2.0);
/// b.push_sym(1, 2, -1.0); // adds both (1,2) and (2,1)
/// let m = b.build();
/// assert_eq!(m.nnz(), 3);
/// let y = m.matvec(&[1.0, 1.0, 1.0]);
/// assert_eq!(y, vec![2.0, -1.0, -1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Dimension of the (square) matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Sparse matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.matvec_into(x, &mut y);
        y
    }

    /// Sparse matrix-vector product, rejecting a mis-sized operand with a
    /// typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`crate::MatrixError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn try_matvec(&self, x: &[f64]) -> crate::Result<Vec<f64>> {
        if x.len() != self.n {
            return Err(crate::MatrixError::DimensionMismatch {
                expected: (self.n, 1),
                found: (x.len(), 1),
            });
        }
        Ok(self.matvec(x))
    }

    /// Sparse matrix-vector product into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if either slice has length other than `self.dim()`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "matvec input dimension mismatch");
        assert_eq!(y.len(), self.n, "matvec output dimension mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yi = acc;
        }
    }

    /// Iterates the stored `(column, value)` entries of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.n, "row {i} out of bounds");
        (self.row_ptr[i]..self.row_ptr[i + 1]).map(|k| (self.col_idx[k], self.values[k]))
    }

    /// Sum of each row's entries (the "degree" vector of an affinity graph).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| {
                self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
                    .iter()
                    .sum()
            })
            .collect()
    }

    /// Symmetrically scales the matrix in place: `A ← D A D` where
    /// `D = diag(d)`.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != self.dim()`.
    pub fn scale_sym(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.n, "scaling vector dimension mismatch");
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                self.values[k] *= d[i] * d[self.col_idx[k]];
            }
        }
    }

    /// Extracts the principal submatrix over `keep` (row/column indices,
    /// which must be strictly increasing). Entry `(i, j)` of the result is
    /// entry `(keep[i], keep[j])` of `self`; entries whose column is not
    /// kept are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is not strictly increasing or indexes out of
    /// bounds.
    pub fn submatrix(&self, keep: &[usize]) -> CsrMatrix {
        CsrMatrix::principal_submatrix(self.n, keep, |i| self.row_entries(i))
    }

    /// The principal submatrix over `keep` of an `n × n` matrix given row
    /// by row: `row(i)` yields row `i`'s stored `(column, value)` entries
    /// in increasing column order. Entry `(i, j)` of the result is entry
    /// `(keep[i], keep[j])`; entries whose column is not kept are dropped.
    ///
    /// [`CsrMatrix::submatrix`] is this over a CSR matrix's own rows; other
    /// sparse layouts use it to convert straight to CSR, one row at a time.
    ///
    /// The kept rows are walked twice: once to count the surviving
    /// entries, so the index and value arrays are allocated at their final
    /// size, and once to fill them. A single pass would grow them by
    /// doubling, holding up to twice the entries, and three times while a
    /// doubling copies.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is not strictly increasing or indexes out of
    /// bounds, or if `row` yields a column `>= n`.
    pub fn principal_submatrix<I>(n: usize, keep: &[usize], row: impl Fn(usize) -> I) -> CsrMatrix
    where
        I: IntoIterator<Item = (usize, f64)>,
    {
        assert!(
            keep.windows(2).all(|w| w[0] < w[1]),
            "keep indices must be strictly increasing"
        );
        if let Some(&last) = keep.last() {
            assert!(last < n, "keep index {last} out of bounds");
        }
        // Old index -> new index map.
        let mut remap = vec![usize::MAX; n];
        for (new, &old) in keep.iter().enumerate() {
            remap[old] = new;
        }
        let mut row_ptr = Vec::with_capacity(keep.len() + 1);
        row_ptr.push(0);
        for &old_row in keep {
            let kept = row(old_row)
                .into_iter()
                .filter(|&(old_col, _)| remap[old_col] != usize::MAX)
                .count();
            row_ptr.push(row_ptr[row_ptr.len() - 1] + kept);
        }
        let nnz = row_ptr[keep.len()];
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for &old_row in keep {
            for (old_col, v) in row(old_row) {
                let new_col = remap[old_col];
                if new_col != usize::MAX {
                    col_idx.push(new_col);
                    values.push(v);
                }
            }
        }
        debug_assert_eq!(col_idx.len(), nnz, "row() yielded different entries twice");
        CsrMatrix {
            n: keep.len(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Densifies (for testing and small problems).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                m[(i, self.col_idx[k])] += self.values[k];
            }
        }
        m
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into(x, y);
    }
}

/// Incremental builder for [`CsrMatrix`] from unordered triplets.
///
/// Duplicate entries are summed, matching the usual triplet-assembly
/// convention.
#[derive(Debug, Clone)]
pub struct SparseBuilder {
    n: usize,
    triplets: Vec<(usize, usize, f64)>,
}

impl SparseBuilder {
    /// Creates a builder for an `n × n` matrix.
    pub fn new(n: usize) -> Self {
        SparseBuilder {
            n,
            triplets: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.n && col < self.n,
            "triplet ({row},{col}) out of bounds"
        );
        self.triplets.push((row, col, value));
    }

    /// Adds `value` at `(row, col)` and `(col, row)` (skipping the mirror
    /// when `row == col`).
    pub fn push_sym(&mut self, row: usize, col: usize, value: f64) {
        self.push(row, col, value);
        if row != col {
            self.push(col, row, value);
        }
    }

    /// Number of triplets accumulated so far.
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    /// Whether no triplets have been added.
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }

    /// Assembles the CSR matrix, summing duplicates.
    pub fn build(mut self) -> CsrMatrix {
        self.triplets.sort_unstable_by_key(|a| (a.0, a.1));
        let mut row_ptr = vec![0usize; self.n + 1];
        let mut col_idx = Vec::with_capacity(self.triplets.len());
        let mut values = Vec::with_capacity(self.triplets.len());
        let mut iter = self.triplets.into_iter().peekable();
        while let Some((r, c, mut v)) = iter.next() {
            while let Some(&(r2, c2, v2)) = iter.peek() {
                if r2 == r && c2 == c {
                    v += v2;
                    iter.next();
                } else {
                    break;
                }
            }
            col_idx.push(c);
            values.push(v);
            row_ptr[r + 1] += 1;
        }
        for i in 0..self.n {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix {
            n: self.n,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Result of a Lanczos eigensolve: the `k` algebraically largest eigenpairs.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// `eigenvectors[j]` is the unit Ritz vector paired with `values[j]`.
    pub vectors: Vec<Vec<f64>>,
    /// Lanczos steps actually performed.
    pub steps: usize,
}

/// Computes the `k` algebraically largest eigenpairs of a symmetric operator
/// by Lanczos iteration with full reorthogonalization.
///
/// `start` seeds the Krylov subspace (any nonzero vector; callers typically
/// pass a deterministic pseudo-random vector). `max_steps` bounds the Krylov
/// dimension; accuracy improves with more steps.
///
/// # Errors
///
/// * [`MatrixError::DimensionMismatch`] if `start.len() != a.dim()`.
/// * [`MatrixError::Empty`] if `k == 0` or the operator is empty.
/// * [`MatrixError::NoConvergence`] if the starting vector is zero.
///
/// # Examples
///
/// ```
/// use sdvbs_matrix::{lanczos, Matrix};
///
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let start = vec![1.0, 0.5];
/// let r = lanczos(&a, 1, &start, 10).unwrap();
/// assert!((r.values[0] - 3.0).abs() < 1e-8);
/// ```
pub fn lanczos<A: LinearOperator + ?Sized>(
    a: &A,
    k: usize,
    start: &[f64],
    max_steps: usize,
) -> Result<LanczosResult> {
    let n = a.dim();
    if n == 0 || k == 0 {
        return Err(MatrixError::Empty);
    }
    if start.len() != n {
        return Err(MatrixError::DimensionMismatch {
            expected: (n, 1),
            found: (start.len(), 1),
        });
    }
    let steps = max_steps.min(n).max(k.min(n));
    let mut q: Vec<Vec<f64>> = Vec::with_capacity(steps);
    let mut alphas: Vec<f64> = Vec::with_capacity(steps);
    let mut betas: Vec<f64> = Vec::with_capacity(steps);

    let snorm = start.iter().map(|v| v * v).sum::<f64>().sqrt();
    if snorm == 0.0 {
        return Err(MatrixError::NoConvergence { iterations: 0 });
    }
    q.push(start.iter().map(|v| v / snorm).collect());
    let mut w = vec![0.0; n];
    for j in 0..steps {
        a.apply(&q[j], &mut w);
        let alpha: f64 = w.iter().zip(&q[j]).map(|(x, y)| x * y).sum();
        alphas.push(alpha);
        // w ← w − α qⱼ − β qⱼ₋₁, then full reorthogonalization for
        // numerical robustness (classic Lanczos loses orthogonality fast).
        for i in 0..n {
            w[i] -= alpha * q[j][i];
        }
        if j > 0 {
            let beta_prev = betas[j - 1];
            for i in 0..n {
                w[i] -= beta_prev * q[j - 1][i];
            }
        }
        for qv in &q {
            let d: f64 = w.iter().zip(qv).map(|(x, y)| x * y).sum();
            if d != 0.0 {
                for i in 0..n {
                    w[i] -= d * qv[i];
                }
            }
        }
        let beta = w.iter().map(|v| v * v).sum::<f64>().sqrt();
        if beta < 1e-12 || j + 1 == steps {
            break;
        }
        betas.push(beta);
        q.push(w.iter().map(|v| v / beta).collect());
    }
    let m = alphas.len();
    // Solve the small tridiagonal eigenproblem densely.
    let mut t = Matrix::zeros(m, m);
    for i in 0..m {
        t[(i, i)] = alphas[i];
        if i + 1 < m {
            t[(i, i + 1)] = betas[i];
            t[(i + 1, i)] = betas[i];
        }
    }
    let eig = SymEigen::new(&t)?;
    // SymEigen sorts ascending; we want the k largest.
    let kk = k.min(m);
    let mut values = Vec::with_capacity(kk);
    let mut vectors = Vec::with_capacity(kk);
    for idx in 0..kk {
        let col = m - 1 - idx;
        values.push(eig.values()[col]);
        let s = eig.vectors().col(col);
        let mut ritz = vec![0.0; n];
        for (j, qv) in q.iter().enumerate() {
            let sj = s[j];
            for i in 0..n {
                ritz[i] += sj * qv[i];
            }
        }
        let rn = ritz.iter().map(|v| v * v).sum::<f64>().sqrt();
        if rn > 0.0 {
            for v in &mut ritz {
                *v /= rn;
            }
        }
        vectors.push(ritz);
    }
    Ok(LanczosResult {
        values,
        vectors,
        steps: m,
    })
}

/// A linear operator with rank-one spectral deflations applied:
/// `A' = A − Σ λᵢ vᵢ vᵢᵀ`.
struct Deflated<'a, A: ?Sized> {
    inner: &'a A,
    pairs: Vec<(f64, Vec<f64>)>,
}

impl<A: LinearOperator + ?Sized> LinearOperator for Deflated<'_, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply(x, y);
        for (lam, v) in &self.pairs {
            let dot: f64 = v.iter().zip(x).map(|(a, b)| a * b).sum();
            let scale = lam * dot;
            for (yi, vi) in y.iter_mut().zip(v) {
                *yi -= scale * vi;
            }
        }
    }
}

/// Computes the `k` algebraically largest eigenpairs by *sequential
/// deflation*: one single-vector Lanczos run per eigenpair, subtracting
/// each converged pair from the operator before the next run.
///
/// Plain Lanczos ([`lanczos`]) extracts at most one eigenvector per
/// *distinct* eigenvalue — a Krylov space contains only the starting
/// vector's single projection onto a degenerate eigenspace. Spectral
/// segmentation hits exactly this case (an affinity graph with `k`
/// well-separated regions has eigenvalue ≈ 1 with multiplicity ≈ `k`), so
/// it must use this variant.
///
/// # Errors
///
/// Same conditions as [`lanczos`].
pub fn lanczos_deflated<A: LinearOperator + ?Sized>(
    a: &A,
    k: usize,
    start: &[f64],
    max_steps: usize,
) -> Result<LanczosResult> {
    let n = a.dim();
    if n == 0 || k == 0 {
        return Err(MatrixError::Empty);
    }
    if start.len() != n {
        return Err(MatrixError::DimensionMismatch {
            expected: (n, 1),
            found: (start.len(), 1),
        });
    }
    let mut deflated = Deflated {
        inner: a,
        pairs: Vec::with_capacity(k),
    };
    let mut values = Vec::with_capacity(k);
    let mut vectors = Vec::with_capacity(k);
    let mut total_steps = 0;
    for j in 0..k.min(n) {
        // Perturb the start vector per round so it has a component in the
        // next eigendirection even if the original was unluckily aligned.
        let s: Vec<f64> = start
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let mix = 0x9e3779b97f4a7c15u64 ^ (j as u64 + 1).wrapping_mul(0xd1342543de82ef95);
                let x = ((i + 1) as u64).wrapping_mul(mix | 1);
                v + 1e-3 * (((x >> 40) % 1000) as f64 / 1000.0 - 0.5)
            })
            .collect();
        let r = lanczos(&deflated, 1, &s, max_steps)?;
        let lam = r.values[0];
        let vec = r
            .vectors
            .into_iter()
            .next()
            .expect("k=1 returns one vector");
        total_steps += r.steps;
        values.push(lam);
        vectors.push(vec.clone());
        deflated.pairs.push((lam, vec));
    }
    Ok(LanczosResult {
        values,
        vectors,
        steps: total_steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_path(n: usize) -> CsrMatrix {
        // 1-D path-graph Laplacian: known spectrum 2 - 2cos(pi k / n).
        let mut b = SparseBuilder::new(n);
        for i in 0..n {
            let mut deg = 0.0;
            if i > 0 {
                b.push(i, i - 1, -1.0);
                deg += 1.0;
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
                deg += 1.0;
            }
            b.push(i, i, deg);
        }
        b.build()
    }

    #[test]
    fn builder_sums_duplicates() {
        let mut b = SparseBuilder::new(2);
        b.push(0, 0, 1.0);
        b.push(0, 0, 2.0);
        b.push(1, 0, 5.0);
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.to_dense()[(0, 0)], 3.0);
        assert_eq!(m.to_dense()[(1, 0)], 5.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let mut b = SparseBuilder::new(3);
        b.push_sym(0, 1, 2.0);
        b.push(2, 2, 4.0);
        b.push_sym(0, 2, -1.0);
        let s = b.build();
        let d = s.to_dense();
        let x = vec![1.0, -2.0, 0.5];
        assert_eq!(s.matvec(&x), d.matvec(&x));
    }

    #[test]
    fn row_sums_match_degrees() {
        let l = laplacian_path(5);
        // Laplacian rows sum to zero.
        assert!(l.row_sums().iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn scale_sym_scales_both_sides() {
        let mut b = SparseBuilder::new(2);
        b.push_sym(0, 1, 1.0);
        b.push(0, 0, 2.0);
        let mut m = b.build();
        m.scale_sym(&[2.0, 3.0]);
        let d = m.to_dense();
        assert_eq!(d[(0, 0)], 8.0); // 2 * 2*2
        assert_eq!(d[(0, 1)], 6.0); // 1 * 2*3
        assert_eq!(d[(1, 0)], 6.0);
    }

    #[test]
    fn lanczos_finds_extreme_eigenvalue_of_path_laplacian() {
        let n = 50;
        let l = laplacian_path(n);
        let start: Vec<f64> = (0..n)
            .map(|i| ((i * 37 + 11) % 101) as f64 / 101.0 + 0.01)
            .collect();
        let r = lanczos(&l, 2, &start, 50).unwrap();
        let lam_max = 2.0 - 2.0 * (std::f64::consts::PI * (n as f64 - 1.0) / n as f64).cos();
        assert!(
            (r.values[0] - lam_max).abs() < 1e-6,
            "{} vs {}",
            r.values[0],
            lam_max
        );
    }

    #[test]
    fn lanczos_eigenvector_satisfies_equation() {
        let l = laplacian_path(30);
        let start: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).sin() + 1.5).collect();
        let r = lanczos(&l, 1, &start, 30).unwrap();
        let v = &r.vectors[0];
        let av = l.matvec(v);
        for i in 0..30 {
            assert!((av[i] - r.values[0] * v[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn lanczos_agrees_with_dense_jacobi() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, 0.5, 0.0],
            &[1.0, 3.0, 0.2, 0.1],
            &[0.5, 0.2, 5.0, 0.7],
            &[0.0, 0.1, 0.7, 2.0],
        ]);
        let dense = a.sym_eigen().unwrap();
        let start = vec![1.0, 0.9, 1.1, 1.3];
        let r = lanczos(&a, 2, &start, 4).unwrap();
        assert!((r.values[0] - dense.values()[3]).abs() < 1e-8);
        assert!((r.values[1] - dense.values()[2]).abs() < 1e-8);
    }

    #[test]
    fn lanczos_rejects_zero_start() {
        let l = laplacian_path(4);
        assert!(lanczos(&l, 1, &[0.0; 4], 4).is_err());
    }

    #[test]
    fn lanczos_validates_dimensions() {
        let l = laplacian_path(4);
        assert!(lanczos(&l, 1, &[1.0; 3], 4).is_err());
        assert!(lanczos(&l, 0, &[1.0; 4], 4).is_err());
    }

    #[test]
    fn submatrix_matches_dense_extraction() {
        let mut b = SparseBuilder::new(5);
        b.push_sym(0, 1, 1.0);
        b.push_sym(1, 3, 2.0);
        b.push_sym(2, 4, 3.0);
        b.push(3, 3, 4.0);
        let m = b.build();
        let sub = m.submatrix(&[1, 3, 4]);
        assert_eq!(sub.dim(), 3);
        let d = sub.to_dense();
        assert_eq!(d[(0, 1)], 2.0); // old (1,3)
        assert_eq!(d[(1, 0)], 2.0);
        assert_eq!(d[(1, 1)], 4.0); // old (3,3)
        assert_eq!(d[(0, 2)], 0.0); // old (1,4) absent
        assert_eq!(d[(2, 2)], 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn submatrix_rejects_unsorted_keep() {
        let m = SparseBuilder::new(3).build();
        m.submatrix(&[1, 0]);
    }

    #[test]
    fn deflated_lanczos_resolves_degenerate_eigenvalues() {
        // Block-diagonal: three disconnected cliques => eigenvalue 2.0 with
        // multiplicity 3. Plain Lanczos can only find one of them; the
        // deflated variant must find all three.
        let mut b = SparseBuilder::new(6);
        for blk in 0..3 {
            let i = 2 * blk;
            b.push(i, i, 1.0);
            b.push(i + 1, i + 1, 1.0);
            b.push_sym(i, i + 1, 1.0);
        }
        let a = b.build();
        let start = vec![1.0, 0.8, 1.2, 0.9, 1.1, 0.7];
        let r = lanczos_deflated(&a, 3, &start, 6).unwrap();
        for v in &r.values {
            assert!((v - 2.0).abs() < 1e-8, "value {v}");
        }
        // The three Ritz vectors must be mutually orthogonal.
        for i in 0..3 {
            for j in 0..i {
                let dot: f64 = r.vectors[i]
                    .iter()
                    .zip(&r.vectors[j])
                    .map(|(a, b)| a * b)
                    .sum();
                assert!(dot.abs() < 1e-6, "vectors {i},{j} not orthogonal: {dot}");
            }
        }
    }

    #[test]
    fn deflated_matches_plain_on_distinct_spectrum() {
        let l = laplacian_path(24);
        let start: Vec<f64> = (0..24).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let plain = lanczos(&l, 3, &start, 24).unwrap();
        let defl = lanczos_deflated(&l, 3, &start, 24).unwrap();
        for (p, d) in plain.values.iter().zip(&defl.values) {
            assert!((p - d).abs() < 1e-6, "{p} vs {d}");
        }
    }
}
