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
/// dimension; accuracy improves with more steps. The basis is one block,
/// reserved up front for `max_steps.min(n)` vectors (at least `k`).
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
    let n = check_operands(a, k, start)?;
    let mut krylov = Krylov::new(n, max_steps.min(n).max(k.min(n)));
    krylov.basis.extend_from_slice(start);
    krylov.run(a, &[], &[], k)
}

/// Rejects an empty problem or a mis-sized start vector; returns `n`.
fn check_operands<A: LinearOperator + ?Sized>(a: &A, k: usize, start: &[f64]) -> Result<usize> {
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
    Ok(n)
}

/// The workspace of one eigensolve, which every deflation pass reuses: the
/// Krylov basis as one block of up to `steps` vectors of length `n`, back
/// to back, and the residual `w`.
struct Krylov {
    n: usize,
    steps: usize,
    basis: Vec<f64>,
    w: Vec<f64>,
}

impl Krylov {
    fn new(n: usize, steps: usize) -> Krylov {
        Krylov {
            n,
            steps,
            basis: Vec::with_capacity(steps * n),
            w: vec![0.0; n],
        }
    }

    /// One Lanczos run on `A − Σ λᵢ vᵢ vᵢᵀ` (`lambdas[i]`, `deflate[i]`;
    /// both empty for plain Lanczos), started from the vector the basis
    /// holds on entry, returning the `k` largest Ritz pairs.
    ///
    /// Full reorthogonalization is modified Gram–Schmidt against every
    /// basis vector. Each subtraction `w ← w − d·qᵢ` runs in the same pass
    /// as the next dot product `w·qᵢ₊₁` (the last one with `w·w`), so `w`
    /// is read once per projection instead of twice. Per element the
    /// operations, the `d != 0.0` skip and the sequential order of every
    /// sum are those of separate passes, so every bit is too.
    fn run<A: LinearOperator + ?Sized>(
        &mut self,
        a: &A,
        lambdas: &[f64],
        deflate: &[Vec<f64>],
        k: usize,
    ) -> Result<LanczosResult> {
        let Krylov { n, steps, basis, w } = self;
        let (n, steps) = (*n, *steps);
        let snorm = basis.iter().map(|v| v * v).sum::<f64>().sqrt();
        if snorm == 0.0 {
            return Err(MatrixError::NoConvergence { iterations: 0 });
        }
        for v in basis.iter_mut() {
            *v /= snorm;
        }
        let mut alphas: Vec<f64> = Vec::with_capacity(steps);
        let mut betas: Vec<f64> = Vec::with_capacity(steps);
        for j in 0..steps {
            let q = |i: usize| &basis[i * n..(i + 1) * n];
            let qj = q(j);
            a.apply(qj, w);
            for (lam, v) in lambdas.iter().zip(deflate) {
                let dot: f64 = v.iter().zip(qj).map(|(a, b)| a * b).sum();
                let scale = lam * dot;
                for (yi, vi) in w.iter_mut().zip(v) {
                    *yi -= scale * vi;
                }
            }
            let alpha: f64 = w.iter().zip(qj).map(|(x, y)| x * y).sum();
            alphas.push(alpha);
            // w ← w − α qⱼ − β qⱼ₋₁, fused with the first projection's
            // dot product w·q₀.
            let mut d: f64 = match j.checked_sub(1) {
                None => w
                    .iter_mut()
                    .zip(qj)
                    .map(|(wv, qv)| {
                        *wv -= alpha * qv;
                        *wv * qv
                    })
                    .sum(),
                Some(prev) => {
                    let beta_prev = betas[prev];
                    w.iter_mut()
                        .zip(qj)
                        .zip(q(prev))
                        .zip(q(0))
                        .map(|(((wv, qv), pv), zv)| {
                            *wv -= alpha * qv;
                            *wv -= beta_prev * pv;
                            *wv * zv
                        })
                        .sum()
                }
            };
            // Full reorthogonalization (classic Lanczos loses
            // orthogonality fast).
            for i in 0..j {
                d = subtract_then_dot(w, d, q(i), q(i + 1));
            }
            let beta = subtract_then_norm2(w, d, qj).sqrt();
            if beta < 1e-12 || j + 1 == steps {
                break;
            }
            betas.push(beta);
            basis.extend(w.iter().map(|v| v / beta));
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
            for (sj, qv) in s.iter().zip(basis.chunks_exact(n)) {
                for (r, qi) in ritz.iter_mut().zip(qv) {
                    *r += sj * qi;
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
}

/// `w ← w − d·q` (skipped when `d` is zero), then the dot product of the
/// updated `w` with `next`, in one pass.
fn subtract_then_dot(w: &mut [f64], d: f64, q: &[f64], next: &[f64]) -> f64 {
    if d == 0.0 {
        return w.iter().zip(next).map(|(x, y)| x * y).sum();
    }
    w.iter_mut()
        .zip(q)
        .zip(next)
        .map(|((wv, qv), nv)| {
            *wv -= d * qv;
            *wv * nv
        })
        .sum()
}

/// `w ← w − d·q` (skipped when `d` is zero), then `w·w`, in one pass.
fn subtract_then_norm2(w: &mut [f64], d: f64, q: &[f64]) -> f64 {
    if d == 0.0 {
        return w.iter().map(|v| v * v).sum();
    }
    w.iter_mut()
        .zip(q)
        .map(|(wv, qv)| {
            *wv -= d * qv;
            *wv * *wv
        })
        .sum()
}

/// Computes the `k` algebraically largest eigenpairs by *sequential
/// deflation*: one single-vector Lanczos run per eigenpair, each on the
/// operator minus every pair found before it (`A − Σ λᵢ vᵢ vᵢᵀ`). All runs
/// share one Krylov basis block.
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
    let n = check_operands(a, k, start)?;
    let mut krylov = Krylov::new(n, max_steps.min(n).max(1));
    let mut values = Vec::with_capacity(k);
    let mut vectors = Vec::with_capacity(k);
    let mut total_steps = 0;
    for j in 0..k.min(n) {
        // Perturb the start vector per round so it has a component in the
        // next eigendirection even if the original was unluckily aligned.
        let mix = 0x9e3779b97f4a7c15u64 ^ (j as u64 + 1).wrapping_mul(0xd1342543de82ef95);
        krylov.basis.clear();
        krylov.basis.extend(start.iter().enumerate().map(|(i, v)| {
            let x = ((i + 1) as u64).wrapping_mul(mix | 1);
            v + 1e-3 * (((x >> 40) % 1000) as f64 / 1000.0 - 0.5)
        }));
        let r = krylov.run(a, &values, &vectors, 1)?;
        total_steps += r.steps;
        values.extend(r.values);
        vectors.extend(r.vectors);
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
    use crate::lanczos_reference as reference;
    use proptest::prelude::*;

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

    /// A deterministic value in [-1, 1) for index `i`, or a signed zero at
    /// every seventh (`+0.0`) and eleventh (`-0.0`) index after the first.
    fn entry(seed: u64, i: usize) -> f64 {
        match i {
            0 => 0.5 + (seed % 7) as f64 / 16.0,
            _ if i % 7 == 3 => 0.0,
            _ if i % 11 == 5 => -0.0,
            _ => {
                let x = (i as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            }
        }
    }

    /// A symmetric `n × n` test operator. Shape 0 is dense with signed
    /// zeros; shape 1 is rank one (`u uᵀ`), and shape 2 diagonal with
    /// three distinct values, so their Krylov spaces close after two and
    /// three steps (`beta < 1e-12`).
    fn operator(shape: usize, n: usize, seed: u64) -> Matrix {
        match shape {
            0 => {
                let mut m = Matrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..=i {
                        let v = entry(seed, i * n + j);
                        m[(i, j)] = v;
                        m[(j, i)] = v;
                    }
                }
                m
            }
            1 => Matrix::from_fn(n, n, |i, j| entry(seed, i + 1) * entry(seed, j + 1)),
            _ => Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    [2.0, -0.0, -1.5][i % 3]
                } else {
                    0.0
                }
            }),
        }
    }

    /// Asserts two eigensolves agree to the bit, or fail with equal errors.
    fn assert_same_solve(got: Result<LanczosResult>, want: Result<LanczosResult>, what: &str) {
        let (got, want) = match (got, want) {
            (Ok(g), Ok(w)) => (g, w),
            (Err(g), Err(w)) => return assert_eq!(g, w, "{what}: errors"),
            (g, w) => panic!("{what}: {g:?} against reference {w:?}"),
        };
        assert_eq!(got.steps, want.steps, "{what}: steps");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.values), bits(&want.values), "{what}: values");
        assert_eq!(got.vectors.len(), want.vectors.len(), "{what}: vectors");
        for (j, (g, w)) in got.vectors.iter().zip(&want.vectors).enumerate() {
            assert!(bits(g) == bits(w), "{what}: vector {j} differs");
        }
    }

    /// Both entry points against the reference copies on one operator.
    fn assert_matches_reference(a: &Matrix, k: usize, start: &[f64], max_steps: usize, what: &str) {
        assert_same_solve(
            lanczos(a, k, start, max_steps),
            reference::lanczos(a, k, start, max_steps),
            &format!("lanczos {what}"),
        );
        assert_same_solve(
            lanczos_deflated(a, k, start, max_steps),
            reference::lanczos_deflated(a, k, start, max_steps),
            &format!("lanczos_deflated {what}"),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random symmetric operators, start vectors with signed zeros,
        /// `k` up to 5 and `max_steps` from 0 (so often below `k`).
        #[test]
        fn fused_krylov_loop_matches_the_reference_bit_for_bit(
            shape in 0usize..3,
            n in 1usize..24,
            k in 1usize..6,
            max_steps in 0usize..26,
            seed in 0u64..1_000_000,
        ) {
            let a = operator(shape, n, seed);
            let start: Vec<f64> = (0..n).map(|i| entry(seed ^ 0x5eed, i)).collect();
            let what = format!("shape {shape} n {n} k {k} max_steps {max_steps} seed {seed}");
            assert_matches_reference(&a, k, &start, max_steps, &what);
        }
    }

    #[test]
    fn closed_krylov_spaces_and_zero_starts_match_the_reference() {
        for (shape, closes_after) in [(1, 2), (2, 3)] {
            let n = 12;
            let a = operator(shape, n, 41);
            let start: Vec<f64> = (0..n).map(|i| entry(77, i)).collect();
            // The case is exercised: the space closes before `max_steps`.
            assert_eq!(lanczos(&a, 1, &start, n).unwrap().steps, closes_after);
            assert_matches_reference(&a, 3, &start, n, &format!("shape {shape}"));
        }
        let a = operator(0, 5, 3);
        assert_matches_reference(&a, 2, &[0.0, -0.0, 0.0, 0.0, -0.0], 5, "zero start");
        assert_matches_reference(&a, 2, &[1.0; 4], 5, "short start");
    }
}
