//! Symmetric eigendecomposition via the cyclic Jacobi method.

use crate::error::{MatrixError, Result};
use crate::mat::Matrix;

/// Maximum number of full Jacobi sweeps before declaring failure.
const MAX_SWEEPS: usize = 100;

/// Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.
///
/// Eigenvalues are returned in ascending order; `vectors.col(k)` is the unit
/// eigenvector for `values[k]`. Jacobi is slow for very large matrices but
/// unconditionally robust, which suits the benchmark-suite setting where
/// clarity and analyzability trump peak FLOPs (the paper's "Eigensolve"
/// kernel in segmentation; large sparse problems go through
/// [`lanczos`](crate::lanczos) instead).
///
/// # Examples
///
/// ```
/// use sdvbs_matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let e = a.sym_eigen().unwrap();
/// assert!((e.values()[0] - 1.0).abs() < 1e-10);
/// assert!((e.values()[1] - 3.0).abs() < 1e-10);
/// ```
#[derive(Debug, Clone)]
pub struct SymEigen {
    values: Vec<f64>,
    vectors: Matrix,
}

impl SymEigen {
    /// Computes the eigendecomposition.
    ///
    /// The strictly-lower triangle of `a` is ignored; the matrix is treated
    /// as symmetric using its upper triangle.
    ///
    /// # Errors
    ///
    /// * [`MatrixError::NotSquare`] if `a` is not square.
    /// * [`MatrixError::Empty`] for a zero-sized matrix.
    /// * [`MatrixError::NoConvergence`] if Jacobi sweeps fail to reduce the
    ///   off-diagonal mass (practically unreachable for symmetric input).
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(MatrixError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(MatrixError::Empty);
        }
        // Work on a symmetrized copy.
        let mut m = Matrix::from_fn(n, n, |i, j| if j >= i { a[(i, j)] } else { a[(j, i)] });
        let mut v = Matrix::identity(n);
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            let mut off = 0.0;
            for (i, row) in m.as_slice().chunks_exact(n).enumerate() {
                for &mij in &row[i + 1..] {
                    off += mij * mij;
                }
            }
            let scale = m.max_abs().max(1.0);
            if off.sqrt() <= 1e-14 * scale * n as f64 {
                converged = true;
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= 1e-300 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    // Classic Jacobi rotation parameters.
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    // Update columns p and q of every row, then rows p
                    // and q, of the symmetric matrix.
                    rotate_columns(m.as_mut_slice(), n, p, q, c, s);
                    let (upper, lower) = m.as_mut_slice().split_at_mut(q * n);
                    let row_p = &mut upper[p * n..(p + 1) * n];
                    for (mp, mq) in row_p.iter_mut().zip(&mut lower[..n]) {
                        let (mpk, mqk) = (*mp, *mq);
                        *mp = c * mpk - s * mqk;
                        *mq = s * mpk + c * mqk;
                    }
                    // Accumulate the rotation into the eigenvector matrix.
                    rotate_columns(v.as_mut_slice(), n, p, q, c, s);
                }
            }
        }
        if !converged {
            // One final check: Jacobi converges quadratically, so reaching
            // the sweep cap without meeting the tolerance is a genuine error.
            return Err(MatrixError::NoConvergence {
                iterations: MAX_SWEEPS,
            });
        }
        // Sort eigenpairs ascending.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| {
            m[(i, i)]
                .partial_cmp(&m[(j, j)])
                .expect("non-NaN eigenvalues")
        });
        let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
        let vectors = Matrix::from_fn(n, n, |i, j| v[(i, order[j])]);
        Ok(SymEigen { values, vectors })
    }

    /// Eigenvalues in ascending order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Matrix whose `k`-th column is the unit eigenvector for `values()[k]`.
    pub fn vectors(&self) -> &Matrix {
        &self.vectors
    }
}

/// Rotates columns `p` and `q` of every row of the row-major `n × n`
/// matrix `data`: `(x_p, x_q) ← (c·x_p − s·x_q, s·x_p + c·x_q)`.
fn rotate_columns(data: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    for row in data.chunks_exact_mut(n) {
        let (xp, xq) = (row[p], row[q]);
        row[p] = c * xp - s * xq;
        row[q] = s * xp + c * xq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decomposition as written before the slice rotations: every
    /// rotation updates `m` and `v` through bounds-checked `(row, col)`
    /// indexing.
    fn reference_sym_eigen(a: &Matrix) -> Result<SymEigen> {
        if !a.is_square() {
            return Err(MatrixError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(MatrixError::Empty);
        }
        let mut m = Matrix::from_fn(n, n, |i, j| if j >= i { a[(i, j)] } else { a[(j, i)] });
        let mut v = Matrix::identity(n);
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[(i, j)] * m[(i, j)];
                }
            }
            let scale = m.max_abs().max(1.0);
            if off.sqrt() <= 1e-14 * scale * n as f64 {
                converged = true;
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= 1e-300 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        if !converged {
            return Err(MatrixError::NoConvergence {
                iterations: MAX_SWEEPS,
            });
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| {
            m[(i, i)]
                .partial_cmp(&m[(j, j)])
                .expect("non-NaN eigenvalues")
        });
        let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
        let vectors = Matrix::from_fn(n, n, |i, j| v[(i, order[j])]);
        Ok(SymEigen { values, vectors })
    }

    /// A deterministic stream of values in `[-1, 1)` (SplitMix64).
    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// The shapes the suite decomposes: a `lanczos` tridiagonal of `m`
    /// steps (Ritz values near 1, as for a normalized affinity) and a
    /// texture-PCA covariance of `rows` centered neighborhoods, some of
    /// whose entries are exactly zero.
    fn lanczos_tridiagonal(m: usize, seed: u64) -> Matrix {
        let mut u = uniform(seed);
        let mut t = Matrix::zeros(m, m);
        for i in 0..m {
            t[(i, i)] = 0.9 + 0.1 * u();
            if i + 1 < m {
                let beta = 0.3 * (u() + 1.0) / (1.0 + i as f64).sqrt();
                t[(i, i + 1)] = beta;
                t[(i + 1, i)] = beta;
            }
        }
        t
    }

    fn covariance(rows: usize, dim: usize, seed: u64) -> Matrix {
        let mut u = uniform(seed);
        let centered = Matrix::from_fn(rows, dim, |_, _| {
            let x = u();
            if x.abs() < 0.15 {
                0.0
            } else {
                (x * 120.0).round()
            }
        });
        centered.gram()
    }

    fn assert_same_bits(got: &SymEigen, want: &SymEigen, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(bits(got.values()) == bits(want.values()), "{what}: values");
        assert!(
            bits(got.vectors().as_slice()) == bits(want.vectors().as_slice()),
            "{what}: vectors"
        );
    }

    /// The slice rotations give the indexed loops' eigenpairs to the bit:
    /// random symmetric matrices of every size 1–64 (the lower triangle
    /// differs from the upper), 40×40 texture covariances with zero
    /// entries, `lanczos`-shaped tridiagonals up to 60×60, and matrices
    /// with repeated eigenvalues.
    #[test]
    fn decomposition_matches_the_indexed_rotations_bit_for_bit() {
        let mut cases: Vec<(String, Matrix)> = Vec::new();
        for n in 1..=64 {
            let mut u = uniform(n as u64);
            cases.push((
                format!("random {n}"),
                Matrix::from_fn(n, n, |_, _| u() * 10.0),
            ));
        }
        for seed in 1..=4 {
            cases.push((format!("covariance seed {seed}"), covariance(300, 40, seed)));
        }
        for m in [2, 7, 33, 59, 60] {
            cases.push((format!("tridiagonal {m}"), lanczos_tridiagonal(m, m as u64)));
        }
        for n in [3, 16, 40] {
            // All-ones plus 2I: eigenvalue 2 repeated n - 1 times.
            cases.push((
                format!("ones {n}"),
                Matrix::from_fn(n, n, |i, j| if i == j { 3.0 } else { 1.0 }),
            ));
            // A diagonal with pairs of equal entries, rotated by one
            // off-diagonal coupling between the pairs.
            cases.push((
                format!("pairs {n}"),
                Matrix::from_fn(n, n, |i, j| match (i, j) {
                    _ if i == j => (i / 2) as f64,
                    _ if i + j == n - 1 => 0.5,
                    _ => 0.0,
                }),
            ));
            cases.push((format!("identity {n}"), Matrix::identity(n)));
        }
        for (what, a) in &cases {
            let got = SymEigen::new(a).expect("converges");
            let want = reference_sym_eigen(a).expect("converges");
            assert_same_bits(&got, &want, what);
        }
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let e = a.sym_eigen().unwrap();
        assert!((e.values()[0] - 1.0).abs() < 1e-12);
        assert!((e.values()[1] - 2.0).abs() < 1e-12);
        assert!((e.values()[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn satisfies_eigen_equation() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]);
        let e = a.sym_eigen().unwrap();
        for k in 0..3 {
            let v = e.vectors().col(k);
            let av = a.matvec(&v);
            for i in 0..3 {
                assert!(
                    (av[i] - e.values()[k] * v[i]).abs() < 1e-8,
                    "A v != lambda v"
                );
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]);
        let e = a.sym_eigen().unwrap();
        let v = e.vectors();
        let vtv = v.transpose().matmul(v).unwrap();
        assert!((&vtv - &Matrix::identity(2)).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_rows(&[&[5.0, 2.0, 1.0], &[2.0, 6.0, 3.0], &[1.0, 3.0, 7.0]]);
        let e = a.sym_eigen().unwrap();
        let trace = a[(0, 0)] + a[(1, 1)] + a[(2, 2)];
        let sum: f64 = e.values().iter().sum();
        assert!((trace - sum).abs() < 1e-10);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[42.0]]);
        let e = a.sym_eigen().unwrap();
        assert_eq!(e.values(), &[42.0]);
    }

    #[test]
    fn rejects_non_square() {
        assert!(Matrix::zeros(2, 3).sym_eigen().is_err());
    }

    #[test]
    fn lower_triangle_is_ignored() {
        // Asymmetric input: only the upper triangle should matter.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[999.0, 2.0]]);
        let e = a.sym_eigen().unwrap();
        assert!((e.values()[0] - 1.0).abs() < 1e-10);
        assert!((e.values()[1] - 3.0).abs() < 1e-10);
    }
}
