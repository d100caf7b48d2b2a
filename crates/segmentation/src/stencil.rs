//! The affinity graph as a symmetric fixed-offset stencil.
//!
//! Every pixel's neighbourhood has the same shape, so the graph needs no
//! index arrays: entry `(i, i + o)` lives at position `i` of the plane for
//! linear offset `o`. Only the forward half (`o > 0`) is stored; entry
//! `(i, i − o)` is the same weight, read from plane `o` at `i − o`. An
//! entry whose neighbour lies outside the image, or whose weight was
//! dropped, is an exact `0.0`.
//!
//! Each operation visits a row's entries in ascending column order, as a
//! CSR row does, so sums come out bit-identical to the triplet-built CSR
//! this type replaced: a stored zero adds `±0.0` to a sum that never holds
//! `−0.0`, which leaves it unchanged.

use sdvbs_matrix::{CsrMatrix, LinearOperator, Matrix};

/// Elements per cache tile of [`AffinityStencil::apply`]: each tile's
/// outputs stay in L1 while every offset is added to them.
const TILE: usize = 2048;

/// A symmetric `n × n` matrix stored as one `f64` plane per forward
/// neighbour offset plus the diagonal, as built by
/// [`adjacency_matrix`](crate::adjacency_matrix).
///
/// Off-diagonal entries equal to `0.0` count as absent: [`Self::submatrix`]
/// and [`Self::to_csr`] leave them out, matching a build that drops
/// weights at or below its threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct AffinityStencil {
    n: usize,
    /// Distinct forward linear offsets, ascending; each is in `1..n`.
    offsets: Vec<usize>,
    /// The main diagonal.
    diag: Vec<f64>,
    /// One plane of `n` values per offset: entry `(i, i + offsets[s])` is
    /// `planes[s][i]`.
    planes: Vec<Vec<f64>>,
}

impl AffinityStencil {
    /// Assembles a stencil from its parts.
    pub(crate) fn from_planes(offsets: Vec<usize>, diag: Vec<f64>, planes: Vec<Vec<f64>>) -> Self {
        let n = diag.len();
        assert!(
            planes.len() == offsets.len() && planes.iter().all(|p| p.len() == n),
            "one plane of n values per offset"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] < w[1]) && offsets.iter().all(|&o| 0 < o && o < n),
            "offsets must be strictly increasing and in 1..n"
        );
        AffinityStencil {
            n,
            offsets,
            diag,
            planes,
        }
    }

    /// Dimension of the (square) matrix: the image's pixel count.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Plane `s`, trimmed to the positions `i` with `i + offsets[s] < n`.
    fn plane(&self, s: usize) -> &[f64] {
        &self.planes[s][..self.n - self.offsets[s]]
    }

    /// Sum of each row's entries (the degree vector of the graph).
    pub fn row_sums(&self) -> Vec<f64> {
        // `v · 1.0 == v` exactly, so this is each row's sum in column order.
        let mut sums = vec![0.0; self.n];
        self.apply(&vec![1.0; self.n], &mut sums);
        sums
    }

    /// Symmetrically scales the matrix in place: `A ← D A D` where
    /// `D = diag(d)`. Entry `(i, j)` becomes `a · (d[i] · d[j])`.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != self.dim()`.
    pub fn scale_sym(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.n, "scaling vector dimension mismatch");
        let n = self.n;
        for (v, &di) in self.diag.iter_mut().zip(d) {
            *v *= di * di;
        }
        for (plane, &o) in self.planes.iter_mut().zip(&self.offsets) {
            for ((v, &di), &dj) in plane[..n - o].iter_mut().zip(d).zip(&d[o..]) {
                *v *= di * dj;
            }
        }
    }

    /// Row `i`'s nonzero entries as `(column, value)` in increasing column
    /// order (the diagonal is always included).
    fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let backward = self
            .offsets
            .iter()
            .enumerate()
            .rev()
            .filter(move |&(_, &o)| o <= i)
            .map(move |(s, &o)| (i - o, self.planes[s][i - o]));
        let forward = self
            .offsets
            .iter()
            .enumerate()
            .filter(move |&(_, &o)| i + o < self.n)
            .map(move |(s, &o)| (i + o, self.planes[s][i]));
        backward
            .filter(|&(_, v)| v != 0.0)
            .chain(std::iter::once((i, self.diag[i])))
            .chain(forward.filter(|&(_, v)| v != 0.0))
    }

    /// The principal submatrix over `keep` (strictly increasing pixel
    /// indices) in CSR form: entry `(a, b)` is entry `(keep[a], keep[b])`
    /// of `self`. Recursive normalized cuts restricts the graph to one
    /// region with it.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is not strictly increasing or indexes out of
    /// bounds.
    pub fn submatrix(&self, keep: &[usize]) -> CsrMatrix {
        CsrMatrix::principal_submatrix(self.n, keep, |i| self.row_entries(i))
    }

    /// The whole matrix in CSR form.
    pub fn to_csr(&self) -> CsrMatrix {
        let all: Vec<usize> = (0..self.n).collect();
        self.submatrix(&all)
    }

    /// Densifies (for testing and small problems).
    pub fn to_dense(&self) -> Matrix {
        self.to_csr().to_dense()
    }
}

impl LinearOperator for AffinityStencil {
    fn dim(&self) -> usize {
        self.n
    }

    /// `y = A x` as one shifted-slice AXPY per slot, in ascending linear
    /// offset: the backward slots (`−o`, largest `o` first), the diagonal,
    /// then the forward slots. Each `y[i]` thus receives its row's terms
    /// in column order, starting from `+0.0`, exactly as a CSR row does.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let n = self.n;
        assert_eq!(x.len(), n, "matvec input dimension mismatch");
        assert_eq!(y.len(), n, "matvec output dimension mismatch");
        for t0 in (0..n).step_by(TILE) {
            let t1 = (t0 + TILE).min(n);
            y[t0..t1].fill(0.0);
            // Backward slot −o: y[i] += plane_o[i − o] · x[i − o].
            for (s, &o) in self.offsets.iter().enumerate().rev() {
                let lo = t0.max(o);
                if lo < t1 {
                    axpy(
                        &mut y[lo..t1],
                        &self.plane(s)[lo - o..t1 - o],
                        &x[lo - o..t1 - o],
                    );
                }
            }
            axpy(&mut y[t0..t1], &self.diag[t0..t1], &x[t0..t1]);
            // Forward slot o: y[i] += plane_o[i] · x[i + o].
            for (s, &o) in self.offsets.iter().enumerate() {
                let hi = t1.min(n - o);
                if t0 < hi {
                    axpy(&mut y[t0..hi], &self.plane(s)[t0..hi], &x[t0 + o..hi + o]);
                }
            }
        }
    }
}

/// `y[k] += a[k] · x[k]` over equal-length slices.
fn axpy(y: &mut [f64], a: &[f64], x: &[f64]) {
    for ((yk, &ak), &xk) in y.iter_mut().zip(a).zip(x) {
        *yk += ak * xk;
    }
}
