//! The Lanczos loops that the fused Krylov loop in `sparse.rs` replaced,
//! kept unchanged as a bit-identity reference for tests: one basis
//! vector per step, two passes over `w` per Gram–Schmidt projection, and
//! deflation through a wrapping operator.
//!
//! Test-only. The matrix crate's unit tests compare [`lanczos`] and
//! [`lanczos_deflated`] against these copies on random operators, and the
//! segmentation crate's oracle includes this file (by path) to compare
//! them on the normalized affinity stencil. The including module supplies
//! the `sdvbs_matrix` names imported below.

use super::{LanczosResult, LinearOperator, Matrix, MatrixError, Result, SymEigen};

/// The replaced `lanczos`.
pub(crate) fn lanczos<A: LinearOperator + ?Sized>(
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
    let mut t = Matrix::zeros(m, m);
    for i in 0..m {
        t[(i, i)] = alphas[i];
        if i + 1 < m {
            t[(i, i + 1)] = betas[i];
            t[(i + 1, i)] = betas[i];
        }
    }
    let eig = SymEigen::new(&t)?;
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

/// The replaced deflating operator wrapper: `A' = A − Σ λᵢ vᵢ vᵢᵀ`.
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

/// The replaced `lanczos_deflated`.
pub(crate) fn lanczos_deflated<A: LinearOperator + ?Sized>(
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
