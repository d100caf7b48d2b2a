//! SD-VBS benchmark 9: **Texture Synthesis** — constructing a large
//! digital image from a small swatch by non-parametric sampling.
//!
//! The paper divides the benchmark into image calibration, texture
//! *analysis* and texture *synthesis*, with the hot spots in the
//! `Sampling` kernel (> 60% together with analysis) and `Matrix
//! operations` (~30%), and notes that execution time is governed by the
//! fixed iteration structure rather than the input size.
//!
//! This reproduction implements Efros–Leung-style non-parametric
//! neighborhood sampling (the paper's own reference \[18\]) in scan-line
//! order with toroidal causal neighborhoods (Wei–Levoy), accelerated by
//! projecting candidate neighborhoods onto a patch-PCA basis computed with
//! the suite's own eigensolver — reproducing the Sampling / PCA /
//! matrix-ops kernel split of Figure 3. The Portilla–Simoncelli
//! statistics-matching variant the authors imported is replaced by this
//! equivalent-workload synthesizer; DESIGN.md §5 records the
//! substitution.
//!
//! Because synthesis copies pixels verbatim from the swatch, every output
//! pixel value provably occurs in the input — a correctness invariant the
//! tests exploit.
//!
//! # Examples
//!
//! ```
//! use sdvbs_profile::Profiler;
//! use sdvbs_synth::{texture_swatch, TextureKind};
//! use sdvbs_texture::{synthesize, TextureConfig};
//!
//! let swatch = texture_swatch(48, 48, 3, TextureKind::Stochastic);
//! let mut prof = Profiler::new();
//! let out = synthesize(&swatch, 32, 32, &TextureConfig::default(), &mut prof).unwrap();
//! assert_eq!(out.width(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod stats;

pub use stats::{Moments, TextureStatistics};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdvbs_image::Image;
use sdvbs_matrix::Matrix;
use sdvbs_profile::Profiler;
use std::error::Error;
use std::fmt;

/// Texture synthesis configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextureConfig {
    /// Neighborhood window side (odd). The causal neighborhood covers
    /// `window/2` full rows above the target pixel plus the left half of
    /// its own row.
    pub window: usize,
    /// PCA dimensions the neighborhoods are projected onto.
    pub pca_dims: usize,
    /// Stride when harvesting candidate neighborhoods from the swatch
    /// (1 = every position).
    pub candidate_stride: usize,
    /// Randomly pick among candidates within `(1 + tolerance) ·
    /// best_distance` (the Efros–Leung randomized selection).
    pub tolerance: f64,
    /// RNG seed (initialization and candidate selection).
    pub seed: u64,
    /// Synthesis passes. Pass 1 uses causal neighborhoods in scan order;
    /// additional passes refine with the *full* (non-causal) neighborhood,
    /// Wei–Levoy style, which removes scan-order streaks.
    pub passes: usize,
}

impl Default for TextureConfig {
    fn default() -> Self {
        TextureConfig {
            window: 9,
            pca_dims: 12,
            candidate_stride: 1,
            tolerance: 0.1,
            seed: 17,
            passes: 1,
        }
    }
}

/// Errors from texture synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TextureError {
    /// A configuration field is out of range.
    InvalidConfig(String),
    /// The swatch is too small for the neighborhood window.
    SampleTooSmall {
        /// Swatch width.
        width: usize,
        /// Swatch height.
        height: usize,
        /// Required minimum side.
        required: usize,
    },
    /// The swatch has zero pixels.
    EmptySwatch,
    /// The swatch contains NaN or infinite pixels.
    NonFinitePixels,
}

impl fmt::Display for TextureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextureError::InvalidConfig(m) => write!(f, "invalid texture config: {m}"),
            TextureError::SampleTooSmall {
                width,
                height,
                required,
            } => write!(
                f,
                "swatch {width}x{height} smaller than required {required}x{required}"
            ),
            TextureError::EmptySwatch => write!(f, "swatch has zero pixels"),
            TextureError::NonFinitePixels => {
                write!(f, "swatch contains non-finite pixels")
            }
        }
    }
}

impl Error for TextureError {}

/// Offsets of the causal neighborhood (relative to the target pixel):
/// `half` full rows above plus the `half` pixels to the left.
fn causal_offsets(window: usize) -> Vec<(isize, isize)> {
    let half = (window / 2) as isize;
    let mut offs = Vec::new();
    for dy in -half..0 {
        for dx in -half..=half {
            offs.push((dx, dy));
        }
    }
    for dx in -half..0 {
        offs.push((dx, 0));
    }
    offs
}

/// Synthesizes an `out_w × out_h` texture from `swatch`.
///
/// Kernel attribution: `Analysis` (candidate neighborhood harvesting),
/// `PCA` (covariance, eigendecomposition and projections — the "Matrix
/// operations" share of Figure 3), `Sampling` (the per-pixel
/// nearest-neighborhood search and pixel transfer, the dominant hot spot).
///
/// # Errors
///
/// * [`TextureError::InvalidConfig`] for an even/oversized window, zero
///   PCA dimensions, zero stride, or negative tolerance.
/// * [`TextureError::SampleTooSmall`] if the swatch cannot host a single
///   full neighborhood.
/// * [`TextureError::EmptySwatch`] / [`TextureError::NonFinitePixels`] for
///   a zero-pixel or NaN-poisoned swatch.
pub fn synthesize(
    swatch: &Image,
    out_w: usize,
    out_h: usize,
    cfg: &TextureConfig,
    prof: &mut Profiler,
) -> Result<Image, TextureError> {
    synthesize_with(swatch, out_w, out_h, cfg, prof, synth_pass)
}

/// A synthesis sweep with the signature of [`synth_pass`].
type SynthPass = fn(&mut Image, &NeighborhoodIndex, f64, &mut StdRng);

/// [`synthesize`] with `pass` as its synthesis sweep.
fn synthesize_with(
    swatch: &Image,
    out_w: usize,
    out_h: usize,
    cfg: &TextureConfig,
    prof: &mut Profiler,
    pass: SynthPass,
) -> Result<Image, TextureError> {
    if swatch.is_empty() {
        return Err(TextureError::EmptySwatch);
    }
    if !swatch.all_finite() {
        return Err(TextureError::NonFinitePixels);
    }
    if cfg.window < 3 || cfg.window.is_multiple_of(2) {
        return Err(TextureError::InvalidConfig(format!(
            "window must be odd and >= 3, got {}",
            cfg.window
        )));
    }
    if cfg.pca_dims == 0 {
        return Err(TextureError::InvalidConfig(
            "pca_dims must be positive".into(),
        ));
    }
    if cfg.candidate_stride == 0 {
        return Err(TextureError::InvalidConfig(
            "candidate_stride must be positive".into(),
        ));
    }
    let tolerance_ok = cfg
        .tolerance
        .partial_cmp(&0.0)
        .is_some_and(|o| o != std::cmp::Ordering::Less);
    if !tolerance_ok {
        return Err(TextureError::InvalidConfig(
            "tolerance must be non-negative".into(),
        ));
    }
    if cfg.passes == 0 {
        return Err(TextureError::InvalidConfig(
            "passes must be at least 1".into(),
        ));
    }
    if out_w == 0 || out_h == 0 {
        return Err(TextureError::InvalidConfig(
            "output must be non-empty".into(),
        ));
    }
    let required = cfg.window + 1;
    if swatch.width() < required || swatch.height() < required {
        return Err(TextureError::SampleTooSmall {
            width: swatch.width(),
            height: swatch.height(),
            required,
        });
    }
    // --- Analysis + PCA: one searchable index per neighborhood shape
    // (causal for the scan pass; full ring for refinement passes). ---
    let causal = causal_offsets(cfg.window);
    let causal_index = build_index(swatch, &causal, cfg, prof);
    let full_index = if cfg.passes > 1 {
        let full = full_offsets(cfg.window);
        Some(build_index(swatch, &full, cfg, prof))
    } else {
        None
    };
    // --- Sampling: scan-line synthesis with toroidal neighborhoods. ---
    Ok(prof.kernel("Sampling", |_| {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Initialize with random swatch pixels.
        let mut out = Image::from_fn(out_w, out_h, |_, _| {
            let sx = rng.gen_range(0..swatch.width());
            let sy = rng.gen_range(0..swatch.height());
            swatch.get(sx, sy)
        });
        pass(&mut out, &causal_index, cfg.tolerance, &mut rng);
        if let Some(full_index) = &full_index {
            for _ in 1..cfg.passes {
                pass(&mut out, full_index, cfg.tolerance, &mut rng);
            }
        }
        out
    }))
}

/// All offsets of the full window except the center (the refinement-pass
/// neighborhood).
fn full_offsets(window: usize) -> Vec<(isize, isize)> {
    let half = (window / 2) as isize;
    let mut offs = Vec::new();
    for dy in -half..=half {
        for dx in -half..=half {
            if dx != 0 || dy != 0 {
                offs.push((dx, dy));
            }
        }
    }
    offs
}

/// A searchable neighborhood index: candidate vectors from the swatch
/// projected onto a PCA basis, with the corresponding center pixels.
struct NeighborhoodIndex {
    offsets: Vec<(isize, isize)>,
    mean: Vec<f64>,
    basis: Matrix,
    /// The projected candidates, one row each (read by the test oracle).
    #[cfg(test)]
    projected: Matrix,
    /// The projected candidates in dimension-major order: dimension `j` of
    /// candidate `c` is at `j · n + c`, so one dimension of a block of
    /// adjacent candidates is one contiguous slice.
    by_dimension: Vec<f64>,
    centers: Vec<f32>,
    dim: usize,
    k: usize,
}

/// Candidates per block of the distance sweep: sixteen `f64` sums are
/// eight SSE2 registers, kept across every dimension of the block.
const CANDIDATE_LANES: usize = 16;

/// Harvests candidate neighborhoods (`Analysis` kernel) and builds the
/// PCA projection (`PCA` kernel).
fn build_index(
    swatch: &Image,
    offsets: &[(isize, isize)],
    cfg: &TextureConfig,
    prof: &mut Profiler,
) -> NeighborhoodIndex {
    let dim = offsets.len();
    let half = cfg.window / 2;
    let (candidates, centers) = prof.kernel("Analysis", |_| {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut centers: Vec<f32> = Vec::new();
        let mut y = half;
        while y < swatch.height() {
            let mut x = half;
            while x + half < swatch.width() {
                // Skip positions whose window leaves the swatch.
                let fits = offsets.iter().all(|&(dx, dy)| {
                    let px = x as isize + dx;
                    let py = y as isize + dy;
                    px >= 0
                        && py >= 0
                        && (px as usize) < swatch.width()
                        && (py as usize) < swatch.height()
                });
                if fits {
                    let vec: Vec<f64> = offsets
                        .iter()
                        .map(|&(dx, dy)| {
                            swatch.get((x as isize + dx) as usize, (y as isize + dy) as usize)
                                as f64
                        })
                        .collect();
                    rows.push(vec);
                    centers.push(swatch.get(x, y));
                }
                x += cfg.candidate_stride;
            }
            y += cfg.candidate_stride;
        }
        (rows, centers)
    });
    let n = candidates.len();
    let k = cfg.pca_dims.min(dim);
    let (mean, basis, projected, by_dimension) = prof.kernel("PCA", |_| {
        let mut mean = vec![0.0f64; dim];
        for c in &candidates {
            for (m, v) in mean.iter_mut().zip(c) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut centered = Matrix::zeros(n, dim);
        for (row, c) in centered
            .as_mut_slice()
            .chunks_exact_mut(dim)
            .zip(&candidates)
        {
            for ((o, v), m) in row.iter_mut().zip(c).zip(&mean) {
                *o = v - m;
            }
        }
        let cov = centered.gram(); // dim x dim
        let eig = cov.sym_eigen().expect("covariance is square");
        // Top-k eigenvectors (ascending order -> take from the back).
        let mut basis = Matrix::zeros(dim, k);
        for j in 0..k {
            let col = eig.vectors().col(dim - 1 - j);
            for i in 0..dim {
                basis[(i, j)] = col[i];
            }
        }
        let projected = centered.matmul(&basis).expect("shapes agree");
        let by_dimension = (0..k)
            .flat_map(|j| projected.as_slice().chunks_exact(k).map(move |row| row[j]))
            .collect();
        (mean, basis, projected, by_dimension)
    });
    // The row-major projections are kept only for the test oracle.
    #[cfg(not(test))]
    drop(projected);
    NeighborhoodIndex {
        offsets: offsets.to_vec(),
        mean,
        basis,
        #[cfg(test)]
        projected,
        by_dimension,
        centers,
        dim,
        k,
    }
}

/// One synthesis sweep over the output in scan order, replacing each pixel
/// with the center of its best-matching swatch neighborhood.
///
/// Each pixel gathers its wrapped neighborhood through per-pass
/// coordinate tables, projects it onto the PCA basis (every `proj[j]`
/// summed from zero in ascending offset order), and hands the projection
/// to [`CandidateSearch::choose`], which sums only the candidate
/// distances the Efros–Leung selection can read.
///
/// **Pruning invariant.** Candidates are visited in blocks of
/// [`CANDIDATE_LANES`] adjacent ones, each candidate's squared distance
/// summed from zero in dimension order. `cur` is the least full distance
/// summed so far, seeded with one guess summed in full (the candidate
/// after the previous pixel's choice). A block stops once every partial
/// sum in it exceeds `bound = cur · (1 + tolerance) + 1e-12`. This is
/// exact:
/// - adding a non-negative square never lowers a rounded sum, so a
///   pruned candidate's full distance exceeds `bound` too;
/// - `x ↦ x · (1 + t) + 1e-12` is monotone after rounding and
///   `cur ≥ best`, so `bound ≥ cutoff = best · (1 + t) + 1e-12`;
/// - so every candidate with `d ≤ cutoff`, the best included, lies in a
///   block summed in full, with the same sums in the same order, and
///   every pruned entry stays above `cutoff`.
///
/// `best` and the reservoir sample therefore read only the blocks summed
/// in full, in ascending candidate order, and draw `rng.gen_range` for
/// the same candidates as a sweep that sums all of them.
fn synth_pass(out: &mut Image, index: &NeighborhoodIndex, tolerance: f64, rng: &mut StdRng) {
    let (out_w, out_h) = (out.width(), out.height());
    let (dim, k) = (index.dim, index.k);
    // Wrapped coordinates, one row of `dim` entries per output column
    // (`cols`) and per output row (`rows`, premultiplied by the width).
    let toroidal = |v: usize, d: isize, m: usize| (v as isize + d).rem_euclid(m as isize) as usize;
    let cols: Vec<usize> = (0..out_w)
        .flat_map(|x| {
            index
                .offsets
                .iter()
                .map(move |&(dx, _)| toroidal(x, dx, out_w))
        })
        .collect();
    let rows: Vec<usize> = (0..out_h)
        .flat_map(|y| {
            index
                .offsets
                .iter()
                .map(move |&(_, dy)| toroidal(y, dy, out_h) * out_w)
        })
        .collect();
    let basis_rows = index.basis.as_slice().chunks_exact(k);
    let mut search = CandidateSearch::new(index.centers.len());
    let mut proj = vec![0.0f64; k];
    let mut guess = 0;
    for (y, row) in rows.chunks_exact(dim).enumerate() {
        for (x, col) in cols.chunks_exact(dim).enumerate() {
            // Gather, center and project the neighborhood, offset by
            // offset.
            let pixels = out.as_slice();
            proj.fill(0.0);
            for (((&r, &c), &mean), basis) in
                row.iter().zip(col).zip(&index.mean).zip(basis_rows.clone())
            {
                let q = pixels[r + c] as f64 - mean;
                for (p, &b) in proj.iter_mut().zip(basis) {
                    *p += q * b;
                }
            }
            let (_, chosen) = search.choose(&proj, &index.by_dimension, tolerance, guess, rng);
            if let Some(c) = chosen {
                out.as_mut_slice()[y * out_w + x] = index.centers[c];
                guess = (c + 1) % index.centers.len();
            }
        }
    }
}

/// The pruned candidate search of [`synth_pass`], with its scratch space
/// reused across pixels.
struct CandidateSearch {
    /// Full distances of the candidates in summed blocks; entries of
    /// pruned blocks hold stale values and are never read.
    dist: Vec<f64>,
    /// First candidate of every block summed in full, ascending. The last
    /// block may be shorter than [`CANDIDATE_LANES`].
    summed: Vec<usize>,
}

impl CandidateSearch {
    fn new(n: usize) -> Self {
        CandidateSearch {
            dist: vec![0.0; n],
            summed: Vec::with_capacity(n.div_ceil(CANDIDATE_LANES)),
        }
    }

    /// Returns the least squared distance between `proj` and a candidate
    /// of the dimension-major table `by_dimension`, and the candidate the
    /// reservoir sample picks among those within `best · (1 + tolerance)
    /// + 1e-12` (`None` if no distance passes that cutoff, as when it is
    /// NaN). `guess` seeds the bound and changes no result.
    fn choose(
        &mut self,
        proj: &[f64],
        by_dimension: &[f64],
        tolerance: f64,
        guess: usize,
        rng: &mut StdRng,
    ) -> (f64, Option<usize>) {
        let n = self.dist.len();
        let scale = 1.0 + tolerance;
        let mut cur = proj.iter().enumerate().fold(0.0f64, |acc, (j, &pv)| {
            let diff = pv - by_dimension[j * n + guess];
            acc + diff * diff
        });
        let mut bound = cur * scale + 1e-12;
        self.summed.clear();
        let whole = n - n % CANDIDATE_LANES;
        'blocks: for c0 in (0..whole).step_by(CANDIDATE_LANES) {
            let mut acc = [0.0f64; CANDIDATE_LANES];
            for (j, &pv) in proj.iter().enumerate() {
                let column = &by_dimension[j * n + c0..j * n + c0 + CANDIDATE_LANES];
                for (a, &rv) in acc.iter_mut().zip(column) {
                    let diff = pv - rv;
                    *a += diff * diff;
                }
                if acc.iter().all(|&a| a > bound) {
                    continue 'blocks;
                }
            }
            self.dist[c0..c0 + CANDIDATE_LANES].copy_from_slice(&acc);
            self.summed.push(c0);
            let least = acc.iter().fold(cur, |b, &d| if d < b { d } else { b });
            if least < cur {
                cur = least;
                bound = cur * scale + 1e-12;
            }
        }
        // The tail is summed in full, one candidate at a time.
        if whole < n {
            self.summed.push(whole);
            for (i, d) in self.dist[whole..].iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for (j, &pv) in proj.iter().enumerate() {
                    let diff = pv - by_dimension[j * n + whole + i];
                    acc += diff * diff;
                }
                *d = acc;
                if acc < cur {
                    cur = acc;
                }
            }
        }
        let best = cur;
        let cutoff = best * scale + 1e-12;
        // Reservoir-sample uniformly among candidates under the cutoff.
        let mut chosen = None;
        let mut seen = 0usize;
        for &c0 in &self.summed {
            let end = (c0 + CANDIDATE_LANES).min(n);
            for (c, &d) in self.dist[c0..end].iter().enumerate() {
                if d <= cutoff {
                    seen += 1;
                    if rng.gen_range(0..seen) == 0 {
                        chosen = Some(c0 + c);
                    }
                }
            }
        }
        (best, chosen)
    }
}

/// Writes into `dist[c]` the squared distance between `proj` and candidate
/// `c` of the dimension-major table `by_dimension` (`proj.len()` rows of
/// `dist.len()` candidates), each summed from zero in dimension order.
/// Whole blocks of [`CANDIDATE_LANES`] candidates keep their sums in
/// registers across every dimension; the tail takes the same sums one
/// candidate at a time. This is the full sweep [`synth_pass`]'s pruned
/// search replaced, kept as the oracle of its pruning invariant.
#[cfg(test)]
fn squared_distances(proj: &[f64], by_dimension: &[f64], dist: &mut [f64]) {
    let n = dist.len();
    let mut blocks = dist.chunks_exact_mut(CANDIDATE_LANES);
    let mut c0 = 0;
    for block in &mut blocks {
        let mut acc = [0.0f64; CANDIDATE_LANES];
        for (j, &pv) in proj.iter().enumerate() {
            let column = &by_dimension[j * n + c0..j * n + c0 + CANDIDATE_LANES];
            for (a, &rv) in acc.iter_mut().zip(column) {
                let diff = pv - rv;
                *a += diff * diff;
            }
        }
        block.copy_from_slice(&acc);
        c0 += CANDIDATE_LANES;
    }
    for (i, d) in blocks.into_remainder().iter_mut().enumerate() {
        let mut acc = 0.0f64;
        for (j, &pv) in proj.iter().enumerate() {
            let diff = pv - by_dimension[j * n + c0 + i];
            acc += diff * diff;
        }
        *d = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use sdvbs_synth::{texture_swatch, TextureKind};

    /// The sweep [`synth_pass`] replaced: a second full distance loop over
    /// every candidate for the reservoir sample.
    fn reference_synth_pass(
        out: &mut Image,
        index: &NeighborhoodIndex,
        tolerance: f64,
        rng: &mut StdRng,
    ) {
        let (out_w, out_h) = (out.width(), out.height());
        let n = index.centers.len();
        let toroidal = |v: isize, m: usize| -> usize { v.rem_euclid(m as isize) as usize };
        let mut query = vec![0.0f64; index.dim];
        let mut proj = vec![0.0f64; index.k];
        for y in 0..out_h {
            for x in 0..out_w {
                for (i, &(dx, dy)) in index.offsets.iter().enumerate() {
                    let px = toroidal(x as isize + dx, out_w);
                    let py = toroidal(y as isize + dy, out_h);
                    query[i] = out.get(px, py) as f64 - index.mean[i];
                }
                for (j, p) in proj.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (i, &q) in query.iter().enumerate() {
                        acc += q * index.basis[(i, j)];
                    }
                    *p = acc;
                }
                let mut best = f64::INFINITY;
                for c in 0..n {
                    let row = index.projected.row(c);
                    let mut d = 0.0;
                    for (pv, rv) in proj.iter().zip(row) {
                        let diff = pv - rv;
                        d += diff * diff;
                        if d >= best {
                            break;
                        }
                    }
                    if d < best {
                        best = d;
                    }
                }
                let cutoff = best * (1.0 + tolerance) + 1e-12;
                let mut chosen = usize::MAX;
                let mut seen = 0usize;
                for c in 0..n {
                    let row = index.projected.row(c);
                    let mut d = 0.0;
                    for (pv, rv) in proj.iter().zip(row) {
                        let diff = pv - rv;
                        d += diff * diff;
                        if d > cutoff {
                            break;
                        }
                    }
                    if d <= cutoff {
                        seen += 1;
                        if rng.gen_range(0..seen) == 0 {
                            chosen = c;
                        }
                    }
                }
                if chosen != usize::MAX {
                    out.set(x, y, index.centers[chosen]);
                }
            }
        }
    }

    /// `synthesize` returns the replaced sweep's output bits for both
    /// swatch kinds, at one and two passes, on the suite's swatch sides
    /// and 40x40 output, and at a zero tolerance.
    #[test]
    fn synthesis_matches_the_replaced_sweep_bit_for_bit() {
        for kind in [TextureKind::Stochastic, TextureKind::Structural] {
            for (side, seed) in [(24, 3u64), (44, 8), (64, 13)] {
                let s = texture_swatch(side, side * 3 / 4 + 6, seed, kind);
                for passes in [1, 2] {
                    for tolerance in [0.1, 0.0] {
                        let cfg = TextureConfig {
                            seed,
                            passes,
                            tolerance,
                            ..TextureConfig::default()
                        };
                        let mut prof = Profiler::new();
                        let got = synthesize(&s, 40, 40, &cfg, &mut prof).unwrap();
                        let want =
                            synthesize_with(&s, 40, 40, &cfg, &mut prof, reference_synth_pass)
                                .unwrap();
                        let bits = |im: &Image| {
                            im.as_slice()
                                .iter()
                                .map(|v| v.to_bits())
                                .collect::<Vec<_>>()
                        };
                        assert!(
                            bits(&got) == bits(&want),
                            "{kind:?} swatch {side} seed {seed} passes {passes} tolerance {tolerance}"
                        );
                    }
                }
            }
        }
    }

    fn swatch(kind: TextureKind) -> Image {
        texture_swatch(48, 48, 5, kind)
    }

    /// The full blocked sweep [`CandidateSearch::choose`] replaced: every
    /// candidate's distance, their least, and a reservoir pass over all
    /// `n`.
    fn full_search(
        proj: &[f64],
        by_dimension: &[f64],
        n: usize,
        tolerance: f64,
        rng: &mut StdRng,
    ) -> (f64, Vec<f64>, Option<usize>) {
        let mut dist = vec![0.0f64; n];
        squared_distances(proj, by_dimension, &mut dist);
        let best = dist
            .iter()
            .fold(f64::INFINITY, |b, &d| if d < b { d } else { b });
        let cutoff = best * (1.0 + tolerance) + 1e-12;
        let mut chosen = None;
        let mut seen = 0usize;
        for (c, &d) in dist.iter().enumerate() {
            if d <= cutoff {
                seen += 1;
                if rng.gen_range(0..seen) == 0 {
                    chosen = Some(c);
                }
            }
        }
        (best, dist, chosen)
    }

    /// A dimension-major table of `n` candidates in `k` dimensions and a
    /// projection, drawn in one of three shapes: continuous values; a
    /// coarse lattice far from the projection, whose distances tie exactly
    /// and are large enough that `best + 1e-12` rounds to `best`; and
    /// near-copies of the projection, whose distances fall within
    /// `1e-12` of a best that may be zero.
    fn search_case(shape: usize, n: usize, k: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        match shape {
            0 => (
                (0..n * k).map(|_| rng.gen_range(-50.0..50.0)).collect(),
                (0..k).map(|_| rng.gen_range(-50.0..50.0)).collect(),
            ),
            1 => (
                (0..n * k)
                    .map(|_| 100.0 * rng.gen_range(0..3) as f64)
                    .collect(),
                (0..k).map(|_| 100.0 * rng.gen_range(3..5) as f64).collect(),
            ),
            _ => {
                let proj: Vec<f64> = (0..k).map(|_| rng.gen_range(-50.0..50.0)).collect();
                let table = (0..k)
                    .flat_map(|j| vec![proj[j]; n])
                    .map(|v| {
                        let jitter = rng.gen_range(-2i32..=2) * rng.gen_range(0i32..2);
                        v + 1e-7 * jitter as f64
                    })
                    .collect();
                (table, proj)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The pruned search returns the full sweep's `best` bits, the
        /// same distance bits for every candidate within the cutoff, the
        /// same chosen index and the same next RNG draw, for every `n` in
        /// 1–100 (so every tail length modulo 16), `tolerance` 0, 0.1,
        /// 1e300 or +∞ and a guess at any index; every candidate outside
        /// the blocks it summed lies beyond the cutoff.
        #[test]
        fn pruned_search_matches_the_full_sweep(
            n in 1usize..=100,
            k in 1usize..=12,
            shape in 0usize..3,
            tolerance in 0usize..4,
            guess in 0usize..100,
            seed in 0u64..1_000_000,
        ) {
            let tolerance = [0.0, 0.1, 1e300, f64::INFINITY][tolerance];
            let guess = guess % n;
            let (table, proj) = search_case(shape, n, k, seed);
            let mut want_rng = StdRng::seed_from_u64(seed);
            let (want_best, want_dist, want_chosen) =
                full_search(&proj, &table, n, tolerance, &mut want_rng);
            let mut search = CandidateSearch::new(n);
            search.dist.fill(f64::NAN);
            let mut got_rng = StdRng::seed_from_u64(seed);
            let (best, chosen) = search.choose(&proj, &table, tolerance, guess, &mut got_rng);
            let what = format!("n {n} k {k} shape {shape} tolerance {tolerance} guess {guess}");
            proptest::prop_assert_eq!(best.to_bits(), want_best.to_bits(), "{}: best", what);
            let cutoff = want_best * (1.0 + tolerance) + 1e-12;
            let mut summed = vec![false; n];
            for &c0 in &search.summed {
                for s in &mut summed[c0..(c0 + CANDIDATE_LANES).min(n)] {
                    *s = true;
                }
            }
            // A candidate within the cutoff is summed in full, to the bit,
            // so every pruned one lies beyond it.
            for (c, &d) in want_dist.iter().enumerate() {
                if d <= cutoff {
                    proptest::prop_assert!(summed[c], "{}: candidate {} pruned", what, c);
                    proptest::prop_assert_eq!(
                        search.dist[c].to_bits(),
                        d.to_bits(),
                        "{}: candidate {}",
                        what,
                        c
                    );
                }
            }
            proptest::prop_assert_eq!(chosen, want_chosen, "{}: chosen", what);
            proptest::prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "{}: next draw", what);
        }
    }

    /// Each blocked, dimension-major distance is the row-major sum of
    /// squares in dimension order, to the bit. At stride 1 the causal 9×9
    /// window harvests `7·(w − 8)` candidates from a `w × 11` swatch; 7 is
    /// odd, so `w` in `10..26` leaves every remainder modulo 16 after the
    /// whole blocks.
    #[test]
    fn distances_match_the_row_major_sum_bit_for_bit() {
        let shapes = (10..26).map(|w| (w, 11, 1)).chain([(44, 40, 3)]);
        for (w, h, stride) in shapes {
            let s = texture_swatch(w, h, 9, TextureKind::Stochastic);
            let cfg = TextureConfig {
                candidate_stride: stride,
                ..TextureConfig::default()
            };
            let index = build_index(&s, &causal_offsets(cfg.window), &cfg, &mut Profiler::new());
            let n = index.centers.len();
            let proj: Vec<f64> = (0..index.k)
                .map(|j| (j as f64 * 0.77).sin() * 40.0)
                .collect();
            let mut dist = vec![0.0f64; n];
            squared_distances(&proj, &index.by_dimension, &mut dist);
            for (c, d) in dist.iter().enumerate() {
                let mut want = 0.0f64;
                for (pv, rv) in proj.iter().zip(index.projected.row(c)) {
                    let diff = pv - rv;
                    want += diff * diff;
                }
                assert_eq!(d.to_bits(), want.to_bits(), "{w}x{h} candidate {c} of {n}");
            }
        }
    }

    #[test]
    fn output_pixels_come_from_the_swatch() {
        let s = swatch(TextureKind::Stochastic);
        let mut prof = Profiler::new();
        let out = synthesize(&s, 24, 24, &TextureConfig::default(), &mut prof).unwrap();
        let sample_values: std::collections::HashSet<u32> =
            s.as_slice().iter().map(|v| v.to_bits()).collect();
        for &v in out.as_slice() {
            assert!(
                sample_values.contains(&v.to_bits()),
                "pixel {v} not from swatch"
            );
        }
    }

    #[test]
    fn statistics_match_the_swatch() {
        let s = swatch(TextureKind::Stochastic);
        let mut prof = Profiler::new();
        let out = synthesize(&s, 32, 32, &TextureConfig::default(), &mut prof).unwrap();
        assert!(
            (out.mean() - s.mean()).abs() < 25.0,
            "means {} vs {}",
            out.mean(),
            s.mean()
        );
        let std = |im: &Image| {
            let m = im.mean();
            (im.as_slice()
                .iter()
                .map(|&v| (v - m) * (v - m))
                .sum::<f32>()
                / im.len() as f32)
                .sqrt()
        };
        let (so, ss) = (std(&out), std(&s));
        assert!(so > 0.4 * ss && so < 2.5 * ss, "stds {so} vs {ss}");
    }

    #[test]
    fn structural_texture_stays_bimodal() {
        let s = swatch(TextureKind::Structural);
        let mut prof = Profiler::new();
        let out = synthesize(&s, 32, 32, &TextureConfig::default(), &mut prof).unwrap();
        let dark = out.as_slice().iter().filter(|&&v| v < 110.0).count() as f64 / out.len() as f64;
        let dark_in = s.as_slice().iter().filter(|&&v| v < 110.0).count() as f64 / s.len() as f64;
        assert!(
            (dark - dark_in).abs() < 0.25,
            "dark fraction {dark} vs swatch {dark_in}"
        );
    }

    #[test]
    fn deterministic_in_seed_and_varies_across_seeds() {
        let s = swatch(TextureKind::Stochastic);
        let mut prof = Profiler::new();
        let cfg = TextureConfig::default();
        let a = synthesize(&s, 20, 20, &cfg, &mut prof).unwrap();
        let b = synthesize(&s, 20, 20, &cfg, &mut prof).unwrap();
        assert_eq!(a, b);
        let c = synthesize(&s, 20, 20, &TextureConfig { seed: 18, ..cfg }, &mut prof).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let s = swatch(TextureKind::Stochastic);
        let mut prof = Profiler::new();
        let base = TextureConfig::default();
        for cfg in [
            TextureConfig { window: 4, ..base },
            TextureConfig { window: 1, ..base },
            TextureConfig {
                pca_dims: 0,
                ..base
            },
            TextureConfig {
                candidate_stride: 0,
                ..base
            },
            TextureConfig {
                tolerance: -1.0,
                ..base
            },
        ] {
            assert!(synthesize(&s, 8, 8, &cfg, &mut prof).is_err(), "{cfg:?}");
        }
        assert!(synthesize(&s, 0, 8, &base, &mut prof).is_err());
        let tiny = Image::filled(6, 6, 1.0);
        assert!(matches!(
            synthesize(&tiny, 8, 8, &base, &mut prof),
            Err(TextureError::SampleTooSmall { .. })
        ));
    }

    #[test]
    fn refinement_pass_keeps_pixels_from_swatch() {
        let s = swatch(TextureKind::Stochastic);
        let mut prof = Profiler::new();
        let cfg = TextureConfig {
            passes: 2,
            ..TextureConfig::default()
        };
        let out = synthesize(&s, 24, 24, &cfg, &mut prof).unwrap();
        let sample_values: std::collections::HashSet<u32> =
            s.as_slice().iter().map(|v| v.to_bits()).collect();
        for &v in out.as_slice() {
            assert!(
                sample_values.contains(&v.to_bits()),
                "pixel {v} not from swatch"
            );
        }
    }

    #[test]
    fn refinement_pass_changes_and_smooths_the_result() {
        let s = swatch(TextureKind::Structural);
        let mut prof = Profiler::new();
        let one = synthesize(&s, 32, 32, &TextureConfig::default(), &mut prof).unwrap();
        let cfg = TextureConfig {
            passes: 3,
            ..TextureConfig::default()
        };
        let three = synthesize(&s, 32, 32, &cfg, &mut prof).unwrap();
        assert_ne!(one, three, "refinement passes had no effect");
        // Refinement should not destroy the brightness statistics.
        assert!((three.mean() - s.mean()).abs() < 40.0);
    }

    #[test]
    fn zero_passes_is_rejected() {
        let s = swatch(TextureKind::Stochastic);
        let mut prof = Profiler::new();
        let cfg = TextureConfig {
            passes: 0,
            ..TextureConfig::default()
        };
        assert!(synthesize(&s, 8, 8, &cfg, &mut prof).is_err());
    }

    #[test]
    fn kernel_attribution() {
        let s = swatch(TextureKind::Stochastic);
        let mut prof = Profiler::new();
        prof.run(|p| synthesize(&s, 24, 24, &TextureConfig::default(), p).unwrap());
        let rep = prof.report();
        for k in ["Analysis", "PCA", "Sampling"] {
            assert!(rep.occupancy(k).is_some(), "kernel {k} missing");
        }
        // Sampling dominates, as in the paper's Figure 3.
        assert!(
            rep.occupancy("Sampling").unwrap() > rep.occupancy("Analysis").unwrap(),
            "sampling should dominate"
        );
    }

    #[test]
    fn causal_offsets_cover_half_window() {
        let offs = causal_offsets(5);
        // 2 rows * 5 + 2 = 12 offsets, all strictly "before" the target.
        assert_eq!(offs.len(), 12);
        for &(dx, dy) in &offs {
            assert!(
                dy < 0 || (dy == 0 && dx < 0),
                "offset ({dx},{dy}) not causal"
            );
        }
    }
}
