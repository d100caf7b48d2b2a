//! The normalized-cuts pipeline.

use crate::affinity::{adjacency_matrix_with, filter_bank_features};
use crate::discretize::{discretize, normalize_rows};
use crate::stencil::AffinityStencil;
use sdvbs_image::Image;
use sdvbs_matrix::{lanczos_deflated, CsrMatrix, LinearOperator, Matrix, MatrixError};
use sdvbs_profile::Profiler;
use std::error::Error;
use std::fmt;

/// Configuration of the normalized-cuts segmenter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentationConfig {
    /// Number of segments to produce.
    pub segments: usize,
    /// Spatial affinity radius in pixels.
    pub radius: usize,
    /// Feature-distance bandwidth (intensity units).
    pub sigma_feature: f32,
    /// Spatial-distance bandwidth (pixels).
    pub sigma_spatial: f32,
    /// Whether to include the oriented filter bank in the affinity features.
    pub filter_bank: bool,
    /// Krylov subspace size for the Lanczos eigensolve.
    pub lanczos_steps: usize,
    /// Discretization iteration budget.
    pub discretize_iters: usize,
    /// Execution policy for the affinity ("Adjacencymatrix") construction.
    /// Any policy yields a bit-identical matrix.
    pub exec: sdvbs_exec::ExecPolicy,
}

impl Default for SegmentationConfig {
    fn default() -> Self {
        SegmentationConfig {
            segments: 4,
            radius: 3,
            sigma_feature: 25.0,
            sigma_spatial: 6.0,
            filter_bank: true,
            lanczos_steps: 60,
            discretize_iters: 25,
            exec: sdvbs_exec::ExecPolicy::Serial,
        }
    }
}

/// Errors from the segmentation pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum SegmentationError {
    /// Configuration rejected (message explains the field).
    InvalidConfig(String),
    /// The eigensolve failed (propagates the matrix error).
    Eigensolve(MatrixError),
    /// The input image has zero pixels.
    EmptyImage,
    /// The input image contains NaN or infinite pixels.
    NonFinitePixels,
}

impl fmt::Display for SegmentationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentationError::InvalidConfig(m) => write!(f, "invalid segmentation config: {m}"),
            SegmentationError::Eigensolve(e) => write!(f, "eigensolve failed: {e}"),
            SegmentationError::EmptyImage => write!(f, "image has zero pixels"),
            SegmentationError::NonFinitePixels => {
                write!(f, "image contains non-finite pixels")
            }
        }
    }
}

impl Error for SegmentationError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SegmentationError::Eigensolve(e) => Some(e),
            _ => None,
        }
    }
}

/// A computed segmentation: one label per pixel, row-major.
#[derive(Debug, Clone)]
pub struct Segmentation {
    labels: Vec<usize>,
    width: usize,
    height: usize,
    segments: usize,
}

impl Segmentation {
    /// Per-pixel labels in `0..self.segments()`, row-major.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Label at pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn label(&self, x: usize, y: usize) -> usize {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.labels[y * self.width + x]
    }

    /// Requested segment count (labels actually used may be fewer).
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Renders the segmentation as an image of per-segment mean gray
    /// levels (useful for visual inspection).
    pub fn render(&self, source: &Image) -> Image {
        let mut sums = vec![0.0f64; self.segments];
        let mut counts = vec![0usize; self.segments];
        for (i, &l) in self.labels.iter().enumerate() {
            sums[l] += source.as_slice()[i] as f64;
            counts[l] += 1;
        }
        let means: Vec<f32> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| if c > 0 { (*s / c as f64) as f32 } else { 0.0 })
            .collect();
        Image::from_fn(self.width, self.height, |x, y| {
            means[self.labels[y * self.width + x]]
        })
    }
}

/// Segments an image with normalized cuts.
///
/// Kernel attribution: `Filterbanks` (texture features), `Adjacencymatrix`
/// (sparse affinity assembly), `Eigensolve` (Lanczos on the normalized
/// affinity), `QRfactorizations` (embedding orthonormalization +
/// discretization) — the decomposition in the paper's Figure 3.
///
/// # Errors
///
/// * [`SegmentationError::InvalidConfig`] for a zero/oversized segment
///   count or zero bandwidths.
/// * [`SegmentationError::EmptyImage`] / [`SegmentationError::NonFinitePixels`]
///   for a zero-pixel or NaN-poisoned image.
/// * [`SegmentationError::Eigensolve`] if Lanczos fails (e.g. a degenerate
///   affinity matrix).
pub fn segment(
    img: &Image,
    cfg: &SegmentationConfig,
    prof: &mut Profiler,
) -> Result<Segmentation, SegmentationError> {
    segment_on(img, cfg, prof, adjacency_matrix_with)
}

/// What the normalized-cuts pipelines need of an affinity matrix.
pub(crate) trait Affinity: LinearOperator {
    /// Sum of each row's entries.
    fn row_sums(&self) -> Vec<f64>;
    /// `A ← D A D` with `D = diag(d)`.
    fn scale_sym(&mut self, d: &[f64]);
    /// The principal submatrix over the strictly increasing `keep`.
    fn submatrix(&self, keep: &[usize]) -> CsrMatrix;
}

impl Affinity for AffinityStencil {
    fn row_sums(&self) -> Vec<f64> {
        AffinityStencil::row_sums(self)
    }

    fn scale_sym(&mut self, d: &[f64]) {
        AffinityStencil::scale_sym(self, d);
    }

    fn submatrix(&self, keep: &[usize]) -> CsrMatrix {
        AffinityStencil::submatrix(self, keep)
    }
}

/// An affinity builder with the signature of [`adjacency_matrix_with`].
pub(crate) type BuildAffinity<A> = fn(&[Image], usize, f32, f32, sdvbs_exec::ExecPolicy) -> A;

/// [`segment`] over the affinity matrix that `build` makes.
pub(crate) fn segment_on<A: Affinity>(
    img: &Image,
    cfg: &SegmentationConfig,
    prof: &mut Profiler,
    build: BuildAffinity<A>,
) -> Result<Segmentation, SegmentationError> {
    let mut w = affinity_graph(img, cfg, prof, build)?;
    let n = img.len();
    // Normalized spectral embedding: top-k eigenvectors of D^-1/2 W D^-1/2.
    let k = cfg.segments;
    let embedding = prof.kernel("Eigensolve", |_| {
        let d = w.row_sums();
        let dinv_sqrt: Vec<f64> = d
            .iter()
            .map(|&v| if v > 0.0 { 1.0 / v.sqrt() } else { 0.0 })
            .collect();
        w.scale_sym(&dinv_sqrt);
        // Deterministic pseudo-random start vector.
        let start: Vec<f64> = (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) % 1000) as f64 / 1000.0 + 0.1
            })
            .collect();
        let steps = cfg.lanczos_steps.max(2 * k + 10);
        lanczos_deflated(&w, k, &start, steps).map_err(SegmentationError::Eigensolve)
    })?;
    // Embedding matrix (n × k), row-normalized, then discretized.
    let labels = prof.kernel("QRfactorizations", |_| {
        let mut x = Matrix::zeros(n, k);
        for (j, vec) in embedding.vectors.iter().enumerate() {
            for i in 0..n {
                x[(i, j)] = vec[i];
            }
        }
        normalize_rows(&mut x);
        discretize(&x, cfg.discretize_iters)
    });
    Ok(Segmentation {
        labels,
        width: img.width(),
        height: img.height(),
        segments: k,
    })
}

/// The front both pipelines share: validates the input and the
/// configuration, then runs the `Filterbanks` and `Adjacencymatrix`
/// kernels.
pub(crate) fn affinity_graph<A>(
    img: &Image,
    cfg: &SegmentationConfig,
    prof: &mut Profiler,
    build: BuildAffinity<A>,
) -> Result<A, SegmentationError> {
    let n = img.len();
    if n == 0 {
        return Err(SegmentationError::EmptyImage);
    }
    if !img.all_finite() {
        return Err(SegmentationError::NonFinitePixels);
    }
    if cfg.segments == 0 || cfg.segments > 64 {
        return Err(SegmentationError::InvalidConfig(format!(
            "segments must be in 1..=64, got {}",
            cfg.segments
        )));
    }
    if cfg.segments > n {
        return Err(SegmentationError::InvalidConfig(format!(
            "more segments ({}) than pixels ({n})",
            cfg.segments
        )));
    }
    let positive = |v: f32| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
    if !positive(cfg.sigma_feature) || !positive(cfg.sigma_spatial) {
        return Err(SegmentationError::InvalidConfig(
            "bandwidths must be positive".into(),
        ));
    }
    if cfg.radius == 0 {
        return Err(SegmentationError::InvalidConfig(
            "radius must be positive".into(),
        ));
    }
    // Filter bank (texture features) — optional channel set.
    let features = prof.kernel("Filterbanks", |_| {
        if cfg.filter_bank {
            filter_bank_features(img)
        } else {
            vec![img.clone()]
        }
    });
    Ok(prof.kernel("Adjacencymatrix", |_| {
        build(
            &features,
            cfg.radius,
            cfg.sigma_feature,
            cfg.sigma_spatial,
            cfg.exec,
        )
    }))
}

impl Segmentation {
    /// Assembles a segmentation from precomputed labels (used by the
    /// recursive two-way variant).
    pub(crate) fn from_labels(
        labels: Vec<usize>,
        width: usize,
        height: usize,
        segments: usize,
    ) -> Segmentation {
        Segmentation {
            labels,
            width,
            height,
            segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rand_index;
    use sdvbs_synth::segmentable_scene;

    #[test]
    fn two_region_image_is_split_cleanly() {
        let img = Image::from_fn(24, 16, |x, _| if x < 12 { 20.0 } else { 220.0 });
        let cfg = SegmentationConfig {
            segments: 2,
            filter_bank: false,
            ..SegmentationConfig::default()
        };
        let mut prof = Profiler::new();
        let seg = segment(&img, &cfg, &mut prof).unwrap();
        // All left-half pixels share one label, right-half the other.
        let left = seg.label(2, 8);
        let right = seg.label(20, 8);
        assert_ne!(left, right);
        let mut errors = 0;
        for y in 0..16 {
            for x in 0..24 {
                let want = if x < 12 { left } else { right };
                if seg.label(x, y) != want {
                    errors += 1;
                }
            }
        }
        assert!(errors <= 12, "{errors} mislabeled pixels");
    }

    #[test]
    fn voronoi_scene_matches_ground_truth_well() {
        let scene = segmentable_scene(40, 30, 5, 3);
        let cfg = SegmentationConfig {
            segments: 3,
            sigma_feature: 30.0,
            ..SegmentationConfig::default()
        };
        let mut prof = Profiler::new();
        let seg = segment(&scene.image, &cfg, &mut prof).unwrap();
        let ri = rand_index(seg.labels(), &scene.labels);
        assert!(ri > 0.85, "rand index {ri}");
    }

    #[test]
    fn all_four_kernels_are_attributed() {
        let scene = segmentable_scene(32, 24, 9, 2);
        let cfg = SegmentationConfig {
            segments: 2,
            ..SegmentationConfig::default()
        };
        let mut prof = Profiler::new();
        prof.run(|p| segment(&scene.image, &cfg, p).unwrap());
        let rep = prof.report();
        for k in [
            "Filterbanks",
            "Adjacencymatrix",
            "Eigensolve",
            "QRfactorizations",
        ] {
            assert!(rep.occupancy(k).is_some(), "kernel {k} missing");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let img = Image::filled(8, 8, 1.0);
        let mut prof = Profiler::new();
        for cfg in [
            SegmentationConfig {
                segments: 0,
                ..SegmentationConfig::default()
            },
            SegmentationConfig {
                segments: 65,
                ..SegmentationConfig::default()
            },
            SegmentationConfig {
                sigma_feature: 0.0,
                ..SegmentationConfig::default()
            },
            SegmentationConfig {
                radius: 0,
                ..SegmentationConfig::default()
            },
        ] {
            assert!(segment(&img, &cfg, &mut prof).is_err(), "{cfg:?}");
        }
    }

    #[test]
    fn render_produces_piecewise_constant_image() {
        let img = Image::from_fn(16, 12, |x, _| if x < 8 { 10.0 } else { 200.0 });
        let cfg = SegmentationConfig {
            segments: 2,
            filter_bank: false,
            ..SegmentationConfig::default()
        };
        let mut prof = Profiler::new();
        let seg = segment(&img, &cfg, &mut prof).unwrap();
        let r = seg.render(&img);
        let mut values: Vec<i32> = r.as_slice().iter().map(|&v| v.round() as i32).collect();
        values.sort_unstable();
        values.dedup();
        assert!(values.len() <= 2, "{values:?}");
    }
}
