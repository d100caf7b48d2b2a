//! Bit-identity oracle for the cascade scan: the per-window loop it
//! replaced, which scaled every stage feature's geometry for every window
//! and stump, kept with the feature evaluation it called, and the tests
//! that hold the scan and [`HaarFeature::eval`] to them.

use crate::boost::{StrongClassifier, Stump};
use crate::cascade::raw_detections;
use crate::haar::{HaarFeature, HaarKind, NormalizedWindow};
use crate::{Cascade, Detection, DetectorConfig};
use sdvbs_exec::ExecPolicy;
use sdvbs_image::Image;
use sdvbs_kernels::integral::IntegralImage;
use sdvbs_profile::Profiler;
use sdvbs_synth::face_scene;

/// The replaced `HaarFeature::eval`.
fn reference_eval(f: &HaarFeature, ii: &IntegralImage, win: &NormalizedWindow) -> f64 {
    let s = win.scale;
    let sx = |v: usize| (v as f64 * s).round() as usize;
    let x = win.x0 + sx(f.x);
    let y = win.y0 + sx(f.y);
    let w = sx(f.w).max(2);
    let h = sx(f.h).max(2);
    let w = w.min(ii.width().saturating_sub(x));
    let h = h.min(ii.height().saturating_sub(y));
    if w < 2 || h < 2 {
        return 0.0;
    }
    let raw = match f.kind {
        HaarKind::TwoVertical => {
            let hh = h / 2;
            ii.sum(x, y, w, hh) - ii.sum(x, y + hh, w, hh)
        }
        HaarKind::TwoHorizontal => {
            let hw = w / 2;
            ii.sum(x, y, hw, h) - ii.sum(x + hw, y, hw, h)
        }
        HaarKind::ThreeHorizontal => {
            let tw = w / 3;
            2.0 * ii.sum(x + tw, y, tw, h) - ii.sum(x, y, tw, h) - ii.sum(x + 2 * tw, y, tw, h)
        }
        HaarKind::ThreeVertical => {
            let th = h / 3;
            2.0 * ii.sum(x, y + th, w, th) - ii.sum(x, y, w, th) - ii.sum(x, y + 2 * th, w, th)
        }
        HaarKind::Four => {
            let hw = w / 2;
            let hh = h / 2;
            ii.sum(x, y, hw, hh) + ii.sum(x + hw, y + hh, hw, hh)
                - ii.sum(x + hw, y, hw, hh)
                - ii.sum(x, y + hh, hw, hh)
        }
    };
    raw * win.inv_norm
}

/// The replaced `Cascade::accepts`, over [`reference_eval`].
fn reference_accepts(
    stages: &[StrongClassifier],
    ii: &IntegralImage,
    win: &NormalizedWindow,
) -> bool {
    stages.iter().all(|stage| {
        let score: f64 = stage
            .stumps
            .iter()
            .map(|st| st.alpha * st.vote(reference_eval(&stage.features[st.feature], ii, win)))
            .sum();
        score >= stage.threshold
    })
}

/// The replaced serial scan: raw window hits in scan order.
fn reference_raw_detections(
    img: &Image,
    cascade: &Cascade,
    cfg: &DetectorConfig,
) -> Vec<Detection> {
    let ii = IntegralImage::new(img);
    let ii2 = IntegralImage::squared(img);
    let mut rows: Vec<(usize, usize, usize)> = Vec::new();
    let mut size = cascade.window();
    let max_size = img.width().min(img.height());
    while size <= max_size {
        let stride = ((size as f64 * cfg.stride_frac).round() as usize).max(1);
        let mut y = 0;
        while y + size <= img.height() {
            rows.push((size, stride, y));
            y += stride;
        }
        size = ((size as f64) * cfg.scale_factor).round() as usize;
    }
    let mut out = Vec::new();
    for &(size, stride, y) in &rows {
        let top = ii.table_row(y);
        let bot = ii.table_row(y + size);
        let top2 = ii2.table_row(y);
        let bot2 = ii2.table_row(y + size);
        let mut x = 0;
        while x + size <= img.width() {
            let x1 = x + size;
            let sum = bot[x1] - top[x1] - bot[x] + top[x];
            let sum2 = bot2[x1] - top2[x1] - bot2[x] + top2[x];
            let win = NormalizedWindow::from_window_sums(sum, sum2, x, y, size, cascade.window());
            if reference_accepts(cascade.stage_slice(), &ii, &win) {
                out.push(Detection {
                    x,
                    y,
                    size,
                    support: 1,
                });
            }
            x += stride;
        }
    }
    out
}

/// The paper's three input sizes: SQCIF, QCIF, CIF.
const SIZES: [(usize, usize); 3] = [(128, 96), (176, 144), (352, 288)];

/// Raw detections on face scenes at every size, under `Serial` and
/// `Threads(2)`, equal the replaced scan's in value and order; so do those
/// on odd-sized and portrait images, where more windows reach the image
/// edge, and under a sparser scan.
#[test]
fn raw_detections_match_the_replaced_scan() {
    let cascade = Cascade::pretrained();
    let mut cases: Vec<(String, Image, DetectorConfig)> = Vec::new();
    for (w, h) in SIZES {
        for seed in [3u64, 11] {
            let scene = face_scene(w, h, seed, 2 + (w * h / (128 * 96)).min(4));
            cases.push((
                format!("{w}x{h} seed {seed}"),
                scene.image,
                DetectorConfig::default(),
            ));
        }
    }
    for (w, h) in [(131, 97), (97, 131)] {
        let img = face_scene(w, h, 5, 2).image;
        cases.push((format!("{w}x{h}"), img, DetectorConfig::default()));
    }
    let sparse = DetectorConfig {
        scale_factor: 1.25,
        stride_frac: 0.11,
        ..DetectorConfig::default()
    };
    cases.push((
        "CIF sparse".into(),
        face_scene(352, 288, 9, 6).image,
        sparse,
    ));
    for (what, img, base) in &cases {
        let want = reference_raw_detections(img, cascade, base);
        assert!(!want.is_empty(), "{what}: no raw hits to compare");
        for exec in [ExecPolicy::Serial, ExecPolicy::Threads(2)] {
            let cfg = DetectorConfig { exec, ..*base };
            let got = raw_detections(img, cascade, &cfg, &mut Profiler::new());
            assert!(got == want, "{what} {exec:?}: raw detections differ");
        }
    }
}

/// A hand-built two-stage cascade whose first-stage features reach the
/// window's right and bottom edges, so rounding pushes them one pixel past
/// it at some sizes and windows at the image edge need the clamp, and
/// whose thresholds accept about half the windows: its raw detections
/// equal the replaced scan's, window by window.
#[test]
fn edge_reaching_features_match_the_replaced_scan() {
    let feature = |kind, x, y, w, h| HaarFeature { kind, x, y, w, h };
    let features = vec![
        feature(HaarKind::TwoHorizontal, 12, 12, 12, 12),
        feature(HaarKind::ThreeVertical, 0, 9, 24, 15),
        feature(HaarKind::Four, 12, 12, 12, 12),
        feature(HaarKind::ThreeHorizontal, 3, 3, 21, 21),
        feature(HaarKind::TwoVertical, 6, 12, 18, 12),
    ];
    let stump = |feature: usize, polarity: f64| Stump {
        feature,
        threshold: 0.0,
        polarity,
        alpha: 1.0,
    };
    let first = StrongClassifier {
        stumps: (0..5)
            .map(|f| stump(f, if f % 2 == 0 { 1.0 } else { -1.0 }))
            .collect(),
        threshold: 0.0,
        features: features.clone(),
    };
    let second = StrongClassifier {
        stumps: vec![stump(0, -1.0), stump(2, 1.0)],
        threshold: -1.0,
        features,
    };
    let cascade = Cascade::from_parts(vec![first, second], 24);
    let sparse = DetectorConfig {
        scale_factor: 1.25,
        stride_frac: 0.11,
        ..DetectorConfig::default()
    };
    for (w, h) in [(131, 97), (97, 131)] {
        let img = sdvbs_synth::textured_image(w, h, 21);
        for base in [DetectorConfig::default(), sparse] {
            let want = reference_raw_detections(&img, &cascade, &base);
            assert!(!want.is_empty(), "{w}x{h}: no raw hits to compare");
            for exec in [ExecPolicy::Serial, ExecPolicy::Threads(2)] {
                let cfg = DetectorConfig { exec, ..base };
                let got = raw_detections(&img, &cascade, &cfg, &mut Profiler::new());
                assert!(got == want, "{w}x{h} {exec:?}: raw detections differ");
            }
        }
    }
}

/// `HaarFeature::eval`, now a scaled geometry plus its evaluation over
/// table rows, returns the replaced evaluation's bits for every stage
/// feature in every window of every size of a SQCIF scene, edge windows
/// included.
#[test]
fn feature_values_match_the_replaced_eval() {
    let cascade = Cascade::pretrained();
    let img = face_scene(128, 96, 5, 2).image;
    let ii = IntegralImage::new(&img);
    let ii2 = IntegralImage::squared(&img);
    let base = cascade.window();
    let mut size = base;
    while size <= 96 {
        for y in 0..=96 - size {
            for x in 0..=128 - size {
                let win = NormalizedWindow::new(&ii, &ii2, x, y, size, base);
                for stage in cascade.stage_slice() {
                    for f in &stage.features {
                        let (got, want) = (f.eval(&ii, &win), reference_eval(f, &ii, &win));
                        assert!(
                            got.to_bits() == want.to_bits(),
                            "{f:?} at ({x},{y}) size {size}: {got:e} against {want:e}"
                        );
                    }
                }
            }
        }
        size = ((size as f64) * 1.12).round() as usize;
    }
}
