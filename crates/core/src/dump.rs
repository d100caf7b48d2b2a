//! Input-set dumping: write the synthetic inputs of every benchmark to
//! disk as netpbm files, mirroring the original suite's distributed input
//! corpus ("a spectrum of input sets" the user can inspect).

use crate::input::InputSize;
use crate::suite::{
    disparity_input, facedetect_input, localization_input, segmentation_input, sift_input,
    stitch_input, svm_input, texture_input, tracking_input, SEGMENTS,
};
use sdvbs_image::{write_pgm, Image, ImageError};
use std::path::Path;

/// Writes the image inputs every benchmark generates for `(size, seed)`
/// into `dir` as PGM files, built by the same functions the benchmarks
/// run. Returns the file names written (relative to `dir`).
///
/// Non-image inputs (the robot world, SVM vectors) and the face ground
/// truth are summarized in a `manifest.txt` instead.
///
/// # Errors
///
/// Returns the underlying [`ImageError`] on I/O failure.
pub fn dump_inputs(
    size: InputSize,
    seed: u64,
    dir: impl AsRef<Path>,
) -> Result<Vec<String>, ImageError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(ImageError::from)?;
    let mut written = Vec::new();
    let mut save = |name: &str, img: &Image| -> Result<(), ImageError> {
        write_pgm(img, dir.join(name))?;
        written.push(name.to_string());
        Ok(())
    };
    let stereo = disparity_input(size, seed);
    save("disparity_left.pgm", &stereo.left)?;
    save("disparity_right.pgm", &stereo.right)?;
    save("disparity_truth.pgm", &stereo.truth.normalized_to_255())?;
    let (a, b) = tracking_input(size, seed);
    save("tracking_frame0.pgm", &a)?;
    save("tracking_frame1.pgm", &b)?;
    let scene = segmentation_input(size, seed);
    save("segmentation_scene.pgm", &scene.image)?;
    let labels = Image::from_fn(scene.image.width(), scene.image.height(), |x, y| {
        scene.labels[y * scene.image.width() + x] as f32 * (255.0 / (SEGMENTS - 1) as f32)
    });
    save("segmentation_labels.pgm", &labels)?;
    save("sift_scene.pgm", &sift_input(size, seed))?;
    let faces = facedetect_input(size, seed);
    save("facedetect_scene.pgm", &faces.image)?;
    let pair = stitch_input(size, seed);
    save("stitch_view_a.pgm", &pair.a)?;
    save("stitch_view_b.pgm", &pair.b)?;
    save("texture_swatch.pgm", &texture_input(size, seed).0)?;
    let (world, traj) = localization_input(seed);
    let svm = svm_input(size, seed);
    let manifest = format!(
        "SD-VBS synthetic input set\nsize: {size}\nseed: {seed}\n\n\
         localization: {}x{} m world, {} landmarks, {}-step trajectory\n\
         svm: gaussian clusters, {}x{} working set\n\
         face ground truth: {:?}\n",
        world.config().width,
        world.config().height,
        world.landmarks().len(),
        traj.steps.len(),
        svm.train_x.rows() + svm.test_x.rows(),
        svm.train_x.cols(),
        faces.faces,
    );
    std::fs::write(dir.join("manifest.txt"), manifest).map_err(ImageError::from)?;
    written.push("manifest.txt".to_string());
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_writes_all_inputs_and_is_readable() {
        let dir = std::env::temp_dir().join(format!("sdvbs_dump_{}", std::process::id()));
        let written = dump_inputs(
            InputSize::Custom {
                width: 64,
                height: 48,
            },
            3,
            &dir,
        )
        .unwrap();
        assert!(written.len() >= 12, "only {} files written", written.len());
        // Every PGM reads back.
        for name in &written {
            if name.ends_with(".pgm") {
                let img = sdvbs_image::read_pgm(dir.join(name)).unwrap();
                assert!(!img.is_empty(), "{name} is empty");
            }
        }
        assert!(written.contains(&"manifest.txt".to_string()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The dumped face scene and texture swatch are the ones the
    /// benchmarks run: the face count and swatch size their details
    /// report.
    #[test]
    fn dumped_faces_and_swatch_match_what_the_benchmarks_run() {
        use crate::{all_benchmarks, ExecPolicy};
        use sdvbs_profile::Profiler;
        let suite = all_benchmarks();
        let detail = |name: &str, size: InputSize| {
            let bench = suite.iter().find(|b| b.info().name == name).unwrap();
            bench
                .try_run_with(size, 2, ExecPolicy::Serial, &mut Profiler::new())
                .unwrap()
                .detail
        };
        for size in InputSize::NAMED {
            let dir = std::env::temp_dir().join(format!(
                "sdvbs_dump_{}_{}",
                std::process::id(),
                size.label()
            ));
            dump_inputs(size, 2, &dir).unwrap();
            let manifest = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
            let truth = manifest
                .lines()
                .find(|l| l.starts_with("face ground truth"))
                .unwrap();
            let faces = truth.matches("FaceBox").count();
            let found = detail("Face Detection", size);
            assert!(
                found.contains(&format!("/{faces} faces found")),
                "{size}: dumped {faces} faces, the benchmark ran {found:?}"
            );
            let swatch = sdvbs_image::read_pgm(dir.join("texture_swatch.pgm")).unwrap();
            let (w, h) = (swatch.width(), swatch.height());
            let synthesized = detail("Texture Synthesis", size);
            assert!(
                synthesized.contains(&format!("from {w}x{h} swatch")),
                "{size}: dumped a {w}x{h} swatch, the benchmark ran {synthesized:?}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
