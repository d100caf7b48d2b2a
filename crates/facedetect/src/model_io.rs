//! Cascade model serialization and the shipped pre-trained cascade.
//!
//! SD-VBS ships its Viola–Jones model pre-trained; so does this crate:
//! [`Cascade::pretrained`] parses the committed `models/default.cascade`,
//! the output of the default training configuration. Training stays a
//! library feature — train once, [`Cascade::save`] the cascade, and
//! [`Cascade::load`] it in later runs without paying training time. The
//! format is a small, versioned, line-oriented text file (stable across
//! platforms, diffable, no serialization dependency).

use crate::boost::{StrongClassifier, Stump};
use crate::cascade::Cascade;
use crate::haar::{HaarFeature, HaarKind};
use std::error::Error;
use std::fmt::{self, Write as _};
use std::path::Path;
use std::sync::OnceLock;

/// Errors from cascade model I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum ModelIoError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file is not a valid cascade model (message pinpoints the
    /// offending line).
    Malformed(String),
}

impl fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "cascade model i/o failed: {e}"),
            ModelIoError::Malformed(m) => write!(f, "malformed cascade model: {m}"),
        }
    }
}

impl Error for ModelIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

const MAGIC: &str = "SDVBS-CASCADE 1";

fn kind_name(kind: HaarKind) -> &'static str {
    match kind {
        HaarKind::TwoVertical => "two_v",
        HaarKind::TwoHorizontal => "two_h",
        HaarKind::ThreeHorizontal => "three_h",
        HaarKind::ThreeVertical => "three_v",
        HaarKind::Four => "four",
    }
}

fn kind_from(name: &str) -> Option<HaarKind> {
    Some(match name {
        "two_v" => HaarKind::TwoVertical,
        "two_h" => HaarKind::TwoHorizontal,
        "three_h" => HaarKind::ThreeHorizontal,
        "three_v" => HaarKind::ThreeVertical,
        "four" => HaarKind::Four,
        _ => return None,
    })
}

/// The shipped default cascade: the model file [`Cascade::pretrained`]
/// parses, compiled into the crate.
const PRETRAINED: &str = include_str!("../models/default.cascade");

impl Cascade {
    /// The default cascade, shipped pre-trained as SD-VBS ships its model.
    ///
    /// It is exactly what `Cascade::train(&CascadeConfig::default(), ..)`
    /// produces, as written by [`Cascade::to_model_string`] into
    /// `models/default.cascade` and compiled into the crate; it is parsed
    /// once per process, on first use, so detection never pays for
    /// training. After a change to training or to the synthetic faces it
    /// learns from, regenerate the file with
    ///
    /// ```text
    /// cargo run --release -p sdvbs-facedetect --example train_cascade -- \
    ///     crates/facedetect/models/default.cascade
    /// ```
    ///
    /// A unit test retrains the default cascade and fails if the shipped
    /// bytes differ.
    pub fn pretrained() -> &'static Cascade {
        static CASCADE: OnceLock<Cascade> = OnceLock::new();
        CASCADE.get_or_init(|| Cascade::parse(PRETRAINED).expect("the shipped cascade parses"))
    }

    /// The cascade as model-file text, the inverse of [`Cascade::parse`].
    /// Numbers are written as `{:.17e}`, which round-trips every `f64`
    /// exactly.
    pub fn to_model_string(&self) -> String {
        let mut out = String::new();
        self.write_model(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_model(&self, out: &mut String) -> fmt::Result {
        writeln!(out, "{MAGIC}")?;
        writeln!(out, "window {}", self.window())?;
        writeln!(out, "stages {}", self.stages())?;
        for stage in self.stage_slice() {
            writeln!(out, "stage {} {:.17e}", stage.stumps.len(), stage.threshold)?;
            for stump in &stage.stumps {
                let feat = stage.features[stump.feature];
                writeln!(
                    out,
                    "stump {} {} {} {} {} {:.17e} {} {:.17e}",
                    kind_name(feat.kind),
                    feat.x,
                    feat.y,
                    feat.w,
                    feat.h,
                    stump.threshold,
                    stump.polarity as i8,
                    stump.alpha
                )?;
            }
        }
        Ok(())
    }

    /// Parses model-file text written by [`Cascade::to_model_string`].
    ///
    /// # Errors
    ///
    /// [`ModelIoError::Malformed`] for syntax errors, wrong magic, or
    /// inconsistent counts.
    pub fn parse(text: &str) -> Result<Cascade, ModelIoError> {
        let mut lines = text.lines();
        let mut next = |what: &str| -> Result<&str, ModelIoError> {
            lines
                .next()
                .ok_or_else(|| ModelIoError::Malformed(format!("missing {what}")))
        };
        if next("magic")? != MAGIC {
            return Err(ModelIoError::Malformed("bad magic line".into()));
        }
        let window: usize = parse_kv(next("window line")?, "window")?;
        let n_stages: usize = parse_kv(next("stages line")?, "stages")?;
        if window < 12 || n_stages == 0 || n_stages > 1000 {
            return Err(ModelIoError::Malformed(format!(
                "implausible header: window {window}, stages {n_stages}"
            )));
        }
        let mut stages = Vec::with_capacity(n_stages);
        for s in 0..n_stages {
            let mut parts = next("stage line")?.split_whitespace();
            if parts.next() != Some("stage") {
                return Err(ModelIoError::Malformed(format!(
                    "stage {s}: expected 'stage'"
                )));
            }
            let n_stumps: usize = parse_tok(parts.next(), "stump count")?;
            let threshold: f64 = parse_tok(parts.next(), "stage threshold")?;
            let mut stumps = Vec::with_capacity(n_stumps);
            let mut features = Vec::with_capacity(n_stumps);
            for k in 0..n_stumps {
                let mut p = next("stump line")?.split_whitespace();
                if p.next() != Some("stump") {
                    return Err(ModelIoError::Malformed(format!(
                        "stage {s} stump {k}: expected 'stump'"
                    )));
                }
                let kind = kind_from(p.next().unwrap_or("")).ok_or_else(|| {
                    ModelIoError::Malformed(format!("stage {s} stump {k}: bad kind"))
                })?;
                let x: usize = parse_tok(p.next(), "x")?;
                let y: usize = parse_tok(p.next(), "y")?;
                let w: usize = parse_tok(p.next(), "w")?;
                let h: usize = parse_tok(p.next(), "h")?;
                if x + w > window || y + h > window || w < 2 || h < 2 {
                    return Err(ModelIoError::Malformed(format!(
                        "stage {s} stump {k}: feature outside the window"
                    )));
                }
                let threshold: f64 = parse_tok(p.next(), "stump threshold")?;
                let polarity: i8 = parse_tok(p.next(), "polarity")?;
                if polarity != 1 && polarity != -1 {
                    return Err(ModelIoError::Malformed(format!(
                        "stage {s} stump {k}: polarity must be +-1"
                    )));
                }
                let alpha: f64 = parse_tok(p.next(), "alpha")?;
                features.push(HaarFeature { kind, x, y, w, h });
                stumps.push(Stump {
                    feature: k,
                    threshold,
                    polarity: polarity as f64,
                    alpha,
                });
            }
            stages.push(StrongClassifier {
                stumps,
                threshold,
                features,
            });
        }
        Ok(Cascade::from_parts(stages, window))
    }

    /// Writes the cascade to a text model file ([`Cascade::to_model_string`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelIoError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelIoError> {
        std::fs::write(path, self.to_model_string())?;
        Ok(())
    }

    /// Reads a cascade from a text model file written by [`Cascade::save`]
    /// ([`Cascade::parse`]).
    ///
    /// # Errors
    ///
    /// * [`ModelIoError::Io`] on filesystem failure.
    /// * [`ModelIoError::Malformed`] for syntax errors, wrong magic, or
    ///   inconsistent counts.
    pub fn load(path: impl AsRef<Path>) -> Result<Cascade, ModelIoError> {
        Cascade::parse(&std::fs::read_to_string(path)?)
    }
}

fn parse_kv<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, ModelIoError> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some(key) {
        return Err(ModelIoError::Malformed(format!(
            "expected '{key}' line, got {line:?}"
        )));
    }
    parse_tok(parts.next(), key)
}

fn parse_tok<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, ModelIoError> {
    tok.ok_or_else(|| ModelIoError::Malformed(format!("missing {what}")))?
        .parse()
        .map_err(|_| ModelIoError::Malformed(format!("invalid {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::CascadeConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sdvbs_profile::Profiler;
    use sdvbs_synth::{render_face_patch, render_non_face_patch};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sdvbs_cascade_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn save_load_roundtrip_preserves_decisions() {
        let mut prof = Profiler::new();
        let cfg = CascadeConfig {
            positives: 80,
            negatives: 80,
            stage_rounds: vec![3, 5],
            ..CascadeConfig::default()
        };
        let cascade = Cascade::train(&cfg, &mut prof).unwrap();
        let path = tmp("roundtrip.txt");
        cascade.save(&path).unwrap();
        let loaded = Cascade::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.window(), cascade.window());
        assert_eq!(loaded.stages(), cascade.stages());
        // Identical decisions on fresh patches.
        let mut rng = StdRng::seed_from_u64(4242);
        for _ in 0..60 {
            let face = render_face_patch(24, &mut rng);
            let clutter = render_non_face_patch(24, &mut rng);
            assert_eq!(cascade.accepts_patch(&face), loaded.accepts_patch(&face));
            assert_eq!(
                cascade.accepts_patch(&clutter),
                loaded.accepts_patch(&clutter)
            );
        }
    }

    /// The one test that trains the default cascade. The shipped model
    /// must be its exact serialization, and [`Cascade::pretrained`] must
    /// equal it bit for bit.
    #[test]
    fn shipped_model_is_the_default_training_output() {
        let mut prof = Profiler::new();
        let trained = Cascade::train(&CascadeConfig::default(), &mut prof).unwrap();
        assert!(
            trained.to_model_string() == PRETRAINED,
            "models/default.cascade differs from the default training output; \
             regenerate it with `cargo run --release -p sdvbs-facedetect \
             --example train_cascade -- crates/facedetect/models/default.cascade`"
        );
        let shipped = Cascade::pretrained();
        assert_eq!(shipped.window(), trained.window());
        assert_eq!(shipped.stages(), trained.stages());
        for (a, b) in shipped.stage_slice().iter().zip(trained.stage_slice()) {
            assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
            assert_eq!(a.features, b.features);
            assert_eq!(a.stumps.len(), b.stumps.len());
            for (s, t) in a.stumps.iter().zip(&b.stumps) {
                assert_eq!(s.feature, t.feature);
                assert_eq!(s.threshold.to_bits(), t.threshold.to_bits());
                assert_eq!(s.polarity.to_bits(), t.polarity.to_bits());
                assert_eq!(s.alpha.to_bits(), t.alpha.to_bits());
            }
        }
    }

    /// The model's number format loses no bit of any finite `f64`.
    fn assert_round_trips(v: f64) {
        let back: f64 = format!("{v:.17e}").parse().unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "{v:e} did not round-trip");
    }

    #[test]
    fn number_format_round_trips_extremes() {
        for v in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.1,
            1.0 / 3.0,
        ] {
            assert_round_trips(v);
        }
    }

    proptest::proptest! {
        #[test]
        fn number_format_round_trips_every_f64(bits in 0u64..u64::MAX) {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                assert_round_trips(v);
            }
        }
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let path = tmp("badmagic.txt");
        std::fs::write(&path, "NOT-A-CASCADE\n").unwrap();
        assert!(matches!(
            Cascade::load(&path),
            Err(ModelIoError::Malformed(_))
        ));
        std::fs::write(&path, format!("{MAGIC}\nwindow 24\nstages 2\n")).unwrap();
        assert!(matches!(
            Cascade::load(&path),
            Err(ModelIoError::Malformed(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_out_of_window_features() {
        let path = tmp("badfeat.txt");
        std::fs::write(
            &path,
            format!(
                "{MAGIC}\nwindow 24\nstages 1\nstage 1 0.0\nstump two_v 20 20 10 10 0.0 1 1.0\n"
            ),
        )
        .unwrap();
        assert!(matches!(
            Cascade::load(&path),
            Err(ModelIoError::Malformed(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            Cascade::load("/nonexistent/sdvbs/cascade.txt"),
            Err(ModelIoError::Io(_))
        ));
    }
}
