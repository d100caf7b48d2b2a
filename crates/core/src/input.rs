//! The paper's input-size spectrum.

use std::fmt;
use std::str::FromStr;

/// An input-size class. The paper provides every benchmark "with inputs of
/// three different sizes, which enable architects to control simulation
/// time, as well as to understand how the application scales".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSize {
    /// 128×96 — the paper's smallest class ("1×" in Figure 3).
    Sqcif,
    /// 176×144 — roughly 2× the pixels of SQCIF ("2×").
    Qcif,
    /// 352×288 — roughly 2× the pixels of QCIF ("4×").
    Cif,
    /// Any other frame size (for quick tests and custom sweeps).
    Custom {
        /// Frame width in pixels.
        width: usize,
        /// Frame height in pixels.
        height: usize,
    },
}

impl InputSize {
    /// The three named sizes in ascending order — the sweep used by every
    /// figure regenerator.
    pub const NAMED: [InputSize; 3] = [InputSize::Sqcif, InputSize::Qcif, InputSize::Cif];

    /// Frame dimensions `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        match *self {
            InputSize::Sqcif => (128, 96),
            InputSize::Qcif => (176, 144),
            InputSize::Cif => (352, 288),
            InputSize::Custom { width, height } => (width, height),
        }
    }

    /// Total pixels.
    pub fn pixels(&self) -> usize {
        let (w, h) = self.dims();
        w * h
    }

    /// Pixel count relative to SQCIF (the paper's "relative input size"
    /// axis: SQCIF = 1, QCIF ≈ 2, CIF ≈ 8... strictly CIF is ~8.25× SQCIF
    /// pixels; the paper labels it "4" by linear dimension convention).
    pub fn relative_pixels(&self) -> f64 {
        self.pixels() as f64 / InputSize::Sqcif.pixels() as f64
    }

    /// The paper's axis label for the named sizes ("1", "2", "4"), or the
    /// dimensions for custom sizes.
    pub fn label(&self) -> String {
        match self {
            InputSize::Sqcif => "1".to_string(),
            InputSize::Qcif => "2".to_string(),
            InputSize::Cif => "4".to_string(),
            InputSize::Custom { width, height } => format!("{width}x{height}"),
        }
    }
}

impl fmt::Display for InputSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (w, h) = self.dims();
        match self {
            InputSize::Sqcif => write!(f, "SQCIF ({w}x{h})"),
            InputSize::Qcif => write!(f, "QCIF ({w}x{h})"),
            InputSize::Cif => write!(f, "CIF ({w}x{h})"),
            InputSize::Custom { .. } => write!(f, "custom ({w}x{h})"),
        }
    }
}

/// Parses the canonical size labels `"sqcif"`, `"qcif"`, `"cif"` and
/// `"WxH"`, case-insensitively. The error is a human-readable message.
impl FromStr for InputSize {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        match text.to_ascii_lowercase().as_str() {
            "sqcif" => Ok(InputSize::Sqcif),
            "qcif" => Ok(InputSize::Qcif),
            "cif" => Ok(InputSize::Cif),
            custom => {
                let (w, h) = custom
                    .split_once('x')
                    .ok_or_else(|| format!("size must be sqcif, qcif, cif or WxH, got {text:?}"))?;
                let width = w.parse().map_err(|_| format!("invalid width {w:?}"))?;
                let height = h.parse().map_err(|_| format!("invalid height {h:?}"))?;
                if width == 0 || height == 0 {
                    return Err("dimensions must be positive".into());
                }
                Ok(InputSize::Custom { width, height })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_sizes_match_the_paper() {
        assert_eq!(InputSize::Sqcif.dims(), (128, 96));
        assert_eq!(InputSize::Qcif.dims(), (176, 144));
        assert_eq!(InputSize::Cif.dims(), (352, 288));
    }

    #[test]
    fn each_size_is_roughly_double_the_previous() {
        let ratio_q = InputSize::Qcif.pixels() as f64 / InputSize::Sqcif.pixels() as f64;
        let ratio_c = InputSize::Cif.pixels() as f64 / InputSize::Qcif.pixels() as f64;
        assert!((1.8..=2.2).contains(&ratio_q), "QCIF/SQCIF = {ratio_q}");
        assert!((3.5..=4.5).contains(&ratio_c), "CIF/QCIF = {ratio_c}");
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(InputSize::Sqcif.label(), "1");
        assert_eq!(InputSize::Cif.label(), "4");
        assert_eq!(
            InputSize::Custom {
                width: 10,
                height: 5
            }
            .label(),
            "10x5"
        );
        assert!(InputSize::Qcif.to_string().contains("176x144"));
    }

    #[test]
    fn size_labels_roundtrip() {
        for (label, size) in [
            ("sqcif", InputSize::Sqcif),
            ("qcif", InputSize::Qcif),
            ("cif", InputSize::Cif),
            (
                "64x48",
                InputSize::Custom {
                    width: 64,
                    height: 48,
                },
            ),
        ] {
            assert_eq!(label.parse(), Ok(size));
            assert_eq!(label.to_ascii_uppercase().parse(), Ok(size));
        }
        assert!("vga".parse::<InputSize>().is_err());
        assert!("0x5".parse::<InputSize>().is_err());
    }

    #[test]
    fn relative_pixels_baseline_is_one() {
        assert_eq!(InputSize::Sqcif.relative_pixels(), 1.0);
        assert!(InputSize::Cif.relative_pixels() > 8.0);
    }
}
