//! Benchmark metadata: the classification of Tables I and II.

use std::fmt;

/// The paper's four vision concentration areas (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConcentrationArea {
    /// "Motion, Tracking and Stereo Vision".
    MotionTrackingStereo,
    /// "Image Analysis".
    ImageAnalysis,
    /// "Image Understanding".
    ImageUnderstanding,
    /// "Image Processing and Formation".
    ImageProcessingFormation,
}

impl fmt::Display for ConcentrationArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConcentrationArea::MotionTrackingStereo => "Motion, Tracking and Stereo Vision",
            ConcentrationArea::ImageAnalysis => "Image Analysis",
            ConcentrationArea::ImageUnderstanding => "Image Understanding",
            ConcentrationArea::ImageProcessingFormation => "Image Processing and Formation",
        };
        write!(f, "{s}")
    }
}

/// The paper's workload characterization (Table II): "data intensive"
/// codes perform repetitive low-intensity arithmetic across fine-grained
/// pixel data; "computationally intensive" codes perform complex math on
/// less structured data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Characteristic {
    /// Repetitive pixel-granularity arithmetic; scales with input size.
    DataIntensive,
    /// Complex, less predictable computation; governed by features /
    /// segments / iterations rather than pixels.
    ComputeIntensive,
    /// Both regimes in different phases (the stitch benchmark).
    DataAndComputeIntensive,
}

impl fmt::Display for Characteristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Characteristic::DataIntensive => "Data intensive",
            Characteristic::ComputeIntensive => "Computationally intensive",
            Characteristic::DataAndComputeIntensive => "Data and computationally intensive",
        };
        write!(f, "{s}")
    }
}

/// Static description of one benchmark: the row it occupies in Tables I
/// and II plus its kernel decomposition (Figure 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkInfo {
    /// Benchmark name as the paper spells it.
    pub name: &'static str,
    /// One-line description (Table II).
    pub description: &'static str,
    /// Concentration area (Table I).
    pub area: ConcentrationArea,
    /// Data/compute characterization (Table II).
    pub characteristic: Characteristic,
    /// Application domain (Table II).
    pub domain: &'static str,
    /// Major kernels, using the scope names the implementation reports to
    /// the profiler (Figure 1 / Figure 3 series).
    pub kernels: &'static [&'static str],
    /// Whether the implementation plumbs its [`sdvbs_exec::ExecPolicy`]
    /// into its kernels. Every other benchmark runs serially under any
    /// policy, so a harness records one thread for it.
    pub honors_exec_policy: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings_match_paper_vocabulary() {
        assert_eq!(
            ConcentrationArea::MotionTrackingStereo.to_string(),
            "Motion, Tracking and Stereo Vision"
        );
        assert_eq!(Characteristic::DataIntensive.to_string(), "Data intensive");
    }

    #[test]
    fn info_is_constructible() {
        let info = BenchmarkInfo {
            name: "Test",
            description: "test benchmark",
            area: ConcentrationArea::ImageAnalysis,
            characteristic: Characteristic::ComputeIntensive,
            domain: "testing",
            kernels: &["A", "B"],
            honors_exec_policy: false,
        };
        assert_eq!(info.kernels.len(), 2);
        assert!(!info.honors_exec_policy);
    }
}
