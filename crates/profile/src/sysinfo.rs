//! Host configuration reporting (the paper's Table III).

use std::fmt;

/// A description of the machine running the experiments, mirroring the
/// paper's Table III ("Configuration of profiling system").
///
/// The original table lists OS, processor, cache sizes, memory and bus of
/// the authors' Xeon testbed; reproduction runs print the actual host so
/// that `EXPERIMENTS.md` entries are self-describing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemInfo {
    /// Operating system / kernel version string.
    pub os: String,
    /// Processor model name.
    pub cpu: String,
    /// Logical CPU count.
    pub logical_cpus: usize,
    /// Total memory in MiB, when discoverable.
    pub memory_mib: Option<u64>,
    /// The widest vector ISA this build was compiled for, not what the
    /// processor supports (one CPU can run an `sse2` and an `avx2` build
    /// of the same code): the widest of `avx512f`, `avx2`, `avx` and
    /// `sse2` that `cfg!(target_feature = ...)` reports, or the
    /// architecture name (`std::env::consts::ARCH`) off x86.
    pub simd: String,
}

impl SystemInfo {
    /// Collects host information from `/proc` (falling back to placeholders
    /// on non-Linux systems, where the files are absent).
    pub fn collect() -> Self {
        let os = std::fs::read_to_string("/proc/version")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("{} (unknown kernel)", std::env::consts::OS));
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown processor".to_string());
        let logical_cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let memory_mib = std::fs::read_to_string("/proc/meminfo").ok().and_then(|m| {
            m.lines()
                .find(|l| l.starts_with("MemTotal:"))
                .and_then(|l| {
                    l.split_whitespace()
                        .nth(1)
                        .and_then(|kb| kb.parse::<u64>().ok())
                        .map(|kb| kb / 1024)
                })
        });
        SystemInfo {
            os,
            cpu,
            logical_cpus,
            memory_mib,
            simd: compiled_simd().to_string(),
        }
    }
}

/// See [`SystemInfo::simd`].
fn compiled_simd() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "avx512f"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "avx") {
        "avx"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else {
        std::env::consts::ARCH
    }
}

impl fmt::Display for SystemInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Operating System : {}", self.os)?;
        writeln!(
            f,
            "Processor        : {} ({} logical cpus)",
            self.cpu, self.logical_cpus
        )?;
        match self.memory_mib {
            Some(m) => writeln!(f, "Memory           : {m} MiB")?,
            None => writeln!(f, "Memory           : unknown")?,
        }
        writeln!(f, "Vector ISA       : {} (compiled for)", self.simd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_returns_nonempty_fields() {
        let info = SystemInfo::collect();
        assert!(!info.os.is_empty());
        assert!(!info.cpu.is_empty());
        assert!(info.logical_cpus >= 1);
        if cfg!(target_arch = "x86_64") {
            // x86-64 guarantees SSE2, so the answer is always a vector ISA.
            assert!(["avx512f", "avx2", "avx", "sse2"].contains(&info.simd.as_str()));
        } else if !cfg!(target_arch = "x86") {
            assert_eq!(info.simd, std::env::consts::ARCH);
        }
    }

    #[test]
    fn display_lists_all_rows() {
        let info = SystemInfo {
            os: "TestOS".into(),
            cpu: "TestCPU".into(),
            logical_cpus: 4,
            memory_mib: Some(2048),
            simd: "avx2".into(),
        };
        let s = info.to_string();
        assert!(s.contains("TestOS"));
        assert!(s.contains("TestCPU"));
        assert!(s.contains("2048 MiB"));
        assert!(s.contains("Vector ISA       : avx2 (compiled for)"));
    }
}
