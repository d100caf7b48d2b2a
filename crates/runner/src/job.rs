//! The job model and the persisted run record.
//!
//! A [`Job`] names one cell of the measurement space — benchmark × input
//! size × execution policy × seed — plus how many timed iterations to
//! take. A [`RunRecord`] is the durable result: timing percentiles, the
//! per-kernel profile breakdown of the fastest iteration, the quality
//! score against synthetic ground truth, and host metadata, serialized as
//! one JSON object per line (see [`crate::store`]).

use crate::jsonl::Value;
use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_profile::SystemInfo;
use std::fmt;

/// One benchmark execution request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Registry name, e.g. `"Disparity Map"` (see
    /// [`sdvbs_core::all_benchmarks`]).
    pub benchmark: String,
    /// Input-size class for the synthetic input.
    pub size: InputSize,
    /// Execution policy for the benchmark's data-parallel kernels. `Auto`
    /// is resolved **once per run**, not per job, so every record of a
    /// sweep reports the same thread count.
    pub policy: ExecPolicy,
    /// Input-generation seed (the paper's "distinct inputs").
    pub seed: u64,
    /// Timed iterations (an extra untimed warmup iteration always runs
    /// first); clamped to at least 1.
    pub iterations: usize,
}

impl Job {
    /// Convenience constructor.
    pub fn new(
        benchmark: impl Into<String>,
        size: InputSize,
        policy: ExecPolicy,
        seed: u64,
        iterations: usize,
    ) -> Self {
        Job {
            benchmark: benchmark.into(),
            size,
            policy,
            seed,
            iterations,
        }
    }

    /// Serializes the spec as a JSON object —
    /// `{"benchmark","size","policy","seed","iterations"}` — the shape
    /// shared by the HTTP job endpoint and the cluster wire protocol.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("benchmark".into(), Value::Str(self.benchmark.clone())),
            ("size".into(), Value::Str(size_label(self.size))),
            ("policy".into(), Value::Str(policy_label(self.policy))),
            ("seed".into(), Value::Num(self.seed as f64)),
            (
                "iterations".into(),
                Value::Num(self.iterations.max(1) as f64),
            ),
        ])
    }

    /// Parses a [`Job::to_value`]-shaped object. Only `benchmark` is
    /// required; size defaults to `sqcif`, policy to `serial`, seed to 1,
    /// iterations to 1. The benchmark name is **not** validated against
    /// the registry here — transport layers own that policy.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for a missing benchmark field or
    /// an unparsable size/policy label.
    pub fn from_value(v: &Value) -> Result<Job, String> {
        let benchmark = v
            .get("benchmark")
            .and_then(Value::as_str)
            .ok_or("missing required string field \"benchmark\"")?
            .to_string();
        let size = v
            .get("size")
            .and_then(Value::as_str)
            .unwrap_or("sqcif")
            .parse()?;
        let policy = parse_policy(v.get("policy").and_then(Value::as_str).unwrap_or("serial"))?;
        let seed = v.get("seed").and_then(Value::as_u64).unwrap_or(1);
        let iterations = v.get("iterations").and_then(Value::as_u64).unwrap_or(1) as usize;
        Ok(Job::new(benchmark, size, policy, seed, iterations.max(1)))
    }

    /// The canonical cache key of this spec: [`cell_key`] over the job's
    /// labels, with the fault plan's fingerprint appended when one is
    /// armed — a chaos run's cells must never be served from (or stored
    /// into) the clean-result cache.
    pub fn cache_key(&self, fault: Option<&crate::fault::FaultPlan>) -> String {
        cell_key(
            &self.benchmark,
            &size_label(self.size),
            &policy_label(self.policy),
            self.seed,
            fault
                .and_then(crate::fault::FaultPlan::fingerprint)
                .as_deref(),
        )
    }
}

/// The canonical cell-identity string of the whole workspace:
/// `benchmark|size|policy|seed`, with an optional fault-plan fingerprint
/// as a fifth segment. [`RunRecord::key`] (the runner's record matching
/// and `compare`'s cell identity) and the serve layer's content-addressed
/// result cache all derive from this one helper, so a cell named in a
/// quarantine report, a regression verdict, and a cache entry is always
/// the same string.
pub fn cell_key(
    benchmark: &str,
    size: &str,
    policy: &str,
    seed: u64,
    fault: Option<&str>,
) -> String {
    match fault {
        Some(fingerprint) => format!("{benchmark}|{size}|{policy}|{seed}|{fingerprint}"),
        None => format!("{benchmark}|{size}|{policy}|{seed}"),
    }
}

/// Canonical lowercase label for an input size (`"sqcif"`, `"qcif"`,
/// `"cif"`, or `"WxH"` for custom sizes).
pub fn size_label(size: InputSize) -> String {
    match size {
        InputSize::Sqcif => "sqcif".to_string(),
        InputSize::Qcif => "qcif".to_string(),
        InputSize::Cif => "cif".to_string(),
        InputSize::Custom { width, height } => format!("{width}x{height}"),
    }
}

/// Canonical label for an execution policy (`"serial"`, `"threads:4"`,
/// `"auto"`).
///
/// Records store the *requested* policy label, so an `auto` baseline cell
/// still matches an `auto` candidate cell across hosts with different core
/// counts; the resolved width is recorded separately in
/// [`RunRecord::threads`].
pub fn policy_label(policy: ExecPolicy) -> String {
    match policy {
        ExecPolicy::Serial => "serial".to_string(),
        ExecPolicy::Threads(n) => format!("threads:{n}"),
        ExecPolicy::Auto => "auto".to_string(),
    }
}

/// Parses a [`policy_label`]-style string (case-insensitive).
///
/// # Errors
///
/// Returns a human-readable message for unknown labels.
pub fn parse_policy(text: &str) -> Result<ExecPolicy, String> {
    let lower = text.to_ascii_lowercase();
    match lower.as_str() {
        "serial" => Ok(ExecPolicy::Serial),
        "auto" => Ok(ExecPolicy::Auto),
        other => {
            let n = other
                .strip_prefix("threads:")
                .ok_or_else(|| format!("policy must be serial, auto or threads:N, got {text:?}"))?;
            let n: usize = n
                .parse()
                .map_err(|_| format!("invalid thread count {n:?}"))?;
            if n == 0 {
                return Err("thread count must be positive".into());
            }
            Ok(ExecPolicy::Threads(n))
        }
    }
}

/// How a job ended, as stored in its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// All iterations ran and produced timings.
    Completed,
    /// The watchdog deadline fired before the job finished.
    TimedOut,
    /// The job panicked; [`RunRecord::detail`] carries the message.
    Panicked,
    /// The benchmark returned its crate's typed error (carried by
    /// [`sdvbs_core::SdvbsError`]) instead of completing;
    /// [`RunRecord::detail`] carries its message.
    Failed,
}

impl RunStatus {
    /// Stable string form used in the JSONL records.
    pub fn as_str(self) -> &'static str {
        match self {
            RunStatus::Completed => "completed",
            RunStatus::TimedOut => "timed_out",
            RunStatus::Panicked => "panicked",
            RunStatus::Failed => "failed",
        }
    }

    /// Parses the [`RunStatus::as_str`] form.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown labels.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "completed" => Ok(RunStatus::Completed),
            "timed_out" => Ok(RunStatus::TimedOut),
            "panicked" => Ok(RunStatus::Panicked),
            "failed" => Ok(RunStatus::Failed),
            other => Err(format!("unknown run status {other:?}")),
        }
    }
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One kernel's share of a run (from the fastest timed iteration).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStatRecord {
    /// Kernel name as reported by the profiler.
    pub name: String,
    /// Self time in milliseconds.
    pub self_ms: f64,
    /// Number of kernel-scope entries.
    pub calls: u64,
    /// Occupancy percentage of the run total.
    pub percent: f64,
}

/// Host metadata stamped into every record (the paper's Table III row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostMeta {
    /// Operating system / kernel version string.
    pub os: String,
    /// Processor model name.
    pub cpu: String,
    /// Logical CPU count.
    pub logical_cpus: usize,
    /// The vector ISA the measuring build was compiled for
    /// ([`SystemInfo::simd`]); `"unrecorded"` in a record written before
    /// the field existed.
    pub simd: String,
}

impl HostMeta {
    /// Captures the current host via [`SystemInfo::collect`].
    pub fn collect() -> Self {
        let info = SystemInfo::collect();
        HostMeta {
            os: info.os,
            cpu: info.cpu,
            logical_cpus: info.logical_cpus,
            simd: info.simd,
        }
    }
}

/// The persisted result of one [`Job`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Position of the job in its run's submission order.
    pub job_id: u64,
    /// Benchmark registry name.
    pub benchmark: String,
    /// Input-size label ([`size_label`]).
    pub size: String,
    /// Requested policy label ([`policy_label`]).
    pub policy: String,
    /// Concrete worker count after resolving `Auto` once per run; 1 for a
    /// benchmark that does not honor its policy (see
    /// [`sdvbs_core::BenchmarkInfo::honors_exec_policy`]).
    pub threads: usize,
    /// Input-generation seed.
    pub seed: u64,
    /// Timed iterations requested.
    pub iterations: usize,
    /// How the job ended.
    pub status: RunStatus,
    /// Per-iteration pipeline times in milliseconds (input generation
    /// excluded, as everywhere in this reproduction).
    pub times_ms: Vec<f64>,
    /// Fastest iteration (the statistic the comparison engine gates on).
    pub min_ms: f64,
    /// Median iteration.
    pub p50_ms: f64,
    /// Mean iteration.
    pub mean_ms: f64,
    /// Slowest iteration.
    pub max_ms: f64,
    /// Wall-clock time the worker spent on the whole job, including input
    /// generation and the warmup iteration.
    pub wall_ms: f64,
    /// Quality score against synthetic ground truth, when defined.
    pub quality: Option<f64>,
    /// Human-readable outcome summary (or the failure message).
    pub detail: String,
    /// Per-kernel breakdown of the fastest iteration.
    pub kernels: Vec<KernelStatRecord>,
    /// Time share not attributed to any kernel ("NonKernelWork").
    pub non_kernel_percent: f64,
    /// How to read the kernel percentages
    /// ([`sdvbs_profile::DenominatorMode::label`]): `"wall-clock"` for
    /// serial runs, `"summed-cpu"` when worker profilers were absorbed —
    /// there the percentages are per-kernel core utilization and may
    /// legitimately exceed 100% (never clamped).
    pub occupancy_mode: String,
    /// Host the record was measured on.
    pub host: HostMeta,
    /// Execution attempts this record reflects (1 = no retry needed).
    pub attempts: u32,
    /// Faults the runner deliberately injected into this cell's attempts
    /// (fault-kind names, one per injected attempt); empty outside chaos
    /// runs.
    pub injected: Vec<String>,
    /// True when the cell kept failing after every retry and was
    /// quarantined: the record's status is its final failure, and the
    /// comparison gate reports the cell as `missing: quarantined` instead
    /// of a spurious regression.
    pub quarantined: bool,
}

impl RunRecord {
    /// The comparison key: benchmark × size × policy × seed, via the
    /// shared [`cell_key`] helper. Two records with equal keys measure the
    /// same cell and may be compared across runs or hosts.
    pub fn key(&self) -> String {
        cell_key(&self.benchmark, &self.size, &self.policy, self.seed, None)
    }

    /// Serializes the record as a single JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.to_value().to_string()
    }

    /// The record as a JSON object, the tree [`RunRecord::to_json_line`]
    /// writes (the wire protocol embeds it in its frames).
    pub fn to_value(&self) -> Value {
        let kernels = Value::Arr(
            self.kernels
                .iter()
                .map(|k| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(k.name.clone())),
                        ("self_ms".into(), Value::Num(k.self_ms)),
                        ("calls".into(), Value::Num(k.calls as f64)),
                        ("percent".into(), Value::Num(k.percent)),
                    ])
                })
                .collect(),
        );
        let host = Value::Obj(vec![
            ("os".into(), Value::Str(self.host.os.clone())),
            ("cpu".into(), Value::Str(self.host.cpu.clone())),
            (
                "logical_cpus".into(),
                Value::Num(self.host.logical_cpus as f64),
            ),
            ("simd".into(), Value::Str(self.host.simd.clone())),
        ]);
        Value::Obj(vec![
            ("kind".into(), Value::Str("run".into())),
            ("job_id".into(), Value::Num(self.job_id as f64)),
            ("benchmark".into(), Value::Str(self.benchmark.clone())),
            ("size".into(), Value::Str(self.size.clone())),
            ("policy".into(), Value::Str(self.policy.clone())),
            ("threads".into(), Value::Num(self.threads as f64)),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("iterations".into(), Value::Num(self.iterations as f64)),
            (
                "status".into(),
                Value::Str(self.status.as_str().to_string()),
            ),
            (
                "times_ms".into(),
                Value::Arr(self.times_ms.iter().map(|&t| Value::Num(t)).collect()),
            ),
            ("min_ms".into(), Value::Num(self.min_ms)),
            ("p50_ms".into(), Value::Num(self.p50_ms)),
            ("mean_ms".into(), Value::Num(self.mean_ms)),
            ("max_ms".into(), Value::Num(self.max_ms)),
            ("wall_ms".into(), Value::Num(self.wall_ms)),
            (
                "quality".into(),
                self.quality.map_or(Value::Null, Value::Num),
            ),
            ("detail".into(), Value::Str(self.detail.clone())),
            ("kernels".into(), kernels),
            (
                "non_kernel_percent".into(),
                Value::Num(self.non_kernel_percent),
            ),
            (
                "occupancy_mode".into(),
                Value::Str(self.occupancy_mode.clone()),
            ),
            ("host".into(), host),
            ("attempts".into(), Value::Num(f64::from(self.attempts))),
            (
                "injected".into(),
                Value::Arr(
                    self.injected
                        .iter()
                        .map(|f| Value::Str(f.clone()))
                        .collect(),
                ),
            ),
            ("quarantined".into(), Value::Bool(self.quarantined)),
        ])
    }

    /// Parses a record from one JSON line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed JSON or a missing
    /// field.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let v = Value::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        Self::from_value(&v)
    }

    /// Reads a record from a [`RunRecord::to_value`]-shaped object.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on a missing or mistyped field.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        if v.get("kind").and_then(Value::as_str) != Some("run") {
            return Err("not a run record (kind != \"run\")".into());
        }
        let str_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {name:?}"))
        };
        let num_field = |name: &str| -> Result<f64, String> {
            v.get(name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing numeric field {name:?}"))
        };
        let uint_field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing integer field {name:?}"))
        };
        let times_ms = v
            .get("times_ms")
            .and_then(Value::as_array)
            .ok_or("missing times_ms array")?
            .iter()
            .map(|t| t.as_f64().ok_or("non-numeric entry in times_ms"))
            .collect::<Result<Vec<f64>, _>>()?;
        let kernels = v
            .get("kernels")
            .and_then(Value::as_array)
            .ok_or("missing kernels array")?
            .iter()
            .map(|k| {
                Ok(KernelStatRecord {
                    name: k
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or("kernel missing name")?
                        .to_string(),
                    self_ms: k
                        .get("self_ms")
                        .and_then(Value::as_f64)
                        .ok_or("kernel missing self_ms")?,
                    calls: k
                        .get("calls")
                        .and_then(Value::as_u64)
                        .ok_or("kernel missing calls")?,
                    percent: k
                        .get("percent")
                        .and_then(Value::as_f64)
                        .ok_or("kernel missing percent")?,
                })
            })
            .collect::<Result<Vec<_>, &str>>()?;
        let host = v.get("host").ok_or("missing host object")?;
        Ok(RunRecord {
            job_id: uint_field("job_id")?,
            benchmark: str_field("benchmark")?,
            size: str_field("size")?,
            policy: str_field("policy")?,
            threads: uint_field("threads")? as usize,
            seed: uint_field("seed")?,
            iterations: uint_field("iterations")? as usize,
            status: RunStatus::parse(&str_field("status")?)?,
            times_ms,
            min_ms: num_field("min_ms")?,
            p50_ms: num_field("p50_ms")?,
            mean_ms: num_field("mean_ms")?,
            max_ms: num_field("max_ms")?,
            wall_ms: num_field("wall_ms")?,
            quality: match v.get("quality") {
                None | Some(Value::Null) => None,
                Some(q) => Some(q.as_f64().ok_or("non-numeric quality")?),
            },
            detail: str_field("detail")?,
            kernels,
            non_kernel_percent: num_field("non_kernel_percent")?,
            // Predates some baselines; records written before the
            // denominator-mode fix were all wall-clock-labelled.
            occupancy_mode: v
                .get("occupancy_mode")
                .and_then(Value::as_str)
                .unwrap_or("wall-clock")
                .to_string(),
            // Robustness fields postdate the first baselines; default to
            // "one clean attempt" so committed records keep parsing.
            attempts: v.get("attempts").and_then(Value::as_u64).unwrap_or(1) as u32,
            injected: v
                .get("injected")
                .and_then(Value::as_array)
                .map(|faults| {
                    faults
                        .iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
            quarantined: v
                .get("quarantined")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            host: HostMeta {
                os: host
                    .get("os")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                cpu: host
                    .get("cpu")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                logical_cpus: host
                    .get("logical_cpus")
                    .and_then(Value::as_u64)
                    .unwrap_or(1) as usize,
                simd: host
                    .get("simd")
                    .and_then(Value::as_str)
                    .unwrap_or("unrecorded")
                    .to_string(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> RunRecord {
        RunRecord {
            job_id: 3,
            benchmark: "Disparity Map".into(),
            size: "sqcif".into(),
            policy: "threads:2".into(),
            threads: 2,
            seed: 7,
            iterations: 3,
            status: RunStatus::Completed,
            times_ms: vec![1.7, 1.5, 1.6],
            min_ms: 1.5,
            p50_ms: 1.6,
            mean_ms: 1.6,
            max_ms: 1.7,
            wall_ms: 9.4,
            quality: Some(0.91),
            detail: "dense disparity 128x96, accuracy 0.910".into(),
            kernels: vec![KernelStatRecord {
                name: "SSD".into(),
                self_ms: 0.6,
                calls: 16,
                percent: 40.0,
            }],
            non_kernel_percent: 4.5,
            occupancy_mode: "summed-cpu".into(),
            host: HostMeta {
                os: "TestOS".into(),
                cpu: "TestCPU".into(),
                logical_cpus: 4,
                simd: "avx2".into(),
            },
            attempts: 2,
            injected: vec!["nan".into()],
            quarantined: false,
        }
    }

    #[test]
    fn record_roundtrips_through_json() {
        let rec = sample_record();
        let line = rec.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(RunRecord::from_json_line(&line).unwrap(), rec);
    }

    #[test]
    fn host_simd_roundtrips_and_defaults_when_absent() {
        let rec = sample_record();
        let line = rec.to_json_line();
        assert_eq!(RunRecord::from_json_line(&line).unwrap().host.simd, "avx2");

        // A record written before the field existed.
        let old = line.replace(r#","simd":"avx2""#, "");
        assert!(!old.contains("simd"));
        let mut expected = rec;
        expected.host.simd = "unrecorded".into();
        assert_eq!(RunRecord::from_json_line(&old).unwrap(), expected);
    }

    #[test]
    fn null_quality_roundtrips() {
        let mut rec = sample_record();
        rec.quality = None;
        let parsed = RunRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(parsed.quality, None);
    }

    #[test]
    fn key_is_benchmark_size_policy_seed() {
        assert_eq!(sample_record().key(), "Disparity Map|sqcif|threads:2|7");
    }

    #[test]
    fn cache_key_matches_record_key_and_adds_fault_fingerprint() {
        use crate::fault::FaultPlan;
        let job = Job::new(
            "Disparity Map",
            InputSize::Sqcif,
            ExecPolicy::Threads(2),
            7,
            3,
        );
        // Clean job: identical to the record's comparison key, so a cached
        // record and a freshly-run record name the same cell.
        assert_eq!(job.cache_key(None), sample_record().key());
        // An inactive plan contributes nothing either.
        assert_eq!(
            job.cache_key(Some(&FaultPlan::none(9))),
            job.cache_key(None)
        );
        // An armed plan appends its fingerprint as a fifth segment — chaos
        // cells never collide with clean cells.
        let plan = FaultPlan::parse("panic:0.2,nan:0.1", 42).unwrap();
        let keyed = job.cache_key(Some(&plan));
        assert!(keyed.starts_with("Disparity Map|sqcif|threads:2|7|fault="));
        assert!(
            keyed.contains("@42"),
            "fingerprint carries the seed: {keyed}"
        );
        assert_ne!(keyed, job.cache_key(None));
    }

    #[test]
    fn job_specs_roundtrip_through_json_values() {
        let job = Job::new(
            "Image Stitch",
            InputSize::Custom {
                width: 64,
                height: 48,
            },
            ExecPolicy::Threads(3),
            11,
            4,
        );
        assert_eq!(Job::from_value(&job.to_value()).unwrap(), job);
        // Defaults apply for everything but the benchmark name.
        let v = Value::parse("{\"benchmark\":\"SVM\"}").unwrap();
        let parsed = Job::from_value(&v).unwrap();
        assert_eq!(parsed.benchmark, "SVM");
        assert_eq!(parsed.size, InputSize::Sqcif);
        assert_eq!(parsed.policy, ExecPolicy::Serial);
        assert_eq!((parsed.seed, parsed.iterations), (1, 1));
        // Missing benchmark and bad labels are typed errors.
        assert!(Job::from_value(&Value::parse("{}").unwrap()).is_err());
        let bad = Value::parse("{\"benchmark\":\"SVM\",\"size\":\"huge\"}").unwrap();
        assert!(Job::from_value(&bad).is_err());
    }

    #[test]
    fn policy_labels_roundtrip() {
        for policy in [
            ExecPolicy::Serial,
            ExecPolicy::Auto,
            ExecPolicy::Threads(2),
            ExecPolicy::Threads(16),
        ] {
            assert_eq!(parse_policy(&policy_label(policy)).unwrap(), policy);
        }
        assert!(parse_policy("threads:0").is_err());
        assert!(parse_policy("parallel").is_err());
    }

    #[test]
    fn statuses_roundtrip() {
        for s in [
            RunStatus::Completed,
            RunStatus::TimedOut,
            RunStatus::Panicked,
            RunStatus::Failed,
        ] {
            assert_eq!(RunStatus::parse(s.as_str()).unwrap(), s);
        }
        assert!(RunStatus::parse("exploded").is_err());
    }

    #[test]
    fn pre_robustness_records_parse_with_defaults() {
        // A record written before attempts/injected/quarantined/
        // occupancy_mode existed (e.g. a committed baseline) must keep
        // parsing.
        let mut rec = sample_record();
        let line = rec.to_json_line();
        let legacy = line
            .replace(",\"attempts\":2", "")
            .replace(",\"injected\":[\"nan\"]", "")
            .replace(",\"quarantined\":false", "")
            .replace(",\"occupancy_mode\":\"summed-cpu\"", "");
        assert_ne!(legacy, line, "fields should have been present to strip");
        let parsed = RunRecord::from_json_line(&legacy).unwrap();
        assert_eq!(parsed.attempts, 1);
        assert!(parsed.injected.is_empty());
        assert!(!parsed.quarantined);
        assert_eq!(parsed.occupancy_mode, "wall-clock");
        // And the new fields roundtrip when present.
        rec.quarantined = true;
        let again = RunRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(again.attempts, 2);
        assert_eq!(again.injected, vec!["nan".to_string()]);
        assert!(again.quarantined);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(RunRecord::from_json_line("not json").is_err());
        assert!(RunRecord::from_json_line("{\"kind\":\"other\"}").is_err());
        assert!(RunRecord::from_json_line("{\"kind\":\"run\"}").is_err());
    }
}
