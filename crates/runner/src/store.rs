//! JSONL result store: one [`RunRecord`] per line, append-friendly.
//!
//! The format is deliberately boring — plain JSON objects separated by
//! newlines — so baselines can live in git, diffs stay line-oriented, and
//! `grep`/`jq` work on the files directly. Blank lines and `#`-prefixed
//! comment lines are skipped on read so committed baselines can carry a
//! provenance header. Every object carries a `"kind"` discriminator:
//! records are `"run"`, and [`append_metrics`] adds `"metrics"` summary
//! lines that record readers skip — so one file can hold a run's records
//! *and* its operational metrics without breaking older consumers.

use crate::job::RunRecord;
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::MetricsRegistry;
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// A store error, carrying the line number for parse failures.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (open/read/write/create-dir).
    Io(std::io::Error),
    /// A line failed to parse as a [`RunRecord`].
    Parse {
        /// 1-based line number within the file.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Writes `records` to `path`, replacing any existing file. Parent
/// directories are created as needed.
///
/// The write is crash-safe: records go to a `<path>.tmp` sibling first and
/// are moved into place with an atomic rename, so a crash mid-write leaves
/// either the old file or the new one — never a torn final file. (The
/// append path cannot have this property; [`recover_records`] handles a
/// torn trailing record there.)
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn write_records(path: &Path, records: &[RunRecord]) -> Result<(), StoreError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut out = BufWriter::new(File::create(&tmp)?);
    write_to(&mut out, records)?;
    out.flush()?;
    drop(out);
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(StoreError::Io(e));
    }
    Ok(())
}

/// Appends `records` to `path`, creating it (and parent directories) if
/// absent.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn append_records(path: &Path, records: &[RunRecord]) -> Result<(), StoreError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut out = BufWriter::new(file);
    write_to(&mut out, records)?;
    out.flush()?;
    Ok(())
}

fn write_to(out: &mut impl Write, records: &[RunRecord]) -> std::io::Result<()> {
    for rec in records {
        writeln!(out, "{}", rec.to_json_line())?;
    }
    Ok(())
}

/// Appends one `"kind":"metrics"` summary line (see
/// [`MetricsRegistry::to_value`]) to a store file, creating it if absent.
/// Record readers skip the line; `jq 'select(.kind == "metrics")'` finds
/// it.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn append_metrics(path: &Path, metrics: &MetricsRegistry) -> Result<(), StoreError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut out = BufWriter::new(file);
    writeln!(out, "{}", metrics.to_value())?;
    out.flush()?;
    Ok(())
}

/// Whether a line is a well-formed store object of a kind other than
/// `"run"` (e.g. a metrics summary): valid JSON carrying a `"kind"` string
/// that record readers should skip rather than reject.
fn is_other_kind(line: &str) -> bool {
    matches!(
        Value::parse(line).ok().as_ref().and_then(|v| v.get("kind")).and_then(Value::as_str),
        Some(kind) if kind != "run"
    )
}

/// Reads every record from a JSONL file, skipping blank lines, `#`
/// comment lines, and well-formed non-`"run"` objects (metrics summaries).
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure or
/// [`StoreError::Parse`] (with the offending line number) on a malformed
/// record.
pub fn read_records(path: &Path) -> Result<Vec<RunRecord>, StoreError> {
    let reader = BufReader::new(File::open(path)?);
    let mut records = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match RunRecord::from_json_line(trimmed) {
            Ok(rec) => records.push(rec),
            Err(_) if is_other_kind(trimmed) => {}
            Err(message) => {
                return Err(StoreError::Parse {
                    line: idx + 1,
                    message,
                })
            }
        }
    }
    Ok(records)
}

/// Reads a JSONL file that may end in a torn write (a crash mid-append):
/// malformed records at the **tail** of the file are skipped instead of
/// failing the read, and their count is returned alongside the parsed
/// records so the caller can warn. Corruption in the middle of the file —
/// a malformed line followed by a valid record — is still a hard error,
/// because that is not what a torn append looks like.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure or
/// [`StoreError::Parse`] for a malformed non-trailing record.
pub fn recover_records(path: &Path) -> Result<(Vec<RunRecord>, usize), StoreError> {
    let reader = BufReader::new(File::open(path)?);
    let mut records = Vec::new();
    // Malformed lines are held here until we know whether anything valid
    // follows them (middle corruption) or not (torn tail).
    let mut torn: Option<StoreError> = None;
    let mut skipped = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match RunRecord::from_json_line(trimmed) {
            Ok(rec) => {
                if let Some(err) = torn.take() {
                    return Err(err); // malformed line mid-file: real corruption
                }
                skipped = 0;
                records.push(rec);
            }
            // A metrics line is a valid store object: it resets the torn
            // logic like a record would (a malformed line followed by a
            // metrics line is mid-file corruption, not a torn tail) but is
            // not collected.
            Err(_) if is_other_kind(trimmed) => {
                if let Some(err) = torn.take() {
                    return Err(err);
                }
                skipped = 0;
            }
            Err(message) => {
                if torn.is_none() {
                    torn = Some(StoreError::Parse {
                        line: idx + 1,
                        message,
                    });
                }
                skipped += 1;
            }
        }
    }
    Ok((records, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{HostMeta, RunStatus};

    fn record(id: u64, benchmark: &str) -> RunRecord {
        RunRecord {
            job_id: id,
            benchmark: benchmark.into(),
            size: "sqcif".into(),
            policy: "serial".into(),
            threads: 1,
            seed: 1,
            iterations: 1,
            status: RunStatus::Completed,
            times_ms: vec![2.0],
            min_ms: 2.0,
            p50_ms: 2.0,
            mean_ms: 2.0,
            max_ms: 2.0,
            wall_ms: 3.0,
            quality: None,
            detail: "ok".into(),
            kernels: Vec::new(),
            non_kernel_percent: 100.0,
            occupancy_mode: "wall-clock".into(),
            host: HostMeta {
                os: "t".into(),
                cpu: "t".into(),
                logical_cpus: 1,
                simd: "sse2".into(),
            },
            attempts: 1,
            injected: Vec::new(),
            quarantined: false,
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sdvbs-runner-store-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn committed_smoke_baseline_parses_with_unrecorded_simd() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/smoke.jsonl");
        let records = read_records(&path).unwrap();
        assert_eq!(records.len(), 9);
        assert!(records.iter().all(|r| r.host.simd == "unrecorded"));
    }

    #[test]
    fn write_then_read_roundtrips() {
        let path = temp_path("roundtrip");
        let recs = vec![record(0, "SVM"), record(1, "SIFT")];
        write_records(&path, &recs).unwrap();
        assert_eq!(read_records(&path).unwrap(), recs);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_extends_an_existing_file() {
        let path = temp_path("append");
        write_records(&path, &[record(0, "SVM")]).unwrap();
        append_records(&path, &[record(1, "SIFT")]).unwrap();
        let all = read_records(&path).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].benchmark, "SIFT");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let path = temp_path("comments");
        let body = format!(
            "# baseline generated for the smoke gate\n\n{}\n",
            record(0, "SVM").to_json_line()
        );
        fs::write(&path, body).unwrap();
        assert_eq!(read_records(&path).unwrap().len(), 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let path = temp_path("badline");
        fs::write(&path, "# header\n{\"kind\":\"run\"\n").unwrap();
        match read_records(&path) {
            Err(StoreError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writes_leave_no_tmp_sibling_behind() {
        let path = temp_path("atomic");
        write_records(&path, &[record(0, "SVM")]).unwrap();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        // Overwriting an existing file goes through the same rename.
        write_records(&path, &[record(1, "SIFT")]).unwrap();
        assert_eq!(read_records(&path).unwrap()[0].benchmark, "SIFT");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_skips_a_torn_trailing_record() {
        let path = temp_path("torn");
        write_records(&path, &[record(0, "SVM"), record(1, "SIFT")]).unwrap();
        // Simulate a crash mid-append: half a record, no newline.
        let mut line = record(2, "Disparity Map").to_json_line();
        line.truncate(line.len() / 2);
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        std::io::Write::write_all(&mut f, line.as_bytes()).unwrap();
        drop(f);
        assert!(read_records(&path).is_err(), "strict read must reject");
        let (recs, skipped) = recover_records(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(skipped, 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn metrics_lines_are_skipped_by_record_readers() {
        let path = temp_path("metrics");
        write_records(&path, &[record(0, "SVM")]).unwrap();
        let mut m = MetricsRegistry::new();
        m.incr("jobs_completed", 1);
        m.observe("queue_wait_ms", 0.4);
        append_metrics(&path, &m).unwrap();
        append_records(&path, &[record(1, "SIFT")]).unwrap();
        // Strict reader and recovering reader both skip the metrics line.
        let recs = read_records(&path).unwrap();
        assert_eq!(recs.len(), 2);
        let (recovered, skipped) = recover_records(&path).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(skipped, 0);
        // The metrics line itself is intact JSON with the expected kind.
        let body = fs::read_to_string(&path).unwrap();
        let metrics_line = body
            .lines()
            .find(|l| l.contains("\"kind\":\"metrics\""))
            .expect("metrics line present");
        let v = Value::parse(metrics_line).unwrap();
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("jobs_completed"))
                .and_then(Value::as_u64),
            Some(1)
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_still_rejects_mid_file_corruption() {
        let path = temp_path("midfile");
        let body = format!(
            "{}\nnot json at all\n{}\n",
            record(0, "SVM").to_json_line(),
            record(1, "SIFT").to_json_line()
        );
        fs::write(&path, body).unwrap();
        match recover_records(&path) {
            Err(StoreError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }
}
