//! The perf-regression gate: candidate run vs. committed baseline.
//!
//! Records are matched on [`RunRecord::key`] (benchmark × size × policy ×
//! seed) and compared on their **fastest** iteration (`min_ms`) — the min
//! is the standard noise-robust statistic for CI gating, since slow
//! outliers come from interference but a fast iteration cannot be faked.
//! Two guards keep the gate honest on noisy hosts:
//!
//! * a *regression limit* in percent — the candidate min may exceed the
//!   baseline min by up to this factor before the cell is flagged;
//! * a *min-runtime floor* in milliseconds — cells where **both** sides
//!   run faster than the floor are never flagged, because at microsecond
//!   scale a 40% swing is timer jitter, not a regression.
//!
//! A baseline cell that is missing from the candidate, or whose candidate
//! stopped completing (timed out / panicked where the baseline completed),
//! always fails the gate regardless of timing.

use crate::job::{RunRecord, RunStatus};
use std::collections::BTreeMap;

/// An absolute wall-time ceiling on candidate cells.
///
/// Unlike the relative gate, which only catches *drift* against a
/// committed baseline, an absolute limit pins a hard performance budget:
/// "Disparity Map at CIF must finish under N nanoseconds, full stop".
/// The pattern is a `|`-separated prefix of the record key
/// (`benchmark|size|policy|seed`), matched on whole fields — `"SVM"`
/// matches `SVM|cif|serial|1` but not `SVMX|...`.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsoluteLimit {
    /// Cell-key prefix the ceiling applies to.
    pub pattern: String,
    /// Ceiling on each matched cell's fastest iteration, in nanoseconds.
    pub limit_ns: u64,
}

impl AbsoluteLimit {
    /// Whether `key` is the pattern or extends it at a `|` boundary.
    fn matches(&self, key: &str) -> bool {
        key.strip_prefix(self.pattern.as_str())
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('|'))
    }
}

/// Gate thresholds.
#[derive(Debug, Clone)]
pub struct CompareConfig {
    /// Allowed slowdown in percent (e.g. `40.0` lets the candidate min be
    /// up to 1.4× the baseline min).
    pub regression_limit_pct: f64,
    /// Cells where both mins are below this many milliseconds are exempt
    /// from the timing check.
    pub min_runtime_ms: f64,
    /// Escape hatch: when true, baseline cells that are missing from the
    /// candidate or quarantined in it are counted and reported but do not
    /// fail the gate (for intentionally narrowed or chaos-mode runs).
    pub allow_missing: bool,
    /// Absolute per-cell time ceilings, applied to the *candidate* records
    /// independently of the baseline. A limit whose pattern matches no
    /// candidate cell fails the gate too — a silently-unmatched gate (from
    /// a typo or a renamed benchmark) would otherwise pass forever.
    pub absolute_limits: Vec<AbsoluteLimit>,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            regression_limit_pct: 40.0,
            min_runtime_ms: 5.0,
            allow_missing: false,
            absolute_limits: Vec::new(),
        }
    }
}

/// Why a cell failed the gate.
#[derive(Debug, Clone, PartialEq)]
pub enum RegressionKind {
    /// Candidate min exceeded baseline min by more than the limit.
    Slower {
        /// Baseline fastest iteration, ms.
        baseline_ms: f64,
        /// Candidate fastest iteration, ms.
        candidate_ms: f64,
        /// Observed slowdown in percent.
        slowdown_pct: f64,
    },
    /// Baseline completed but the candidate did not.
    StatusBroke {
        /// The candidate's terminal status.
        candidate_status: RunStatus,
    },
    /// The baseline cell has no candidate record at all.
    Missing,
    /// The candidate record exists but was quarantined (failed every retry
    /// attempt) — reported distinctly so a chaos-run casualty is named as
    /// such, not misread as a timing regression.
    Quarantined {
        /// Attempts the candidate made before quarantine.
        attempts: u32,
    },
    /// A candidate cell's fastest iteration exceeded an absolute ceiling.
    OverLimit {
        /// The configured ceiling, ns.
        limit_ns: u64,
        /// The candidate's fastest iteration, ns.
        candidate_ns: u64,
    },
    /// An absolute limit's pattern matched no candidate cell; the key of
    /// this regression is the offending pattern. Fails the gate so a typo
    /// or benchmark rename can't quietly disable the ceiling.
    LimitUnmatched,
}

/// One flagged cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The cell key (benchmark × size × policy × seed).
    pub key: String,
    /// What failed.
    pub kind: RegressionKind,
}

impl Regression {
    /// One-line human-readable description, used by `sdvbs-runner compare`.
    pub fn describe(&self) -> String {
        match &self.kind {
            RegressionKind::Slower {
                baseline_ms,
                candidate_ms,
                slowdown_pct,
            } => format!(
                "REGRESSED {}: {:.3} ms -> {:.3} ms (+{:.1}%)",
                self.key, baseline_ms, candidate_ms, slowdown_pct
            ),
            RegressionKind::StatusBroke { candidate_status } => {
                format!("BROKEN {}: candidate status {candidate_status}", self.key)
            }
            RegressionKind::Missing => {
                format!(
                    "MISSING {}: no candidate record for baseline cell",
                    self.key
                )
            }
            RegressionKind::Quarantined { attempts } => {
                format!(
                    "MISSING {}: quarantined after {attempts} attempt(s)",
                    self.key
                )
            }
            RegressionKind::OverLimit {
                limit_ns,
                candidate_ns,
            } => format!(
                "OVER-LIMIT {}: {:.3} ms > {:.3} ms absolute ceiling ({candidate_ns} ns > {limit_ns} ns)",
                self.key,
                *candidate_ns as f64 / 1e6,
                *limit_ns as f64 / 1e6,
            ),
            RegressionKind::LimitUnmatched => format!(
                "UNMATCHED LIMIT {:?}: no candidate cell matches this absolute-limit pattern",
                self.key
            ),
        }
    }
}

/// The full gate verdict.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Flagged cells, sorted by key.
    pub regressions: Vec<Regression>,
    /// Cells compared and found within limits.
    pub passed: usize,
    /// Cells exempted by the min-runtime floor.
    pub below_floor: usize,
    /// Candidate cells with no baseline counterpart (informational; new
    /// benchmarks are not regressions).
    pub added: usize,
    /// Missing or quarantined cells waved through by
    /// [`CompareConfig::allow_missing`].
    pub missing_allowed: usize,
    /// Candidate cells checked against an absolute ceiling and found under
    /// it.
    pub absolute_passed: usize,
}

impl CompareReport {
    /// Whether the gate passes (no regressions).
    pub fn is_ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares `candidate` records against `baseline` records.
///
/// Duplicate keys on either side keep the record with the smallest
/// `min_ms` (the best measurement of that cell).
pub fn compare(
    baseline: &[RunRecord],
    candidate: &[RunRecord],
    cfg: &CompareConfig,
) -> CompareReport {
    let base = index_best(baseline);
    let cand = index_best(candidate);
    let mut regressions = Vec::new();
    let mut passed = 0usize;
    let mut below_floor = 0usize;
    let mut missing_allowed = 0usize;
    for (key, b) in &base {
        let Some(c) = cand.get(key) else {
            if cfg.allow_missing {
                missing_allowed += 1;
            } else {
                regressions.push(Regression {
                    key: key.clone(),
                    kind: RegressionKind::Missing,
                });
            }
            continue;
        };
        // Quarantine takes precedence over StatusBroke: a cell the runner
        // gave up on after retries is a chaos casualty with its own name,
        // not a plain status break.
        if c.quarantined {
            if cfg.allow_missing {
                missing_allowed += 1;
            } else {
                regressions.push(Regression {
                    key: key.clone(),
                    kind: RegressionKind::Quarantined {
                        attempts: c.attempts,
                    },
                });
            }
            continue;
        }
        if b.status == RunStatus::Completed && c.status != RunStatus::Completed {
            regressions.push(Regression {
                key: key.clone(),
                kind: RegressionKind::StatusBroke {
                    candidate_status: c.status,
                },
            });
            continue;
        }
        if b.status != RunStatus::Completed {
            // Baseline never completed this cell; nothing to gate on.
            passed += 1;
            continue;
        }
        if b.min_ms < cfg.min_runtime_ms && c.min_ms < cfg.min_runtime_ms {
            below_floor += 1;
            continue;
        }
        let limit = b.min_ms * (1.0 + cfg.regression_limit_pct / 100.0);
        if c.min_ms > limit {
            let slowdown_pct = (c.min_ms / b.min_ms - 1.0) * 100.0;
            regressions.push(Regression {
                key: key.clone(),
                kind: RegressionKind::Slower {
                    baseline_ms: b.min_ms,
                    candidate_ms: c.min_ms,
                    slowdown_pct,
                },
            });
        } else {
            passed += 1;
        }
    }
    // Absolute ceilings: gate the candidate's completed cells on their own
    // fastest iteration, baseline-independent. Non-completed or
    // quarantined matches are the relative gate's business (StatusBroke /
    // Quarantined above); timing a run that never finished would be
    // meaningless.
    let mut absolute_passed = 0usize;
    for lim in &cfg.absolute_limits {
        let mut matched = false;
        for (key, c) in &cand {
            if !lim.matches(key) {
                continue;
            }
            matched = true;
            if c.quarantined || c.status != RunStatus::Completed {
                continue;
            }
            let candidate_ns = (c.min_ms * 1e6).round() as u64;
            if candidate_ns > lim.limit_ns {
                regressions.push(Regression {
                    key: key.clone(),
                    kind: RegressionKind::OverLimit {
                        limit_ns: lim.limit_ns,
                        candidate_ns,
                    },
                });
            } else {
                absolute_passed += 1;
            }
        }
        if !matched {
            regressions.push(Regression {
                key: lim.pattern.clone(),
                kind: RegressionKind::LimitUnmatched,
            });
        }
    }
    let added = cand.keys().filter(|k| !base.contains_key(*k)).count();
    CompareReport {
        regressions,
        passed,
        below_floor,
        added,
        missing_allowed,
        absolute_passed,
    }
}

/// Indexes records by key, keeping the fastest record per cell. The
/// BTreeMap makes iteration (and therefore regression ordering)
/// deterministic.
fn index_best(records: &[RunRecord]) -> BTreeMap<String, &RunRecord> {
    let mut map: BTreeMap<String, &RunRecord> = BTreeMap::new();
    for rec in records {
        map.entry(rec.key())
            .and_modify(|best| {
                if rec.min_ms < best.min_ms {
                    *best = rec;
                }
            })
            .or_insert(rec);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::HostMeta;

    fn record(benchmark: &str, min_ms: f64) -> RunRecord {
        RunRecord {
            job_id: 0,
            benchmark: benchmark.into(),
            size: "sqcif".into(),
            policy: "serial".into(),
            threads: 1,
            seed: 1,
            iterations: 1,
            status: RunStatus::Completed,
            times_ms: vec![min_ms],
            min_ms,
            p50_ms: min_ms,
            mean_ms: min_ms,
            max_ms: min_ms,
            wall_ms: min_ms,
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

    fn cfg(limit: f64, floor: f64) -> CompareConfig {
        CompareConfig {
            regression_limit_pct: limit,
            min_runtime_ms: floor,
            allow_missing: false,
            absolute_limits: Vec::new(),
        }
    }

    #[test]
    fn identical_runs_pass() {
        let base = vec![record("SVM", 100.0), record("SIFT", 50.0)];
        let report = compare(&base, &base, &cfg(40.0, 5.0));
        assert!(report.is_ok());
        assert_eq!(report.passed, 2);
    }

    #[test]
    fn doubling_a_time_is_flagged_with_the_cell_named() {
        let base = vec![record("SVM", 100.0), record("SIFT", 50.0)];
        let mut cand = base.clone();
        cand[1].min_ms = 100.0; // SIFT regresses 2x
        let report = compare(&base, &cand, &cfg(40.0, 5.0));
        assert_eq!(report.regressions.len(), 1);
        let reg = &report.regressions[0];
        assert_eq!(reg.key, "SIFT|sqcif|serial|1");
        match &reg.kind {
            RegressionKind::Slower { slowdown_pct, .. } => {
                assert!((slowdown_pct - 100.0).abs() < 1e-9);
            }
            other => panic!("expected Slower, got {other:?}"),
        }
        assert!(reg.describe().contains("SIFT|sqcif|serial|1"));
    }

    #[test]
    fn sub_floor_cells_are_exempt() {
        let base = vec![record("SVM", 1.0)];
        let mut cand = base.clone();
        cand[0].min_ms = 3.0; // 3x slower but both below the 5 ms floor
        let report = compare(&base, &cand, &cfg(40.0, 5.0));
        assert!(report.is_ok());
        assert_eq!(report.below_floor, 1);
    }

    #[test]
    fn crossing_the_floor_is_still_gated() {
        let base = vec![record("SVM", 4.0)];
        let mut cand = base.clone();
        cand[0].min_ms = 40.0; // baseline below floor, candidate far above
        let report = compare(&base, &cand, &cfg(40.0, 5.0));
        assert_eq!(report.regressions.len(), 1);
    }

    #[test]
    fn missing_candidate_cell_fails_the_gate() {
        let base = vec![record("SVM", 100.0), record("SIFT", 50.0)];
        let cand = vec![record("SVM", 100.0)];
        let report = compare(&base, &cand, &cfg(40.0, 5.0));
        assert_eq!(
            report.regressions,
            vec![Regression {
                key: "SIFT|sqcif|serial|1".into(),
                kind: RegressionKind::Missing,
            }]
        );
    }

    #[test]
    fn status_break_fails_even_when_fast() {
        let base = vec![record("SVM", 100.0)];
        let mut cand = base.clone();
        cand[0].status = RunStatus::TimedOut;
        cand[0].min_ms = 1.0;
        let report = compare(&base, &cand, &cfg(40.0, 5.0));
        match &report.regressions[..] {
            [Regression {
                kind: RegressionKind::StatusBroke { candidate_status },
                ..
            }] => assert_eq!(*candidate_status, RunStatus::TimedOut),
            other => panic!("expected StatusBroke, got {other:?}"),
        }
    }

    #[test]
    fn added_cells_are_informational_not_regressions() {
        let base = vec![record("SVM", 100.0)];
        let cand = vec![record("SVM", 100.0), record("SIFT", 50.0)];
        let report = compare(&base, &cand, &cfg(40.0, 5.0));
        assert!(report.is_ok());
        assert_eq!(report.added, 1);
    }

    #[test]
    fn quarantined_candidate_is_named_not_misread_as_regression() {
        let base = vec![record("SVM", 100.0)];
        let mut cand = base.clone();
        cand[0].status = RunStatus::Panicked;
        cand[0].quarantined = true;
        cand[0].attempts = 3;
        let report = compare(&base, &cand, &cfg(40.0, 5.0));
        match &report.regressions[..] {
            [reg] => {
                assert_eq!(reg.kind, RegressionKind::Quarantined { attempts: 3 });
                assert!(
                    reg.describe().contains("quarantined"),
                    "got {}",
                    reg.describe()
                );
            }
            other => panic!("expected one Quarantined, got {other:?}"),
        }
    }

    #[test]
    fn allow_missing_waves_through_missing_and_quarantined() {
        let base = vec![record("SVM", 100.0), record("SIFT", 50.0)];
        let mut cand = vec![record("SVM", 100.0)]; // SIFT missing
        cand[0].status = RunStatus::Failed;
        cand[0].quarantined = true;
        let mut config = cfg(40.0, 5.0);
        config.allow_missing = true;
        let report = compare(&base, &cand, &config);
        assert!(report.is_ok());
        assert_eq!(report.missing_allowed, 2);
    }

    #[test]
    fn absolute_limit_flags_cells_over_the_ceiling() {
        let base = vec![record("SVM", 100.0)];
        let cand = vec![record("SVM", 100.0)]; // 100 ms = 1e8 ns
        let mut config = cfg(40.0, 5.0);
        config.absolute_limits = vec![AbsoluteLimit {
            pattern: "SVM".into(),
            limit_ns: 50_000_000, // 50 ms ceiling
        }];
        let report = compare(&base, &cand, &config);
        match &report.regressions[..] {
            [Regression {
                key,
                kind:
                    RegressionKind::OverLimit {
                        limit_ns,
                        candidate_ns,
                    },
            }] => {
                assert_eq!(key, "SVM|sqcif|serial|1");
                assert_eq!(*limit_ns, 50_000_000);
                assert_eq!(*candidate_ns, 100_000_000);
            }
            other => panic!("expected one OverLimit, got {other:?}"),
        }
        assert!(report.regressions[0].describe().contains("OVER-LIMIT"));
    }

    #[test]
    fn absolute_limit_passes_cells_under_the_ceiling() {
        let base = vec![record("SVM", 100.0)];
        let cand = vec![record("SVM", 100.0)];
        let mut config = cfg(40.0, 5.0);
        config.absolute_limits = vec![AbsoluteLimit {
            pattern: "SVM|sqcif".into(),
            limit_ns: 200_000_000,
        }];
        let report = compare(&base, &cand, &config);
        assert!(report.is_ok(), "{:?}", report.regressions);
        assert_eq!(report.absolute_passed, 1);
    }

    #[test]
    fn unmatched_absolute_limit_fails_the_gate() {
        let base = vec![record("SVM", 100.0)];
        let cand = vec![record("SVM", 100.0)];
        let mut config = cfg(40.0, 5.0);
        config.absolute_limits = vec![AbsoluteLimit {
            pattern: "SVN".into(), // typo: matches nothing
            limit_ns: 1_000_000_000,
        }];
        let report = compare(&base, &cand, &config);
        match &report.regressions[..] {
            [Regression {
                key,
                kind: RegressionKind::LimitUnmatched,
            }] => assert_eq!(key, "SVN"),
            other => panic!("expected LimitUnmatched, got {other:?}"),
        }
    }

    #[test]
    fn absolute_limit_patterns_match_whole_key_fields() {
        let lim = AbsoluteLimit {
            pattern: "SVM".into(),
            limit_ns: 1,
        };
        assert!(lim.matches("SVM|sqcif|serial|1"));
        assert!(lim.matches("SVM"));
        assert!(!lim.matches("SVMX|sqcif|serial|1"));
        let lim2 = AbsoluteLimit {
            pattern: "SVM|cif".into(),
            limit_ns: 1,
        };
        assert!(lim2.matches("SVM|cif|serial|1"));
        assert!(!lim2.matches("SVM|cif2|serial|1"));
        assert!(!lim2.matches("SVM|sqcif|serial|1"));
    }

    #[test]
    fn duplicate_keys_keep_the_fastest_record() {
        let base = vec![record("SVM", 100.0)];
        let cand = vec![record("SVM", 500.0), record("SVM", 110.0)];
        let report = compare(&base, &cand, &cfg(40.0, 5.0));
        assert!(report.is_ok(), "best-of duplicates should be compared");
    }
}
