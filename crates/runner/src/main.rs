//! `sdvbs-runner` — CLI for the benchmark execution service.
//!
//! ```text
//! sdvbs-runner list
//! sdvbs-runner run   [--bench NAME]... [--size S] [--policy P] [--smoke]
//!                    [EXEC]
//! sdvbs-runner sweep [--sizes S1,S2] [--policies P1,P2] [EXEC]
//! sdvbs-runner compare --baseline FILE --candidate FILE
//!                      [--regression-limit PCT] [--min-runtime-ms MS]
//!                      [--allow-missing]
//!                      [--set-absolute-time-ns-limit PATTERN NS]...
//! sdvbs-runner trace summary --in FILE
//! sdvbs-runner trace verify  --in FILE [--min-benchmarks N]
//! sdvbs-runner trace convert --in FILE --out FILE
//!
//! EXEC: [--seed N] [--iterations N] [--timeout-ms N] [--workers N]
//!       [--out FILE] [--append] [--trace FILE]
//!       [--inject SPEC] [--fault-seed N] [--max-retries N]
//! ```
//!
//! `--trace FILE` records a span trace of the run: Chrome trace format
//! (loadable in `chrome://tracing` / Perfetto) unless the file ends in
//! `.jsonl`, which selects the compact JSONL event log. The `trace`
//! subcommand validates, summarizes, and converts between the two.
//!
//! Exit codes: 0 success, 1 regression gate, a job, or trace verification
//! failed, 2 usage or runtime error, 3 run completed under fault injection
//! (every injected fault was retried to success or quarantined — the
//! chaos-smoke success code).

use sdvbs_core::{all_benchmarks, ExecPolicy, InputSize};
use sdvbs_runner::{
    compare, job::parse_policy, read_records, run_jobs_report, write_records, AbsoluteLimit,
    CompareConfig, FaultPlan, Job, RunStatus, RunnerConfig,
};
use sdvbs_trace::Trace;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "list" => cmd_list(rest),
        "run" => cmd_run(rest),
        "sweep" => cmd_sweep(rest),
        "compare" => cmd_compare(rest),
        "trace" => cmd_trace(rest),
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  sdvbs-runner list
  sdvbs-runner run   [--bench NAME]... [--size S] [--policy P] [--smoke]
                     [EXEC]
  sdvbs-runner sweep [--sizes S1,S2,..] [--policies P1,P2,..] [EXEC]
  sdvbs-runner compare --baseline FILE --candidate FILE
                       [--regression-limit PCT] [--min-runtime-ms MS]
                       [--allow-missing]
                       [--set-absolute-time-ns-limit PATTERN NS]...
  sdvbs-runner trace summary --in FILE
  sdvbs-runner trace verify  --in FILE [--min-benchmarks N]
  sdvbs-runner trace convert --in FILE --out FILE

EXEC (run and sweep): [--seed N] [--iterations N] [--timeout-ms N]
             [--workers N] [--out FILE] [--append] [--trace FILE]
             [--inject SPEC] [--fault-seed N] [--max-retries N]
sizes: sqcif | qcif | cif | WxH     policies: serial | threads:N | auto
inject spec: kind:rate[,kind:rate..] over panic, timeout, nan, truncate
             (e.g. panic:0.2,timeout:0.1,nan:0.1); seeded by --fault-seed;
             timeout faults arm a 2 s watchdog unless --timeout-ms is set
trace files: Chrome trace JSON, or the JSONL event log when the file name
             ends in .jsonl (both formats round-trip via trace convert)
absolute limits: PATTERN is a |-separated prefix of the record key
             benchmark|size|policy|seed (e.g. \"Disparity Map|cif\"); NS
             caps the matched cells' fastest iteration in nanoseconds";

/// `list`: the registry, one benchmark per line.
fn cmd_list(rest: &[String]) -> Result<ExitCode, String> {
    if !rest.is_empty() {
        return Err(format!("list takes no arguments, got {rest:?}"));
    }
    println!("{:<22} {:<28} kernels", "name", "concentration area");
    for bench in all_benchmarks() {
        let info = bench.info();
        println!(
            "{:<22} {:<28} {}",
            info.name,
            format!("{:?}", info.area),
            info.kernels.join(", ")
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Options shared by `run` and `sweep`.
struct ExecOpts {
    seed: u64,
    iterations: usize,
    timeout: Option<Duration>,
    workers: usize,
    out: Option<PathBuf>,
    append: bool,
    inject: Option<String>,
    fault_seed: u64,
    max_retries: u32,
    trace_out: Option<PathBuf>,
}

impl ExecOpts {
    fn new() -> Self {
        ExecOpts {
            seed: 1,
            iterations: 3,
            timeout: None,
            workers: 1,
            out: None,
            append: false,
            inject: None,
            fault_seed: 1,
            max_retries: 2,
            trace_out: None,
        }
    }

    /// Consumes a shared flag; `Ok(true)` if it was one.
    fn consume(&mut self, flag: &str, it: &mut std::slice::Iter<String>) -> Result<bool, String> {
        match flag {
            "--seed" => self.seed = parse_num(next_value(flag, it)?)?,
            "--iterations" => self.iterations = parse_num(next_value(flag, it)?)?,
            "--timeout-ms" => {
                let ms: u64 = parse_num(next_value(flag, it)?)?;
                self.timeout = Some(Duration::from_millis(ms));
            }
            "--workers" => self.workers = parse_num(next_value(flag, it)?)?,
            "--out" => self.out = Some(PathBuf::from(next_value(flag, it)?)),
            "--append" => self.append = true,
            "--inject" => self.inject = Some(next_value(flag, it)?.clone()),
            "--fault-seed" => self.fault_seed = parse_num(next_value(flag, it)?)?,
            "--max-retries" => self.max_retries = parse_num(next_value(flag, it)?)?,
            "--trace" => self.trace_out = Some(PathBuf::from(next_value(flag, it)?)),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The parsed fault plan, if `--inject` was given.
    fn fault_plan(&self) -> Result<Option<FaultPlan>, String> {
        self.inject
            .as_deref()
            .map(|spec| FaultPlan::parse(spec, self.fault_seed))
            .transpose()
    }
}

fn next_value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_num<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("invalid number {text:?}"))
}

/// `run`: explicit benchmark × size × policy cells.
fn cmd_run(rest: &[String]) -> Result<ExitCode, String> {
    let mut opts = ExecOpts::new();
    let mut benches: Vec<String> = Vec::new();
    let mut size = InputSize::Sqcif;
    let mut policy = ExecPolicy::Serial;
    let mut smoke = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => benches.push(next_value(arg, &mut it)?.clone()),
            "--size" => size = next_value(arg, &mut it)?.parse()?,
            "--policy" => policy = parse_policy(next_value(arg, &mut it)?)?,
            "--smoke" => smoke = true,
            flag => {
                if !opts.consume(flag, &mut it)? {
                    return Err(format!("unknown flag {flag:?}\n{USAGE}"));
                }
            }
        }
    }
    if smoke {
        // The CI preset: every benchmark, smallest paper size, one timed
        // iteration, serial — fast enough for a gate, complete enough to
        // catch a benchmark that breaks or badly regresses.
        benches.clear();
        size = InputSize::Sqcif;
        policy = ExecPolicy::Serial;
        opts.seed = 1;
        opts.iterations = 1;
    }
    if benches.is_empty() {
        benches = all_benchmarks()
            .iter()
            .map(|b| b.info().name.to_string())
            .collect();
    }
    let jobs: Vec<Job> = benches
        .into_iter()
        .map(|b| Job::new(b, size, policy, opts.seed, opts.iterations))
        .collect();
    execute(jobs, &opts)
}

/// `sweep`: the full grid — every benchmark × sizes × policies.
fn cmd_sweep(rest: &[String]) -> Result<ExitCode, String> {
    let mut opts = ExecOpts::new();
    let mut sizes = vec![InputSize::Sqcif, InputSize::Qcif, InputSize::Cif];
    let mut policies = vec![ExecPolicy::Serial, ExecPolicy::Threads(2), ExecPolicy::Auto];
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sizes" => {
                sizes = next_value(arg, &mut it)?
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()?;
            }
            "--policies" => {
                policies = next_value(arg, &mut it)?
                    .split(',')
                    .map(parse_policy)
                    .collect::<Result<_, _>>()?;
            }
            flag => {
                if !opts.consume(flag, &mut it)? {
                    return Err(format!("unknown flag {flag:?}\n{USAGE}"));
                }
            }
        }
    }
    let mut jobs = Vec::new();
    for bench in all_benchmarks() {
        for &size in &sizes {
            for &policy in &policies {
                jobs.push(Job::new(
                    bench.info().name,
                    size,
                    policy,
                    opts.seed,
                    opts.iterations,
                ));
            }
        }
    }
    execute(jobs, &opts)
}

/// Runs jobs, prints a per-record summary line, optionally persists.
fn execute(jobs: Vec<Job>, opts: &ExecOpts) -> Result<ExitCode, String> {
    let plan = opts.fault_plan()?;
    let injecting = plan.is_some_and(|p| p.is_active());
    let cfg = RunnerConfig {
        workers: opts.workers,
        timeout: opts.timeout,
        max_retries: opts.max_retries,
        fault_plan: plan,
        trace: opts.trace_out.is_some(),
        ..RunnerConfig::default()
    };
    eprintln!("running {} job(s)...", jobs.len());
    let mut report = run_jobs_report(&jobs, &cfg).map_err(|e| e.to_string())?;
    let mut failures = 0usize;
    for rec in &report.records {
        match rec.status {
            RunStatus::Completed => println!(
                "{:<22} {:<8} {:<10} min {:>9.3} ms  p50 {:>9.3} ms  ({} kernels)",
                rec.benchmark,
                rec.size,
                rec.policy,
                rec.min_ms,
                rec.p50_ms,
                rec.kernels.len()
            ),
            _ => {
                failures += 1;
                println!(
                    "{:<22} {:<8} {:<10} {}: {}",
                    rec.benchmark, rec.size, rec.policy, rec.status, rec.detail
                );
            }
        }
    }
    if injecting {
        eprintln!(
            "fault injection: {} fault(s) injected, {} cell(s) recovered via retry, {} quarantined",
            report.injected_faults,
            report.recovered,
            report.quarantined.len()
        );
    }
    if !report.quarantined.is_empty() {
        eprintln!(
            "quarantined {} cell(s) after {} attempt(s) each:",
            report.quarantined.len(),
            opts.max_retries + 1
        );
        for key in &report.quarantined {
            eprintln!("  {key}");
        }
    }
    if let Some(path) = &opts.out {
        let store_start = Instant::now();
        if opts.append {
            heal_for_append(path)?;
            sdvbs_runner::append_records(path, &report.records).map_err(|e| e.to_string())?;
        } else {
            write_records(path, &report.records).map_err(|e| e.to_string())?;
        }
        report.metrics.observe(
            "store_write_ms",
            store_start.elapsed().as_secs_f64() * 1_000.0,
        );
        // The metrics line rides in the same store file, tagged with a
        // distinct "kind" so record readers skip it.
        sdvbs_runner::append_metrics(path, &report.metrics).map_err(|e| e.to_string())?;
        eprintln!(
            "wrote {} record(s) to {}",
            report.records.len(),
            path.display()
        );
        if let Some(p) = plan {
            if p.decide_truncate() {
                truncate_store(path)?;
            }
        }
    }
    if let Some(path) = &opts.trace_out {
        if let Some(trace) = &report.trace {
            write_trace(path, trace)?;
            eprintln!(
                "wrote trace ({} event(s)) to {}",
                trace.events().len(),
                path.display()
            );
        }
    }
    if !report.metrics.is_empty() {
        eprintln!("{}", report.metrics);
    }
    if injecting {
        // The chaos-smoke success code: the run completed under injection,
        // with every injected fault either retried to success or named in
        // the quarantine report above.
        return Ok(ExitCode::from(3));
    }
    if failures > 0 {
        eprintln!("{failures} job(s) did not complete");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// Before appending to an existing store, salvage it if its tail is torn
/// (a crash mid-append, or the injected `truncate` fault). Appending after
/// a torn record would otherwise bury the corruption mid-file and make
/// the whole store permanently unreadable; recovering first keeps the
/// healthy prefix and reports what was dropped.
fn heal_for_append(path: &std::path::Path) -> Result<(), String> {
    if !path.exists() || read_records(path).is_ok() {
        return Ok(());
    }
    let (records, skipped) =
        sdvbs_runner::recover_records(path).map_err(|e| format!("{}: {e}", path.display()))?;
    write_records(path, &records).map_err(|e| e.to_string())?;
    eprintln!(
        "warning: {}: dropped {} torn trailing record(s) before append",
        path.display(),
        skipped
    );
    Ok(())
}

/// Tears the tail off a just-written store file — the `truncate` fault.
/// Recovery is exercised by `recover_records`, which skips the torn
/// trailing record with a warning instead of refusing the whole file.
fn truncate_store(path: &std::path::Path) -> Result<(), String> {
    let meta = std::fs::metadata(path).map_err(|e| e.to_string())?;
    let torn_len = meta.len().saturating_sub(24);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| e.to_string())?;
    file.set_len(torn_len).map_err(|e| e.to_string())?;
    eprintln!(
        "injected fault: truncated {} to {} byte(s) (torn trailing record)",
        path.display(),
        torn_len
    );
    Ok(())
}

/// `compare`: the regression gate.
fn cmd_compare(rest: &[String]) -> Result<ExitCode, String> {
    let mut baseline: Option<PathBuf> = None;
    let mut candidate: Option<PathBuf> = None;
    let mut cfg = CompareConfig::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(next_value(arg, &mut it)?)),
            "--candidate" => candidate = Some(PathBuf::from(next_value(arg, &mut it)?)),
            "--regression-limit" => {
                cfg.regression_limit_pct = parse_num(next_value(arg, &mut it)?)?;
            }
            "--min-runtime-ms" => cfg.min_runtime_ms = parse_num(next_value(arg, &mut it)?)?,
            "--allow-missing" => cfg.allow_missing = true,
            "--set-absolute-time-ns-limit" => {
                let pattern = next_value(arg, &mut it)?.to_string();
                let limit_ns: u64 = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|e| format!("{arg} {pattern:?}: bad nanosecond limit: {e}"))?;
                cfg.absolute_limits
                    .push(AbsoluteLimit { pattern, limit_ns });
            }
            flag => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    let baseline = baseline.ok_or("compare needs --baseline FILE")?;
    let candidate = candidate.ok_or("compare needs --candidate FILE")?;
    let base =
        read_records(&baseline).map_err(|e| format!("reading {}: {e}", baseline.display()))?;
    let cand =
        read_records(&candidate).map_err(|e| format!("reading {}: {e}", candidate.display()))?;
    let report = compare(&base, &cand, &cfg);
    println!(
        "compared {} baseline cell(s): {} passed, {} below {:.1} ms floor, {} added, {} missing allowed, {} regressed (limit {:.1}%)",
        report.passed + report.below_floor + report.missing_allowed + report.regressions.len(),
        report.passed,
        report.below_floor,
        cfg.min_runtime_ms,
        report.added,
        report.missing_allowed,
        report.regressions.len(),
        cfg.regression_limit_pct
    );
    if !cfg.absolute_limits.is_empty() {
        println!(
            "absolute ceilings: {} limit(s), {} cell(s) under their ceiling",
            cfg.absolute_limits.len(),
            report.absolute_passed
        );
    }
    for reg in &report.regressions {
        println!("  {}", reg.describe());
    }
    if report.is_ok() {
        println!("regression gate: PASS");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("regression gate: FAIL");
        Ok(ExitCode::from(1))
    }
}

/// Trace file format is chosen by extension: `.jsonl` is the compact
/// event log, anything else is Chrome trace JSON.
fn is_jsonl(path: &Path) -> bool {
    path.extension().is_some_and(|ext| ext == "jsonl")
}

fn write_trace(path: &Path, trace: &Trace) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
    }
    let text = if is_jsonl(path) {
        trace.to_jsonl()
    } else {
        trace.to_chrome_json()
    };
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_trace(path: &Path) -> Result<Trace, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let parsed = if is_jsonl(path) {
        Trace::from_jsonl(&text)
    } else {
        Trace::from_chrome_json(&text)
    };
    parsed.map_err(|e| format!("{}: {e}", path.display()))
}

/// `trace`: summarize, verify, or convert a recorded trace file.
fn cmd_trace(rest: &[String]) -> Result<ExitCode, String> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err(format!("trace needs a subcommand\n{USAGE}"));
    };
    let mut input: Option<PathBuf> = None;
    let mut output: Option<PathBuf> = None;
    let mut min_benchmarks = 1usize;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--in" => input = Some(PathBuf::from(next_value(arg, &mut it)?)),
            "--out" => output = Some(PathBuf::from(next_value(arg, &mut it)?)),
            "--min-benchmarks" => min_benchmarks = parse_num(next_value(arg, &mut it)?)?,
            flag => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    let input = input.ok_or("trace needs --in FILE")?;
    let trace = read_trace(&input)?;
    match sub.as_str() {
        "summary" => {
            let stats = trace.validate().map_err(|e| e.to_string())?;
            println!(
                "{}: {} event(s), {} track(s), {} span(s) ({} kernel), {} instant(s), {} counter(s), max depth {}",
                input.display(),
                trace.events().len(),
                stats.tracks,
                stats.spans,
                stats.kernel_spans,
                stats.instants,
                stats.counters,
                stats.max_depth
            );
            let per_job = trace.kernel_spans_per_job();
            for (job, kernels) in &per_job {
                println!("  {job:<40} {kernels} kernel span(s)");
            }
            Ok(ExitCode::SUCCESS)
        }
        "verify" => {
            // The CI gate: structurally valid, and every job span carries
            // at least one kernel span from the profiler side channel.
            let stats = match trace.validate() {
                Ok(stats) => stats,
                Err(e) => {
                    eprintln!("trace verify: FAIL: {e}");
                    return Ok(ExitCode::from(1));
                }
            };
            let per_job = trace.kernel_spans_per_job();
            let empty: Vec<&String> = per_job
                .iter()
                .filter(|(_, &n)| n == 0)
                .map(|(job, _)| job)
                .collect();
            if !empty.is_empty() {
                eprintln!("trace verify: FAIL: job span(s) with no kernel spans: {empty:?}");
                return Ok(ExitCode::from(1));
            }
            // Job spans are labelled "<benchmark> <size> <policy>";
            // benchmark names themselves may contain spaces, so peel the
            // two trailing tokens rather than taking the first word.
            let benchmarks: std::collections::BTreeSet<&str> = per_job
                .keys()
                .map(|job| job.rsplitn(3, ' ').nth(2).unwrap_or(job))
                .collect();
            if benchmarks.len() < min_benchmarks {
                eprintln!(
                    "trace verify: FAIL: {} distinct benchmark(s) traced, need {}",
                    benchmarks.len(),
                    min_benchmarks
                );
                return Ok(ExitCode::from(1));
            }
            println!(
                "trace verify: PASS ({} benchmark(s), {} job span(s), {} kernel span(s))",
                benchmarks.len(),
                per_job.len(),
                stats.kernel_spans
            );
            Ok(ExitCode::SUCCESS)
        }
        "convert" => {
            let output = output.ok_or("trace convert needs --out FILE")?;
            write_trace(&output, &trace)?;
            println!(
                "converted {} -> {} ({} event(s))",
                input.display(),
                output.display(),
                trace.events().len()
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown trace subcommand {other:?}\n{USAGE}")),
    }
}
