//! `sdvbs-perfbench`: the end-to-end and per-layer benchmark of the
//! SD-VBS reproduction. See `README.md` in this directory for the
//! workloads, the metrics and what each layer should move.
//!
//! ```text
//! sdvbs-perfbench --workload <suite-cif|serve-mixed|stream-sla|cluster-mixed>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the metric names are checked against
//! `BENCHMARK.json` there. The last stdout line is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` — every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.

mod host;
mod serve;
mod stats;
mod stream;
mod suite;
mod traced;

use sdvbs_trace::jsonl::Value;
use stats::{Metric, Tally};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use traced::SpanLog;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SuiteCif,
    ServeMixed,
    StreamSla,
    ClusterMixed,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SuiteCif,
        Workload::ServeMixed,
        Workload::StreamSla,
        Workload::ClusterMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCif => "suite-cif",
            Workload::ServeMixed => "serve-mixed",
            Workload::StreamSla => "stream-sla",
            Workload::ClusterMixed => "cluster-mixed",
        }
    }

    fn parse(text: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == text)
            .ok_or_else(|| format!("unknown workload {text:?}"))
    }
}

/// Reads `--flag value` pairs; every flag in `known` may appear once.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if !known.contains(&flag.as_str()) || out.iter().any(|(f, _)| f == flag) {
            return Err(format!("unexpected flag {flag:?}"));
        }
        out.push((flag, value));
    }
    Ok(out)
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        for (flag, value) in flags(args, &["--workload", "--seed", "--seconds", "--trace"])? {
            match flag {
                "--workload" => workload = Some(Workload::parse(value)?),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(1..=600).contains(&s) {
                        return Err("--seconds must be 1..=600".into());
                    }
                    seconds = Some(s);
                }
                _ => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    })
                }
            }
        }
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What a workload hands back: operations attempted and failed, the
/// metrics of the JSON line, detail metrics printed as lines only, and
/// free-form lines (reconciliation, tracing overhead, host calibration).
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub details: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for m in self.details.iter().chain(&self.metrics) {
            println!("{}", m.line());
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        );
    }
}

/// The parts of one set-up, as timed inside the process that did it.
/// A part the workload's set-up does not have stays `None`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SetupParts {
    pub server_s: Option<f64>,
    pub cascade_s: Option<f64>,
    pub warm_fill_s: Option<f64>,
}

const SETUP_BANNER: &str = "perfbench setup";

impl SetupParts {
    fn fields(&self) -> [(&'static str, Option<f64>); 3] {
        [
            ("server_s", self.server_s),
            ("cascade_s", self.cascade_s),
            ("warm_fill_s", self.warm_fill_s),
        ]
    }

    /// `perfbench setup server_s=.. cascade_s=.. warm_fill_s=..`.
    fn line(&self) -> String {
        let mut s = SETUP_BANNER.to_string();
        for (key, v) in self.fields() {
            if let Some(v) = v {
                s.push_str(&format!(" {key}={v}"));
            }
        }
        s
    }

    fn parse(line: &str) -> Result<SetupParts, String> {
        let rest = line
            .strip_prefix(SETUP_BANNER)
            .ok_or_else(|| format!("not a set-up line: {line:?}"))?;
        let mut parts = SetupParts::default();
        for field in rest.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("bad field {field:?}"))?;
            let v: f64 = value.parse().map_err(|e| format!("{key}: {e}"))?;
            match key {
                "server_s" => parts.server_s = Some(v),
                "cascade_s" => parts.cascade_s = Some(v),
                "warm_fill_s" => parts.warm_fill_s = Some(v),
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        Ok(parts)
    }

    /// The `setup.*` per-layer metrics this set-up has, one sample each.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        SetupTimes::from_parts(&[*self]).layer_metrics()
    }
}

/// Announces a finished set-up to the parent process (the `setup`
/// subcommand's one line of output).
pub fn announce(parts: &SetupParts) {
    println!("{}", parts.line());
    let _ = std::io::stdout().flush();
}

/// Set-up timings of one run, one entry per set-up.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub server_s: Vec<f64>,
    pub cascade_s: Vec<f64>,
    pub warm_fill_s: Vec<f64>,
}

/// Set-ups per run, each in a fresh process.
const SETUP_REPS: usize = 3;

impl SetupTimes {
    fn from_parts(parts: &[SetupParts]) -> SetupTimes {
        let mut t = SetupTimes::default();
        for p in parts {
            t.server_s.extend(p.server_s);
            t.cascade_s.extend(p.cascade_s);
            t.warm_fill_s.extend(p.warm_fill_s);
        }
        t
    }

    /// The per-layer set-up metrics that were measured.
    fn layer_metrics(&self) -> Vec<Metric> {
        [
            ("setup.server_s", &self.server_s),
            ("setup.cascade_s", &self.cascade_s),
            ("setup.warm_fill_s", &self.warm_fill_s),
        ]
        .into_iter()
        .filter_map(|(name, v)| Metric::median_of(name, v, "s"))
        .collect()
    }
}

/// Times [`SETUP_REPS`] set-ups of the workload, one after another,
/// each in a fresh process (this binary's `setup` subcommand): from just
/// before the spawn to the child's announcement that it is ready for its
/// first timed operation. The child then tears its stack down and exits.
fn setup_samples(opts: &Opts) -> Result<SetupTimes, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut parts = Vec::new();
    let mut total_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let mut child = Command::new(&exe)
            .args(["setup", "--workload", opts.workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning a set-up: {e}"))?;
        let mut announced = None;
        if let Some(stdout) = child.stdout.take() {
            let mut lines = BufReader::new(stdout).lines();
            announced = lines
                .by_ref()
                .map_while(Result::ok)
                .find(|l| l.starts_with(SETUP_BANNER));
            if announced.is_some() {
                total_s.push(started.elapsed().as_secs_f64());
            }
            // Drain the rest, so the child never blocks on a full pipe.
            lines.for_each(drop);
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for a set-up: {e}"))?;
        let line = announced.ok_or("a set-up process exited without announcing")?;
        if !status.success() {
            return Err(format!("a set-up process exited with {status}"));
        }
        parts.push(SetupParts::parse(&line)?);
    }
    let mut times = SetupTimes::from_parts(&parts);
    times.total_s = total_s;
    Ok(times)
}

/// The `setup` subcommand: one set-up of the workload, announced, then
/// torn down.
fn setup_main(args: &[String]) -> Result<(), String> {
    let (mut workload, mut seed) = (None, None);
    for (flag, value) in flags(args, &["--workload", "--seed"])? {
        match flag {
            "--workload" => workload = Some(Workload::parse(value)?),
            _ => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    match workload.ok_or("--workload is required")? {
        Workload::SuiteCif => suite::setup_child(),
        Workload::ServeMixed => serve::setup_child(false, seed),
        Workload::ClusterMixed => serve::setup_child(true, seed),
        Workload::StreamSla => stream::setup_child(seed),
    }
}

/// The untraced run: the workload's own measurement.
fn measure(opts: &Opts) -> Result<Report, String> {
    match opts.workload {
        Workload::SuiteCif => suite::measure(opts),
        Workload::ServeMixed => serve::measure(opts, false),
        Workload::ClusterMixed => serve::measure(opts, true),
        Workload::StreamSla => stream::measure(opts),
    }
}

/// One workload's traced pass: the full pass when `probe` is false, a
/// short one (no untraced half, no reconciliation) when it is true.
fn traced_pass(w: Workload, opts: &Opts, probe: bool, log: &mut SpanLog) -> Result<Report, String> {
    match w {
        Workload::SuiteCif => suite::traced(opts, probe, log),
        Workload::ServeMixed => serve::traced(opts, false, probe, log),
        Workload::ClusterMixed => serve::traced(opts, true, probe, log),
        Workload::StreamSla => stream::traced(opts, probe, log),
    }
}

/// The traced run. It prints every per-layer metric: those of the
/// layers the workload exercises come from its own traced pass; the
/// others from short traced passes (probes) of the workloads that
/// exercise them, run after it in the same process.
fn trace_all(opts: &Opts, setup: &SetupTimes) -> Result<Report, String> {
    let mut log = SpanLog::default();
    let mut report = traced_pass(opts.workload, opts, false, &mut log)?;
    // The workload's own set-ups win over a pass's in-process one.
    let own_setup = setup.layer_metrics();
    report
        .metrics
        .retain(|m| !own_setup.iter().any(|s| s.name == m.name));
    report.metrics.extend(own_setup);
    for w in Workload::ALL.into_iter().filter(|&w| w != opts.workload) {
        let probe = traced_pass(w, opts, true, &mut log)?;
        report.tally.absorb(probe.tally);
        let mut taken = Vec::new();
        for m in probe.metrics {
            if !report.metrics.iter().any(|have| have.name == m.name) {
                taken.push(m.name.clone());
                report.metrics.push(m);
            }
        }
        report
            .notes
            .push(format!("probe {} gave: {}", w.name(), taken.join(" ")));
    }
    report.notes.push(traced::write_trace(opts, log)?);
    Ok(report)
}

/// The metric names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json (run from the repository root): {e}"))?;
    let v = Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("an entry of {key} has no name"))
        })
        .collect()
}

/// Orders `metrics` as `BENCHMARK.json` lists them, and fails unless
/// they are exactly the declared ones, each once.
fn conform(metrics: &mut [Metric], names: &[String]) -> Result<(), String> {
    if let Some(m) = metrics
        .iter()
        .enumerate()
        .find(|(i, m)| metrics[..*i].iter().any(|o| o.name == m.name))
    {
        return Err(format!("metric {} is produced twice", m.1.name));
    }
    let missing: Vec<&str> = names
        .iter()
        .filter(|n| !metrics.iter().any(|m| &m.name == *n))
        .map(String::as_str)
        .collect();
    let extra: Vec<&str> = metrics
        .iter()
        .filter(|m| !names.contains(&m.name))
        .map(|m| m.name.as_str())
        .collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Err(format!(
            "metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
        ));
    }
    metrics.sort_by_key(|m| names.iter().position(|n| *n == m.name));
    Ok(())
}

fn run(opts: &Opts) -> Result<Report, String> {
    let names = declared(if opts.trace {
        "per_layer"
    } else {
        "end_to_end"
    })?;
    let calib_start: Vec<f64> = (0..3).map(|_| host::calib_ms()).collect();
    let setup = setup_samples(opts)?;
    let mut report = if opts.trace {
        trace_all(opts, &setup)?
    } else {
        let mut report = measure(opts)?;
        report
            .metrics
            .extend(Metric::median_of("setup_s", &setup.total_s, "s"));
        report
            .metrics
            .push(Metric::new("peak_rss_mb", host::peak_rss_mb()?, "MiB", 1));
        report
    };
    let calib_end: Vec<f64> = (0..3).map(|_| host::calib_ms()).collect();
    report.notes.push(format!(
        "host calib_ms start {:.3} end {:.3}",
        stats::median(&calib_start).unwrap_or(0.0),
        stats::median(&calib_end).unwrap_or(0.0)
    ));
    if opts.trace {
        let calib: Vec<f64> = calib_start.iter().chain(&calib_end).copied().collect();
        report
            .metrics
            .extend(Metric::median_of("host.calib_ms", &calib, "ms"));
    }
    conform(&mut report.metrics, &names)?;
    Ok(report)
}

fn main() -> ExitCode {
    sdvbs_trace::trace_epoch();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sub = match args.first().map(String::as_str) {
        Some("worker") => Some(serve::worker_main()),
        Some("setup") => Some(setup_main(&args[1..])),
        _ => None,
    };
    if let Some(result) = sub {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench {}: {e}", args[0]);
                ExitCode::FAILURE
            }
        };
    }
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_lines_parse_back() {
        let parts = SetupParts {
            server_s: Some(0.002_5),
            cascade_s: Some(1.75),
            warm_fill_s: None,
        };
        assert_eq!(
            parts.line(),
            "perfbench setup server_s=0.0025 cascade_s=1.75"
        );
        assert_eq!(SetupParts::parse(&parts.line()).unwrap(), parts);
        assert!(SetupParts::parse("perfbench setup x=1").is_err());
        assert!(SetupParts::parse("listening on 127.0.0.1:1").is_err());
    }

    #[test]
    fn metrics_must_match_the_declared_names() {
        let names = vec!["b".to_string(), "a".to_string()];
        let mut ms = vec![Metric::count("a", 1), Metric::count("b", 2)];
        conform(&mut ms, &names).unwrap();
        assert_eq!(ms[0].name, "b");
        let mut missing = vec![Metric::count("a", 1)];
        assert!(conform(&mut missing, &names).is_err());
        let mut extra = vec![
            Metric::count("a", 1),
            Metric::count("b", 2),
            Metric::count("c", 3),
        ];
        assert!(conform(&mut extra, &names).is_err());
        let mut twice = vec![
            Metric::count("a", 1),
            Metric::count("b", 2),
            Metric::count("a", 3),
        ];
        assert!(conform(&mut twice, &names).is_err());
    }
}
