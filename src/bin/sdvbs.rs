//! `sdvbs` — command-line runner for the suite.
//!
//! ```text
//! sdvbs --list                          # benchmarks and their metadata
//! sdvbs                                 # run everything at SQCIF
//! sdvbs --size cif --seed 3 --reps 5    # sweep options
//! sdvbs --bench "Disparity Map" --kernels
//! ```

use sdvbs::core::{all_benchmarks, ExecPolicy, InputSize, RunOutcome};
use sdvbs::profile::Profiler;
use std::process::ExitCode;

struct Options {
    size: InputSize,
    seed: u64,
    reps: usize,
    bench: Option<String>,
    kernels: bool,
    list: bool,
    csv: Option<String>,
    dump_inputs: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        size: InputSize::Sqcif,
        seed: 1,
        reps: 1,
        bench: None,
        kernels: false,
        list: false,
        csv: None,
        dump_inputs: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--kernels" => opts.kernels = true,
            "--size" => {
                let v = args.next().ok_or("--size needs a value")?;
                opts.size = v.parse()?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("invalid seed {v:?}"))?;
            }
            "--reps" => {
                let v = args.next().ok_or("--reps needs a value")?;
                opts.reps = v.parse().map_err(|_| format!("invalid reps {v:?}"))?;
                if opts.reps == 0 {
                    return Err("reps must be at least 1".into());
                }
            }
            "--bench" => {
                opts.bench = Some(args.next().ok_or("--bench needs a name")?);
            }
            "--csv" => {
                opts.csv = Some(args.next().ok_or("--csv needs a directory")?);
            }
            "--dump-inputs" => {
                opts.dump_inputs = Some(args.next().ok_or("--dump-inputs needs a directory")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: sdvbs [--list] [--size sqcif|qcif|cif|WxH] [--seed N] \
                     [--reps N] [--bench NAME] [--kernels] [--csv DIR] [--dump-inputs DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &opts.dump_inputs {
        match sdvbs::core::dump_inputs(opts.size, opts.seed, dir) {
            Ok(files) => {
                println!("wrote {} input files to {dir}", files.len());
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let suite = all_benchmarks();
    if opts.list {
        for bench in &suite {
            let info = bench.info();
            println!("{}", info.name);
            println!("    {} — {}", info.characteristic, info.area);
            println!("    {}", info.description);
            println!("    kernels: {}", info.kernels.join(", "));
        }
        return ExitCode::SUCCESS;
    }
    let selected: Vec<_> = match &opts.bench {
        Some(name) => {
            let lower = name.to_ascii_lowercase();
            let matched: Vec<_> = suite
                .into_iter()
                .filter(|b| b.info().name.to_ascii_lowercase().contains(&lower))
                .collect();
            if matched.is_empty() {
                eprintln!("error: no benchmark matches {name:?} (try --list)");
                return ExitCode::FAILURE;
            }
            matched
        }
        None => suite,
    };
    println!(
        "running {} benchmark(s) at {}, seed {}, best of {} rep(s)\n",
        selected.len(),
        opts.size,
        opts.seed,
        opts.reps
    );
    for bench in &selected {
        bench.warmup();
        let mut best: Option<(std::time::Duration, sdvbs::profile::Report, String)> = None;
        let mut quality = None;
        for _ in 0..opts.reps {
            let mut prof = Profiler::new();
            let outcome = bench
                .try_run_with(opts.size, opts.seed, ExecPolicy::Serial, &mut prof)
                .unwrap_or_else(|e| RunOutcome {
                    quality: Some(0.0),
                    detail: format!("failed: {e}"),
                });
            quality = outcome.quality;
            let t = prof.total();
            if best.as_ref().map(|(bt, _, _)| t < *bt).unwrap_or(true) {
                best = Some((t, prof.report(), outcome.detail));
            }
        }
        let (time, report, detail) = best.expect("reps >= 1");
        let q = quality
            .map(|q| format!("{q:.3}"))
            .unwrap_or_else(|| "n/a".into());
        println!(
            "{:<20} {:>9.2} ms   quality {:>6}   {}",
            bench.info().name,
            time.as_secs_f64() * 1e3,
            q,
            detail
        );
        if opts.kernels {
            for (name, pct) in report.occupancy_table() {
                println!("    {name:<22} {pct:>6.2}%");
            }
        }
        if let Some(dir) = &opts.csv {
            let dir = std::path::Path::new(dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            let file = dir.join(format!(
                "{}.csv",
                bench.info().name.replace(' ', "_").to_lowercase()
            ));
            if let Err(e) = std::fs::write(&file, report.to_csv()) {
                eprintln!("error: cannot write {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
            println!("    wrote {}", file.display());
        }
    }
    ExitCode::SUCCESS
}
