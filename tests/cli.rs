//! End-to-end checks of the `sdvbs` command-line runner.

use sdvbs::core::{all_benchmarks, dump_inputs, InputSize};
use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the `sdvbs` binary with `args`, asserting it exits 0, and returns
/// its standard output.
fn sdvbs(args: &[&str]) -> String {
    let Output {
        status,
        stdout,
        stderr,
    } = Command::new(env!("CARGO_BIN_EXE_sdvbs"))
        .args(args)
        .output()
        .expect("the sdvbs binary starts");
    assert!(
        status.success(),
        "sdvbs {args:?} exited with {status}: {}",
        String::from_utf8_lossy(&stderr)
    );
    String::from_utf8(stdout).expect("UTF-8 output")
}

/// A fresh directory under the system temp dir, unique to this process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdvbs_cli_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn list_prints_the_nine_benchmarks() {
    let out = sdvbs(&["--list"]);
    let names: Vec<&str> = out.lines().filter(|l| !l.starts_with(' ')).collect();
    let expected: Vec<&str> = all_benchmarks().iter().map(|b| b.info().name).collect();
    assert_eq!(names, expected);
}

#[test]
fn one_benchmark_prints_its_line_and_kernel_rows() {
    let out = sdvbs(&["--bench", "disparity", "--size", "64x48", "--kernels"]);
    let results: Vec<&str> = out.lines().filter(|l| l.contains(" ms ")).collect();
    assert_eq!(results.len(), 1, "{out}");
    assert!(results[0].starts_with("Disparity Map"), "{out}");
    let kernels: Vec<&str> = out
        .lines()
        .skip_while(|l| !l.starts_with("Disparity Map"))
        .skip(1)
        .filter(|l| l.starts_with("    ") && l.ends_with('%'))
        .collect();
    assert!(kernels.len() > 1, "no kernel rows: {out}");
    let last = kernels.last().unwrap().split_whitespace().next();
    assert_eq!(last, Some("NonKernelWork"), "{out}");
}

#[test]
fn dump_inputs_writes_every_file_the_library_dumps() {
    let dir = scratch_dir("dump");
    let out = sdvbs(&[
        "--dump-inputs",
        dir.to_str().expect("UTF-8 temp path"),
        "--size",
        "qcif",
        "--seed",
        "2",
    ]);
    let reference = scratch_dir("dump_reference");
    let files = dump_inputs(InputSize::Qcif, 2, &reference).unwrap();
    assert!(files.contains(&"manifest.txt".to_string()));
    assert!(
        out.contains(&format!("wrote {} input files", files.len())),
        "{out}"
    );
    for name in &files {
        let written = std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            written,
            std::fs::read(reference.join(name)).unwrap(),
            "{name} differs from the library's dump"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&reference).ok();
}
