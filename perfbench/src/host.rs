//! Host-side measurements that involve no program code: a fixed ALU
//! loop that tracks host speed, and the process's peak resident memory.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration loop (about 20 ms on a 2-vCPU KVM
/// guest).
const CALIB_ITERS: u64 = 20_000_000;

/// Times one pass of a fixed xorshift loop, in ms. It moves with host
/// speed and with nothing in the program, so a change in it next to a
/// change in a workload metric points at the host.
pub fn calib_ms() -> f64 {
    let started = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..black_box(CALIB_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A splitmix64 step: the benchmark's one source of derived seeds, so
/// every input, schedule choice and stream seed follows from the
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    // Keep seeds within 2^40 so they print and parse exactly as JSON
    // numbers.
    (z ^ (z >> 31)) >> 24
}
