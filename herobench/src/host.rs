//! Host-speed calibration.
//!
//! On a shared 2-core virtual machine the host's speed swings by ±25% in
//! phases of seconds, for any code: the same visit of `posttrain-vgg`
//! takes 850 ms in one phase and 1350 ms in the next. Between operations
//! the benchmark therefore times a fixed kernel that uses no repository
//! code, in a process of its own (`herobench calibrate`), so the program
//! under test cannot change the kernel's heap, threads or allocator. The
//! workload process waits for it, so the program's own threads are idle
//! while it runs.

use std::process::{Command, Stdio};
use std::time::Instant;

/// [`kernel_ms`] on the reference machine (2 cores, AVX2).
pub const REF_MS: f64 = 5.0;

/// The calibration kernel: a dependent xorshift chain feeding a float
/// update over 1 MiB. Returns its duration in milliseconds.
pub fn kernel_ms() -> f64 {
    let mut v = vec![1.0f32; 1 << 18];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f32;
    let t = Instant::now();
    for _ in 0..8 {
        for slot in v.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = *slot * 0.999 + (x & 7) as f32;
            acc += *slot;
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the kernel once in a child process (`herobench calibrate`) and
/// returns its duration in milliseconds.
pub fn measure() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("calibrate")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("calibration process: {e}"))?;
    if !out.status.success() {
        return Err(format!("calibration process failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|_| format!("calibration process printed `{}`", text.trim()))
}

/// The run's host speed relative to the reference machine: [`REF_MS`]
/// over the median calibration reading (above 1: a faster host).
pub fn speed(calib_ms: &[f64]) -> f64 {
    REF_MS / crate::stats::median(calib_ms)
}
