//! `herobench` — the repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path herobench/Cargo.toml -- \
//!     --workload train-hero-resnet --seed 1 --seconds 15 --trace 0
//! cargo run --release -q --manifest-path herobench/Cargo.toml -- \
//!     compare parent.log change.log
//! ```
//!
//! A run measures one closed-loop workload (one client, the next
//! operation starts when the previous one returns) for `--seconds`,
//! checks every output, prints a human-readable report, one detailed
//! JSON record line (`{"herobench": …}`, the input of `compare`) and,
//! last, the summary line `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones,
//! measured with tracing off; with `--trace 1` they are the per-layer
//! ones, read from the `hero-obs` spans and counters of traced
//! operations interleaved with untraced ones (whose timings give
//! `obs.overhead_pct`).
//!
//! Before any library call the run puts the workload's `HERO_THREADS`
//! into its own environment (or removes it), so the thread count reaches
//! the library the way a user sets it. A failed correctness check makes
//! the run exit nonzero.
//!
//! `herobench calibrate` runs the host-speed kernel once and prints its
//! duration in milliseconds; runs start it as a child process between
//! operations (see `host.rs`).

mod compare;
mod host;
mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::{Args, WORKLOADS};

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: herobench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         herobench compare <parent.log> <change.log>\n       \
         herobench calibrate",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("calibrate") {
        println!("{}", host::kernel_ms());
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::run(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}\n{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The process is still single-threaded and the library reads these
    // variables lazily, on first use. A traced run owns its tracer; the
    // env-driven sink would write trace files into results/.
    match args.workload.hero_threads {
        Some(t) => std::env::set_var("HERO_THREADS", t),
        None => std::env::remove_var("HERO_THREADS"),
    }
    std::env::remove_var("HERO_TRACE");
    std::env::remove_var("HERO_TRACE_DIR");
    workloads::run(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
