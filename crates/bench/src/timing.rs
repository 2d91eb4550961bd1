//! Minimal wall-clock benchmarking: warm-up, a time-budgeted measurement
//! loop, and JSON output.
//!
//! In-tree replacement for the Criterion dependency so the bench targets
//! build with no network access. Each measurement runs the closure until a
//! wall-clock budget is exhausted and reports the mean iteration time; the
//! per-run variance machinery of a full bench framework is intentionally
//! out of scope — the numbers feed coarse before/after comparisons
//! (`results/BENCH_step.json`), not statistical regression gates.
//!
//! Rows are serialized with the shared `hero_obs::json` writer — the same
//! one behind the trace stream and run-summary artifacts — so every JSON
//! file under `results/` speaks one dialect, and each measured row is also
//! emitted as a structured `bench_row` event (the console line is its
//! human rendering).

use hero_obs::json::JsonObj;
use hero_obs::Event;
use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One measured operation: the schema of a `results/BENCH_*.json` row.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchRow {
    /// Identifier for the operation (stable across PRs so trajectories can
    /// be compared).
    pub name: String,
    /// Number of timed iterations.
    pub iters: u64,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Optional named extras (e.g. per-iteration counter readings such as
    /// `pool_hit_rate` or `gemm_flops`), serialized as additional fields.
    pub extras: Vec<(String, f64)>,
}

impl BenchRow {
    /// Attaches a named extra value to the row.
    #[must_use]
    pub fn with_extra(mut self, key: &str, value: f64) -> Self {
        self.extras.push((key.to_string(), value));
        self
    }

    /// Serializes the row as one JSON object via the shared writer.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("name", &self.name)
            .u64("iters", self.iters)
            .f64("ns_per_iter", self.ns_per_iter);
        for (k, v) in &self.extras {
            o.f64(k, *v);
        }
        o.finish()
    }

    /// Emits the row as a structured `bench_row` event whose human
    /// rendering is the usual console line.
    pub fn emit(&self) {
        let mut ev = Event::new("bench_row")
            .str("name", &self.name)
            .u64("iters", self.iters)
            .f64("ns_per_iter", self.ns_per_iter);
        for (k, v) in &self.extras {
            ev = ev.f64(k, *v);
        }
        ev.human(self.to_string()).emit();
    }
}

impl fmt::Display for BenchRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let per = self.ns_per_iter;
        let human = if per >= 1e9 {
            format!("{:.3} s", per / 1e9)
        } else if per >= 1e6 {
            format!("{:.3} ms", per / 1e6)
        } else if per >= 1e3 {
            format!("{:.3} µs", per / 1e3)
        } else {
            format!("{per:.1} ns")
        };
        write!(
            f,
            "{:<40} {:>12}/iter  ({} iters)",
            self.name, human, self.iters
        )
    }
}

/// True when the process was invoked with `--quick` (used by
/// `scripts/verify.sh` to keep bench smoke runs under a few minutes).
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The per-operation measurement budget: 2 s normally, 200 ms under
/// `--quick`.
pub fn default_budget() -> Duration {
    if quick_requested() {
        Duration::from_millis(200)
    } else {
        Duration::from_secs(2)
    }
}

/// Times `f` under `budget`: one untimed call plus ~10% of the budget as
/// warm-up, then repeated calls until the budget elapses.
///
/// The row is emitted as a `bench_row` event as a side effect (printing
/// to stdout, and into the trace stream when one is active) so every
/// bench shows progress as it runs.
pub fn time_op(name: &str, budget: Duration, mut f: impl FnMut()) -> BenchRow {
    f();
    let warm_end = Instant::now() + budget / 10;
    while Instant::now() < warm_end {
        f();
    }
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let row = BenchRow {
        name: name.to_string(),
        iters,
        ns_per_iter: start.elapsed().as_nanos() as f64 / iters as f64,
        extras: Vec::new(),
    };
    row.emit();
    row
}

/// Tags every row with the conditions it was measured under: the per-op
/// `budget_ms`, the machine's `cores`, `simd_gemm` (1 when the AVX2+FMA
/// GEMM kernel is active) and `median_of` (1 for a single run; committed
/// files that hold per-row medians of several runs record how many).
pub fn with_fingerprint(rows: Vec<BenchRow>, budget: Duration) -> Vec<BenchRow> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd = hero_tensor::active_gemm_kernel() == hero_tensor::GemmKernel::Avx2Fma;
    rows.into_iter()
        .map(|r| {
            r.with_extra("budget_ms", budget.as_millis() as f64)
                .with_extra("cores", cores as f64)
                .with_extra("simd_gemm", f64::from(u8::from(simd)))
                .with_extra("median_of", 1.0)
        })
        .collect()
}

/// Serializes rows as a JSON array of `{name, iters, ns_per_iter, ...}`
/// objects through the shared `hero_obs::json` writer.
pub fn to_json(rows: &[BenchRow]) -> String {
    hero_obs::json::array_lines(rows.iter().map(BenchRow::to_json))
}

/// Resolves the output path for a bench results file: `HERO_BENCH_OUT`
/// when set (so CI and the verify script can redirect runs without
/// touching the committed baselines), else `default`.
pub fn bench_out_path(default: &str) -> std::path::PathBuf {
    std::env::var("HERO_BENCH_OUT").map_or_else(|_| default.into(), Into::into)
}

/// Writes rows to `path` as JSON, creating parent directories as needed.
///
/// # Errors
///
/// Returns any I/O error from directory creation or the write.
pub fn write_json(path: impl AsRef<Path>, rows: &[BenchRow]) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(to_json(rows).as_bytes())?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_obs::json::{parse, Value};

    #[test]
    fn time_op_counts_iterations() {
        let mut calls = 0u64;
        let row = time_op("noop", Duration::from_millis(5), || calls += 1);
        // warm-up calls + timed calls; the row only counts the timed ones.
        assert!(calls > row.iters);
        assert!(row.iters >= 1);
        assert!(row.ns_per_iter > 0.0);
    }

    #[test]
    fn json_is_well_formed() {
        let rows = vec![
            BenchRow {
                name: "a".into(),
                iters: 10,
                ns_per_iter: 123.4,
                extras: Vec::new(),
            },
            BenchRow {
                name: "b".into(),
                iters: 2,
                ns_per_iter: 5e6,
                extras: Vec::new(),
            },
        ];
        let json = to_json(&rows);
        let v = parse(&json).expect("parses");
        let arr = v.as_arr().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("name").and_then(Value::as_str), Some("a"));
        let ns = arr[1]
            .get("ns_per_iter")
            .and_then(Value::as_f64)
            .expect("ns");
        assert!((ns - 5e6).abs() < 1.0);
    }

    #[test]
    fn extras_round_trip_through_json() {
        let row = BenchRow {
            name: "step".into(),
            iters: 3,
            ns_per_iter: 10.0,
            extras: Vec::new(),
        }
        .with_extra("pool_hit_rate", 0.75)
        .with_extra("gemm_flops", 1024.0);
        let v = parse(&row.to_json()).expect("parses");
        assert_eq!(v.get("pool_hit_rate").and_then(Value::as_f64), Some(0.75));
        assert_eq!(v.get("gemm_flops").and_then(Value::as_f64), Some(1024.0));
    }

    #[test]
    fn fingerprint_tags_every_row() {
        let rows = vec![BenchRow::default(), BenchRow::default()];
        for row in with_fingerprint(rows, Duration::from_millis(200)) {
            let keys: Vec<&str> = row.extras.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["budget_ms", "cores", "simd_gemm", "median_of"]);
            assert_eq!(row.extras[0].1, 200.0);
            assert!(row.extras[1].1 >= 1.0);
        }
    }

    #[test]
    fn display_scales_units() {
        let ns = BenchRow {
            name: "x".into(),
            iters: 1,
            ns_per_iter: 12.0,
            extras: Vec::new(),
        };
        let ms = BenchRow {
            name: "x".into(),
            iters: 1,
            ns_per_iter: 3.2e6,
            extras: Vec::new(),
        };
        assert!(format!("{ns}").contains("ns"));
        assert!(format!("{ms}").contains("ms"));
    }

    #[test]
    fn bench_out_path_honors_override() {
        // Serialized by the single-threaded nature of this assertion: the
        // variable is restored before returning.
        std::env::set_var("HERO_BENCH_OUT", "/tmp/override.json");
        let p = bench_out_path("default.json");
        std::env::remove_var("HERO_BENCH_OUT");
        assert_eq!(p, std::path::PathBuf::from("/tmp/override.json"));
        assert_eq!(
            bench_out_path("default.json"),
            std::path::PathBuf::from("default.json")
        );
    }
}
