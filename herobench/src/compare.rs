//! `herobench compare PARENT CHANGE`: one row per (workload, end-to-end
//! metric) over two result sets.
//!
//! A result set is any text file holding the runs' detailed record lines
//! (`{"herobench": 1, …}`); other lines are ignored, so the captured
//! standard output of many runs can be concatenated as is. Runs pair up
//! by position within each workload, so record the two sets alternately
//! (parent, change, parent, …). Bounds and directions come from the
//! repository's `BENCHMARK.json`.

use crate::stats::{self, Better};
use hero_obs::json::{parse, Value};
use std::collections::BTreeMap;

/// The benchmark definition this package belongs to.
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
struct Spec {
    name: String,
    better: Better,
    bound: f64,
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn specs(path: &str) -> Result<Vec<Spec>, String> {
    let doc = parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .and_then(Better::parse);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok(Spec {
                    name: n.to_string(),
                    better: b,
                    bound: x,
                }),
                _ => Err(format!("{path}: malformed end_to_end entry")),
            }
        })
        .collect()
}

/// workload → metric → values in file order, from untraced records.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn runs(path: &str) -> Result<Runs, String> {
    let mut out = Runs::new();
    for line in read(path)?.lines() {
        if !line.starts_with("{\"herobench\"") {
            continue;
        }
        let rec = parse(line).map_err(|e| format!("{path}: {e}"))?;
        if matches!(rec.get("trace"), Some(Value::Bool(true))) {
            continue;
        }
        let (Some(workload), Some(Value::Obj(metrics))) = (
            rec.get("workload").and_then(Value::as_str),
            rec.get("metrics"),
        ) else {
            return Err(format!("{path}: record without workload or metrics"));
        };
        let per = out.entry(workload.to_string()).or_default();
        for (k, v) in metrics {
            if let Some(x) = v.as_f64() {
                per.entry(k.clone()).or_default().push(x);
            }
        }
    }
    Ok(out)
}

/// Entry point of the `compare` subcommand.
pub fn run(argv: &[String]) -> Result<(), String> {
    let [parent_path, change_path] = argv else {
        return Err("compare needs exactly two result files".to_string());
    };
    let specs = specs(SPEC)?;
    let (parent, change) = (runs(parent_path)?, runs(change_path)?);
    println!(
        "{:<24} {:<14} {:>5} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload",
        "metric",
        "pairs",
        "parent p50",
        "parent [q1, q3]",
        "change p50",
        "change [q1, q3]",
        "wins"
    );
    for (workload, pm) in &parent {
        let Some(cm) = change.get(workload) else {
            println!("{workload:<24} (no change runs)");
            continue;
        };
        for s in &specs {
            let (Some(p), Some(c)) = (pm.get(&s.name), cm.get(&s.name)) else {
                continue;
            };
            let [p1, p2, p3] = stats::quartiles(p);
            let [c1, c2, c3] = stats::quartiles(c);
            let (wins, pairs) = stats::pair_wins(p, c, s.better);
            let v = stats::verdict(p, c, s.better, s.bound);
            println!(
                "{workload:<24} {:<14} {pairs:>5} {p2:>12.4} {:>25} {c2:>12.4} {:>25} {wins:>6}  {} (bound {})",
                s.name,
                format!("[{p1:.4}, {p3:.4}]"),
                format!("[{c1:.4}, {c3:.4}]"),
                v.label(),
                s.bound
            );
        }
    }
    Ok(())
}
