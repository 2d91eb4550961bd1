//! Per-layer metrics of a traced run.
//!
//! Each layer is one workspace crate. The numbers come from three places,
//! none of them new instrumentation inside the crates:
//! the span tree and counters `hero-obs` already records
//! ([`hero_obs::summary_rows`], [`hero_obs::counters::snapshot`]), the
//! raw span events (for the per-step distribution), and the benchmark's
//! own timers around public calls that carry no span of their own
//! (artifact load/save, preflight, sensitivity matrix, allocation, the
//! full-precision eval of the ptq op).
//!
//! Times and counts are per unit of work — one epoch for `train-*`, one
//! model visit for `posttrain-vgg` — summed over the traced units of the
//! run.
//! Span times include work on worker threads.

use crate::stats;
use hero_obs::SummaryRow;
use std::collections::BTreeMap;

/// Raw span events kept per traced operation (only `train_step` events
/// are used; the cap bounds memory on long operations).
const EVENT_CAP: usize = 1_000_000;

/// Per-layer metric names with units, in report order.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("tensor.gemm.calls", "count"),
    ("tensor.gemm.gflop", "GFLOP"),
    ("tensor.gemm.ms", "ms"),
    ("tensor.gemm.gflops", "GFLOP/s"),
    ("tensor.col2im.ms", "ms"),
    ("tensor.im2col.calls", "count"),
    ("tensor.pool.hit_rate.first_epoch", "share"),
    ("tensor.pool.hit_rate.last_epoch", "share"),
    ("tensor.pool.fresh_allocs.last_epoch", "count"),
    ("autodiff.forward.self_ms", "ms"),
    ("autodiff.backward.self_ms", "ms"),
    ("nn.eval.ms", "ms"),
    ("nn.eval.images_per_s", "1/s"),
    ("optim.train_step.ms_p50", "ms"),
    ("optim.train_step.ms_tail", "ms"),
    ("optim.grad_evals_per_step", "count"),
    ("optim.perturb.ms", "ms"),
    ("optim.apply.ms", "ms"),
    ("hessian.fd_hvp.ms", "ms"),
    ("hessian.slq.ms", "ms"),
    ("hessian.layer_traces.ms", "ms"),
    ("hessian.grad_evals_per_probe", "count"),
    ("hessian.trace_rel_se", "share"),
    ("parallel.scatter.ms", "ms"),
    ("parallel.reduce_wait_ms", "ms"),
    ("parallel.bn_refresh.ms", "ms"),
    ("parallel.reduce.ms", "ms"),
    ("data.generate_s", "s"),
    ("data.augment.ms", "ms"),
    ("analyze.verify.ms", "ms"),
    ("analyze.preflight.ms", "ms"),
    ("analyze.sensitivity_matrix.ms", "ms"),
    ("analyze.noise_passes", "count"),
    ("analyze.zonotope_passes", "count"),
    ("quant.quantize_params.ms", "ms"),
    ("quant.allocate.ms", "ms"),
    ("quant.sweep_point.ms", "ms"),
    ("quant.tensors", "count"),
    ("artifact.load.ms", "ms"),
    ("artifact.save.ms", "ms"),
    ("artifact.bytes", "B"),
    ("core.spectrum_op.ms_p50", "ms"),
    ("core.ptq_op.ms_p50", "ms"),
    ("core.test_acc", "share"),
    ("core.q4_test_acc", "share"),
    ("core.q4_retention", "share"),
    ("obs.overhead_pct", "%"),
];

/// Spans, counters and benchmark-side readings of one traced operation.
#[derive(Debug, Default)]
pub struct OpTrace {
    /// The operation's span tree, flattened.
    pub rows: Vec<SummaryRow>,
    /// Counter values over the operation (counters are reset before it).
    pub counters: BTreeMap<&'static str, u64>,
    /// Raw span events of the operation.
    pub events: Vec<hero_obs::SpanEvent>,
}

impl OpTrace {
    /// A counter's value over the operation.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Summed total time (ms) of every span named `name`.
    pub fn span_ms(&self, name: &str) -> f64 {
        ns_ms(
            self.rows
                .iter()
                .filter(|r| r.name == name)
                .map(|r| r.total_ns)
                .sum(),
        )
    }
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Turns tracing on for one operation with a clean span tree and zeroed
/// counters.
pub fn begin_op() {
    hero_obs::span::reset();
    hero_obs::counters::reset_all();
    hero_obs::span::enable_events(EVENT_CAP);
}

/// Turns tracing off and collects what the operation recorded.
pub fn end_op() -> OpTrace {
    hero_obs::disable();
    let trace = OpTrace {
        rows: hero_obs::summary_rows(),
        counters: hero_obs::counters::snapshot().into_iter().collect(),
        events: hero_obs::span::events_snapshot(),
    };
    hero_obs::span::reset();
    trace
}

/// Per-layer readings accumulated over a run's traced operations.
#[derive(Debug, Default)]
pub struct Layers {
    /// Units of work traced (epochs or operations).
    pub units: f64,
    /// Span (name → summed total ns, summed self ns) over traced units.
    spans: BTreeMap<String, (u64, u64)>,
    /// `reduce` time spent beside a `scatter` (the sharded step's reduce).
    sharded_reduce_ns: u64,
    counters: BTreeMap<&'static str, u64>,
    /// `train_step` durations (ms), one per traced step.
    pub step_ms: Vec<f64>,
    /// Named sums the workloads add (benchmark-side timers in ms, counts).
    pub sums: BTreeMap<&'static str, f64>,
    /// Named per-unit samples reported as medians.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Traced and untraced durations (ms) of the run's timed unit, for
    /// the tracing overhead.
    pub traced_ms: Vec<f64>,
    /// See [`Layers::traced_ms`].
    pub untraced_ms: Vec<f64>,
}

impl Layers {
    /// Folds one traced operation in.
    pub fn absorb(&mut self, op: &OpTrace, units: f64) {
        self.units += units;
        let paths: std::collections::HashSet<&str> =
            op.rows.iter().map(|r| r.path.as_str()).collect();
        for r in &op.rows {
            // A span nested in one of its own name is already inside the
            // outer one's total.
            let nested = r.path.split('/').rev().skip(1).any(|s| s == r.name);
            let e = self.spans.entry(r.name.clone()).or_default();
            if !nested {
                e.0 += r.total_ns;
            }
            e.1 += r.self_ns;
            if r.name == "reduce" {
                let parent = r.path.rsplit_once('/').map_or("", |(p, _)| p);
                let sibling = if parent.is_empty() {
                    "scatter".to_string()
                } else {
                    format!("{parent}/scatter")
                };
                if paths.contains(sibling.as_str()) {
                    self.sharded_reduce_ns += r.total_ns;
                }
            }
        }
        for (k, v) in &op.counters {
            *self.counters.entry(k).or_default() += v;
        }
        self.step_ms.extend(
            op.events
                .iter()
                .filter(|e| e.name == "train_step")
                .map(|e| ns_ms(e.dur_ns)),
        );
    }

    /// Adds `v` to a named sum.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// Records one sample of a median-reported metric.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    fn med(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| stats::median(v))
    }

    fn mean(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn total_ms(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .filter_map(|n| self.spans.get(*n))
            .fold(0.0, |acc, e| acc + ns_ms(e.0))
    }

    fn self_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |e| ns_ms(e.1))
    }

    /// Every [`PER_LAYER`] metric, in order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let u = self.units.max(1.0);
        let per = |v: f64| v / u;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let gemm_ms = self.total_ms(&["gemm", "gemm_simd"]);
        let gemm_gflop = self.counter("gemm_flops") / 1e9;
        let eval_ms = self.total_ms(&["eval"]) + self.sum("nn.eval.ms");
        let (step_p50, step_tail) = if self.step_ms.is_empty() {
            (0.0, 0.0)
        } else {
            let pct = stats::tail_pct(self.step_ms.len());
            let t = stats::tail_at(&self.step_ms, pct).map_or(0.0, |t| t.value);
            (stats::median(&self.step_ms), t)
        };
        let value = |name: &str| -> f64 {
            match name {
                "tensor.gemm.calls" => per(self.counter("gemm_calls")),
                "tensor.gemm.gflop" => per(gemm_gflop),
                "tensor.gemm.ms" => per(gemm_ms),
                "tensor.gemm.gflops" => ratio(gemm_gflop, gemm_ms / 1e3),
                "tensor.col2im.ms" => per(self.total_ms(&["col2im"])),
                "tensor.im2col.calls" => per(self.counter("im2col_calls")),
                "tensor.pool.hit_rate.first_epoch" => self.med("pool.hit_rate.first"),
                "tensor.pool.hit_rate.last_epoch" => self.med("pool.hit_rate.last"),
                "tensor.pool.fresh_allocs.last_epoch" => self.med("pool.fresh.last"),
                "autodiff.forward.self_ms" => per(self.self_ms("forward")),
                "autodiff.backward.self_ms" => per(self.self_ms("backward")),
                "nn.eval.ms" => per(eval_ms),
                "nn.eval.images_per_s" => ratio(self.sum("nn.eval.images"), eval_ms / 1e3),
                "optim.train_step.ms_p50" => step_p50,
                "optim.train_step.ms_tail" => step_tail,
                "optim.grad_evals_per_step" => {
                    ratio(self.sum("optim.grad_evals"), self.sum("optim.steps"))
                }
                "optim.perturb.ms" => per(self.total_ms(&["perturb"])),
                "optim.apply.ms" => per(self.total_ms(&["apply"])),
                "hessian.fd_hvp.ms" => per(self.total_ms(&["hvp"])),
                "hessian.slq.ms" => per(self.total_ms(&["slq"])),
                "hessian.layer_traces.ms" => per(self.total_ms(&["layer_traces"])),
                "hessian.grad_evals_per_probe" => ratio(
                    self.sum("hessian.probe_grad_evals"),
                    self.sum("hessian.probes"),
                ),
                "hessian.trace_rel_se" => self.med("hessian.trace_rel_se"),
                "parallel.scatter.ms" => per(self.total_ms(&["scatter"])),
                "parallel.reduce_wait_ms" => per(self.counter("reduce_wait_ns") / 1e6),
                "parallel.bn_refresh.ms" => per(self.total_ms(&["bn_refresh"])),
                "parallel.reduce.ms" => per(ns_ms(self.sharded_reduce_ns)),
                "data.generate_s" => self.med("data.generate_s"),
                "data.augment.ms" => per(self.total_ms(&["augment"])),
                "analyze.verify.ms" => per(self.sum("analyze.verify.ms")),
                "analyze.preflight.ms" => per(self.sum("analyze.preflight.ms")),
                "analyze.sensitivity_matrix.ms" => per(self.sum("analyze.sensitivity_matrix.ms")),
                "analyze.noise_passes" => per(self.counter("analyze_noise_passes")),
                "analyze.zonotope_passes" => per(self.counter("analyze_zonotope_passes")),
                "quant.quantize_params.ms" => per(self.total_ms(&["quantize"])),
                "quant.allocate.ms" => per(self.sum("quant.allocate.ms")),
                "quant.sweep_point.ms" => ratio(
                    self.total_ms(&["quant_sweep"]),
                    self.sum("quant.sweep_points"),
                ),
                "quant.tensors" => per(self.counter("quant_tensors")),
                "artifact.load.ms" => per(self.sum("artifact.load.ms")),
                "artifact.save.ms" => per(self.sum("artifact.save.ms")),
                "artifact.bytes" => per(self.sum("artifact.bytes")),
                "core.spectrum_op.ms_p50" => self.med("core.spectrum_op.ms"),
                "core.ptq_op.ms_p50" => self.med("core.ptq_op.ms"),
                "core.test_acc" => self.mean("core.test_acc"),
                "core.q4_test_acc" => self.mean("core.q4_test_acc"),
                "core.q4_retention" => self.mean("core.q4_retention"),
                "obs.overhead_pct" => {
                    if self.traced_ms.is_empty() || self.untraced_ms.is_empty() {
                        0.0
                    } else {
                        100.0
                            * (stats::median(&self.traced_ms) / stats::median(&self.untraced_ms)
                                - 1.0)
                    }
                }
                other => unreachable!("per-layer metric `{other}` has no definition"),
            }
        };
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, value(name), unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(path: &str, total_ns: u64, self_ns: u64) -> SummaryRow {
        let name = path.rsplit('/').next().unwrap_or(path).to_string();
        SummaryRow {
            path: path.to_string(),
            name,
            depth: path.matches('/').count(),
            calls: 1,
            self_ns,
            total_ns,
            parent_total_ns: 0,
        }
    }

    fn metric(layers: &Layers, name: &str) -> f64 {
        layers
            .metrics()
            .into_iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .unwrap()
    }

    #[test]
    fn spans_are_summed_by_name_and_normalized_per_unit() {
        let op = OpTrace {
            rows: vec![
                row("train_step", 10_000_000, 1_000_000),
                row("train_step/forward", 4_000_000, 2_000_000),
                row("train_step/forward/gemm_simd", 2_000_000, 2_000_000),
                row("train_step/hvp/forward", 2_000_000, 1_000_000),
                row("train_step/reduce", 1_000_000, 1_000_000),
            ],
            ..OpTrace::default()
        };
        let mut layers = Layers::default();
        layers.absorb(&op, 2.0);
        assert_eq!(metric(&layers, "tensor.gemm.ms"), 1.0);
        assert_eq!(metric(&layers, "autodiff.forward.self_ms"), 1.5);
        // A `reduce` with no `scatter` sibling is the serial optimizer's.
        assert_eq!(metric(&layers, "parallel.reduce.ms"), 0.0);
    }

    #[test]
    fn sharded_reduce_is_the_one_beside_scatter() {
        let op = OpTrace {
            rows: vec![
                row("train_step", 10_000_000, 0),
                row("train_step/scatter", 6_000_000, 6_000_000),
                row("train_step/reduce", 2_000_000, 2_000_000),
            ],
            ..OpTrace::default()
        };
        let mut layers = Layers::default();
        layers.absorb(&op, 1.0);
        assert_eq!(metric(&layers, "parallel.reduce.ms"), 2.0);
        assert_eq!(metric(&layers, "parallel.scatter.ms"), 6.0);
    }

    #[test]
    fn every_metric_has_a_definition_and_bypassed_layers_read_zero() {
        let layers = Layers::default();
        let m = layers.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert!(m.iter().all(|(_, v, _)| *v == 0.0));
    }
}
