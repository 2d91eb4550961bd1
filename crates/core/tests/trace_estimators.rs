//! Per-layer trace estimator evidence on trained networks: the shared-probe
//! `layer_traces` (one HVP per probe, every block read from it) against the
//! per-tensor masked estimator it replaced (one HVP per tensor and probe),
//! which survives only here as the reference.
//!
//! Ignored by default (about a minute in release). Run with
//!
//! ```text
//! cargo test --release -p hero-core --test trace_estimators -- --ignored
//! ```
//!
//! It trains VGG and ResNet with HERO for 8 epochs on the C10 preset from
//! three training seeds each, runs every estimator for 12 probe seeds on a
//! batch of 64 training images and writes `results/TRACE_ESTIMATORS.json` (override with
//! `HERO_TRACE_EVIDENCE_OUT`): per model and estimator the gradient
//! evaluations, the seed-sd of the global trace and the root-sum-square
//! (RSS) of the per-tensor seed-sds; per tensor the seed mean and sd
//! under each estimator.

use hero_core::experiment::{model_config, MethodKind};
use hero_core::{train, TrainConfig};
use hero_data::Preset;
use hero_hessian::{fd_hvp_into, layer_traces, probe_seed, GradOracle};
use hero_nn::models::ModelKind;
use hero_obs::json::{array_lines, JsonObj};
use hero_optim::BatchOracle;
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::Tensor;

const SEEDS: u64 = 12;
const TRAIN_SEEDS: [u64; 3] = [0, 1, 2];
const BATCH: usize = 64;
const EPOCHS: usize = 8;
const EPS: f32 = 1e-3;

/// The replaced estimator, per cell: for tensor `ℓ` and probe `p`, a
/// Rademacher probe on that tensor only (stream
/// `probe_seed(seed, ℓ·probes + p)`), one HVP, sample `z_ℓᵀ(Hz)_ℓ`.
/// Returns the per-tensor means.
fn masked_traces(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    probes: usize,
    seed: u64,
) -> Vec<f32> {
    let (_, grads) = oracle.grad(params).unwrap();
    let mut z: Vec<Tensor> = params
        .iter()
        .map(|p| Tensor::zeros(p.shape().clone()))
        .collect();
    let (mut shifted, mut hz) = (Vec::new(), Vec::new());
    let mut means = Vec::with_capacity(params.len());
    for layer in 0..params.len() {
        let mut sum = 0.0;
        for probe in 0..probes {
            let mut rng = StdRng::seed_from_u64(probe_seed(seed, layer * probes + probe));
            for v in z[layer].data_mut() {
                *v = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            }
            fd_hvp_into(oracle, params, &grads, &z, EPS, &mut shifted, &mut hz).unwrap();
            sum += z[layer].dot(&hz[layer]).unwrap();
        }
        z[layer].data_mut().fill(0.0);
        means.push(sum / probes as f32);
    }
    means
}

fn mean_sd(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// One estimator's per-seed, per-tensor trace means, summarized.
struct Spread {
    name: String,
    probes: usize,
    grad_evals: usize,
    /// `(mean, sd)` over seeds, per tensor.
    per_tensor: Vec<(f64, f64)>,
    global_sd: f64,
    rss: f64,
}

impl Spread {
    fn new(name: String, probes: usize, grad_evals: usize, runs: &[Vec<f32>]) -> Self {
        let tensors = runs[0].len();
        let per_tensor: Vec<(f64, f64)> = (0..tensors)
            .map(|l| mean_sd(&runs.iter().map(|r| f64::from(r[l])).collect::<Vec<_>>()))
            .collect();
        let globals: Vec<f64> = runs
            .iter()
            .map(|r| r.iter().map(|&v| f64::from(v)).sum())
            .collect();
        let rss = per_tensor.iter().map(|(_, sd)| sd * sd).sum::<f64>().sqrt();
        Spread {
            name,
            probes,
            grad_evals,
            per_tensor,
            global_sd: mean_sd(&globals).1,
            rss,
        }
    }

    fn json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("estimator", &self.name)
            .u64("probes", self.probes as u64)
            .u64("grad_evals", self.grad_evals as u64)
            .f64("global_trace_seed_sd", self.global_sd)
            .f64("rss_over_layers", self.rss);
        o.finish()
    }
}

fn model_evidence(kind: ModelKind, label: &str, train_seed: u64) -> (String, Vec<Spread>) {
    let preset = Preset::C10;
    let (train_set, test_set) = preset.load(1.0);
    let mut net = kind.build(model_config(preset), &mut StdRng::seed_from_u64(train_seed));
    let config =
        TrainConfig::new(MethodKind::Hero.tuned_for(preset, kind), EPOCHS).with_seed(train_seed);
    let record = train(&mut net, &train_set, &test_set, &config).unwrap();
    let images = train_set.images.narrow(0, BATCH).unwrap();
    let labels = &train_set.labels[..BATCH];
    let params = net.params();
    let infos = net.param_infos();
    let n = params.len();

    let shared = [8, 2 * n];
    let mut masked_runs = Vec::new();
    let mut shared_runs = vec![Vec::new(); shared.len()];
    for s in 0..SEEDS {
        // The stream `probe_spectrum` derives for its traces.
        let seed = s ^ 0x7ACE;
        let mut oracle = BatchOracle::new(&mut net, &images, labels);
        masked_runs.push(masked_traces(&mut oracle, &params, 2, seed));
        for (runs, &probes) in shared_runs.iter_mut().zip(&shared) {
            let est = layer_traces(&mut oracle, &params, probes, EPS, seed).unwrap();
            runs.push(est.iter().map(|e| e.mean).collect::<Vec<_>>());
        }
    }
    net.set_params(&params).unwrap();

    let mut spreads = vec![Spread::new("masked x2".into(), 2, 1 + 2 * n, &masked_runs)];
    for (runs, &probes) in shared_runs.iter().zip(&shared) {
        let name = if probes == 8 {
            "shared x8 (default)".to_string()
        } else {
            format!("shared x{probes} (2L, equal cost)")
        };
        spreads.push(Spread::new(name, probes, 1 + probes, runs));
    }

    let tensors = infos.iter().enumerate().map(|(l, info)| {
        let mut o = JsonObj::new();
        o.str("name", &info.name)
            .u64("numel", params[l].numel() as u64)
            .bool("quantizable", info.kind.is_quantizable());
        for (key, sp) in ["masked2", "shared8", "shared2l"].iter().zip(&spreads) {
            o.f64(&format!("{key}_mean"), sp.per_tensor[l].0)
                .f64(&format!("{key}_sd"), sp.per_tensor[l].1);
        }
        o.f64(
            "sd_ratio_shared8_vs_masked2",
            spreads[1].per_tensor[l].1 / spreads[0].per_tensor[l].1,
        );
        o.finish()
    });
    let mut o = JsonObj::new();
    o.str("model", label)
        .u64("train_seed", train_seed)
        .u64("tensors", n as u64)
        .f64("final_test_acc", f64::from(record.final_test_acc))
        .raw(
            "estimators",
            &array_lines(spreads.iter().map(Spread::json).collect::<Vec<_>>()),
        )
        .raw("per_tensor", &array_lines(tensors.collect::<Vec<_>>()));
    (o.finish(), spreads)
}

#[test]
#[ignore = "trains two networks; run in release with --ignored"]
fn shared_probes_match_masked_spread_on_trained_models() {
    let mut models = Vec::new();
    for (kind, label) in [(ModelKind::Vgg, "vgg"), (ModelKind::Resnet, "resnet")] {
        for train_seed in TRAIN_SEEDS {
            let (json, spreads) = model_evidence(kind, label, train_seed);
            for sp in &spreads {
                println!(
                    "{label:<7} train seed {train_seed}  {:<26} {:>3} grad evals  \
                     global sd {:>8.2}  RSS {:>8.2}",
                    sp.name, sp.grad_evals, sp.global_sd, sp.rss
                );
            }
            // At equal cost (2L shared probes against 2 masked per tensor)
            // the shared estimator must not spread wider.
            let (masked, equal_cost) = (&spreads[0], &spreads[2]);
            assert!(equal_cost.rss <= masked.rss, "{label}/{train_seed}: RSS");
            assert!(
                equal_cost.global_sd <= masked.global_sd,
                "{label}/{train_seed}: global sd"
            );
            models.push(json);
        }
    }
    let mut o = JsonObj::new();
    o.str(
        "what",
        "Per-layer Hutchinson trace spread over 12 probe seeds: masked x2 \
         (one probe per tensor, the replaced estimator) vs shared x8 (the \
         default) and shared x2L (equal cost). C10 preset, HERO 8 epochs \
         from each training seed, batch 64, eps 1e-3.",
    )
    .u64("seeds", SEEDS)
    .raw("models", &array_lines(models));
    let out = std::env::var("HERO_TRACE_EVIDENCE_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/TRACE_ESTIMATORS.json"
        )
        .to_string()
    });
    std::fs::write(&out, o.finish() + "\n").unwrap();
    println!("wrote {out}");
}
