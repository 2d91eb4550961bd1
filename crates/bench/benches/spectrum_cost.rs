//! Cost of one spectrum-observatory probe. Writes
//! `results/BENCH_spectrum.json` (override with `HERO_BENCH_OUT`).
//!
//! Rows, from estimator to trainer-facing aggregate:
//!
//! * `slq_density_*` — the stochastic Lanczos quadrature density alone;
//! * `layer_traces_*` — the per-layer Hutchinson traces alone (shared
//!   probes: one HVP per probe, whatever the tensor count);
//! * `probe_spectrum_resnet_b16` — the full [`hero_core::probe_spectrum`]
//!   call at this bench's small probe counts, including parameter restore;
//! * `probe_spectrum_vgg_b64` — the same call under
//!   `SpectrumOptions::default()` on VGG, as the trainer's
//!   `spectrum_every` probe and the benchmark's post-training spectrum op
//!   make it.
//!
//! Each row carries a `grad_evals` extra — the number of gradient
//! evaluations the operation spends — so the JSON documents the probe's
//! cost model (`1 + slq_probes·steps + trace_probes`) next to its
//! wall-clock price, plus the `budget_ms`, `cores`, `simd_gemm` and
//! `median_of` fingerprint of [`hero_bench::timing::with_fingerprint`].

use hero_bench::timing::{bench_out_path, default_budget, time_op, with_fingerprint, write_json};
use hero_core::experiment::model_config;
use hero_core::SpectrumOptions;
use hero_data::Preset;
use hero_hessian::{layer_traces, slq_density, SlqConfig};
use hero_nn::models::ModelKind;
use hero_optim::BatchOracle;
use hero_tensor::rng::StdRng;

const STEPS: usize = 6;
const PROBES: usize = 2;

/// Gradient evaluations of one `probe_spectrum` call under `opts`.
fn probe_grad_evals(opts: &SpectrumOptions) -> f64 {
    (1 + opts.slq_probes * opts.steps + opts.trace_probes) as f64
}

fn main() {
    hero_obs::disable();
    let budget = default_budget();
    let mut rows = Vec::new();

    let preset = Preset::C10;
    let (train_set, _) = preset.load(0.2);
    let images = train_set.images.narrow(0, 16).unwrap();
    let labels = train_set.labels[..16].to_vec();
    let mut net = ModelKind::Resnet.build(model_config(preset), &mut StdRng::seed_from_u64(0));
    let params = net.params();

    let row = time_op("slq_density_resnet_b16", budget, || {
        let mut oracle = BatchOracle::new(&mut net, &images, &labels);
        let cfg = SlqConfig {
            steps: STEPS,
            probes: PROBES,
            seed: 7,
            ..SlqConfig::default()
        };
        std::hint::black_box(slq_density(&mut oracle, &params, cfg).unwrap());
    })
    .with_extra("grad_evals", (1 + PROBES * STEPS) as f64);
    rows.push(row);

    let row = time_op("layer_traces_resnet_b16", budget, || {
        let mut oracle = BatchOracle::new(&mut net, &images, &labels);
        std::hint::black_box(layer_traces(&mut oracle, &params, PROBES, 1e-3, 7).unwrap());
    })
    .with_extra("grad_evals", (1 + PROBES) as f64);
    rows.push(row);

    net.set_params(&params).unwrap();
    let opts = SpectrumOptions {
        steps: STEPS,
        slq_probes: PROBES,
        trace_probes: PROBES,
        samples: 16,
        ..SpectrumOptions::default()
    };
    let row = time_op("probe_spectrum_resnet_b16", budget, || {
        std::hint::black_box(hero_core::probe_spectrum(&mut net, &train_set, 0, &opts).unwrap());
    })
    .with_extra("grad_evals", probe_grad_evals(&opts));
    rows.push(row);

    // The full-size split, so the default 64-sample probe batch is full.
    let (full_train, _) = preset.load(1.0);
    let mut vgg = ModelKind::Vgg.build(model_config(preset), &mut StdRng::seed_from_u64(0));
    let opts = SpectrumOptions::default();
    let row = time_op("probe_spectrum_vgg_b64", budget, || {
        std::hint::black_box(hero_core::probe_spectrum(&mut vgg, &full_train, 0, &opts).unwrap());
    })
    .with_extra("grad_evals", probe_grad_evals(&opts));
    rows.push(row);

    let out = bench_out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_spectrum.json"
    ));
    write_json(out, &with_fingerprint(rows, budget)).expect("write results");
}
