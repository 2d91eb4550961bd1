//! Substrate micro-benchmarks: the tensor/autodiff primitives the whole
//! reproduction stands on (matmul, im2col convolution, dataset generation,
//! landscape scanning), plus the eval-mode forward path built on them:
//!
//! * `broadcast_bn_eval_32x48x8x8` — the four `(n,c,h,w)⊙(1,c,1,1)`
//!   channel broadcasts of one eval-mode `BatchNorm2d`;
//! * `eval_accuracy_{resnet,mobilenet,vgg}_400` — `evaluate_accuracy` over
//!   the 400-image C10 test split (batch 64) on a freshly built model.
//!
//! Writes `results/BENCH_substrate.json` (override with `HERO_BENCH_OUT`);
//! each row carries `budget_ms`, `cores`, `simd_gemm` (1 when the AVX2+FMA
//! GEMM kernel is active) and `median_of` (see
//! [`hero_bench::timing::with_fingerprint`]).

use hero_autodiff::Graph;
use hero_bench::timing::{bench_out_path, default_budget, time_op, with_fingerprint, write_json};
use hero_core::experiment::model_config;
use hero_data::{Preset, SynthGenerator, SynthSpec};
use hero_landscape::{filter_normalized_direction, scan_2d};
use hero_nn::evaluate_accuracy;
use hero_nn::models::ModelKind;
use hero_tensor::rng::StdRng;
use hero_tensor::{ConvGeometry, Tensor};

fn main() {
    let budget = default_budget();
    let mut rows = Vec::new();

    for n in [32usize, 64, 128] {
        let a = Tensor::from_fn([n, n], |i| ((i[0] * 7 + i[1]) % 13) as f32 - 6.0);
        let b = Tensor::from_fn([n, n], |i| ((i[0] + i[1] * 5) % 11) as f32 - 5.0);
        rows.push(time_op(&format!("matmul_{n}"), budget, || {
            std::hint::black_box(a.matmul(&b).unwrap());
        }));
    }

    let x = Tensor::from_fn([8, 8, 8, 8], |i| (i.iter().sum::<usize>() % 7) as f32 * 0.2);
    let w = Tensor::from_fn([16, 8 * 9], |i| ((i[0] + i[1]) % 5) as f32 * 0.1 - 0.2);
    rows.push(time_op("conv2d_fwd_bwd_8x8x8x8", budget, || {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let wv = g.input(w.clone());
        let geom = ConvGeometry::new(8, 8, 3, 1, 1).unwrap();
        let y = g.conv2d(xv, wv, geom).unwrap();
        let sq = g.square(y);
        let loss = g.sum(sq);
        std::hint::black_box(g.backward(loss).unwrap());
    }));

    let gen = SynthGenerator::new(SynthSpec::default());
    rows.push(time_op("synth_generate_200", budget, || {
        std::hint::black_box(gen.generate(200, 1));
    }));

    // A quadratic-surface scan: measures grid-evaluation machinery.
    let params = vec![Tensor::from_fn([256], |i| (i[0] as f32 * 0.01).sin())];
    let mut rng = StdRng::seed_from_u64(0);
    let d1 = filter_normalized_direction(&params, &mut rng).unwrap();
    let d2 = filter_normalized_direction(&params, &mut rng).unwrap();
    rows.push(time_op("scan_2d_quadratic_17x17", budget, || {
        let mut oracle = |ps: &[Tensor]| Ok(ps[0].norm_l2_sq());
        std::hint::black_box(scan_2d(&mut oracle, &params, &d1, &d2, 1.0, 17).unwrap());
    }));

    // Eval-mode BatchNorm: scale, shift, gamma, beta per channel.
    let act = Tensor::from_fn([32, 48, 8, 8], |i| {
        (i.iter().sum::<usize>() % 11) as f32 * 0.1
    });
    let chan: Vec<Tensor> = (0..4)
        .map(|k| Tensor::from_fn([1, 48, 1, 1], |i| 0.5 + (i[1] + k) as f32 * 0.01))
        .collect();
    rows.push(time_op("broadcast_bn_eval_32x48x8x8", budget, || {
        let y = act.bmul(&chan[0]).unwrap().badd(&chan[1]).unwrap();
        let y = y.bmul(&chan[2]).unwrap().badd(&chan[3]).unwrap();
        std::hint::black_box(y);
    }));

    let preset = Preset::C10;
    let (_, test_set) = preset.load(1.0);
    let n = test_set.labels.len();
    for (name, kind) in [
        ("resnet", ModelKind::Resnet),
        ("mobilenet", ModelKind::Mobilenet),
        ("vgg", ModelKind::Vgg),
    ] {
        let mut net = kind.build(model_config(preset), &mut StdRng::seed_from_u64(0));
        rows.push(time_op(
            &format!("eval_accuracy_{name}_{n}"),
            budget,
            || {
                std::hint::black_box(
                    evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64).unwrap(),
                );
            },
        ));
    }

    let rows = with_fingerprint(rows, budget);
    let out = bench_out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_substrate.json"
    ));
    write_json(out, &rows).expect("write results");
}
