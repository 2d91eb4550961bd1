//! GEMM throughput sweep over the *real* layer shapes of the experiment
//! presets (resnet / mobilenet / vgg at the `model_config` scale: width 8,
//! 8×8 inputs), not just the square 256³ headline product.
//! Conv-as-im2col GEMMs are skinny (m = out-channels ≤ 16) with fat panel
//! dims, which stresses the edge-tile and packing paths very differently
//! from a square matmul.
//!
//! Three groups of rows:
//!
//! * [`SHAPES`] — each conv layer's im2col GEMM as a plain stored-matrix
//!   product at batch 16, timed under every kernel variant: `reference`
//!   (the blocked oracle), `scalar` (portable packed kernel), `avx2fma`
//!   (forced SIMD; silently identical to scalar on hardware without
//!   AVX2+FMA, the `kernel_ran` extra records what actually ran).
//! * One fused-vs-materialized im2col pair on the resnet stage conv.
//! * [`CONVS`] — every distinct conv layer of the three models at the
//!   training batch (32), through the fused paths training runs: the
//!   forward `W·im2col(x)` (`<layer>_fused_b32`) and the weight gradient
//!   `dY·im2col(x)ᵀ` (`<layer>_grad_w_fused_b32`), under the auto-detected
//!   kernel. These are the shapes whose B panels are packed straight out
//!   of the NCHW input.
//!
//! Writes `results/BENCH_gemm.json` with a GFLOP/s figure per row (override
//! the path with `HERO_BENCH_OUT`); every row carries the
//! [`with_fingerprint`] host tags.

use hero_bench::timing::{
    bench_out_path, default_budget, time_op, with_fingerprint, write_json, BenchRow,
};
use hero_tensor::{
    active_gemm_kernel, force_gemm_kernel, matmul_reference, ConvGeometry, GemmKernel, Tensor,
};

/// Named layer shapes `(name, m, n, k)` of the preset models, at batch 16.
///
/// Conv layers appear as their im2col GEMM `(out_c, N·oh·ow, in_c·k·k)`;
/// the `grad_w` row is the backward dW product of the same layer, whose
/// reduction runs over the long spatial dimension instead.
const SHAPES: [(&str, usize, usize, usize); 9] = [
    ("matmul_256x256x256", 256, 256, 256),
    // resnet: 3→8ch 3×3 stem on 8×8, batch 16.
    ("resnet_stem_conv", 8, 1024, 27),
    // resnet: 8→8ch 3×3 stage conv on 8×8.
    ("resnet_stage_conv", 8, 1024, 72),
    // resnet: 8→16ch stride-2 transition (8×8 → 4×4).
    ("resnet_transition_conv", 16, 256, 72),
    // resnet/vgg: 16→16ch 3×3 conv on 4×4.
    ("resnet_stage2_conv", 16, 256, 144),
    // resnet stage conv backward: dW = dY·colsᵀ (reduction over N·oh·ow).
    ("resnet_stage_conv_grad_w", 8, 72, 1024),
    // mobilenet: 8→16ch 1×1 pointwise conv on 8×8.
    ("mobilenet_pointwise_conv", 16, 1024, 8),
    // vgg: 16→16ch 3×3 conv on 8×8 (the fattest conv panel at this scale).
    ("vgg_conv", 16, 1024, 144),
    // square FC head (vgg-style) at batch 16.
    ("fc_head", 16, 256, 256),
];

/// Training batch size of every preset run (`TrainConfig`'s default).
const TRAIN_BATCH: usize = 32;

/// Distinct conv layers `(name, in_c, out_c, in_hw, kernel, stride, pad)`
/// of the three models at the `model_config` scale (width 8, 8×8 input).
/// Layers that repeat a listed geometry within a model are left out.
const CONVS: [(&str, usize, usize, usize, usize, usize, usize); 21] = [
    // resnet (one basic block per stage, widths 8, 8, 16).
    ("resnet_stem", 3, 8, 8, 3, 1, 1),
    ("resnet_stage0_conv", 8, 8, 8, 3, 1, 1),
    ("resnet_stage1_conv1", 8, 8, 8, 3, 2, 1),
    ("resnet_stage1_down", 8, 8, 8, 1, 2, 0),
    ("resnet_stage1_conv2", 8, 8, 4, 3, 1, 1),
    ("resnet_stage2_conv1", 8, 16, 4, 3, 2, 1),
    ("resnet_stage2_down", 8, 16, 4, 1, 2, 0),
    ("resnet_stage2_conv2", 16, 16, 2, 3, 1, 1),
    // mobilenet (same 3×3 stem as resnet; 1×1 expand/project convs; the
    // depthwise convs do not go through GEMM).
    ("mobilenet_ir0_project", 8, 8, 8, 1, 1, 0),
    ("mobilenet_ir1_expand", 8, 32, 8, 1, 1, 0),
    ("mobilenet_ir1_project", 32, 16, 4, 1, 1, 0),
    ("mobilenet_ir2_expand", 16, 64, 4, 1, 1, 0),
    ("mobilenet_ir2_project", 64, 16, 4, 1, 1, 0),
    ("mobilenet_ir3_project", 64, 24, 2, 1, 1, 0),
    ("mobilenet_ir4_expand", 24, 96, 2, 1, 1, 0),
    ("mobilenet_ir4_project", 96, 24, 2, 1, 1, 0),
    ("mobilenet_headconv", 24, 48, 2, 1, 1, 0),
    // vgg (width 16, two 3×3 convs per stage, 2×2 max-pool between).
    ("vgg_stage0_conv0", 3, 16, 8, 3, 1, 1),
    ("vgg_stage0_conv1", 16, 16, 8, 3, 1, 1),
    ("vgg_stage1_conv0", 16, 32, 4, 3, 1, 1),
    ("vgg_stage1_conv1", 32, 32, 4, 3, 1, 1),
];

fn operand(dims: [usize; 2], salt: usize) -> Tensor {
    Tensor::from_fn(dims, |i| {
        ((i[0] * 31 + i[1] * 13 + salt * 17) % 23) as f32 / 11.0 - 1.0
    })
}

/// Attaches the GFLOP/s figure implied by the mean iteration time.
fn with_gflops(row: BenchRow, m: usize, n: usize, k: usize) -> BenchRow {
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let gflops = flops / row.ns_per_iter; // flops/ns ≡ GFLOP/s
    row.with_extra("gflops", gflops)
}

fn main() {
    hero_obs::disable();
    let budget = default_budget();
    let mut rows = Vec::new();

    for &(name, m, n, k) in &SHAPES {
        let a = operand([m, k], m + k);
        let b = operand([k, n], k + n);

        let row = time_op(&format!("{name}_reference"), budget, || {
            std::hint::black_box(matmul_reference(&a, &b).unwrap());
        });
        rows.push(with_gflops(row, m, n, k));

        for forced in [GemmKernel::Scalar, GemmKernel::Avx2Fma] {
            force_gemm_kernel(Some(forced));
            let active = active_gemm_kernel(); // records SIMD fallback
            let row = time_op(&format!("{name}_{}", forced.name()), budget, || {
                std::hint::black_box(a.matmul(&b).unwrap());
            });
            rows.push(
                with_gflops(row, m, n, k)
                    .with_extra("kernel_ran", (active == GemmKernel::Avx2Fma) as u64 as f64),
            );
            force_gemm_kernel(None);
        }
    }

    // Fused im2col-GEMM vs materialize-then-matmul on the resnet stage
    // conv, under the auto-detected kernel: same math bitwise, the fused
    // row saves writing/reading the (72, 1024) patch matrix.
    {
        let geom = ConvGeometry::new(8, 8, 3, 1, 1).unwrap();
        let x = Tensor::from_fn([16, 8, 8, 8], |i| {
            ((i[0] * 7 + i[1] * 5 + i[2] * 3 + i[3]) % 17) as f32 / 8.0 - 1.0
        });
        let w = operand([8, 72], 3);
        let (m, n, k) = (8, 1024, 72);
        let row = time_op("resnet_stage_conv_fused", budget, || {
            std::hint::black_box(w.matmul_im2col(&x, &geom).unwrap());
        });
        rows.push(with_gflops(row, m, n, k));
        let row = time_op("resnet_stage_conv_materialized", budget, || {
            let cols = x.im2col(&geom).unwrap();
            std::hint::black_box(w.matmul(&cols).unwrap());
        });
        rows.push(with_gflops(row, m, n, k));
    }

    // Every distinct conv layer at the training batch, through the fused
    // forward and weight-gradient products.
    for &(name, in_c, out_c, hw, kernel, stride, pad) in &CONVS {
        let geom = ConvGeometry::new(hw, hw, kernel, stride, pad).unwrap();
        let (oh, ow) = geom.out_hw();
        let x = Tensor::from_fn([TRAIN_BATCH, in_c, hw, hw], |i| {
            ((i[0] * 7 + i[1] * 5 + i[2] * 3 + i[3]) % 17) as f32 / 8.0 - 1.0
        });
        let (sites, taps) = (TRAIN_BATCH * oh * ow, in_c * kernel * kernel);
        let w = operand([out_c, taps], 3);
        let dy = operand([out_c, sites], 4);
        let row = time_op(&format!("{name}_fused_b32"), budget, || {
            std::hint::black_box(w.matmul_im2col(&x, &geom).unwrap());
        });
        rows.push(with_gflops(row, out_c, sites, taps));
        let row = time_op(&format!("{name}_grad_w_fused_b32"), budget, || {
            std::hint::black_box(dy.matmul_nt_im2col(&x, &geom).unwrap());
        });
        rows.push(with_gflops(row, out_c, taps, sites));
    }

    let rows = with_fingerprint(rows, budget);
    let out = bench_out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_gemm.json"
    ));
    write_json(out, &rows).expect("write results");
}
