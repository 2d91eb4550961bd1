//! Bit pin of the AVX2/FMA convolution path.
//!
//! The committed golden artifact (`tests/golden/`) is generated with the
//! scalar GEMM kernel, and the golden trajectory is a quadratic without a
//! convolution, so neither reaches the fused im2col packing under the
//! SIMD micro-kernel that training runs by default on AVX2 hardware. This
//! test forces [`GemmKernel::Avx2Fma`], trains the golden recipe (a tiny
//! HERO run of the ResNet stand-in, convolutions in every block) and
//! asserts an FNV-1a64 hash of the final parameter bits. The value was
//! recorded before the packing rewrite it guards, and is the same at
//! every `HERO_THREADS` (the golden recipe's sharded executor and the
//! parallel GEMM are both bitwise thread-count invariant).
//!
//! It lives in its own test binary because the kernel override is
//! process-wide: sharing a process with the scalar byte pin would let
//! the two race. Skipped when the CPU lacks AVX2+FMA.

use hero_core::{golden_recipe, train_to_artifact};
use hero_tensor::{active_gemm_kernel, force_gemm_kernel, GemmKernel};

#[test]
fn simd_conv_training_bits_are_pinned() {
    force_gemm_kernel(Some(GemmKernel::Avx2Fma));
    if active_gemm_kernel() != GemmKernel::Avx2Fma {
        eprintln!("skipping SIMD conv pin: this CPU lacks AVX2+FMA");
        force_gemm_kernel(None);
        return;
    }
    let (train_set, test_set, mut net, meta) = golden_recipe();
    train_to_artifact(&mut net, &train_set, &test_set, &meta, 0, None).unwrap();
    force_gemm_kernel(None);
    let bytes: Vec<u8> = net
        .params()
        .iter()
        .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
        .collect();
    assert_eq!(
        hero_artifact::fnv1a64(&bytes),
        0xdc34_e207_a796_8af1,
        "AVX2/FMA training of the golden recipe changed bitwise"
    );
}
