//! Bitwise equivalence of the run-collapsed broadcast kernels against a
//! per-element reference walk.
//!
//! [`Tensor::broadcast_op`] and [`Tensor::reduce_to_shape`] merge trailing
//! axes into inner runs; their contract is that every output element is the
//! same `f(a, b)` on the same inputs (and every reduced element the same
//! left-to-right sum) as the naive walk below, which unravels each output
//! index on its own. Seeded shape pairs cover ranks 0–5, size-1 and missing
//! leading axes, both operands stretched, zero-size dims and length-1 runs.

use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{Shape, Tensor};

/// Flat offset into `src` for output multi-index `idx` (`src` aligned to the
/// trailing axes of the output; size-1 axes read index 0).
fn source_offset(src: &[usize], idx: &[usize]) -> usize {
    let pad = idx.len() - src.len();
    let mut off = 0;
    for (ax, &d) in src.iter().enumerate() {
        let i = if d == 1 { 0 } else { idx[ax + pad] };
        off = off * d + i;
    }
    off
}

/// Reference broadcast: one `f(a, b)` per output element, row-major.
fn reference_broadcast(
    a: &Tensor,
    b: &Tensor,
    out: &Shape,
    f: impl Fn(f32, f32) -> f32,
) -> Vec<f32> {
    (0..out.numel())
        .map(|flat| {
            let idx = out.unravel(flat);
            f(
                a.data()[source_offset(a.dims(), &idx)],
                b.data()[source_offset(b.dims(), &idx)],
            )
        })
        .collect()
}

/// Reference reduce: source elements summed into the target in increasing
/// source order.
fn reference_reduce(g: &Tensor, target: &Shape) -> Vec<f32> {
    let mut out = vec![0.0f32; target.numel()];
    for flat in 0..g.numel() {
        let idx = g.shape().unravel(flat);
        out[source_offset(target.dims(), &idx)] += g.data()[flat];
    }
    out
}

/// A named binary kernel.
type BinOp = (&'static str, fn(f32, f32) -> f32);

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Values in [-4, 4) with exact zeros mixed in, so `div` also exercises
/// infinities and NaNs (compared by bit pattern).
fn tensor_of(rng: &mut StdRng, dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|_| {
            if rng.gen_range(0..16usize) == 0 {
                0.0
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect();
    Tensor::from_vec(data, dims.to_vec()).unwrap()
}

/// An operand shape that broadcasts to `out`: a random trailing suffix of
/// `out` (missing leading axes) with random axes squeezed to 1.
fn operand_of(rng: &mut StdRng, out: &[usize]) -> Vec<usize> {
    let keep = rng.gen_range(0..=out.len());
    out[out.len() - keep..]
        .iter()
        .map(|&d| if rng.gen_range(0..3usize) == 0 { 1 } else { d })
        .collect()
}

/// A random output shape: rank 0–5, dims drawn mostly from 1..=5 with an
/// occasional zero-size or longer axis.
fn out_shape_of(rng: &mut StdRng) -> Vec<usize> {
    let rank = rng.gen_range(0..=5usize);
    (0..rank)
        .map(|_| match rng.gen_range(0..24usize) {
            0 => 0,
            1 => 17,
            r => 1 + r % 5,
        })
        .collect()
}

/// Checks all four broadcast ops in both operand orders, and the reduce of
/// an output-shaped gradient back to each operand shape.
fn check_pair(rng: &mut StdRng, a_dims: &[usize], b_dims: &[usize]) {
    let a = tensor_of(rng, a_dims);
    let b = tensor_of(rng, b_dims);
    let ops: [BinOp; 4] = [
        ("add", |x, y| x + y),
        ("sub", |x, y| x - y),
        ("mul", |x, y| x * y),
        ("div", |x, y| x / y),
    ];
    for (lhs, rhs) in [(&a, &b), (&b, &a)] {
        let out_shape = lhs.shape().broadcast_with(rhs.shape()).unwrap();
        for (name, f) in ops {
            let got = lhs.broadcast_op(rhs, f).unwrap();
            assert_eq!(got.shape(), &out_shape);
            assert_eq!(
                bits(got.data()),
                bits(&reference_broadcast(lhs, rhs, &out_shape, f)),
                "{name} {:?} ⊙ {:?}",
                lhs.dims(),
                rhs.dims()
            );
        }
        let g = tensor_of(rng, out_shape.dims());
        for target in [lhs.shape(), rhs.shape()] {
            let got = g.reduce_to_shape(target).unwrap();
            assert_eq!(got.shape(), target);
            assert_eq!(
                bits(got.data()),
                bits(&reference_reduce(&g, target)),
                "reduce {:?} -> {:?}",
                g.dims(),
                target.dims()
            );
        }
    }
}

#[test]
fn named_layouts_match_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xB40AD);
    let cases: &[(&[usize], &[usize])] = &[
        // Eval BatchNorm: per-channel constants over NCHW.
        (&[4, 6, 5, 5], &[1, 6, 1, 1]),
        // Channel-last bias: runs of length c.
        (&[2, 3, 3, 4], &[4]),
        (&[2, 3, 3, 1], &[1]),
        // Both sides stretched.
        (&[3, 1, 5], &[4, 1]),
        (&[5, 1], &[1, 7]),
        (&[2, 1, 3, 1], &[1, 4, 1, 5]),
        // Linear bias over rows; column broadcast.
        (&[8, 10], &[10]),
        (&[8, 10], &[8, 1]),
        // Scalars, rank 0 against everything.
        (&[], &[]),
        (&[], &[3, 4]),
        (&[1], &[2, 3]),
        (&[1, 1, 1], &[]),
        // Zero-size dims.
        (&[0, 3], &[3]),
        (&[2, 0, 4], &[1, 1, 4]),
        (&[0], &[]),
        // Identical shapes and size-1 padding only.
        (&[2, 3, 4], &[2, 3, 4]),
        (&[1, 3, 1], &[3, 1]),
    ];
    for (a, b) in cases {
        check_pair(&mut rng, a, b);
    }
}

#[test]
fn random_shape_pairs_match_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x5EED_B0AD);
    for _ in 0..600 {
        let out = out_shape_of(&mut rng);
        let a = operand_of(&mut rng, &out);
        let b = operand_of(&mut rng, &out);
        // Either operand may have dropped every axis that makes it reach
        // `out`; the pair only needs to broadcast, not to produce `out`.
        check_pair(&mut rng, &a, &b);
    }
}
