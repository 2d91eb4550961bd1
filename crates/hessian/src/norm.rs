//! The paper's curvature probe ‖Hz‖ (Fig. 2a), the Hutchinson trace
//! estimator (global and per-layer) and the regularizer estimate.

use crate::hvp::{fd_hvp, fd_hvp_into, GradOracle};
use crate::stats::{probe_seed, Estimate};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{fill_standard_normal, global_norm_l2, pool, Result, Tensor, TensorError};

/// Computes the paper's layer-scaled perturbation direction (Eq. 15):
/// `z_i = (W_i ⊙ W_i ⊙ g_i) / (‖W_i‖₂ · ‖g_i‖₂)` per parameter tensor,
/// with `W_i ⊙ W_i` the element-wise square.
///
/// The element-wise `W²` factor perturbs large-magnitude weights more
/// (adapting to each layer's weight distribution, §4.1) and is what makes
/// the paper's step sizes `h = 0.5 / 1.0` well-scaled: the resulting `z`
/// has norm well below ‖W‖.
///
/// Layers with a vanishing weight or gradient norm get a zero direction
/// (no perturbation) rather than a division by zero.
///
/// # Panics
///
/// Panics if the lists have different lengths (they always come from the
/// same canonical parameter order).
pub fn layer_scaled_direction(params: &[Tensor], grads: &[Tensor]) -> Vec<Tensor> {
    let mut out = Vec::with_capacity(params.len());
    layer_scaled_direction_into(params, grads, &mut out);
    out
}

/// In-place [`layer_scaled_direction`]: writes `z` into `out`, reusing its
/// buffers when the shapes already match so HERO's per-step direction
/// computation allocates nothing after warm-up.
///
/// # Panics
///
/// Panics if the lists have different lengths (they always come from the
/// same canonical parameter order).
pub fn layer_scaled_direction_into(params: &[Tensor], grads: &[Tensor], out: &mut Vec<Tensor>) {
    assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
    let reuse =
        out.len() == params.len() && out.iter().zip(params).all(|(o, p)| o.shape() == p.shape());
    if !reuse {
        out.clear();
        out.extend(params.iter().map(|p| Tensor::zeros(p.shape().clone())));
    }
    for ((w, g), z) in params.iter().zip(grads).zip(out.iter_mut()) {
        let gn = g.norm_l2();
        let wn = w.norm_l2();
        if gn <= f32::MIN_POSITIVE || wn <= f32::MIN_POSITIVE {
            z.data_mut().fill(0.0);
        } else {
            let inv = 1.0 / (wn * gn);
            for ((zd, &wd), &gd) in z.data_mut().iter_mut().zip(w.data()).zip(g.data()) {
                *zd = wd * wd * gd * inv;
            }
        }
    }
}

/// Evaluates the Hessian-norm probe ‖Hz‖₂ the paper plots in Fig. 2(a),
/// with `z` the layer-scaled gradient direction of Eq. 15.
///
/// Returns `(‖Hz‖₂, loss)` at `params`.
///
/// # Errors
///
/// Propagates oracle and shape errors.
pub fn hessian_norm_probe(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    eps: f32,
) -> Result<(f32, f32)> {
    let _obs = hero_obs::span("probe");
    let (loss, grads) = oracle.grad(params)?;
    let z = layer_scaled_direction(params, &grads);
    let hz = fd_hvp(oracle, params, &grads, &z, eps)?;
    Ok((global_norm_l2(&hz), loss))
}

/// Fills `t` with Rademacher (±1) entries drawn from `rng`.
fn fill_rademacher(t: &mut Tensor, rng: &mut impl Rng) {
    for v in t.data_mut() {
        *v = if rng.gen::<bool>() { 1.0 } else { -1.0 };
    }
}

/// The one Hutchinson probe loop behind [`hutchinson_trace`] and
/// [`layer_traces`]: row `i` holds probe `i`'s block samples
/// `z_ℓᵀ(Hz)_ℓ`, one per parameter tensor in canonical order.
///
/// Probe `i` is a single Rademacher vector `z` over every parameter,
/// filled tensor by tensor from the stream [`probe_seed`]`(seed, i)`, and
/// costs one HVP. The row sums left to right to the global sample `zᵀHz`
/// bit for bit (the same order [`hero_tensor::global_dot`] adds its
/// per-tensor dots).
fn block_samples(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    probes: usize,
    eps: f32,
    seed: u64,
) -> Result<Vec<Vec<f32>>> {
    if probes == 0 {
        return Err(TensorError::InvalidArgument(
            "Hutchinson trace estimation needs at least one probe".into(),
        ));
    }
    let (_, grads) = oracle.grad(params)?;
    let mut z: Vec<Tensor> = params
        .iter()
        .map(|p| Tensor::zeros(p.shape().clone()))
        .collect();
    let mut shifted = Vec::new();
    let mut hz = Vec::new();
    let mut rows = Vec::with_capacity(probes);
    for i in 0..probes {
        let mut rng = StdRng::seed_from_u64(probe_seed(seed, i));
        for t in &mut z {
            fill_rademacher(t, &mut rng);
        }
        fd_hvp_into(oracle, params, &grads, &z, eps, &mut shifted, &mut hz)?;
        rows.push(
            z.iter()
                .zip(&hz)
                .map(|(zl, hl)| zl.dot(hl))
                .collect::<Result<Vec<f32>>>()?,
        );
    }
    for t in shifted.drain(..).chain(hz.drain(..)) {
        pool::recycle_tensor(t);
    }
    Ok(rows)
}

/// Hutchinson estimate of the Hessian trace: `E_z[zᵀHz]` with Rademacher
/// probes. Costs one base gradient plus one gradient evaluation per probe.
///
/// Probes are drawn from independent streams derived from `seed` (probe
/// `i` uses [`probe_seed`]`(seed, i)`), so runs are reproducible and the
/// probe count can change without re-seeding the shared prefix. Each
/// sample is the sum of the block samples [`layer_traces`] averages for
/// the same `(probes, eps, seed)`. The returned [`Estimate`] carries the
/// per-probe standard error next to the mean.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for zero probes and
/// propagates oracle and shape errors.
pub fn hutchinson_trace(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    probes: usize,
    eps: f32,
    seed: u64,
) -> Result<Estimate> {
    let rows = block_samples(oracle, params, probes, eps, seed)?;
    let samples: Vec<f32> = rows.iter().map(|r| r.iter().sum()).collect();
    Ok(Estimate::from_samples(&samples))
}

/// Per-parameter-tensor Hutchinson traces from *shared* probes: each probe
/// is one Rademacher vector `z` over all parameters and one HVP, and block
/// `ℓ` reads its sample `z_ℓᵀ(Hz)_ℓ` from that single `Hz`. The sample
/// equals `z_ℓᵀH_ℓℓz_ℓ + Σ_{m≠ℓ} z_ℓᵀH_ℓm z_m`; the cross terms have zero
/// mean over independent signs, so every block estimate is an unbiased
/// `tr(H_ℓℓ)`, exact when the Hessian is diagonal (z² ≡ 1, no cross
/// terms). The blocks of one probe sum to its global sample `zᵀHz`, so
/// the estimates sum, up to the rounding of the means, to the
/// [`hutchinson_trace`] of the same seed.
///
/// Cost: one base gradient plus one gradient evaluation per probe,
/// independent of the tensor count. The price of sharing is cross-block
/// noise: a small tensor next to a large, strongly coupled one (a BN
/// γ/β or bias beside its conv) inherits its neighbour's spread. On six
/// trained VGG and ResNet models, `2·n_tensors` shared probes spread
/// 1.4–5.7× less than the per-tensor masked probes they replaced at the
/// same cost (2 per tensor); 8 shared probes, 9 gradient evaluations
/// instead of 33–59, spread less on four of the six and up to 1.5× more
/// on two (DESIGN.md §15).
///
/// This is the HeRo-Q quantization-sensitivity proxy the repo
/// cross-checks against the certified static `SensitivityMatrix`.
///
/// Returns one [`Estimate`] per parameter tensor, in canonical order.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for zero probes and
/// propagates oracle and shape errors.
pub fn layer_traces(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    probes: usize,
    eps: f32,
    seed: u64,
) -> Result<Vec<Estimate>> {
    let _obs = hero_obs::span("layer_traces");
    let rows = block_samples(oracle, params, probes, eps, seed)?;
    Ok((0..params.len())
        .map(|l| Estimate::from_samples(&rows.iter().map(|r| r[l]).collect::<Vec<_>>()))
        .collect())
}

/// Monte-Carlo estimate of the regularizer `L_r = E_z‖Hz‖²` of Eq. 13 with
/// Gaussian probes (the quantity HERO minimizes, equal to Σλᵢ²).
///
/// # Errors
///
/// Propagates oracle and shape errors.
pub fn eigen_sq_sum_estimate(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    probes: usize,
    eps: f32,
    rng: &mut impl Rng,
) -> Result<f32> {
    let (_, grads) = oracle.grad(params)?;
    let mut acc = 0.0;
    for _ in 0..probes {
        let z: Vec<Tensor> = params
            .iter()
            .map(|p| {
                let mut t = Tensor::zeros(p.shape().clone());
                fill_standard_normal(&mut t, rng);
                t
            })
            .collect();
        let hz = fd_hvp(oracle, params, &grads, &z, eps)?;
        acc += global_norm_l2(&hz).powi(2);
    }
    Ok(acc / probes.max(1) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadratic::Quadratic;
    use hero_tensor::rng::StdRng;

    #[test]
    fn layer_scaled_direction_matches_eq15() {
        let w = vec![Tensor::from_vec(vec![3.0, 4.0], [2]).unwrap()]; // ||w|| = 5
        let g = vec![Tensor::from_vec(vec![0.0, 2.0], [2]).unwrap()]; // ||g|| = 2
        let z = layer_scaled_direction(&w, &g);
        // z = (w^2 ⊙ g) / (||w|| ||g||) = [9*0, 16*2] / 10 = [0, 3.2]
        assert_eq!(z[0].data(), &[0.0, 3.2]);
    }

    #[test]
    fn direction_scales_quadratically_with_weight_magnitude() {
        // Doubling W quadruples W² but only doubles ||W||: z doubles.
        let w1 = vec![Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap()];
        let w2 = vec![w1[0].scale(2.0)];
        let g = vec![Tensor::from_vec(vec![1.0, 1.0], [2]).unwrap()];
        let z1 = layer_scaled_direction(&w1, &g);
        let z2 = layer_scaled_direction(&w2, &g);
        for (a, b) in z2[0].data().iter().zip(z1[0].data()) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_gradient_layer_gets_zero_direction() {
        let w = vec![Tensor::ones([2]), Tensor::ones([2])];
        let g = vec![Tensor::zeros([2]), Tensor::ones([2])];
        let z = layer_scaled_direction(&w, &g);
        assert_eq!(z[0].data(), &[0.0, 0.0]);
        assert!(z[1].norm_l2() > 0.0);
    }

    #[test]
    fn hessian_norm_probe_on_quadratic() {
        // H = diag(2, 2), x0 = (3,4): g = (6,8), ||w||·||g|| = 50,
        // z = (9·6, 16·8)/50 = (1.08, 2.56), Hz = (2.16, 5.12), ||Hz|| ≈ 5.557.
        let q = Quadratic::diag(&[2.0, 2.0]);
        let mut oracle = q.oracle();
        let params = vec![Tensor::from_vec(vec![3.0, 4.0], [2]).unwrap()];
        let (hn, loss) = hessian_norm_probe(&mut oracle, &params, 1e-3).unwrap();
        let expected = (2.16f32 * 2.16 + 5.12 * 5.12).sqrt();
        assert!(
            (hn - expected).abs() < 0.05,
            "‖Hz‖={hn}, expected {expected}"
        );
        assert!((loss - 25.0).abs() < 1e-4);
    }

    #[test]
    fn hutchinson_trace_of_diagonal() {
        // Rademacher probes square to 1, so zᵀHz = Σ Hₖₖ exactly for a
        // diagonal Hessian: every sample equals the trace.
        let q = Quadratic::diag(&[1.0, 2.0, 3.0]);
        let mut oracle = q.oracle();
        let params = vec![Tensor::zeros([3])];
        let tr = hutchinson_trace(&mut oracle, &params, 8, 1e-3, 5).unwrap();
        assert!((tr.mean - 6.0).abs() < 0.1, "trace={}", tr.mean);
        assert_eq!(tr.samples, 8);
        assert!(tr.std_error.is_finite() && tr.std_error < 0.1);
    }

    #[test]
    fn hutchinson_trace_is_seed_reproducible() {
        // Off-diagonal Hessian [[0,1],[1,0]]: zᵀHz = 2·z₀z₁ = ±2, so the
        // estimate genuinely depends on the probe signs (on a diagonal
        // Hessian every Rademacher probe is exact and seeds are invisible).
        let mut oracle = |ps: &[Tensor]| {
            let d = ps[0].data();
            Ok((d[0] * d[1], vec![Tensor::from_vec(vec![d[1], d[0]], [2])?]))
        };
        let params = vec![Tensor::zeros([2])];
        let a = hutchinson_trace(&mut oracle, &params, 3, 1e-3, 9).unwrap();
        let b = hutchinson_trace(&mut oracle, &params, 3, 1e-3, 9).unwrap();
        assert_eq!(a, b, "same seed must reproduce bitwise");
        let others: Vec<f32> = (0..16)
            .map(|s| {
                hutchinson_trace(&mut oracle, &params, 3, 1e-3, s)
                    .unwrap()
                    .mean
            })
            .collect();
        assert!(
            others.iter().any(|&m| m != a.mean),
            "seed changes never alter the estimate"
        );
    }

    #[test]
    fn hutchinson_trace_rejects_zero_probes() {
        let q = Quadratic::diag(&[1.0]);
        let params = vec![Tensor::zeros([1])];
        assert!(hutchinson_trace(&mut q.oracle(), &params, 0, 1e-3, 0).is_err());
    }

    #[test]
    fn layer_traces_of_block_diagonal() {
        // Two tensors over a diagonal Hessian: z² ≡ 1 and there are no
        // cross terms, so every probe's block sample is the block trace
        // itself and the spread is exactly zero.
        let q = Quadratic::diag(&[1.0, 2.0, 3.0, 4.0]);
        let mut oracle = q.oracle();
        let params = vec![Tensor::zeros([2]), Tensor::zeros([2])];
        let traces = layer_traces(&mut oracle, &params, 4, 1e-3, 7).unwrap();
        assert_eq!(traces.len(), 2);
        for (t, want) in traces.iter().zip([3.0f32, 7.0]) {
            assert!((t.mean - want).abs() < 1e-3, "{t:?} vs {want}");
            assert_eq!(t.std_error, 0.0, "{t:?}");
            assert_eq!(t.samples, 4);
        }
        let global = hutchinson_trace(&mut oracle, &params, 4, 1e-3, 7).unwrap();
        assert!((global.mean - 10.0).abs() < 1e-3, "{global:?}");
    }

    /// Symmetric 7×7 matrix read as tensors of 3 and 4 values; `within`
    /// scales the entries inside each diagonal block and `across` the
    /// entries coupling the two blocks.
    fn blocked_matrix(within: f32, across: f32) -> Vec<Vec<f64>> {
        let block = |i: usize| usize::from(i >= 3);
        (0..7)
            .map(|i| {
                (0..7)
                    .map(|j| {
                        let off = ((i * j + i + j) as f32 * 0.7).sin();
                        let v = if i == j {
                            1.0 + i as f32
                        } else if block(i) == block(j) {
                            within * off
                        } else {
                            across * off
                        };
                        f64::from(v)
                    })
                    .collect()
            })
            .collect()
    }

    /// Per-cell reference for probe `i` of `seed`: rebuilds the probe from
    /// its stream and returns, per block, the shared sample `z_ℓᵀ(Az)_ℓ`
    /// and the masked sample `z_ℓᵀA_ℓℓz_ℓ` (the per-tensor estimator this
    /// crate used to run, one HVP per block), both in f64.
    fn reference_cells(a: &[Vec<f64>], seed: u64, i: usize) -> Vec<(f64, f64)> {
        let mut z = vec![Tensor::zeros([3]), Tensor::zeros([4])];
        let mut rng = StdRng::seed_from_u64(probe_seed(seed, i));
        for t in &mut z {
            fill_rademacher(t, &mut rng);
        }
        let flat: Vec<f64> = z
            .iter()
            .flat_map(|t| t.data().iter().map(|&v| f64::from(v)))
            .collect();
        let ranges = [0..3, 3..7];
        ranges
            .iter()
            .map(|rl| {
                let (mut shared, mut masked) = (0.0, 0.0);
                for r in rl.clone() {
                    for (c, &zc) in flat.iter().enumerate() {
                        let term = flat[r] * a[r][c] * zc;
                        shared += term;
                        if rl.contains(&c) {
                            masked += term;
                        }
                    }
                }
                (shared, masked)
            })
            .collect()
    }

    fn quadratic_of(a: &[Vec<f64>]) -> Quadratic {
        let a = Tensor::from_fn([7, 7], |ix| a[ix[0]][ix[1]] as f32);
        Quadratic::new(a, Tensor::zeros([7])).unwrap()
    }

    #[test]
    fn block_samples_match_the_per_cell_reference() {
        // Dense and coupled: each block sample carries the cross terms
        // z_ℓᵀA_ℓm z_m, so it differs from the masked sample.
        let a = blocked_matrix(1.5, 3.0);
        let q = quadratic_of(&a);
        let params = vec![Tensor::zeros([3]), Tensor::zeros([4])];
        let rows = block_samples(&mut q.oracle(), &params, 6, 1e-3, 21).unwrap();
        let mut leaked = false;
        for (i, row) in rows.iter().enumerate() {
            for (&got, (shared, masked)) in row.iter().zip(reference_cells(&a, 21, i)) {
                assert!((f64::from(got) - shared).abs() < 1e-3, "{got} vs {shared}");
                leaked |= (shared - masked).abs() > 0.5;
            }
        }
        assert!(leaked, "the dense fixture never exercised a cross term");
    }

    #[test]
    fn block_diagonal_hessian_has_no_cross_block_noise() {
        // With A_ℓm = 0 for ℓ ≠ m, the shared sample of every probe equals
        // the masked one: sharing the probe costs nothing.
        let a = blocked_matrix(1.5, 0.0);
        let q = quadratic_of(&a);
        let params = vec![Tensor::zeros([3]), Tensor::zeros([4])];
        let rows = block_samples(&mut q.oracle(), &params, 6, 1e-3, 21).unwrap();
        for (i, row) in rows.iter().enumerate() {
            for (&got, (_, masked)) in row.iter().zip(reference_cells(&a, 21, i)) {
                assert!((f64::from(got) - masked).abs() < 1e-3, "{got} vs {masked}");
            }
        }
    }

    #[test]
    fn layer_traces_rejects_zero_probes() {
        let q = Quadratic::diag(&[1.0]);
        let params = vec![Tensor::zeros([1])];
        assert!(layer_traces(&mut q.oracle(), &params, 0, 1e-3, 0).is_err());
    }

    #[test]
    fn eigen_sq_sum_of_diagonal() {
        // sum λ² = 1 + 4 + 9 = 14.
        let q = Quadratic::diag(&[1.0, 2.0, 3.0]);
        let mut oracle = q.oracle();
        let params = vec![Tensor::zeros([3])];
        let est = eigen_sq_sum_estimate(
            &mut oracle,
            &params,
            256,
            1e-3,
            &mut StdRng::seed_from_u64(6),
        )
        .unwrap();
        assert!((est - 14.0).abs() < 3.0, "estimate={est}");
    }

    #[test]
    fn flatter_quadratic_has_smaller_probe() {
        // The probe must rank curvature correctly — this ordering is what
        // Fig. 2(a) relies on.
        let sharp = Quadratic::diag(&[10.0, 10.0]);
        let flat = Quadratic::diag(&[0.5, 0.5]);
        let params = vec![Tensor::from_vec(vec![1.0, 1.0], [2]).unwrap()];
        let (hn_sharp, _) = hessian_norm_probe(&mut sharp.oracle(), &params, 1e-3).unwrap();
        let (hn_flat, _) = hessian_norm_probe(&mut flat.oracle(), &params, 1e-3).unwrap();
        assert!(hn_sharp > hn_flat * 10.0);
    }
}
