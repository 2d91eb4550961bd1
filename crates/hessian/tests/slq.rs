//! Correctness suite for the spectrum observatory estimators: SLQ density
//! moments against exact diagonal spectra, per-layer trace consistency
//! and unbiasedness on coupled blocks, and degenerate-input behaviour of
//! the Lanczos layer.

use hero_hessian::{
    hutchinson_trace, lanczos_spectrum_from, layer_traces, slq_density, Quadratic, SlqConfig,
};
use hero_tensor::Tensor;

/// Exact spectrum {0.5, 1, 2, 4, 8, 16}: checks every density moment the
/// observatory reports against closed-form values.
#[test]
fn slq_moments_match_exact_eigenvalues() {
    let eigs = [0.5f32, 1.0, 2.0, 4.0, 8.0, 16.0];
    let q = Quadratic::diag(&eigs);
    let params = vec![Tensor::zeros([6])];
    let cfg = SlqConfig::default()
        .with_steps(6)
        .with_probes(24)
        .with_seed(3);
    let d = slq_density(&mut q.oracle(), &params, cfg).unwrap();

    let n = eigs.len() as f32;
    let exact_mean: f32 = eigs.iter().sum::<f32>() / n;
    let exact_second: f32 = eigs.iter().map(|l| l * l).sum::<f32>() / n;
    assert!(
        (d.lambda_max.mean - 16.0).abs() < 0.3,
        "λmax {} ± {}",
        d.lambda_max.mean,
        d.lambda_max.std_error
    );
    assert!((d.lambda_min.mean - 0.5).abs() < 0.3);
    assert!(
        (d.mean_eigenvalue.mean - exact_mean).abs() < 0.8,
        "tr/n {} vs {exact_mean}",
        d.mean_eigenvalue.mean
    );
    assert!(
        (d.second_moment.mean - exact_second).abs() < 0.2 * exact_second,
        "Σλ²/n {} vs {exact_second}",
        d.second_moment.mean
    );
    // Every estimate carries a finite standard error from 24 probes.
    for e in [
        d.lambda_max,
        d.lambda_min,
        d.mean_eigenvalue,
        d.second_moment,
    ] {
        assert_eq!(e.samples, 24);
        assert!(e.std_error.is_finite());
    }
    // The broadened grid is a normalized density.
    assert!((d.grid_moment(0) - 1.0).abs() < 0.05);
}

/// Dense 9×9 quadratic read as three tensors of 2, 3 and 4 values. The
/// diagonal is 1..=9, so the block traces are 3, 12 and 30; every
/// off-diagonal entry, inside a block or across blocks, has magnitude up
/// to `coupling`.
fn coupled_blocks(coupling: f32) -> (Quadratic, Vec<Tensor>, [f32; 3]) {
    let a = Tensor::from_fn([9, 9], |ix| {
        let (i, j) = (ix[0], ix[1]);
        if i == j {
            1.0 + i as f32
        } else {
            coupling * ((i * j + i + j) as f32 * 0.7).sin()
        }
    });
    let q = Quadratic::new(a, Tensor::zeros([9])).unwrap();
    let params = vec![Tensor::zeros([2]), Tensor::zeros([3]), Tensor::zeros([4])];
    (q, params, [3.0, 12.0, 30.0])
}

#[test]
fn layer_traces_sum_to_global_trace() {
    // Each probe is one shared Rademacher vector, so the block samples of
    // a probe sum to that probe's global sample zᵀHz bit for bit, cross
    // terms and all. A one-probe run per seed exposes the single sample.
    let (q, params, _) = coupled_blocks(3.0);
    let mut oracle = q.oracle();
    let mut distinct = Vec::new();
    for seed in 0..16 {
        let layers = layer_traces(&mut oracle, &params, 1, 1e-3, seed).unwrap();
        let global = hutchinson_trace(&mut oracle, &params, 1, 1e-3, seed).unwrap();
        let sum: f32 = layers.iter().map(|t| t.mean).sum();
        assert_eq!(sum.to_bits(), global.mean.to_bits(), "seed {seed}");
        distinct.push(global.mean.to_bits());
    }
    distinct.sort_unstable();
    distinct.dedup();
    assert!(distinct.len() > 4, "probes barely vary: {distinct:?}");

    // Over many probes the means agree up to the rounding of averaging.
    let layers = layer_traces(&mut oracle, &params, 32, 1e-3, 11).unwrap();
    let global = hutchinson_trace(&mut oracle, &params, 32, 1e-3, 11).unwrap();
    let total: f32 = layers.iter().map(|t| t.mean).sum();
    assert!(
        (total - global.mean).abs() < 1e-3 * global.mean.abs().max(1.0),
        "layer sum {total} vs global {}",
        global.mean
    );
}

#[test]
fn layer_traces_are_unbiased_on_coupled_blocks() {
    // Strong coupling (off-diagonal entries up to 4, against a diagonal
    // of 1..=9) puts large zero-mean cross terms into every block sample;
    // the block means must still land within 3 standard errors of
    // tr(H_ℓℓ).
    let (q, params, want) = coupled_blocks(4.0);
    let traces = layer_traces(&mut q.oracle(), &params, 4000, 1e-3, 5).unwrap();
    for (t, w) in traces.iter().zip(want) {
        assert_eq!(t.samples, 4000);
        assert!(t.std_error > 0.01, "cross terms left no spread: {t:?}");
        assert!(
            (t.mean - w).abs() < 3.0 * t.std_error,
            "{t:?} vs tr(H_ll) = {w}"
        );
    }
}

#[test]
fn lanczos_handles_repeated_eigenvalues() {
    // Spectrum {2, 2, 2, 5}: full reorthogonalization must not mint ghost
    // copies — the Krylov space has dimension 2, so iteration breaks down
    // early and reports exactly the two distinct eigenvalues.
    let q = Quadratic::diag(&[2.0, 2.0, 2.0, 5.0]);
    let params = vec![Tensor::zeros([4])];
    let v0 = vec![Tensor::from_vec(vec![0.5; 4], [4]).unwrap()];
    let res = lanczos_spectrum_from(&mut q.oracle(), &params, &v0, 4, 1e-3).unwrap();
    assert!(res.steps <= 2, "Krylov dim 2, ran {} steps", res.steps);
    assert!(
        (res.lambda_min() - 2.0).abs() < 0.05,
        "{}",
        res.lambda_min()
    );
    assert!(
        (res.lambda_max() - 5.0).abs() < 0.05,
        "{}",
        res.lambda_max()
    );
    assert!(res.ritz_values.iter().all(|v| v.is_finite()));
    let wsum: f32 = res.weights.iter().sum();
    assert!((wsum - 1.0).abs() < 1e-3);
}

#[test]
fn lanczos_steps_beyond_dimension_break_down_cleanly() {
    // k > dim: the Krylov space is exhausted after `dim` steps; the run
    // must stop early with finite Ritz values, not a NaN tridiagonal.
    let q = Quadratic::diag(&[1.0, 4.0, 9.0]);
    let params = vec![Tensor::zeros([3])];
    let v0 = vec![Tensor::from_vec(vec![1.0, 1.0, 1.0], [3]).unwrap()];
    let res = lanczos_spectrum_from(&mut q.oracle(), &params, &v0, 12, 1e-3).unwrap();
    assert!(res.steps <= 3, "dim 3, ran {} steps", res.steps);
    assert!(res.ritz_values.iter().all(|v| v.is_finite()));
    assert!((res.lambda_max() - 9.0).abs() < 0.1);
    assert!((res.lambda_min() - 1.0).abs() < 0.1);
}

#[test]
fn lanczos_zero_probe_is_a_clean_error() {
    let q = Quadratic::diag(&[1.0, 2.0]);
    let params = vec![Tensor::zeros([2])];
    let v0 = vec![Tensor::zeros([2])];
    let err = lanczos_spectrum_from(&mut q.oracle(), &params, &v0, 2, 1e-3).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("norm"), "unexpected error: {msg}");
}

#[test]
fn lanczos_non_finite_probe_is_a_clean_error() {
    let q = Quadratic::diag(&[1.0, 2.0]);
    let params = vec![Tensor::zeros([2])];
    let v0 = vec![Tensor::from_vec(vec![f32::NAN, 1.0], [2]).unwrap()];
    assert!(lanczos_spectrum_from(&mut q.oracle(), &params, &v0, 2, 1e-3).is_err());
}

#[test]
fn lanczos_nan_gradients_are_a_clean_error() {
    // An oracle that returns NaN gradients must surface as an error, not
    // as NaN Ritz values.
    let mut oracle = |ps: &[Tensor]| {
        Ok((
            f32::NAN,
            vec![Tensor::from_vec(
                vec![f32::NAN; ps[0].numel()],
                [ps[0].numel()],
            )?],
        ))
    };
    let params = vec![Tensor::zeros([2])];
    let v0 = vec![Tensor::from_vec(vec![1.0, 0.0], [2]).unwrap()];
    let err = lanczos_spectrum_from(&mut oracle, &params, &v0, 2, 1e-3).unwrap_err();
    assert!(format!("{err}").contains("non-finite"));
}
