//! # hero-hessian
//!
//! Curvature analysis for the HERO (DAC 2022) reproduction: the
//! finite-difference Hessian-vector product that powers HERO's regularizer
//! gradient, power iteration for λ_max, the paper's ‖Hz‖ probe (Fig. 2a),
//! Hutchinson trace estimation (global and per-layer), stochastic Lanczos
//! quadrature for the eigenvalue density, and the computable Theorem 3
//! robustness bounds.
//!
//! Everything works through the [`GradOracle`] trait — any closure mapping
//! parameters to `(loss, gradients)` — so the tools apply equally to test
//! quadratics ([`Quadratic`]) and real networks. Stochastic estimators
//! take explicit seeds and return [`Estimate`]s (mean ± standard error),
//! so every spectrum artifact is reproducible and confidence-annotated.
//!
//! # Examples
//!
//! ```
//! use hero_hessian::{power_iteration, PowerIterConfig, Quadratic};
//! use hero_tensor::Tensor;
//!
//! # fn main() -> Result<(), hero_tensor::TensorError> {
//! let q = Quadratic::diag(&[1.0, 7.0]);
//! let mut oracle = q.oracle();
//! let params = vec![Tensor::zeros([2])];
//! let cfg = PowerIterConfig::default().with_seed(0).with_restarts(2);
//! let res = power_iteration(&mut oracle, &params, cfg)?;
//! assert!((res.lambda() - 7.0).abs() < 0.2);
//! assert!(res.eigenvalue.std_error.is_finite());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod bounds;
mod hvp;
mod lanczos;
mod norm;
mod power;
mod quadratic;
mod slq;
mod stats;

pub use bounds::BoundInputs;
pub use hvp::{fd_hvp, fd_hvp_into, perturbed, perturbed_into, GradOracle};
pub use lanczos::{lanczos_spectrum, lanczos_spectrum_from, LanczosResult};
pub use norm::{
    eigen_sq_sum_estimate, hessian_norm_probe, hutchinson_trace, layer_scaled_direction,
    layer_scaled_direction_into, layer_traces, layer_traces_at,
};
pub use power::{power_iteration, PowerIterConfig, PowerIterResult};
pub use quadratic::Quadratic;
pub use slq::{slq_density, slq_density_at, SlqConfig, SlqDensity};
pub use stats::{probe_seed, spearman_rank, spearman_rank_checked, Estimate};
