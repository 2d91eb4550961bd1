//! Quadratic test objective with a known Hessian.
//!
//! `f(x) = ½ xᵀ A x + bᵀ x` has gradient `A x + b` and constant Hessian
//! `A`, making it the ground-truth fixture for validating every curvature
//! estimator in this crate and the optimizer behaviour in `hero-optim`.

use hero_tensor::{Result, Tensor, TensorError};

/// A quadratic objective `½ xᵀ A x + bᵀ x` over the parameters viewed as
/// one vector `x`.
#[derive(Debug, Clone)]
pub struct Quadratic {
    /// Symmetric matrix `A` of shape `(n, n)`.
    a: Tensor,
    /// Linear term `b` of shape `(n,)`.
    b: Tensor,
}

impl Quadratic {
    /// Creates a quadratic with the given symmetric matrix and linear term.
    ///
    /// # Errors
    ///
    /// Returns shape errors unless `a` is `(n, n)` and `b` is `(n,)`.
    pub fn new(a: Tensor, b: Tensor) -> Result<Self> {
        if a.rank() != 2 || a.dims()[0] != a.dims()[1] {
            return Err(TensorError::InvalidArgument(format!(
                "A must be square, got {:?}",
                a.dims()
            )));
        }
        if b.rank() != 1 || b.dims()[0] != a.dims()[0] {
            return Err(TensorError::ShapeMismatch {
                left: vec![a.dims()[0]],
                right: b.dims().to_vec(),
            });
        }
        Ok(Quadratic { a, b })
    }

    /// Diagonal quadratic with eigenvalues `diag` and no linear term.
    pub fn diag(diag: &[f32]) -> Self {
        let n = diag.len();
        let a = Tensor::from_fn([n, n], |i| if i[0] == i[1] { diag[i[0]] } else { 0.0 });
        Quadratic {
            a,
            b: Tensor::zeros([n]),
        }
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.b.numel()
    }

    /// The exact largest eigenvalue — only meaningful for diagonal `A`
    /// (returns the largest diagonal entry).
    pub fn max_diag(&self) -> f32 {
        let n = self.dim();
        (0..n)
            .map(|i| self.a.data()[i * n + i])
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Loss at `x`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` has the wrong dimension.
    pub fn loss(&self, x: &Tensor) -> Result<f32> {
        let ax = self.a.matvec(x)?;
        Ok(0.5 * x.dot(&ax)? + self.b.dot(x)?)
    }

    /// Gradient `A x + b` at `x`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` has the wrong dimension.
    pub fn grad(&self, x: &Tensor) -> Result<Tensor> {
        let mut g = self.a.matvec(x)?;
        g.axpy(1.0, &self.b)?;
        Ok(g)
    }

    /// A [`crate::GradOracle`] closure for this objective over a parameter
    /// list read as one concatenated vector in list order, so a list of
    /// tensors sees `A` as a matrix of blocks (`A_ℓm` couples tensors `ℓ`
    /// and `m`). The gradient comes back split into the tensors' shapes.
    ///
    /// The closure errors unless the tensors hold [`Quadratic::dim`]
    /// values in total.
    pub fn oracle(&self) -> impl FnMut(&[Tensor]) -> Result<(f32, Vec<Tensor>)> + '_ {
        move |params: &[Tensor]| {
            let flat: Vec<f32> = params
                .iter()
                .flat_map(|t| t.data().iter().copied())
                .collect();
            let x = Tensor::from_vec(flat, [self.dim()])?;
            let g = self.grad(&x)?;
            let mut rest = g.data();
            let mut grads = Vec::with_capacity(params.len());
            for p in params {
                let (head, tail) = rest.split_at(p.numel());
                grads.push(Tensor::from_vec(head.to_vec(), p.shape().clone())?);
                rest = tail;
            }
            Ok((self.loss(&x)?, grads))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_shapes() {
        assert!(Quadratic::new(Tensor::zeros([2, 3]), Tensor::zeros([2])).is_err());
        assert!(Quadratic::new(Tensor::zeros([2, 2]), Tensor::zeros([3])).is_err());
        assert!(Quadratic::new(Tensor::zeros([2, 2]), Tensor::zeros([2])).is_ok());
    }

    #[test]
    fn loss_and_grad_of_diagonal() {
        let q = Quadratic::diag(&[2.0, 8.0]);
        let x = Tensor::from_vec(vec![1.0, 0.5], [2]).unwrap();
        // loss = 0.5*(2*1 + 8*0.25) = 2.0
        assert!((q.loss(&x).unwrap() - 2.0).abs() < 1e-6);
        assert_eq!(q.grad(&x).unwrap().data(), &[2.0, 4.0]);
        assert_eq!(q.dim(), 2);
        assert_eq!(q.max_diag(), 8.0);
    }

    #[test]
    fn linear_term_shifts_gradient() {
        let q = Quadratic::new(
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]).unwrap(),
            Tensor::from_vec(vec![3.0, -1.0], [2]).unwrap(),
        )
        .unwrap();
        let g = q.grad(&Tensor::zeros([2])).unwrap();
        assert_eq!(g.data(), &[3.0, -1.0]);
    }

    #[test]
    fn oracle_evaluates() {
        let q = Quadratic::diag(&[1.0, 1.0]);
        let mut oracle = q.oracle();
        let (l, g) = oracle(&[Tensor::from_vec(vec![3.0, 4.0], [2]).unwrap()]).unwrap();
        assert!((l - 12.5).abs() < 1e-5);
        assert_eq!(g[0].data(), &[3.0, 4.0]);
        assert!(oracle(&[]).is_err());
    }

    #[test]
    fn oracle_splits_a_coupled_gradient_across_tensors() {
        // A = [[2,1,0],[1,3,1],[0,1,4]] over tensors of 1 and 2 values:
        // the off-diagonal entries couple the two tensors.
        let a = Tensor::from_vec(vec![2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 4.0], [3, 3]);
        let q = Quadratic::new(a.unwrap(), Tensor::zeros([3])).unwrap();
        let mut oracle = q.oracle();
        let params = [
            Tensor::from_vec(vec![1.0], [1]).unwrap(),
            Tensor::from_vec(vec![0.0, 2.0], [1, 2]).unwrap(),
        ];
        let (l, g) = oracle(&params).unwrap();
        // Ax = (2, 3, 8); loss = ½·(2 + 16) = 9.
        assert!((l - 9.0).abs() < 1e-5);
        assert_eq!(g[0].data(), &[2.0]);
        assert_eq!(g[1].data(), &[3.0, 8.0]);
        assert_eq!(g[1].dims(), &[1, 2]);
        assert!(oracle(&params[..1]).is_err(), "too few values");
    }
}
