//! NumPy-style broadcasting for binary operations.

use crate::error::Result;
use crate::pool;
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Combines two tensors element-wise under NumPy broadcasting rules.
    ///
    /// Trailing axes are aligned; an axis of size 1 stretches to match its
    /// counterpart. The output has the broadcast shape.
    ///
    /// The walk is run-collapsed: the trailing output axes on which each
    /// operand is either fully present (contiguous) or fully stretched
    /// (constant) merge into one inner run, evaluated as a tight slice loop
    /// (zip, operand⊙scalar, scalar⊙operand or fill); an odometer over the
    /// remaining outer axes advances once per run. Every output element is
    /// still `f(a, b)` on the same pair of inputs, written in row-major
    /// order, so the result is bitwise equal to per-element evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::BroadcastMismatch`] if the shapes are
    /// incompatible.
    ///
    /// # Examples
    ///
    /// ```
    /// use hero_tensor::Tensor;
    ///
    /// # fn main() -> Result<(), hero_tensor::TensorError> {
    /// let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
    /// let row = Tensor::from_vec(vec![10.0, 20.0], [2])?;
    /// let out = m.broadcast_op(&row, |a, b| a + b)?;
    /// assert_eq!(out.data(), &[11.0, 22.0, 13.0, 24.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn broadcast_op(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        // Fast path: identical shapes.
        if self.shape() == other.shape() {
            return self.zip(other, f);
        }
        let out_shape = self.shape().broadcast_with(other.shape())?;
        let numel = out_shape.numel();
        let mut out = pool::lease_raw(numel);
        if numel > 0 {
            let a_idx = BroadcastIndexer::new(self.shape(), &out_shape);
            let b_idx = BroadcastIndexer::new(other.shape(), &out_shape);
            let dims = out_shape.dims();
            let (k, run, [a_contig, b_contig]) = split_run(dims, [&a_idx.strides, &b_idx.strides]);
            let (a, b) = (self.data(), other.data());
            let outer = [&a_idx.strides[..k], &b_idx.strides[..k]];
            for_each_run(&dims[..k], outer, numel / run, |[ao, bo]| {
                match (a_contig, b_contig) {
                    (true, true) => out.extend(
                        a[ao..ao + run]
                            .iter()
                            .zip(&b[bo..bo + run])
                            .map(|(&x, &y)| f(x, y)),
                    ),
                    (true, false) => {
                        let y = b[bo];
                        out.extend(a[ao..ao + run].iter().map(|&x| f(x, y)));
                    }
                    (false, true) => {
                        let x = a[ao];
                        out.extend(b[bo..bo + run].iter().map(|&y| f(x, y)));
                    }
                    (false, false) => out.extend(std::iter::repeat_n(f(a[ao], b[bo]), run)),
                }
            });
        }
        Tensor::from_vec(out, out_shape)
    }

    /// Broadcast addition.
    ///
    /// # Errors
    ///
    /// See [`Tensor::broadcast_op`].
    pub fn badd(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_op(other, |a, b| a + b)
    }

    /// Broadcast subtraction.
    ///
    /// # Errors
    ///
    /// See [`Tensor::broadcast_op`].
    pub fn bsub(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_op(other, |a, b| a - b)
    }

    /// Broadcast multiplication.
    ///
    /// # Errors
    ///
    /// See [`Tensor::broadcast_op`].
    pub fn bmul(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_op(other, |a, b| a * b)
    }

    /// Broadcast division.
    ///
    /// # Errors
    ///
    /// See [`Tensor::broadcast_op`].
    pub fn bdiv(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_op(other, |a, b| a / b)
    }

    /// Reduces (sums) a broadcast-shaped gradient back down to `target`,
    /// the adjoint of broadcasting. Axes that were stretched from size 1
    /// are summed; leading axes that were added are summed away.
    ///
    /// Uses the same run-collapsed walk as [`Tensor::broadcast_op`]; each
    /// target element accumulates its source elements one by one in
    /// increasing source order, so the sums are bitwise equal to a
    /// per-element walk.
    ///
    /// # Errors
    ///
    /// Returns an error if `self`'s shape is not a valid broadcast of
    /// `target`.
    pub fn reduce_to_shape(&self, target: &Shape) -> Result<Tensor> {
        if self.shape() == target {
            return Ok(self.clone_pooled());
        }
        // Verify compatibility (target must broadcast to self's shape).
        let check = target.broadcast_with(self.shape())?;
        if &check != self.shape() {
            return Err(crate::TensorError::BroadcastMismatch {
                left: self.dims().to_vec(),
                right: target.dims().to_vec(),
            });
        }
        let mut out = pool::lease(target.numel());
        let numel = self.numel();
        if numel > 0 {
            let indexer = BroadcastIndexer::new(target, self.shape());
            let dims = self.dims();
            let (k, run, [contig]) = split_run(dims, [&indexer.strides]);
            let src = self.data();
            let mut flat = 0;
            for_each_run(&dims[..k], [&indexer.strides[..k]], numel / run, |[off]| {
                let chunk = &src[flat..flat + run];
                if contig {
                    for (o, &v) in out[off..off + run].iter_mut().zip(chunk) {
                        *o += v;
                    }
                } else {
                    out[off] = chunk.iter().fold(out[off], |acc, &v| acc + v);
                }
                flat += run;
            });
        }
        Tensor::from_vec(out, target.clone())
    }
}

/// Splits the axes of `dims` (a non-empty broadcast output) into outer axes
/// `..k` and an inner run over `k..` of `run` elements, along which every
/// operand (given by its per-axis `strides`, 0 where stretched) is either
/// contiguous or constant. Returns `(k, run, contiguous)`; size-1 axes join
/// any run.
fn split_run<const N: usize>(dims: &[usize], strides: [&[usize]; N]) -> (usize, usize, [bool; N]) {
    let mut kinds = [None; N];
    let mut run = 1;
    let mut k = dims.len();
    'axes: while k > 0 {
        let ax = k - 1;
        if dims[ax] != 1 {
            let mut next = kinds;
            for (kind, s) in next.iter_mut().zip(strides) {
                let contiguous = match s[ax] {
                    0 => false,
                    st if st == run => true,
                    _ => break 'axes,
                };
                if kind.is_some_and(|c| c != contiguous) {
                    break 'axes;
                }
                *kind = Some(contiguous);
            }
            kinds = next;
            run *= dims[ax];
        }
        k = ax;
    }
    // An operand left undecided has only size-1 axes in the run (run == 1).
    (k, run, kinds.map(|c| c.unwrap_or(true)))
}

/// Calls `body` `runs` times with each operand's offset at the start of an
/// inner run, advancing an odometer over the outer axes `dims` once per run
/// (offsets move incrementally by the per-axis `strides`).
fn for_each_run<const N: usize>(
    dims: &[usize],
    strides: [&[usize]; N],
    runs: usize,
    mut body: impl FnMut([usize; N]),
) {
    let mut idx = vec![0usize; dims.len()];
    let mut offs = [0usize; N];
    for _ in 0..runs {
        body(offs);
        for ax in (0..dims.len()).rev() {
            idx[ax] += 1;
            for (o, s) in offs.iter_mut().zip(strides) {
                *o += s[ax];
            }
            if idx[ax] < dims[ax] {
                break;
            }
            for (o, s) in offs.iter_mut().zip(strides) {
                *o -= dims[ax] * s[ax];
            }
            idx[ax] = 0;
        }
    }
}

/// Maps multi-indices in an output (broadcast) shape to flat offsets in a
/// smaller source shape.
struct BroadcastIndexer {
    /// Stride to apply per output axis (0 where the source axis is stretched
    /// or absent).
    strides: Vec<usize>,
}

impl BroadcastIndexer {
    fn new(src: &Shape, out: &Shape) -> Self {
        let src_strides = src.strides();
        let pad = out.rank() - src.rank();
        let mut strides = vec![0; out.rank()];
        for (i, &stride) in src_strides.iter().enumerate() {
            strides[i + pad] = if src.dims()[i] == 1 { 0 } else { stride };
        }
        BroadcastIndexer { strides }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_row_over_matrix() {
        let m = Tensor::arange(6).reshape([2, 3]).unwrap();
        let row = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3]).unwrap();
        let out = m.badd(&row).unwrap();
        assert_eq!(out.data(), &[10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
    }

    #[test]
    fn broadcast_column_over_matrix() {
        let m = Tensor::arange(6).reshape([2, 3]).unwrap();
        let col = Tensor::from_vec(vec![100.0, 200.0], [2, 1]).unwrap();
        let out = m.badd(&col).unwrap();
        assert_eq!(out.data(), &[100.0, 101.0, 102.0, 203.0, 204.0, 205.0]);
    }

    #[test]
    fn broadcast_scalar_tensor() {
        let m = Tensor::arange(4).reshape([2, 2]).unwrap();
        let s = Tensor::scalar(2.0);
        assert_eq!(m.bmul(&s).unwrap().data(), &[0.0, 2.0, 4.0, 6.0]);
        assert_eq!(m.bdiv(&s).unwrap().data(), &[0.0, 0.5, 1.0, 1.5]);
        assert_eq!(m.bsub(&s).unwrap().data(), &[-2.0, -1.0, 0.0, 1.0]);
    }

    #[test]
    fn incompatible_shapes_error() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 2]);
        assert!(a.badd(&b).is_err());
    }

    #[test]
    fn reduce_to_shape_sums_stretched_axes() {
        let g = Tensor::ones([2, 3]);
        let red = g.reduce_to_shape(&Shape::from([3])).unwrap();
        assert_eq!(red.data(), &[2.0, 2.0, 2.0]);
        let red = g.reduce_to_shape(&Shape::from([2, 1])).unwrap();
        assert_eq!(red.data(), &[3.0, 3.0]);
        let red = g.reduce_to_shape(&Shape::scalar()).unwrap();
        assert_eq!(red.item().unwrap(), 6.0);
    }

    #[test]
    fn reduce_to_shape_is_identity_when_equal() {
        let g = Tensor::arange(4).reshape([2, 2]).unwrap();
        assert_eq!(g.reduce_to_shape(g.shape()).unwrap(), g);
    }

    #[test]
    fn reduce_to_shape_rejects_incompatible() {
        let g = Tensor::ones([2, 3]);
        assert!(g.reduce_to_shape(&Shape::from([4])).is_err());
    }

    #[test]
    fn broadcast_then_reduce_is_adjoint() {
        // <broadcast(x), y> == <x, reduce(y)> for the sum-broadcast pair.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).unwrap();
        let y = Tensor::arange(6).reshape([2, 3]).unwrap();
        let broadcast_x = Tensor::zeros([2, 3]).badd(&x).unwrap();
        let lhs = broadcast_x.dot(&y).unwrap();
        let rhs = x.dot(&y.reduce_to_shape(x.shape()).unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-5);
    }
}
