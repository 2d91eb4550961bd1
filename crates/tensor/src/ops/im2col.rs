//! `im2col`/`col2im` lowering used to express convolution as matmul.

use crate::error::{Result, TensorError};
use crate::pool;
use crate::tensor::Tensor;
use std::borrow::Cow;

/// Geometry of a 2-D convolution window over an NCHW input.
///
/// # Examples
///
/// ```
/// use hero_tensor::ConvGeometry;
///
/// # fn main() -> Result<(), hero_tensor::TensorError> {
/// let g = ConvGeometry::new(8, 8, 3, 1, 1)?; // 8x8 input, 3x3 kernel, stride 1, pad 1
/// assert_eq!(g.out_hw(), (8, 8)); // "same" convolution
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding on every side.
    pub pad: usize,
}

impl ConvGeometry {
    /// Creates and validates a convolution geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] for a zero stride/kernel or
    /// a kernel larger than the padded input.
    pub fn new(in_h: usize, in_w: usize, kernel: usize, stride: usize, pad: usize) -> Result<Self> {
        if stride == 0 || kernel == 0 {
            return Err(TensorError::InvalidGeometry(
                "kernel and stride must be positive".into(),
            ));
        }
        if kernel > in_h + 2 * pad || kernel > in_w + 2 * pad {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {kernel} exceeds padded input {}x{}",
                in_h + 2 * pad,
                in_w + 2 * pad
            )));
        }
        Ok(ConvGeometry {
            in_h,
            in_w,
            kernel,
            stride,
            pad,
        })
    }

    /// Output spatial size `(out_h, out_w)`.
    pub fn out_hw(&self) -> (usize, usize) {
        let oh = (self.in_h + 2 * self.pad - self.kernel) / self.stride + 1;
        let ow = (self.in_w + 2 * self.pad - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Checks that `x` is a 4-D NCHW input of this geometry's spatial size
    /// and returns its `(n, c, h, w)`.
    fn check_input(&self, x: &Tensor) -> Result<(usize, usize, usize, usize)> {
        if x.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: x.rank(),
            });
        }
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        if h != self.in_h || w != self.in_w {
            return Err(TensorError::InvalidGeometry(format!(
                "geometry expects {}x{}, input is {h}x{w}",
                self.in_h, self.in_w
            )));
        }
        Ok((n, c, h, w))
    }

    /// The input an [`Im2colView`] reads: `x` zero-padded by `pad` on
    /// every side into a pool lease ([`Tensor::pad2d`]), or `x` itself
    /// when there is no padding. Patch element `(ky, kx)` of output site
    /// `(oy, ox)` then sits at `(oy·s + ky, ox·s + kx)` of the padded
    /// plane, with no bounds test.
    ///
    /// # Errors
    ///
    /// As [`Tensor::im2col`].
    pub(crate) fn padded_input<'a>(&self, x: &'a Tensor) -> Result<Cow<'a, Tensor>> {
        self.check_input(x)?;
        Ok(if self.pad == 0 {
            Cow::Borrowed(x)
        } else {
            Cow::Owned(x.pad2d(self.pad)?)
        })
    }
}

/// The plain-old-data description of an [`Im2colView`]: the padded input's
/// layout plus kernel and stride, with the output spatial size
/// precomputed.
///
/// Split out from the view so the parallel GEMM macro-kernel can ship it
/// across worker threads by value next to a raw data pointer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Im2colMeta {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c: usize,
    /// Padded input height.
    pub h: usize,
    /// Padded input width.
    pub w: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Output height.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
}

/// A zero-materialization view of `im2col(x)`: logically the
/// `(C·k·k, N·oh·ow)` patch matrix of [`Tensor::im2col`], but backed
/// directly by the NCHW input, so convolution never allocates the full
/// patch matrix.
///
/// The view reads the input already zero-padded to `(N, C, Hp, Wp)`
/// ([`ConvGeometry::padded_input`], once per fused product, before the
/// GEMM dispatches), so every patch element sits at
/// `xp[row_off + site_off]`: `row_off = ch·Hp·Wp + ky·Wp + kx` depends
/// only on the patch row and `site_off = img·C·Hp·Wp + oy·s·Wp + ox·s`
/// only on the output site. The GEMM packer gathers through two tables of
/// those offsets, built by [`OffsetWalk`]. Element values are identical
/// to the materialized lowering (padding reads as `0.0`), which keeps the
/// fused path bitwise equal to `im2col` + `matmul`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Im2colView<'a> {
    pub(crate) meta: Im2colMeta,
    pub(crate) data: &'a [f32],
}

/// An odometer over the three mixed-radix digits `(outer, mid, inner)` of
/// a patch-row or output-site index, yielding the element offset
/// `outer·s_outer + mid·s_mid + inner·s_inner` of each successive index.
///
/// Positioning costs two divisions; every step after that is an add and
/// a compare, so the GEMM packer builds its offset tables without
/// dividing inside its loops.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OffsetWalk {
    /// Radix of the middle digit.
    mid_radix: usize,
    /// Radix of the inner digit.
    inner_radix: usize,
    /// Offset strides of the `(outer, mid, inner)` digits.
    strides: [usize; 3],
    /// Current middle digit.
    mid: usize,
    /// Current inner digit.
    inner: usize,
    /// Offset contributed by the outer digit.
    outer_base: usize,
    /// Offset of the current index.
    offset: usize,
}

impl OffsetWalk {
    /// Positions a walk at `index` of the digit space
    /// `(·, mid_radix, inner_radix)`.
    fn new(index: usize, mid_radix: usize, inner_radix: usize, strides: [usize; 3]) -> Self {
        let (outer, rest) = (
            index / (mid_radix * inner_radix),
            index % (mid_radix * inner_radix),
        );
        let (mid, inner) = (rest / inner_radix, rest % inner_radix);
        let outer_base = outer * strides[0];
        OffsetWalk {
            mid_radix,
            inner_radix,
            strides,
            mid,
            inner,
            outer_base,
            offset: outer_base + mid * strides[1] + inner * strides[2],
        }
    }

    /// Returns the current offset and advances to the next index.
    #[inline]
    fn next_offset(&mut self) -> usize {
        let at = self.offset;
        self.inner += 1;
        if self.inner < self.inner_radix {
            self.offset += self.strides[2];
        } else {
            self.inner = 0;
            self.mid += 1;
            if self.mid == self.mid_radix {
                self.mid = 0;
                self.outer_base += self.strides[0];
            }
            self.offset = self.outer_base + self.mid * self.strides[1];
        }
        at
    }

    /// Fills `out` with the offsets of consecutive indices.
    #[inline]
    pub(crate) fn fill(&mut self, out: &mut [usize]) {
        for slot in out {
            *slot = self.next_offset();
        }
    }
}

impl Im2colMeta {
    /// Walks patch rows `(ch, ky, kx)` from `row`: offsets
    /// `ch·H·W + ky·W + kx` into the padded input.
    pub(crate) fn row_walk(&self, row: usize) -> OffsetWalk {
        let k = self.kernel;
        OffsetWalk::new(row, k, k, [self.h * self.w, self.w, 1])
    }

    /// Walks output sites `(img, oy, ox)` from `col`: offsets
    /// `img·C·H·W + oy·s·W + ox·s` into the padded input.
    pub(crate) fn site_walk(&self, col: usize) -> OffsetWalk {
        let s = self.stride;
        OffsetWalk::new(
            col,
            self.oh,
            self.ow,
            [self.c * self.h * self.w, s * self.w, s],
        )
    }
}

impl<'a> Im2colView<'a> {
    /// Builds a view over `xp`, the result of `geom.padded_input(x)`.
    pub(crate) fn new(xp: &'a Tensor, geom: &ConvGeometry) -> Self {
        let d = xp.dims();
        debug_assert_eq!(
            (d[2], d[3]),
            (geom.in_h + 2 * geom.pad, geom.in_w + 2 * geom.pad),
            "the view reads the padded input"
        );
        let (oh, ow) = geom.out_hw();
        Im2colView {
            meta: Im2colMeta {
                n: d[0],
                c: d[1],
                h: d[2],
                w: d[3],
                kernel: geom.kernel,
                stride: geom.stride,
                oh,
                ow,
            },
            data: xp.data(),
        }
    }

    /// Rows of the logical patch matrix: `C·k·k`.
    pub(crate) fn rows(&self) -> usize {
        self.meta.c * self.meta.kernel * self.meta.kernel
    }

    /// Columns of the logical patch matrix: `N·oh·ow`.
    pub(crate) fn cols(&self) -> usize {
        self.meta.n * self.meta.oh * self.meta.ow
    }

    /// Reads one patch-matrix element given decomposed indices, by
    /// coordinates in the padded input rather than offset tables.
    /// Test-only element oracle: `view_matches_materialized_im2col_bitwise`
    /// uses it to pin the per-element semantics the GEMM packer's gather
    /// must agree on.
    #[cfg(test)]
    pub(crate) fn sample(
        &self,
        img: usize,
        ch: usize,
        oy: usize,
        ox: usize,
        ky: usize,
        kx: usize,
    ) -> f32 {
        let m = &self.meta;
        let (y, x) = (oy * m.stride + ky, ox * m.stride + kx);
        self.data[((img * m.c + ch) * m.h + y) * m.w + x]
    }
}

impl Tensor {
    /// Lowers an NCHW input into column form for convolution-as-matmul.
    ///
    /// The result has shape `(C*k*k, N*out_h*out_w)`: each column is one
    /// receptive field. A weight matrix of shape `(out_c, C*k*k)` then
    /// produces the convolution output via [`Tensor::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the input is 4-D, or a
    /// geometry error if `geom` disagrees with the input's spatial size.
    pub fn im2col(&self, geom: &ConvGeometry) -> Result<Tensor> {
        let (n, c, h, w) = geom.check_input(self)?;
        let _obs = hero_obs::span("im2col");
        hero_obs::counters::IM2COL_CALLS.incr();
        let k = geom.kernel;
        let (oh, ow) = geom.out_hw();
        let rows = c * k * k;
        let cols = n * oh * ow;
        let mut out = pool::lease(rows * cols);
        // One (ch, ky, kx) kernel tap per output row: writes stream
        // sequentially through `out` while reads revisit the (smaller,
        // cache-resident) input. For stride 1 the in-bounds span of each
        // output row is one contiguous copy.
        let stride = geom.stride;
        let pad = geom.pad;
        for row in 0..rows {
            let (ch, ky, kx) = (row / (k * k), (row / k) % k, row % k);
            let out_row = &mut out[row * cols..][..cols];
            for in_ in 0..n {
                let img = &self.data()[(in_ * c + ch) * h * w..][..h * w];
                for oy in 0..oh {
                    let y = oy * stride + ky;
                    if y < pad || y >= h + pad {
                        continue; // leave zeros (padding)
                    }
                    let src_row = &img[(y - pad) * w..][..w];
                    let dst = &mut out_row[(in_ * oh + oy) * ow..][..ow];
                    if stride == 1 {
                        // x = ox + kx - pad must land in [0, w).
                        let ox0 = pad.saturating_sub(kx);
                        let ox1 = (w + pad).saturating_sub(kx).min(ow);
                        if ox0 < ox1 {
                            dst[ox0..ox1].copy_from_slice(&src_row[ox0 + kx - pad..ox1 + kx - pad]);
                        }
                    } else {
                        for (ox, slot) in dst.iter_mut().enumerate() {
                            let x = ox * stride + kx;
                            if x >= pad && x < w + pad {
                                *slot = src_row[x - pad];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out, [rows, cols])
    }

    /// Adjoint of [`Tensor::im2col`]: scatters column-form gradients back to
    /// an NCHW tensor of shape `(n, c, geom.in_h, geom.in_w)`, accumulating
    /// overlapping windows.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `self` is not `(c*k*k, n*out_h*out_w)`.
    pub fn col2im(&self, geom: &ConvGeometry, n: usize, c: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let k = geom.kernel;
        let (oh, ow) = geom.out_hw();
        let rows = c * k * k;
        let cols = n * oh * ow;
        if self.dims() != [rows, cols] {
            return Err(TensorError::ShapeMismatch {
                left: vec![rows, cols],
                right: self.dims().to_vec(),
            });
        }
        let _obs = hero_obs::span("col2im");
        hero_obs::counters::IM2COL_CALLS.incr();
        let (h, w) = (geom.in_h, geom.in_w);
        let mut out_vec = pool::lease(n * c * h * w);
        // Mirror of im2col's loop order: each (ch, ky, kx) row of the column
        // matrix is read sequentially and accumulated into the (smaller,
        // cache-resident) image.
        let stride = geom.stride;
        let pad = geom.pad;
        for row in 0..rows {
            let (ch, ky, kx) = (row / (k * k), (row / k) % k, row % k);
            let col_row = &self.data()[row * cols..][..cols];
            for in_ in 0..n {
                let img = &mut out_vec[(in_ * c + ch) * h * w..][..h * w];
                for oy in 0..oh {
                    let y = oy * stride + ky;
                    if y < pad || y >= h + pad {
                        continue;
                    }
                    let dst_row = &mut img[(y - pad) * w..][..w];
                    let src = &col_row[(in_ * oh + oy) * ow..][..ow];
                    if stride == 1 {
                        let ox0 = pad.saturating_sub(kx);
                        let ox1 = (w + pad).saturating_sub(kx).min(ow);
                        for ox in ox0..ox1 {
                            dst_row[ox + kx - pad] += src[ox];
                        }
                    } else {
                        for (ox, &v) in src.iter().enumerate() {
                            let x = ox * stride + kx;
                            if x >= pad && x < w + pad {
                                dst_row[x - pad] += v;
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out_vec, [n, c, h, w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_validates() {
        assert!(ConvGeometry::new(4, 4, 3, 1, 0).is_ok());
        assert!(ConvGeometry::new(4, 4, 0, 1, 0).is_err());
        assert!(ConvGeometry::new(4, 4, 3, 0, 0).is_err());
        assert!(ConvGeometry::new(2, 2, 5, 1, 1).is_err());
    }

    #[test]
    fn out_hw_matches_formula() {
        assert_eq!(ConvGeometry::new(8, 8, 3, 1, 1).unwrap().out_hw(), (8, 8));
        assert_eq!(ConvGeometry::new(8, 8, 3, 2, 1).unwrap().out_hw(), (4, 4));
        assert_eq!(ConvGeometry::new(5, 5, 3, 1, 0).unwrap().out_hw(), (3, 3));
        assert_eq!(ConvGeometry::new(4, 4, 1, 1, 0).unwrap().out_hw(), (4, 4));
    }

    #[test]
    fn im2col_1x1_kernel_is_reshape() {
        let t = Tensor::arange(2 * 2 * 2).reshape([1, 2, 2, 2]).unwrap();
        let geom = ConvGeometry::new(2, 2, 1, 1, 0).unwrap();
        let cols = t.im2col(&geom).unwrap();
        assert_eq!(cols.dims(), &[2, 4]);
        assert_eq!(cols.data(), t.data());
    }

    #[test]
    fn im2col_extracts_receptive_fields() {
        // 1x1x3x3 input, 2x2 kernel, stride 1, no pad -> 4 windows of 4 values.
        let t = Tensor::arange(9).reshape([1, 1, 3, 3]).unwrap();
        let geom = ConvGeometry::new(3, 3, 2, 1, 0).unwrap();
        let cols = t.im2col(&geom).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // First column: window at (0,0) = [0,1,3,4]
        let col0: Vec<f32> = (0..4).map(|r| cols.get(&[r, 0]).unwrap()).collect();
        assert_eq!(col0, vec![0.0, 1.0, 3.0, 4.0]);
        // Last column: window at (1,1) = [4,5,7,8]
        let col3: Vec<f32> = (0..4).map(|r| cols.get(&[r, 3]).unwrap()).collect();
        assert_eq!(col3, vec![4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_padding_produces_zero_border() {
        let t = Tensor::ones([1, 1, 2, 2]);
        let geom = ConvGeometry::new(2, 2, 3, 1, 1).unwrap();
        let cols = t.im2col(&geom).unwrap();
        assert_eq!(cols.dims(), &[9, 4]);
        // Window centered at (0,0): top-left entries fall in padding.
        assert_eq!(cols.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(cols.get(&[4, 0]).unwrap(), 1.0); // center hits the image
    }

    #[test]
    fn conv_via_matmul_matches_direct_convolution() {
        // 2-channel input, 3 output channels, 3x3 kernel, stride 1, pad 1.
        let x = Tensor::from_fn([2, 2, 4, 4], |i| {
            ((i[0] + 2 * i[1] + i[2] * 3 + i[3]) % 7) as f32
        });
        let wgt = Tensor::from_fn([3, 2 * 3 * 3], |i| ((i[0] * 5 + i[1]) % 5) as f32 - 2.0);
        let geom = ConvGeometry::new(4, 4, 3, 1, 1).unwrap();
        let cols = x.im2col(&geom).unwrap();
        let out = wgt.matmul(&cols).unwrap(); // (3, N*oh*ow)
        let (oh, ow) = geom.out_hw();
        // Direct reference at a few positions.
        for (n_i, oc, oy, ox) in [(0usize, 0usize, 0usize, 0usize), (1, 2, 3, 1), (0, 1, 2, 2)] {
            let mut acc = 0.0;
            for ic in 0..2 {
                for ky in 0..3 {
                    for kx in 0..3 {
                        let y = oy as isize + ky as isize - 1;
                        let xx = ox as isize + kx as isize - 1;
                        if !(0..4).contains(&y) || !(0..4).contains(&xx) {
                            continue;
                        }
                        let xv = x.get(&[n_i, ic, y as usize, xx as usize]).unwrap();
                        let wv = wgt.get(&[oc, (ic * 3 + ky) * 3 + kx]).unwrap();
                        acc += xv * wv;
                    }
                }
            }
            let col = (n_i * oh + oy) * ow + ox;
            assert!((out.get(&[oc, col]).unwrap() - acc).abs() < 1e-4);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> -- the defining adjoint property.
        let x = Tensor::from_fn([2, 3, 5, 5], |i| (i.iter().sum::<usize>() % 5) as f32 - 2.0);
        let geom = ConvGeometry::new(5, 5, 3, 2, 1).unwrap();
        let cols = x.im2col(&geom).unwrap();
        let y = Tensor::from_fn([cols.dims()[0], cols.dims()[1]], |i| {
            ((i[0] * 3 + i[1]) % 7) as f32 - 3.0
        });
        let lhs = cols.dot(&y).unwrap();
        let back = y.col2im(&geom, 2, 3).unwrap();
        let rhs = x.dot(&back).unwrap();
        assert!((lhs - rhs).abs() < 1e-2, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn view_matches_materialized_im2col_bitwise() {
        // Non-square input, so a swapped height/width shows.
        let x = Tensor::from_fn([2, 3, 5, 6], |i| (i.iter().sum::<usize>() % 5) as f32 - 2.0);
        for geom in [
            ConvGeometry::new(5, 6, 3, 1, 1).unwrap(),
            ConvGeometry::new(5, 6, 3, 2, 1).unwrap(),
            ConvGeometry::new(5, 6, 1, 1, 0).unwrap(),
            ConvGeometry::new(5, 6, 3, 2, 0).unwrap(),
            ConvGeometry::new(5, 6, 5, 1, 2).unwrap(),
        ] {
            let cols = x.im2col(&geom).unwrap();
            let xp = geom.padded_input(&x).unwrap();
            let view = Im2colView::new(&xp, &geom);
            assert_eq!(view.rows(), cols.dims()[0]);
            assert_eq!(view.cols(), cols.dims()[1]);
            // The packer's addressing: `row_off + site_off`, both offsets
            // from walks started at zero.
            let mut row_offs = vec![0; view.rows()];
            view.meta.row_walk(0).fill(&mut row_offs);
            let mut site_offs = vec![0; view.cols()];
            view.meta.site_walk(0).fill(&mut site_offs);
            let k = geom.kernel;
            let (oh, ow) = geom.out_hw();
            for (row, &ro) in row_offs.iter().enumerate() {
                let (ch, ky, kx) = (row / (k * k), (row / k) % k, row % k);
                for (col, &so) in site_offs.iter().enumerate() {
                    let (img, oy, ox) = (col / (oh * ow), (col / ow) % oh, col % ow);
                    let want = cols.get(&[row, col]).unwrap().to_bits();
                    assert_eq!(
                        view.sample(img, ch, oy, ox, ky, kx).to_bits(),
                        want,
                        "oracle row {row} col {col}"
                    );
                    assert_eq!(
                        view.data[ro + so].to_bits(),
                        want,
                        "tables row {row} col {col}"
                    );
                }
            }
            // A walk started mid-range continues the one from zero.
            for start in [1, ow, oh * ow + 1] {
                let mut tail = vec![0; view.cols() - start];
                view.meta.site_walk(start).fill(&mut tail);
                assert_eq!(tail, site_offs[start..]);
            }
        }
    }

    #[test]
    fn padded_input_validates_and_borrows_when_unpadded() {
        let x = Tensor::ones([1, 2, 4, 4]);
        let same = ConvGeometry::new(4, 4, 1, 1, 0).unwrap();
        assert!(matches!(same.padded_input(&x).unwrap(), Cow::Borrowed(_)));
        let padded = ConvGeometry::new(4, 4, 3, 1, 1).unwrap();
        assert_eq!(padded.padded_input(&x).unwrap().dims(), &[1, 2, 6, 6]);
        let wrong_size = ConvGeometry::new(5, 4, 3, 1, 1).unwrap();
        assert!(wrong_size.padded_input(&x).is_err());
        assert!(padded.padded_input(&Tensor::ones([2, 4, 4])).is_err());
    }

    #[test]
    fn col2im_validates_shape() {
        let geom = ConvGeometry::new(4, 4, 3, 1, 1).unwrap();
        assert!(Tensor::zeros([5, 5]).col2im(&geom, 1, 1).is_err());
        assert!(Tensor::zeros([9]).col2im(&geom, 1, 1).is_err());
    }
}
