//! Packed register-blocked GEMM: explicit-SIMD micro-kernels, a multicore
//! macro-kernel, and fused im2col packing.
//!
//! All matmul variants (`A·B`, `Aᵀ·B`, `A·Bᵀ`, and the fused
//! convolution products over an [`Im2colView`]) route through one
//! [`gemm`] entry point that handles transposition and patch extraction
//! during packing, so the inner loop is always the same branch-free
//! MR×NR micro-kernel over contiguous panels:
//!
//! * **Packing** — for each KC-deep slice of the reduction dimension, a
//!   block of A is repacked into MR-row strips (`strip·kc·MR + kk·MR + r`)
//!   and a block of B into NR-column strips (`strip·kc·NR + kk·NR + j`),
//!   both zero-padded to full strip width. The B source is either a plain
//!   row-major matrix or an [`Im2colView`], in which case patch elements
//!   are gathered straight out of the NCHW input (padded once per call,
//!   then read through two offset tables) — convolution never
//!   materializes the `(C·k·k, N·oh·ow)` patch matrix.
//! * **Micro-kernels** — two variants behind runtime feature detection
//!   ([`GemmKernel`]): a portable scalar 4×8 kernel (auto-vectorized,
//!   k-loop unrolled 4×, plain mul+add so its sums are bitwise identical
//!   to [`crate::matmul_reference`]'s ascending-k order), and an AVX2/FMA
//!   6×16 kernel holding twelve `f32x8` accumulators in the ymm register
//!   file. The FMA kernel fuses each multiply-add rounding step, so it is
//!   *not* bitwise identical to the scalar kernel — see the tolerance
//!   contract in `crates/tensor/tests/gemm_kernels.rs`.
//! * **Blocking** — loops are ordered jc → pc → ic → jr → ir with cache
//!   blocks NC/KC/MC, so the B panel stays in L2/L3 across the ic loop and
//!   each A strip stays in L1 across the jr loop (the BLIS / GotoBLAS
//!   loop nest).
//! * **Multicore** — when `HERO_THREADS ≥ 2` (or [`set_gemm_threads`])
//!   and the product is large enough, the jc loop is partitioned into
//!   contiguous NR-aligned column chunks scattered over a process-wide
//!   [`WorkerPool`]. Each worker runs the full serial loop nest over its
//!   own chunk with pack buffers leased from its *own* thread-local
//!   [`crate::pool`], and owns a disjoint set of C columns, so there is
//!   no shared mutable packing state and the per-element summation order
//!   is exactly the serial order: parallel output is bitwise identical to
//!   serial output for any thread count.
//!
//! Pack buffers are leased from the thread-local [`crate::pool`], so a
//! steady-state training step performs no fresh pack allocations — on the
//! calling thread and on every GEMM worker alike.

use crate::ops::im2col::{Im2colMeta, Im2colView, OffsetWalk};
use crate::pool;
use crate::workers::{Job, WorkerPool};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock, PoisonError};

/// Scalar micro-kernel rows: C rows accumulated per inner call.
pub(crate) const MR: usize = 4;
/// Scalar micro-kernel columns: C columns accumulated per inner call.
pub(crate) const NR: usize = 8;
/// Reduction-dimension cache block (sizes the packed panels).
const KC: usize = 256;
/// Row cache block for the scalar kernel — a multiple of `MR`.
const MC: usize = 128;
/// Column cache block for the scalar kernel — a multiple of `NR`.
const NC: usize = 512;

/// AVX2 micro-kernel rows: six broadcast lanes fill the ymm file
/// (6 rows × 2 column registers = 12 accumulators + 1 broadcast + 2 B
/// loads = 15 of 16 registers).
const SIMD_MR: usize = 6;
/// AVX2 micro-kernel columns: two `f32x8` lanes.
const SIMD_NR: usize = 16;
/// Row cache block for the AVX2 kernel — a multiple of `SIMD_MR`.
const SIMD_MC: usize = 126;
/// Column cache block for the AVX2 kernel — a multiple of `SIMD_NR`.
const SIMD_NC: usize = 512;

/// Minimum `2·m·n·k` flop count before [`gemm`] considers fanning the jc
/// loop out to the worker pool; below this the scatter/join round trip
/// costs more than the arithmetic saves.
const PAR_MIN_FLOPS: u64 = 4 << 20;

/// Which micro-kernel the GEMM dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmKernel {
    /// Portable 4×8 kernel: plain mul+add, auto-vectorized. Bitwise
    /// identical to [`crate::matmul_reference`] for the same operands.
    Scalar,
    /// x86-64 6×16 kernel built on `_mm256_fmadd_ps`; requires AVX2+FMA
    /// at runtime. Fused rounding makes it differ from `Scalar` by a few
    /// ULP per dot product.
    Avx2Fma,
}

impl GemmKernel {
    /// Stable identifier used in bench rows and span names.
    pub fn name(self) -> &'static str {
        match self {
            GemmKernel::Scalar => "scalar",
            GemmKernel::Avx2Fma => "avx2fma",
        }
    }

    /// Span name: the kernel variant is an attribute of every GEMM trace
    /// event, expressed as distinct span names since spans carry none.
    fn span_name(self) -> &'static str {
        match self {
            GemmKernel::Scalar => "gemm",
            GemmKernel::Avx2Fma => "gemm_simd",
        }
    }

    fn mr(self) -> usize {
        match self {
            GemmKernel::Scalar => MR,
            GemmKernel::Avx2Fma => SIMD_MR,
        }
    }

    fn nr(self) -> usize {
        match self {
            GemmKernel::Scalar => NR,
            GemmKernel::Avx2Fma => SIMD_NR,
        }
    }

    fn mc(self) -> usize {
        match self {
            GemmKernel::Scalar => MC,
            GemmKernel::Avx2Fma => SIMD_MC,
        }
    }

    fn nc(self) -> usize {
        match self {
            GemmKernel::Scalar => NC,
            GemmKernel::Avx2Fma => SIMD_NC,
        }
    }
}

/// True when this CPU can run the AVX2/FMA micro-kernel.
fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Kernel chosen by runtime detection, honoring the `HERO_NO_SIMD`
/// escape hatch (any value other than `0`/empty disables SIMD for the
/// process — the env var is read once).
fn detected_kernel() -> GemmKernel {
    static DETECTED: OnceLock<GemmKernel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let disabled = std::env::var("HERO_NO_SIMD").is_ok_and(|v| !v.is_empty() && v != "0");
        if !disabled && simd_supported() {
            GemmKernel::Avx2Fma
        } else {
            GemmKernel::Scalar
        }
    })
}

/// `0` = auto-detect, `1` = force scalar, `2` = force AVX2.
static FORCED_KERNEL: AtomicU8 = AtomicU8::new(0);

/// Overrides runtime kernel detection process-wide (`None` restores
/// auto-detection). Forcing [`GemmKernel::Avx2Fma`] on hardware without
/// AVX2+FMA silently falls back to scalar rather than faulting, so tests
/// and benches can request both variants unconditionally.
pub fn force_gemm_kernel(kernel: Option<GemmKernel>) {
    let v = match kernel {
        None => 0,
        Some(GemmKernel::Scalar) => 1,
        Some(GemmKernel::Avx2Fma) => 2,
    };
    FORCED_KERNEL.store(v, Ordering::Relaxed);
}

/// The micro-kernel the next [`gemm`] call will dispatch to, after the
/// force override, `HERO_NO_SIMD`, and CPU detection are applied.
pub fn active_gemm_kernel() -> GemmKernel {
    match FORCED_KERNEL.load(Ordering::Relaxed) {
        1 => GemmKernel::Scalar,
        2 if simd_supported() => GemmKernel::Avx2Fma,
        2 => GemmKernel::Scalar,
        _ => detected_kernel(),
    }
}

/// Worker-count override; `usize::MAX` means "use `HERO_THREADS`".
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Overrides the GEMM worker count process-wide (`None` restores the
/// `HERO_THREADS` environment value). `0` or `1` keeps the macro-kernel
/// serial. The parallel output is bitwise identical to serial, so this
/// only moves work between threads — it never changes results.
pub fn set_gemm_threads(threads: Option<usize>) {
    THREADS_OVERRIDE.store(threads.unwrap_or(usize::MAX), Ordering::Relaxed);
}

/// Effective GEMM worker count (override, else `HERO_THREADS`, read once).
fn gemm_threads() -> usize {
    let o = THREADS_OVERRIDE.load(Ordering::Relaxed);
    if o != usize::MAX {
        return o;
    }
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("HERO_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    })
}

/// The B operand of a [`gemm`] call: either a plain row-major matrix or a
/// virtual im2col patch matrix gathered during packing (the fused path —
/// the full patch matrix never exists in memory).
#[derive(Debug, Clone, Copy)]
pub(crate) enum BSrc<'a> {
    /// A stored `k × n` matrix (`n × k` when `trans`).
    Mat {
        /// Row-major elements.
        data: &'a [f32],
        /// Read the stored matrix as Bᵀ.
        trans: bool,
    },
    /// The virtual patch matrix of an NCHW input: `(C·k·k, N·oh·ow)`
    /// (transposed when `trans`, for the dW = dY·colsᵀ product).
    Cols {
        /// The input-backed view.
        view: Im2colView<'a>,
        /// Read the view as colsᵀ.
        trans: bool,
    },
}

impl BSrc<'_> {
    /// Debug-validates the logical `k × n` shape of this source.
    fn debug_check(&self, k: usize, n: usize) {
        match self {
            BSrc::Mat { data, .. } => debug_assert_eq!(data.len(), k * n),
            BSrc::Cols { view, trans } => {
                let (rows, cols) = if *trans {
                    (view.cols(), view.rows())
                } else {
                    (view.rows(), view.cols())
                };
                debug_assert_eq!((rows, cols), (k, n));
            }
        }
    }
}

#[inline]
fn round_up(v: usize, to: usize) -> usize {
    v.div_ceil(to) * to
}

/// Packs the `mc × kc` block of A at `(ic, pc)` into `mr`-row strips.
///
/// `lda` is the leading dimension of the stored matrix (`k` for row-major
/// A, `m` when `trans` reads the stored `k × m` matrix as Aᵀ). The final
/// partial strip is zero-padded so the micro-kernel never needs a row
/// bounds check.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    dst: &mut [f32],
    a: &[f32],
    trans: bool,
    lda: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    mr: usize,
) {
    let strips = mc.div_ceil(mr);
    for s in 0..strips {
        let base = s * kc * mr;
        let rows = mr.min(mc - s * mr);
        for kk in 0..kc {
            let at = base + kk * mr;
            for r in 0..rows {
                let (gi, gk) = (ic + s * mr + r, pc + kk);
                dst[at + r] = if trans {
                    a[gk * lda + gi]
                } else {
                    a[gi * lda + gk]
                };
            }
            for r in rows..mr {
                dst[at + r] = 0.0;
            }
        }
    }
}

/// Packs the `kc × nc` block of B at `(pc, jc)` into `nr`-column strips,
/// dispatching on the B source. The final partial strip is zero-padded.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    dst: &mut [f32],
    b: &BSrc<'_>,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    nr: usize,
) {
    match b {
        BSrc::Mat { data, trans } => {
            let ldb = if *trans { k } else { n };
            pack_b_mat(dst, data, *trans, ldb, pc, kc, jc, nc, nr);
        }
        BSrc::Cols { view, trans } => pack_b_cols(dst, view, *trans, pc, kc, jc, nc, nr),
    }
}

/// Plain-matrix B packing (`ldb` is `n` row-major, `k` when transposed).
#[allow(clippy::too_many_arguments)]
fn pack_b_mat(
    dst: &mut [f32],
    b: &[f32],
    trans: bool,
    ldb: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    nr: usize,
) {
    let strips = nc.div_ceil(nr);
    for s in 0..strips {
        let base = s * kc * nr;
        let cols = nr.min(nc - s * nr);
        for kk in 0..kc {
            let at = base + kk * nr;
            let gk = pc + kk;
            for j in 0..cols {
                let gj = jc + s * nr + j;
                dst[at + j] = if trans {
                    b[gj * ldb + gk]
                } else {
                    b[gk * ldb + gj]
                };
            }
            for j in cols..nr {
                dst[at + j] = 0.0;
            }
        }
    }
}

/// Fused im2col B packing: gathers patch elements straight from the
/// padded NCHW input the view reads while building the NR-column strips,
/// so convolution never writes the patch matrix.
///
/// Element `(kk, j)` of the block sits at `xp[kofs[kk] + jofs[j]]`: one
/// offset table walks the k dimension, the other the strip's columns. In
/// the forward orientation (`cols`) k walks patch rows `(ch, ky, kx)` and
/// columns walk output sites `(img, oy, ox)`; the dW orientation
/// (`colsᵀ`) swaps the two walks and nothing else.
#[allow(clippy::too_many_arguments)]
fn pack_b_cols(
    dst: &mut [f32],
    view: &Im2colView<'_>,
    trans: bool,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    nr: usize,
) {
    debug_assert!(kc <= KC);
    let m = &view.meta;
    let (mut k_walk, n_walk) = if trans {
        (m.site_walk(pc), m.row_walk(jc))
    } else {
        (m.row_walk(pc), m.site_walk(jc))
    };
    let mut kofs = [0usize; KC];
    k_walk.fill(&mut kofs[..kc]);
    match nr {
        NR => gather_strips::<NR>(dst, view.data, &kofs[..kc], n_walk, nc),
        SIMD_NR => gather_strips::<SIMD_NR>(dst, view.data, &kofs[..kc], n_walk, nc),
        _ => unreachable!("no micro-kernel is {nr} columns wide"),
    }
}

/// Writes `dst[s·kc·W + kk·W + j] = xp[kofs[kk] + jofs[j]]` for every
/// `W`-column strip `s` of an `nc`-column block, taking each strip's
/// `jofs` from `n_walk`, and zero-fills the columns past `nc` in the last
/// strip. `W` is a constant so the full-strip row loop unrolls.
fn gather_strips<const W: usize>(
    dst: &mut [f32],
    xp: &[f32],
    kofs: &[usize],
    mut n_walk: OffsetWalk,
    nc: usize,
) {
    let kc = kofs.len();
    let kmax = kofs.iter().copied().max().unwrap_or(0);
    for (s, strip) in dst.chunks_exact_mut(kc * W).enumerate() {
        let cols = W.min(nc - s * W);
        let mut jofs = [0usize; W];
        n_walk.fill(&mut jofs[..cols]);
        let jmax = jofs[..cols].iter().copied().max().unwrap_or(0);
        // The one bounds check of the strip: every gathered index is
        // `kofs[kk] + jofs[j] ≤ kmax + jmax`.
        assert!(kmax + jmax < xp.len(), "im2col gather out of bounds");
        if cols == W {
            for (row, &ko) in strip.chunks_exact_mut(W).zip(kofs) {
                for j in 0..W {
                    // SAFETY: `ko ≤ kmax` and `jofs[j] ≤ jmax`, and the
                    // strip's assert above checked `kmax + jmax < xp.len()`.
                    row[j] = unsafe { *xp.get_unchecked(ko + jofs[j]) };
                }
            }
        } else {
            for (row, &ko) in strip.chunks_exact_mut(W).zip(kofs) {
                for (slot, &jo) in row.iter_mut().zip(&jofs[..cols]) {
                    *slot = xp[ko + jo];
                }
                row[cols..].fill(0.0);
            }
        }
    }
}

/// The scalar MR×NR register-blocked inner kernel: accumulates
/// `Ap · Bp` over `kc` packed k-steps (unrolled 4×) and adds the valid
/// `mr × nr` corner into C. Plain mul+add in ascending-k order — the
/// summation order [`crate::matmul_reference`] uses — so scalar GEMM is
/// bitwise identical to the reference kernel.
///
/// # Safety
///
/// `c` must be valid for reads and writes at `r * ldc + j` for every
/// `r < mr`, `j < nr`.
unsafe fn micro_kernel_scalar(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: *mut f32,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    accumulate_scalar(kc, ap, bp, &mut acc);
    for (r, acc_row) in acc.iter().enumerate().take(mr) {
        for (j, &v) in acc_row.iter().enumerate().take(nr) {
            *c.add(r * ldc + j) += v;
        }
    }
}

/// The accumulate loop of the scalar kernel, split out as a safe
/// slice-only function: with `&mut acc` the sole mutable reference LLVM
/// promotes the whole 4×8 tile to SSE registers and vectorizes each row
/// update — folding it into the pointer-writeback caller demonstrably
/// regresses codegen to shuffle-and-spill (~3× slower).
#[inline(never)]
fn accumulate_scalar(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    let mut kk = 0;
    while kk + 4 <= kc {
        for u in 0..4 {
            let a = &ap[(kk + u) * MR..(kk + u) * MR + MR];
            let b = &bp[(kk + u) * NR..(kk + u) * NR + NR];
            for r in 0..MR {
                let ar = a[r];
                for j in 0..NR {
                    acc[r][j] += ar * b[j];
                }
            }
        }
        kk += 4;
    }
    while kk < kc {
        let a = &ap[kk * MR..kk * MR + MR];
        let b = &bp[kk * NR..kk * NR + NR];
        for r in 0..MR {
            let ar = a[r];
            for j in 0..NR {
                acc[r][j] += ar * b[j];
            }
        }
        kk += 1;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2/FMA 6×16 micro-kernel. Each packed k-step loads two
    //! `f32x8` B registers, broadcasts each of the six A lanes, and issues
    //! twelve `vfmadd231ps` — 192 flops per iteration from 15 of the 16
    //! ymm registers. Full tiles stream through `loadu`/`add`/`storeu`;
    //! partial edge tiles spill the accumulators to a stack tile and add
    //! element-wise, which rounds identically (`vaddps` lane add ≡ scalar
    //! `+`), so edge handling never changes results.

    use super::{SIMD_MR, SIMD_NR};
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA. `ap` must hold at least
    /// `kc * SIMD_MR` packed elements and `bp` at least `kc * SIMD_NR`.
    /// `c` must be valid for reads and writes at `r * ldc + j` for every
    /// `r < mr`, `j < nr` — and, when `mr == SIMD_MR && nr == SIMD_NR`,
    /// for the full contiguous 16-wide rows the vector stores touch.
    #[allow(clippy::missing_safety_doc)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn micro_kernel(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        c: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        debug_assert!(ap.len() >= kc * SIMD_MR);
        debug_assert!(bp.len() >= kc * SIMD_NR);
        let mut acc = [[_mm256_setzero_ps(); 2]; SIMD_MR];
        let mut a = ap.as_ptr();
        let mut b = bp.as_ptr();
        // k unrolled 2×: halves the loop overhead without touching the
        // per-accumulator FMA chain, so results are identical to the
        // rolled loop (each acc register still sees the same ascending-k
        // sequence of fused multiply-adds).
        for _ in 0..kc / 2 {
            let b0 = _mm256_loadu_ps(b);
            let b1 = _mm256_loadu_ps(b.add(8));
            for (r, lanes) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*a.add(r));
                lanes[0] = _mm256_fmadd_ps(av, b0, lanes[0]);
                lanes[1] = _mm256_fmadd_ps(av, b1, lanes[1]);
            }
            let b2 = _mm256_loadu_ps(b.add(SIMD_NR));
            let b3 = _mm256_loadu_ps(b.add(SIMD_NR + 8));
            for (r, lanes) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*a.add(SIMD_MR + r));
                lanes[0] = _mm256_fmadd_ps(av, b2, lanes[0]);
                lanes[1] = _mm256_fmadd_ps(av, b3, lanes[1]);
            }
            a = a.add(2 * SIMD_MR);
            b = b.add(2 * SIMD_NR);
        }
        if kc % 2 == 1 {
            let b0 = _mm256_loadu_ps(b);
            let b1 = _mm256_loadu_ps(b.add(8));
            for (r, lanes) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*a.add(r));
                lanes[0] = _mm256_fmadd_ps(av, b0, lanes[0]);
                lanes[1] = _mm256_fmadd_ps(av, b1, lanes[1]);
            }
        }
        if mr == SIMD_MR && nr == SIMD_NR {
            for (r, lanes) in acc.iter().enumerate() {
                let crow = c.add(r * ldc);
                _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), lanes[0]));
                let chigh = crow.add(8);
                _mm256_storeu_ps(chigh, _mm256_add_ps(_mm256_loadu_ps(chigh), lanes[1]));
            }
        } else {
            let mut tile = [0.0f32; SIMD_MR * SIMD_NR];
            for (r, lanes) in acc.iter().enumerate() {
                _mm256_storeu_ps(tile.as_mut_ptr().add(r * SIMD_NR), lanes[0]);
                _mm256_storeu_ps(tile.as_mut_ptr().add(r * SIMD_NR + 8), lanes[1]);
            }
            for r in 0..mr {
                for j in 0..nr {
                    *c.add(r * ldc + j) += tile[r * SIMD_NR + j];
                }
            }
        }
    }
}

/// Runs the serial BLIS loop nest over C columns `[j0, j1)` with the
/// given micro-kernel, leasing pack buffers from the *calling thread's*
/// scratch pool (per-worker buffers in the parallel path).
///
/// # Safety
///
/// `c` must point to an `m × n` row-major matrix valid for reads and
/// writes, and no other thread may concurrently access columns
/// `[j0, j1)` of it (callers partition columns disjointly). When the
/// kernel is [`GemmKernel::Avx2Fma`], the CPU must support AVX2+FMA.
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_range(
    kernel: GemmKernel,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_trans: bool,
    b: &BSrc<'_>,
    c: *mut f32,
    j0: usize,
    j1: usize,
) {
    // One NC for every B source. B is packed outside the ic loop, so each
    // column is packed once per KC block whatever the panel width; on the
    // fused conv shapes (m ≤ 16, one ic block) whole-range panels timed
    // no faster than NC-wide ones and lease a panel up to 4× larger.
    let (mr, nr, mc_blk, nc_blk) = (kernel.mr(), kernel.nr(), kernel.mc(), kernel.nc());
    let lda = if a_trans { m } else { k };
    // Exact panel capacities so repeat leases hit the pool's free list.
    let kc_cap = KC.min(k);
    let mut a_pack = pool::lease(round_up(m.min(mc_blk), mr) * kc_cap);
    let mut b_pack = pool::lease(round_up((j1 - j0).min(nc_blk), nr) * kc_cap);
    for jc in (j0..j1).step_by(nc_blk) {
        let nc = nc_blk.min(j1 - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(
                &mut b_pack[..round_up(nc, nr) * kc],
                b,
                k,
                n,
                pc,
                kc,
                jc,
                nc,
                nr,
            );
            for ic in (0..m).step_by(mc_blk) {
                let mc = mc_blk.min(m - ic);
                pack_a(
                    &mut a_pack[..round_up(mc, mr) * kc],
                    a,
                    a_trans,
                    lda,
                    ic,
                    mc,
                    pc,
                    kc,
                    mr,
                );
                for jr in (0..nc).step_by(nr) {
                    let nrr = nr.min(nc - jr);
                    let bp = &b_pack[(jr / nr) * kc * nr..][..kc * nr];
                    for ir in (0..mc).step_by(mr) {
                        let mrr = mr.min(mc - ir);
                        let ap = &a_pack[(ir / mr) * kc * mr..][..kc * mr];
                        let ct = c.add((ic + ir) * n + jc + jr);
                        match kernel {
                            GemmKernel::Scalar => {
                                micro_kernel_scalar(kc, ap, bp, ct, n, mrr, nrr);
                            }
                            #[cfg(target_arch = "x86_64")]
                            GemmKernel::Avx2Fma => avx2::micro_kernel(kc, ap, bp, ct, n, mrr, nrr),
                            #[cfg(not(target_arch = "x86_64"))]
                            GemmKernel::Avx2Fma => unreachable!("SIMD kernel on non-x86_64"),
                        }
                    }
                }
            }
        }
    }
    pool::recycle(a_pack);
    pool::recycle(b_pack);
}

/// Computes `C += op(A) · op(B)` where `op` is transpose when the matching
/// flag is set and B may be a fused im2col view: logical shapes
/// `(m, k) × (k, n) → (m, n)`, all row-major.
///
/// `c` must hold exactly `m * n` elements and is accumulated into (callers
/// lease it zeroed from the pool). Transposition and patch extraction are
/// absorbed by the packing routines, so every variant shares the same
/// micro-kernel. Dispatches to the AVX2/FMA kernel when available and to
/// the worker pool for large products (both controllable: see
/// [`force_gemm_kernel`], [`set_gemm_threads`], and `HERO_NO_SIMD`).
pub(crate) fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_trans: bool,
    b: BSrc<'_>,
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    b.debug_check(k, n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kernel = active_gemm_kernel();
    let _obs = hero_obs::span(kernel.span_name());
    hero_obs::counters::GEMM_CALLS.incr();
    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    hero_obs::counters::GEMM_FLOPS.add(flops);
    if kernel == GemmKernel::Avx2Fma {
        hero_obs::counters::GEMM_SIMD_HITS.incr();
    }
    let threads = gemm_threads();
    if threads >= 2
        && flops >= PAR_MIN_FLOPS
        && n >= 2 * kernel.nr()
        && gemm_parallel(kernel, threads, m, n, k, a, a_trans, &b, c)
    {
        return;
    }
    // SAFETY: `c` is an exclusive `m × n` slice and the whole column range
    // is handled by this thread.
    unsafe { gemm_range(kernel, m, n, k, a, a_trans, &b, c.as_mut_ptr(), 0, n) }
}

/// The process-wide worker pool backing the parallel macro-kernel. Workers
/// carry no state (`S = ()`); determinism comes from the column partition,
/// not from which worker runs which chunk.
static GEMM_POOL: Mutex<Option<WorkerPool<(), ()>>> = Mutex::new(None);

/// A raw, `Send`-able copy of a [`BSrc`] for shipping to workers.
#[derive(Clone, Copy)]
enum RawBSrc {
    Mat {
        ptr: *const f32,
        len: usize,
        trans: bool,
    },
    Cols {
        ptr: *const f32,
        len: usize,
        meta: Im2colMeta,
        trans: bool,
    },
}

impl RawBSrc {
    fn from_bsrc(b: &BSrc<'_>) -> RawBSrc {
        match b {
            BSrc::Mat { data, trans } => RawBSrc::Mat {
                ptr: data.as_ptr(),
                len: data.len(),
                trans: *trans,
            },
            BSrc::Cols { view, trans } => RawBSrc::Cols {
                ptr: view.data.as_ptr(),
                len: view.data.len(),
                meta: view.meta,
                trans: *trans,
            },
        }
    }

    /// # Safety
    ///
    /// The pointed-to data must outlive the returned view — guaranteed by
    /// [`WorkerPool::scatter`] blocking until every job completes while
    /// the caller's borrows are held.
    unsafe fn as_bsrc<'a>(&self) -> BSrc<'a> {
        match *self {
            RawBSrc::Mat { ptr, len, trans } => BSrc::Mat {
                data: std::slice::from_raw_parts(ptr, len),
                trans,
            },
            RawBSrc::Cols {
                ptr,
                len,
                meta,
                trans,
            } => BSrc::Cols {
                view: Im2colView {
                    meta,
                    data: std::slice::from_raw_parts(ptr, len),
                },
                trans,
            },
        }
    }
}

/// One worker's share of a parallel GEMM: the full loop nest over C
/// columns `[j0, j1)`.
#[derive(Clone, Copy)]
struct PanelTask {
    kernel: GemmKernel,
    m: usize,
    n: usize,
    k: usize,
    a: *const f32,
    a_len: usize,
    a_trans: bool,
    b: RawBSrc,
    c: *mut f32,
    j0: usize,
    j1: usize,
}

// SAFETY: the raw pointers reference the caller's borrows, which stay
// alive for the whole scatter (it blocks until all jobs finish), and each
// task writes only its own disjoint `[j0, j1)` column range of C.
unsafe impl Send for PanelTask {}

/// # Safety
///
/// See [`PanelTask`]'s `Send` rationale: caller borrows outlive the
/// scatter, and column ranges across tasks are disjoint.
unsafe fn run_panel_task(t: &PanelTask) {
    let a = std::slice::from_raw_parts(t.a, t.a_len);
    let b = t.b.as_bsrc();
    gemm_range(t.kernel, t.m, t.n, t.k, a, t.a_trans, &b, t.c, t.j0, t.j1);
}

/// Fans the jc loop out over the worker pool: contiguous NR-aligned column
/// chunks, one per worker. Returns `false` (caller runs serially) when the
/// pool is busy — e.g. a shard worker's GEMM racing the trainer's — which
/// is always safe because parallel and serial output are bitwise
/// identical.
#[allow(clippy::too_many_arguments)]
fn gemm_parallel(
    kernel: GemmKernel,
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_trans: bool,
    b: &BSrc<'_>,
    c: &mut [f32],
) -> bool {
    let Ok(mut guard) = GEMM_POOL.try_lock() else {
        return false;
    };
    let nr = kernel.nr();
    let panels = n.div_ceil(nr);
    let workers = threads.min(panels);
    if workers < 2 {
        return false;
    }
    let slot = &mut *guard;
    if slot.as_ref().is_none_or(|p| p.threads() != threads) {
        *slot = Some(WorkerPool::new(vec![(); threads]));
    }
    let pool = slot.as_mut().expect("pool just installed");
    let raw_b = RawBSrc::from_bsrc(b);
    // Chunk boundaries land on NR multiples so no packing strip straddles
    // two workers; each C element's summation order is exactly the serial
    // order, which is what makes parallel ≡ serial bitwise.
    let (base, extra) = (panels / workers, panels % workers);
    let mut jobs: Vec<Job<(), ()>> = Vec::with_capacity(workers);
    let mut j0 = 0;
    for w in 0..workers {
        let j1 = (j0 + (base + usize::from(w < extra)) * nr).min(n);
        let task = PanelTask {
            kernel,
            m,
            n,
            k,
            a: a.as_ptr(),
            a_len: a.len(),
            a_trans,
            b: raw_b,
            c: c.as_mut_ptr(),
            j0,
            j1,
        };
        // SAFETY: scatter blocks until all jobs run; column ranges are
        // disjoint across tasks (see `PanelTask`).
        jobs.push(Box::new(move |_: &mut ()| unsafe { run_panel_task(&task) }));
        j0 = j1;
    }
    debug_assert_eq!(j0, n);
    match pool.scatter(jobs) {
        Ok(_) => {
            hero_obs::counters::GEMM_PANELS_PARALLEL.add(workers as u64);
            true
        }
        // C columns may be partially accumulated by the time a job fails,
        // so there is no serial fallback from here — surface the fault.
        Err(e) => panic!("parallel GEMM failed: {e}"),
    }
}

/// Runs `f` once on every GEMM worker thread (a barrier keeps any single
/// worker from draining several jobs) and collects the results in
/// arbitrary worker order. Returns an empty vec if the pool was never
/// spun up.
fn on_each_gemm_worker<R: Send + 'static>(f: fn() -> R) -> Vec<R> {
    let mut guard = GEMM_POOL.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(pool) = guard.as_mut() else {
        return Vec::new();
    };
    let threads = pool.threads();
    let barrier = Arc::new(Barrier::new(threads));
    let (tx, rx) = std::sync::mpsc::channel();
    let jobs: Vec<Job<(), ()>> = (0..threads)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let tx = tx.clone();
            Box::new(move |_: &mut ()| {
                barrier.wait();
                let _ = tx.send(f());
            }) as Job<(), ()>
        })
        .collect();
    pool.scatter(jobs).expect("gemm worker round failed");
    drop(tx);
    rx.iter().collect()
}

/// Scratch-pool statistics of every GEMM worker thread (one entry per
/// worker, arbitrary order; empty if the parallel macro-kernel has never
/// run). Steady state shows zero `fresh_allocs` and zero
/// `foreign_recycles`: each worker packs exclusively out of its own
/// thread-local pool.
pub fn gemm_pool_stats() -> Vec<pool::PoolStats> {
    on_each_gemm_worker(pool::stats)
}

/// Resets every GEMM worker's scratch-pool statistics (start of a
/// steady-state measurement window).
pub fn gemm_pool_reset_stats() {
    let _ = on_each_gemm_worker(pool::reset_stats);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive triple loop over logical (possibly transposed) operands.
    fn naive(m: usize, n: usize, k: usize, a: &[f32], at: bool, b: &[f32], bt: bool) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    let av = if at { a[kk * m + i] } else { a[i * k + kk] };
                    let bv = if bt { b[j * k + kk] } else { b[kk * n + j] };
                    acc += av * bv;
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn fill(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 31 + salt * 17) % 23) as f32 / 11.0 - 1.0)
            .collect()
    }

    #[test]
    fn packed_matches_naive_across_shape_grid_and_transposes() {
        // Shapes chosen to hit every edge case: unit dims, primes straddling
        // MR/NR (both kernels'), tall/skinny, wide, and sizes crossing the
        // MC/NC/KC blocks.
        let shapes = [
            (1, 1, 1),
            (1, 9, 5),
            (4, 8, 16),
            (5, 7, 3),
            (6, 16, 8),
            (7, 17, 9),
            (13, 11, 17),
            (3, 100, 2),
            (100, 3, 2),
            (129, 9, 257),
            (9, 513, 5),
            (33, 47, 300),
        ];
        for &(m, n, k) in &shapes {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            for (at, bt) in [(false, false), (true, false), (false, true), (true, true)] {
                // Re-layout the operands for the transposed storage orders.
                let a_store = if at {
                    let mut s = vec![0.0; m * k];
                    for i in 0..m {
                        for kk in 0..k {
                            s[kk * m + i] = a[i * k + kk];
                        }
                    }
                    s
                } else {
                    a.clone()
                };
                let b_store = if bt {
                    let mut s = vec![0.0; k * n];
                    for kk in 0..k {
                        for j in 0..n {
                            s[j * k + kk] = b[kk * n + j];
                        }
                    }
                    s
                } else {
                    b.clone()
                };
                let mut c = vec![0.0f32; m * n];
                let src = BSrc::Mat {
                    data: &b_store,
                    trans: bt,
                };
                gemm(m, n, k, &a_store, at, src, &mut c);
                let want = naive(m, n, k, &a_store, at, &b_store, bt);
                for (idx, (&got, &exp)) in c.iter().zip(&want).enumerate() {
                    assert!(
                        (got - exp).abs() <= 1e-5 * exp.abs().max(1.0),
                        "({m},{n},{k}) trans=({at},{bt}) idx {idx}: {got} vs {exp}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = vec![1.0; 6];
        let b = vec![2.0; 6];
        let mut c = vec![10.0f32; 4];
        let src = BSrc::Mat {
            data: &b,
            trans: false,
        };
        gemm(2, 2, 3, &a, false, src, &mut c);
        assert_eq!(c, vec![16.0; 4]);
    }

    #[test]
    fn zero_k_leaves_c_untouched() {
        let mut c = vec![3.0f32; 4];
        let src = BSrc::Mat {
            data: &[],
            trans: false,
        };
        gemm(2, 2, 0, &[], false, src, &mut c);
        assert_eq!(c, vec![3.0; 4]);
    }

    #[test]
    fn forcing_unsupported_kernel_falls_back_to_scalar() {
        // Exercises the override decode paths without touching the global
        // in a way that could race other tests: auto and re-auto only.
        force_gemm_kernel(None);
        let auto = active_gemm_kernel();
        assert_eq!(auto, detected_kernel());
        assert!(!auto.name().is_empty());
    }
}
