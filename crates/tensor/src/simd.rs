//! Tiered SIMD kernels (`std::arch` AVX2 / SSE2) behind runtime feature
//! detection, with a scalar fallback that is always available.
//!
//! Every vector kernel in this module is **lane-parallel**: each output
//! element is produced by exactly the same sequence of `mul`/`add`
//! operations, in the same order, as the scalar loop it replaces — SIMD
//! only changes *how many independent elements* advance per instruction,
//! never the reduction shape of any single element.  No FMA contraction is
//! used (explicit `mul` + `add` intrinsics), so every tier is **bitwise
//! identical** to the scalar path; the cross-tier suite in
//! `tests/simd_tiers.rs` asserts this on odd shapes via `f32::to_bits`.
//!
//! Tier selection happens once per process ([`detected_tier`], cached) from
//! hardware capabilities, capped by the `LNCL_SIMD` environment variable:
//!
//! * unset or `auto` — best tier the CPU supports;
//! * `off` / `scalar` — force the scalar fallback (the CI scalar leg);
//! * `sse` / `sse2` — cap at SSE2;
//! * `avx2` — cap at AVX2 (still requires hardware support);
//! * anything else — warning on stderr, treated as `auto` (the repo-wide
//!   `LNCL_*` convention from [`crate::env`]).
//!
//! Three kernels live here: [`axpy`] and [`add_assign`] for the optimiser
//! and the E-step sums, and [`matmul_block`], the register-blocked
//! micro-kernel under every matrix product (`ops::matmul_acc` and
//! `ops::matmul_transpose_a_acc`, each one call over the whole shape, and
//! the fused convolution and GRU ops of `lncl-autograd`).  Its AVX2 body
//! covers any width, a partial last vector included, so every product runs
//! the detected tier.

use std::sync::OnceLock;

/// One execution tier of the kernel dispatch, ordered from the
/// always-available fallback to the widest vector path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelTier {
    /// Plain scalar loops — available everywhere, the reference semantics.
    Scalar,
    /// 128-bit SSE2 lanes (4 × f32).
    Sse2,
    /// 256-bit AVX2 lanes (8 × f32).
    Avx2,
}

impl KernelTier {
    /// Short lowercase label (used in warnings and bench environment rows).
    pub fn label(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
        }
    }
}

/// Parses an `LNCL_SIMD` value into a tier *cap*.  `None` means "no cap"
/// (auto).  Unknown values warn and fall back to auto, per the repo's
/// env-var convention.
fn parse_simd_cap(raw: &str) -> Option<KernelTier> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => None,
        "off" | "scalar" | "0" => Some(KernelTier::Scalar),
        "sse" | "sse2" => Some(KernelTier::Sse2),
        "avx" | "avx2" => Some(KernelTier::Avx2),
        other => {
            eprintln!("warning: ignoring invalid LNCL_SIMD={other:?} (expected off|scalar|sse2|avx2|auto)");
            None
        }
    }
}

/// Best tier the *hardware* supports, ignoring `LNCL_SIMD`.  This is what
/// the cross-tier equivalence tests iterate over, so forcing the scalar
/// path via the environment cannot silently skip the SIMD legs.
pub fn hardware_tier() -> KernelTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelTier::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return KernelTier::Sse2;
        }
    }
    KernelTier::Scalar
}

/// Every tier runnable on this machine, from scalar up to
/// [`hardware_tier`] — the iteration set of the equivalence suite.
pub fn available_tiers() -> Vec<KernelTier> {
    [KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2].into_iter().filter(|&t| t <= hardware_tier()).collect()
}

/// The process-wide active tier: [`hardware_tier`] capped by `LNCL_SIMD`.
/// Detected once and cached — every product reads it per call.
pub fn detected_tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let hardware = hardware_tier();
        match std::env::var("LNCL_SIMD").ok().as_deref().and_then(parse_simd_cap) {
            Some(cap) => cap.min(hardware),
            None => hardware,
        }
    })
}

// ---------------------------------------------------------------------------
// axpy: y[j] += alpha * x[j]
// ---------------------------------------------------------------------------

#[inline]
fn axpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn axpy_sse2(alpha: f32, x: &[f32], y: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = y.len();
    let va = _mm_set1_ps(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut j = 0;
    while j + 4 <= n {
        let prod = _mm_mul_ps(va, _mm_loadu_ps(xp.add(j)));
        _mm_storeu_ps(yp.add(j), _mm_add_ps(_mm_loadu_ps(yp.add(j)), prod));
        j += 4;
    }
    axpy_scalar(alpha, &x[j..], &mut y[j..]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = y.len();
    let va = _mm256_set1_ps(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut j = 0;
    while j + 8 <= n {
        let prod = _mm256_mul_ps(va, _mm256_loadu_ps(xp.add(j)));
        _mm256_storeu_ps(yp.add(j), _mm256_add_ps(_mm256_loadu_ps(yp.add(j)), prod));
        j += 8;
    }
    axpy_scalar(alpha, &x[j..], &mut y[j..]);
}

/// `y += alpha * x` on the given tier.  Lane-parallel (one `mul` + one
/// `add` per element), so all tiers agree bitwise.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(tier: KernelTier, alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch ({} vs {})", x.len(), y.len());
    match tier {
        KernelTier::Scalar => axpy_scalar(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is only handed out by detection, so the
        // feature is present on this CPU.
        KernelTier::Sse2 => unsafe { axpy_sse2(alpha, x, y) },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => unsafe { axpy_avx2(alpha, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => axpy_scalar(alpha, x, y),
    }
}

// ---------------------------------------------------------------------------
// add_assign: dst[j] += src[j]
// ---------------------------------------------------------------------------

#[inline]
fn add_assign_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn add_assign_sse2(dst: &mut [f32], src: &[f32]) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
    let mut j = 0;
    while j + 4 <= n {
        _mm_storeu_ps(dp.add(j), _mm_add_ps(_mm_loadu_ps(dp.add(j)), _mm_loadu_ps(sp.add(j))));
        j += 4;
    }
    add_assign_scalar(&mut dst[j..], &src[j..]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_assign_avx2(dst: &mut [f32], src: &[f32]) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
    let mut j = 0;
    while j + 8 <= n {
        _mm256_storeu_ps(dp.add(j), _mm256_add_ps(_mm256_loadu_ps(dp.add(j)), _mm256_loadu_ps(sp.add(j))));
        j += 8;
    }
    add_assign_scalar(&mut dst[j..], &src[j..]);
}

/// `dst += src` on the given tier — the flat accumulation at the bottom of
/// the Eq. 12 count update and the Eq. 13 log-likelihood sweep.
/// Lane-parallel, so all tiers agree bitwise.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn add_assign(tier: KernelTier, dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_assign: length mismatch ({} vs {})", dst.len(), src.len());
    match tier {
        KernelTier::Scalar => add_assign_scalar(dst, src),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier implies the feature is present (see `axpy`).
        KernelTier::Sse2 => unsafe { add_assign_sse2(dst, src) },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => unsafe { add_assign_avx2(dst, src) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => add_assign_scalar(dst, src),
    }
}

// ---------------------------------------------------------------------------
// Register-blocked product: out[r][j] += Σ_kk a(r, kk) · b[kk][j]
// ---------------------------------------------------------------------------

/// Left operand of [`matmul_block`]: element `(r, kk)` — output row `r`,
/// depth step `kk` — sits at `data[off + r * row_step + kk * k_step]`.
///
/// Every caller's rows are evenly spaced: the rows of a matrix
/// (`row_step = cols`, `k_step = 1`), the columns of one read as a
/// transpose (`row_step = 1`, `k_step = cols`) and the overlapping windows
/// of a text convolution (`row_step = d`, `k_step = 1`).
#[derive(Debug, Clone, Copy)]
pub struct Lhs<'a> {
    /// Backing storage.
    pub data: &'a [f32],
    /// Index of element `(0, 0)`.
    pub off: usize,
    /// Distance between consecutive rows.
    pub row_step: usize,
    /// Distance between consecutive depth steps of one row.
    pub k_step: usize,
}

/// Raw operands of one block, bounds already checked by [`matmul_block`].
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Raw {
    a: *const f32,
    a_row_step: usize,
    a_k_step: usize,
    b: *const f32,
    b_stride: usize,
    out: *mut f32,
    out_stride: usize,
    depth: usize,
}

#[cfg(target_arch = "x86_64")]
impl Raw {
    fn new(a: Lhs<'_>, b: &[f32], b_stride: usize, out: &mut [f32], out_stride: usize, depth: usize) -> Self {
        Self {
            a: a.data[a.off..].as_ptr(),
            a_row_step: a.row_step,
            a_k_step: a.k_step,
            b: b.as_ptr(),
            b_stride,
            out: out.as_mut_ptr(),
            out_stride,
            depth,
        }
    }

    /// The block from output row `r0` and column `c0` on.
    ///
    /// # Safety
    /// `r0` and `c0` must lie inside the block the pointers address.
    unsafe fn at(self, r0: usize, c0: usize) -> Self {
        Self {
            a: self.a.add(r0 * self.a_row_step),
            b: self.b.add(c0),
            out: self.out.add(r0 * self.out_stride + c0),
            ..self
        }
    }
}

/// Rows per register block for a strip of `vectors` vectors: the
/// `rows × vectors` accumulators, the `vectors` loaded `b` vectors and one
/// broadcast of `a` fit the 16 vector registers (4×1, 4×2, 3×3, 2×4).
/// Wider strips run one row at a time (up to 1×8), which needs no `b`
/// vector to stay live.
#[cfg(target_arch = "x86_64")]
const fn block_rows(vectors: usize) -> usize {
    match vectors {
        1 | 2 => 4,
        3 => 3,
        4 => 2,
        _ => 1,
    }
}

/// Most vectors in one column strip.
#[cfg(target_arch = "x86_64")]
const STRIP_VECTORS: usize = 8;

/// The reference loop, and the per-element remainder of the SSE2 body.
fn matmul_block_scalar(a: Lhs<'_>, b: &[f32], b_stride: usize, out: &mut [f32], out_stride: usize, shape: Shape) {
    let (rows, depth, width) = shape;
    for r in 0..rows {
        let out_row = &mut out[r * out_stride..r * out_stride + width];
        for kk in 0..depth {
            let a_rk = a.data[a.off + r * a.row_step + kk * a.k_step];
            for (o, bv) in out_row.iter_mut().zip(&b[kk * b_stride..kk * b_stride + width]) {
                *o += a_rk * bv;
            }
        }
    }
}

/// One `R × V` block of 4-lane vectors: the accumulators stay in registers
/// for the whole depth loop and each `b` vector is loaded once per `kk`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn block_sse2<const R: usize, const V: usize>(p: Raw) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm_setzero_ps(); V]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        for (v, x) in row.iter_mut().enumerate() {
            *x = _mm_loadu_ps(p.out.add(r * p.out_stride + 4 * v));
        }
    }
    let mut bv = [_mm_setzero_ps(); V];
    for kk in 0..p.depth {
        let bp = p.b.add(kk * p.b_stride);
        for (v, x) in bv.iter_mut().enumerate() {
            *x = _mm_loadu_ps(bp.add(4 * v));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let va = _mm_set1_ps(*p.a.add(r * p.a_row_step + kk * p.a_k_step));
            for (x, &bx) in row.iter_mut().zip(&bv) {
                *x = _mm_add_ps(*x, _mm_mul_ps(va, bx));
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (v, &x) in row.iter().enumerate() {
            _mm_storeu_ps(p.out.add(r * p.out_stride + 4 * v), x);
        }
    }
}

/// `rows` rows of one strip of `V` whole 4-lane vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn strip_sse2<const V: usize>(p: Raw, rows: usize) {
    let mut r0 = 0;
    while r0 < rows {
        let n = (rows - r0).min(block_rows(V));
        let q = p.at(r0, 0);
        match n {
            4 => block_sse2::<4, V>(q),
            3 => block_sse2::<3, V>(q),
            2 => block_sse2::<2, V>(q),
            _ => block_sse2::<1, V>(q),
        }
        r0 += n;
    }
}

/// SSE2 body: strips of whole 4-lane vectors, then the last `width % 4`
/// columns per element on the scalar loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn matmul_block_sse2(a: Lhs<'_>, b: &[f32], b_stride: usize, out: &mut [f32], out_stride: usize, shape: Shape) {
    let (rows, depth, width) = shape;
    let p = Raw::new(a, b, b_stride, out, out_stride, depth);
    let vector_cols = width / 4 * 4;
    let mut c0 = 0;
    while c0 < vector_cols {
        let vectors = ((vector_cols - c0) / 4).min(STRIP_VECTORS);
        let q = p.at(0, c0);
        match vectors {
            1 => strip_sse2::<1>(q, rows),
            2 => strip_sse2::<2>(q, rows),
            3 => strip_sse2::<3>(q, rows),
            4 => strip_sse2::<4>(q, rows),
            5 => strip_sse2::<5>(q, rows),
            6 => strip_sse2::<6>(q, rows),
            7 => strip_sse2::<7>(q, rows),
            _ => strip_sse2::<8>(q, rows),
        }
        c0 += 4 * vectors;
    }
    if vector_cols < width {
        let shape = (rows, depth, width - vector_cols);
        matmul_block_scalar(a, &b[vector_cols..], b_stride, &mut out[vector_cols..], out_stride, shape);
    }
}

/// One `R × V` block of 8-lane vectors whose last vector holds the lanes
/// `mask` selects: read and written with `maskload` / `maskstore`, so
/// neither `b` nor `out` needs padding.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block_avx2<const R: usize, const V: usize>(p: Raw, mask: std::arch::x86_64::__m256i) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        let o = p.out.add(r * p.out_stride);
        for (v, x) in row.iter_mut().enumerate() {
            *x = if v + 1 < V { _mm256_loadu_ps(o.add(8 * v)) } else { _mm256_maskload_ps(o.add(8 * v), mask) };
        }
    }
    let mut bv = [_mm256_setzero_ps(); V];
    for kk in 0..p.depth {
        let bp = p.b.add(kk * p.b_stride);
        for (v, x) in bv.iter_mut().enumerate() {
            *x = if v + 1 < V { _mm256_loadu_ps(bp.add(8 * v)) } else { _mm256_maskload_ps(bp.add(8 * v), mask) };
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let va = _mm256_set1_ps(*p.a.add(r * p.a_row_step + kk * p.a_k_step));
            for (x, &bx) in row.iter_mut().zip(&bv) {
                *x = _mm256_add_ps(*x, _mm256_mul_ps(va, bx));
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let o = p.out.add(r * p.out_stride);
        for (v, &x) in row.iter().enumerate() {
            if v + 1 < V {
                _mm256_storeu_ps(o.add(8 * v), x);
            } else {
                _mm256_maskstore_ps(o.add(8 * v), mask, x);
            }
        }
    }
}

/// `rows` rows of one strip of `V` 8-lane vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn strip_avx2<const V: usize>(p: Raw, rows: usize, mask: std::arch::x86_64::__m256i) {
    let mut r0 = 0;
    while r0 < rows {
        let n = (rows - r0).min(block_rows(V));
        let q = p.at(r0, 0);
        match n {
            4 => block_avx2::<4, V>(q, mask),
            3 => block_avx2::<3, V>(q, mask),
            2 => block_avx2::<2, V>(q, mask),
            _ => block_avx2::<1, V>(q, mask),
        }
        r0 += n;
    }
}

/// AVX2 body: strips of at most 64 columns, each a whole number of 8-lane
/// vectors with a masked last one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_block_avx2(a: Lhs<'_>, b: &[f32], b_stride: usize, out: &mut [f32], out_stride: usize, shape: Shape) {
    use std::arch::x86_64::*;
    let (rows, depth, width) = shape;
    let p = Raw::new(a, b, b_stride, out, out_stride, depth);
    let mut c0 = 0;
    while c0 < width {
        let cols = (width - c0).min(8 * STRIP_VECTORS);
        let vectors = cols.div_ceil(8);
        // lanes `0 .. live` of the last vector are in the strip
        let live = (cols - 8 * (vectors - 1)) as i32;
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(live), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        let q = p.at(0, c0);
        match vectors {
            1 => strip_avx2::<1>(q, rows, mask),
            2 => strip_avx2::<2>(q, rows, mask),
            3 => strip_avx2::<3>(q, rows, mask),
            4 => strip_avx2::<4>(q, rows, mask),
            5 => strip_avx2::<5>(q, rows, mask),
            6 => strip_avx2::<6>(q, rows, mask),
            7 => strip_avx2::<7>(q, rows, mask),
            _ => strip_avx2::<8>(q, rows, mask),
        }
        c0 += cols;
    }
}

/// `(rows, depth, width)` of one [`matmul_block`] call.
pub type Shape = (usize, usize, usize);

/// The micro-kernel under every product: for each of `rows` evenly
/// spaced rows of `a` (see [`Lhs`]) and each of the first `width` columns,
///
/// ```text
/// out[r * out_stride + j] += Σ_{kk < depth} a(r, kk) · b[kk * b_stride + j]
/// ```
///
/// The AVX2 and SSE2 bodies keep a block of several output rows × up to
/// eight vectors (64 columns on AVX2, 32 on SSE2) in registers for the whole
/// depth loop and load each `b` vector once per `kk` for all rows of the
/// block; AVX2 reads and writes the last, partial vector of a strip with
/// masked loads and stores, so `b` and `out` are used in place.  Per
/// element the terms still add in ascending `kk` onto the existing value,
/// one `mul` and one `add` each for every `kk` (no FMA, and no test of the
/// data) — so every tier is bitwise the scalar loop, which is the
/// reference.
///
/// A zero `a(r, kk)` adds `±0` like any other term.  That equals skipping
/// it whenever `b` is finite and the accumulator does not enter as `-0`:
/// a sum that starts at `+0` never becomes `-0` under round-to-nearest,
/// and `v + (±0) == v` for every `v ≠ 0`.  Nothing checks the two
/// conditions per call; the seeded training pins and the sweep's quality
/// rows show the sums bitwise equal to a zero-skipping loop's on the runs
/// they cover.  A non-finite `b` now gives NaN (`0 · ∞`) where that loop
/// stayed finite, so a diverging run turns NaN sooner.
///
/// # Panics
/// Panics when an addressed element falls outside `a`, `b` or `out`, or
/// when output rows overlap (`out_stride < width` with several rows).
pub fn matmul_block(
    tier: KernelTier,
    a: Lhs<'_>,
    b: &[f32],
    b_stride: usize,
    out: &mut [f32],
    out_stride: usize,
    shape: Shape,
) {
    let (rows, depth, width) = shape;
    if rows == 0 || width == 0 {
        return;
    }
    assert!(rows == 1 || out_stride >= width, "matmul_block: output rows overlap");
    assert!((rows - 1) * out_stride + width <= out.len(), "matmul_block: out access out of bounds");
    if depth == 0 {
        return;
    }
    // bounds of the strided accesses, checked once up front so the vector
    // bodies can use raw pointers inside the hot loop
    assert!(
        a.off + (rows - 1) * a.row_step + (depth - 1) * a.k_step < a.data.len(),
        "matmul_block: a access out of bounds"
    );
    assert!((depth - 1) * b_stride + width <= b.len(), "matmul_block: b access out of bounds");
    match tier {
        KernelTier::Scalar => matmul_block_scalar(a, b, b_stride, out, out_stride, shape),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier implies the feature is present; bounds checked above.
        KernelTier::Sse2 => unsafe { matmul_block_sse2(a, b, b_stride, out, out_stride, shape) },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => unsafe { matmul_block_avx2(a, b, b_stride, out, out_stride, shape) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => matmul_block_scalar(a, b, b_stride, out, out_stride, shape),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_parsing_follows_the_env_convention() {
        assert_eq!(parse_simd_cap("off"), Some(KernelTier::Scalar));
        assert_eq!(parse_simd_cap("scalar"), Some(KernelTier::Scalar));
        assert_eq!(parse_simd_cap(" SSE2 "), Some(KernelTier::Sse2));
        assert_eq!(parse_simd_cap("avx2"), Some(KernelTier::Avx2));
        assert_eq!(parse_simd_cap("auto"), None);
        assert_eq!(parse_simd_cap(""), None);
        // unknown values warn and fall back to auto instead of panicking
        assert_eq!(parse_simd_cap("quantum"), None);
    }

    #[test]
    fn tiers_are_ordered_and_available_set_starts_scalar() {
        assert!(KernelTier::Scalar < KernelTier::Sse2 && KernelTier::Sse2 < KernelTier::Avx2);
        let tiers = available_tiers();
        assert_eq!(tiers.first(), Some(&KernelTier::Scalar));
        assert!(tiers.iter().all(|&t| t <= hardware_tier()));
        assert!(available_tiers().contains(&detected_tier()) || detected_tier() == KernelTier::Scalar);
    }

    #[test]
    fn axpy_tiers_match_bitwise_on_odd_lengths() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 100] {
            let x: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37 - 1.0) * 1.7).collect();
            let base: Vec<f32> = (0..len).map(|i| i as f32 * -0.21 + 0.5).collect();
            let mut expect = base.clone();
            axpy(KernelTier::Scalar, -0.61, &x, &mut expect);
            for tier in available_tiers() {
                let mut y = base.clone();
                axpy(tier, -0.61, &x, &mut y);
                let same = y.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "axpy len {len} tier {tier:?} diverges from scalar");
            }
        }
    }

    #[test]
    fn add_assign_tiers_match_bitwise_on_odd_lengths() {
        for len in [0usize, 1, 2, 4, 7, 9, 16, 33] {
            let src: Vec<f32> = (0..len).map(|i| (i as f32).sin()).collect();
            let base: Vec<f32> = (0..len).map(|i| (i as f32).cos()).collect();
            let mut expect = base.clone();
            add_assign(KernelTier::Scalar, &mut expect, &src);
            for tier in available_tiers() {
                let mut dst = base.clone();
                add_assign(tier, &mut dst, &src);
                let same = dst.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "add_assign len {len} tier {tier:?} diverges from scalar");
            }
        }
    }
}
