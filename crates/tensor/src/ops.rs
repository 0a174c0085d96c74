//! Matrix operations: products, transposition, element-wise arithmetic and
//! axis reductions.  All functions are shape-checked and panic with a
//! descriptive message on mismatch (shape errors are programming errors in
//! this workspace, not recoverable conditions).
//!
//! Every dense product ([`matmul_acc`] and what builds on it, and
//! [`matmul_transpose_a_acc`]) is one call of the register-blocked
//! micro-kernel [`crate::simd::matmul_block`] over the whole `m × k × n`
//! shape, on the process's **kernel tier** ([`crate::simd::detected_tier`]):
//! AVX2 / SSE2 when the CPU supports them, scalar otherwise (`LNCL_SIMD=off`
//! forces it).  Every tier adds the same terms in the same per-element
//! order, so the tier is bitwise invisible in the results.  The models of
//! this workspace keep every product to a few dozen rows, so there is no
//! cache tiling and no threading below the job pool.

use crate::simd;
use crate::Matrix;

/// `y += alpha * x`, the fused scaled-accumulate of every optimiser
/// update.  Every lane is independent (one `mul` + one `add` per element),
/// so the vector tiers of [`crate::simd::axpy`] this dispatches to match
/// the scalar loop bitwise.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    simd::axpy(simd::detected_tier(), alpha, x, y);
}

/// In-place accumulation `out += a * b` (the building block behind
/// [`matmul`] and the fused affine ops).
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn matmul_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions do not match ({}x{} * {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(out.shape(), (m, n), "matmul_acc: output shape {:?} does not match {m}x{n}", out.shape());
    let lhs = simd::Lhs { data: a.as_slice(), off: 0, row_step: k, k_step: 1 };
    simd::matmul_block(simd::detected_tier(), lhs, b.as_slice(), n, out.as_mut_slice(), n, (m, k, n));
}

/// Matrix product `a * b`.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_acc(a, b, &mut out);
    out
}

/// Sequential dot product: a single accumulator from `+0`, ascending
/// index, one `mul` and one `add` per term.
fn dot_seq(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        acc += a * b;
    }
    acc
}

/// `a * b^T` as row-by-row dot products (`dot_seq`), without
/// materialising the transpose.  Per output element the summands combine
/// from `+0` in ascending inner-index order, as in [`matmul`] of `a` and
/// the materialised `b^T`, so the two agree bitwise.
pub fn matmul_transpose_b(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transpose_b: inner dimensions do not match ({}x{} * ({}x{})^T)",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (j, out_val) in out_row.iter_mut().enumerate() {
            *out_val = dot_seq(a_row, b.row(j));
        }
    }
    out
}

/// `a^T * b` without materialising the transpose.  Output rows (columns of
/// `a`, read with a stride) run through the same micro-kernel as [`matmul`]
/// — per element the summands combine in ascending inner-index order, so the
/// result is bitwise identical to the plain k-outer loop.
pub fn matmul_transpose_a(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    matmul_transpose_a_acc(a, b, &mut out);
    out
}

/// In-place accumulation `out += a^T * b`, the body of
/// [`matmul_transpose_a`] for callers that own the output buffer.
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn matmul_transpose_a_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_transpose_a: inner dimensions do not match (({}x{})^T * {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.cols(), a.rows(), b.cols());
    assert_eq!(out.shape(), (m, n), "matmul_transpose_a_acc: output shape {:?} does not match {m}x{n}", out.shape());
    // output row `i` walks column `i` of `a`: element `kk` lives at `i + kk * m`
    let lhs = simd::Lhs { data: a.as_slice(), off: 0, row_step: 1, k_step: m };
    simd::matmul_block(simd::detected_tier(), lhs, b.as_slice(), n, out.as_mut_slice(), n, (m, k, n));
}

/// Transposes the matrix.
pub fn transpose(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    transpose_into(a, &mut out);
    out
}

/// Writes the transpose of `a` into `out`, reusing its buffer.
pub fn transpose_into(a: &Matrix, out: &mut Matrix) {
    out.reset(a.cols(), a.rows());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            out[(c, r)] = a[(r, c)];
        }
    }
}

fn assert_same_shape(a: &Matrix, b: &Matrix, op: &str) {
    assert_eq!(a.shape(), b.shape(), "{op}: shape mismatch {:?} vs {:?}", a.shape(), b.shape());
}

/// Element-wise sum `a + b`.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    assert_same_shape(a, b, "add");
    let mut out = a.clone();
    for (o, x) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o += x;
    }
    out
}

/// Element-wise difference `a - b`.
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    assert_same_shape(a, b, "sub");
    let mut out = a.clone();
    for (o, x) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o -= x;
    }
    out
}

/// Element-wise (Hadamard) product `a ⊙ b`.
pub fn mul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_same_shape(a, b, "mul");
    let mut out = a.clone();
    for (o, x) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o *= x;
    }
    out
}

/// Element-wise division `a / b`.
pub fn div(a: &Matrix, b: &Matrix) -> Matrix {
    assert_same_shape(a, b, "div");
    let mut out = a.clone();
    for (o, x) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o /= x;
    }
    out
}

/// Scalar multiple `s * a`.
pub fn scale(a: &Matrix, s: f32) -> Matrix {
    a.map(|v| v * s)
}

/// In-place accumulation `acc += x` (same shape required).
pub fn add_assign(acc: &mut Matrix, x: &Matrix) {
    assert_same_shape(acc, x, "add_assign");
    for (o, v) in acc.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *o += v;
    }
}

/// In-place scaled accumulation `acc += s * x`.
pub fn add_scaled_assign(acc: &mut Matrix, x: &Matrix, s: f32) {
    assert_same_shape(acc, x, "add_scaled_assign");
    axpy(s, x.as_slice(), acc.as_mut_slice());
}

/// Adds a `1 x cols` row vector to every row of `a` in place.
pub fn add_row_broadcast_assign(a: &mut Matrix, row: &Matrix) {
    assert_eq!(row.rows(), 1, "add_row_broadcast_assign: bias must be a row vector");
    assert_eq!(a.cols(), row.cols(), "add_row_broadcast_assign: width mismatch ({} vs {})", a.cols(), row.cols());
    for r in 0..a.rows() {
        for (o, b) in a.row_mut(r).iter_mut().zip(row.row(0)) {
            *o += b;
        }
    }
}

/// Adds a `1 x cols` row vector to every row of `a` (broadcast add, used for
/// bias terms).
pub fn add_row_broadcast(a: &Matrix, row: &Matrix) -> Matrix {
    let mut out = a.clone();
    add_row_broadcast_assign(&mut out, row);
    out
}

/// Fused affine map `x * w + bias` (bias broadcast over rows) without the
/// intermediate `x * w` matrix.
pub fn affine(x: &Matrix, w: &Matrix, bias: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    affine_into(x, w, bias, &mut out);
    out
}

/// [`affine`] into `out`, reusing its buffer.
pub fn affine_into(x: &Matrix, w: &Matrix, bias: &Matrix, out: &mut Matrix) {
    out.reset(x.rows(), w.cols());
    matmul_acc(x, w, out);
    add_row_broadcast_assign(out, bias);
}

/// Fused dual affine map `x * w + h * u + bias`, the pre-activation of every
/// GRU gate.  One intermediate (`h * u`) instead of the four matrices the
/// compositional form allocates.
pub fn dual_affine(x: &Matrix, w: &Matrix, h: &Matrix, u: &Matrix, bias: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), w.cols());
    matmul_acc(x, w, &mut out);
    let mut hu = Matrix::zeros(h.rows(), u.cols());
    matmul_acc(h, u, &mut hu);
    add_assign(&mut out, &hu);
    add_row_broadcast_assign(&mut out, bias);
    out
}

/// Fused row-softmax + cross-entropy against fixed soft targets, averaged
/// over rows.  Returns `(mean loss, softmax probabilities)`; the
/// probabilities are what the backward rule needs (`probs - targets`), so
/// nothing is recomputed.  The log-probabilities inside the loss are clamped
/// at `ln(1e-12)`, matching the probability floor the compositional
/// `cross_entropy` applied.
pub fn softmax_xent_rows(logits: &Matrix, targets: &Matrix) -> (f32, Matrix) {
    let mut probs = Matrix::zeros(0, 0);
    let loss = softmax_xent_rows_into(logits, targets, &mut probs);
    (loss, probs)
}

/// [`softmax_xent_rows`] with the probabilities written into `probs`,
/// reusing its buffer; returns the mean loss.
pub fn softmax_xent_rows_into(logits: &Matrix, targets: &Matrix, probs: &mut Matrix) -> f32 {
    assert_eq!(
        logits.shape(),
        targets.shape(),
        "softmax_xent_rows: logits {:?} vs targets {:?}",
        logits.shape(),
        targets.shape()
    );
    let ln_floor = (1e-12f32).ln();
    probs.assign(logits);
    let mut loss = 0.0f32;
    for r in 0..probs.rows() {
        let row = probs.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
            let ln_sum = sum.ln();
            for (&t, &x) in targets.row(r).iter().zip(logits.row(r)) {
                loss -= t * (x - max - ln_sum).max(ln_floor);
            }
        } else if !row.is_empty() {
            let uniform = 1.0 / row.len() as f32;
            row.iter_mut().for_each(|v| *v = uniform);
            let lnp = uniform.max(1e-12).ln();
            loss -= targets.row(r).iter().sum::<f32>() * lnp;
        }
    }
    loss / probs.rows().max(1) as f32
}

/// Sums each column, producing a `1 x cols` row vector.
pub fn sum_rows(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, a.cols());
    for r in 0..a.rows() {
        for (o, v) in out.row_mut(0).iter_mut().zip(a.row(r)) {
            *o += v;
        }
    }
    out
}

/// Sums each row, producing a `rows x 1` column vector.
pub fn sum_cols(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), 1);
    for r in 0..a.rows() {
        out[(r, 0)] = a.row(r).iter().sum();
    }
    out
}

/// Per-column mean, producing a `1 x cols` row vector.
pub fn mean_rows(a: &Matrix) -> Matrix {
    let n = a.rows().max(1) as f32;
    scale(&sum_rows(a), 1.0 / n)
}

/// Dot product between two equally-shaped matrices viewed as flat vectors.
pub fn dot(a: &Matrix, b: &Matrix) -> f32 {
    assert_same_shape(a, b, "dot");
    a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| x * y).sum()
}

/// Outer product of two vectors given as a column (n x 1) and a row (1 x m).
pub fn outer(col: &Matrix, row: &Matrix) -> Matrix {
    assert_eq!(col.cols(), 1, "outer: first argument must be a column vector");
    assert_eq!(row.rows(), 1, "outer: second argument must be a row vector");
    let mut out = Matrix::zeros(col.rows(), row.cols());
    for r in 0..col.rows() {
        let cr = col[(r, 0)];
        for c in 0..row.cols() {
            out[(r, c)] = cr * row[(0, c)];
        }
    }
    out
}

/// Clamps every entry into `[lo, hi]`.
pub fn clamp(a: &Matrix, lo: f32, hi: f32) -> Matrix {
    a.map(|v| v.clamp(lo, hi))
}

/// Extracts the rows listed in `indices` (gather), preserving order and
/// allowing repeats.  Used for embedding lookups and window gathers.
pub fn gather_rows(a: &Matrix, indices: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(indices.len(), a.cols());
    for (r, &idx) in indices.iter().enumerate() {
        assert!(idx < a.rows(), "gather_rows: index {idx} out of bounds ({} rows)", a.rows());
        out.row_mut(r).copy_from_slice(a.row(idx));
    }
    out
}

/// Scatter-add of `src` rows into `dst` at the listed row indices (the
/// adjoint of [`gather_rows`]).
pub fn scatter_add_rows(dst: &mut Matrix, indices: &[usize], src: &Matrix) {
    assert_eq!(indices.len(), src.rows(), "scatter_add_rows: index/src length mismatch");
    assert_eq!(dst.cols(), src.cols(), "scatter_add_rows: column mismatch");
    for (r, &idx) in indices.iter().enumerate() {
        assert!(idx < dst.rows(), "scatter_add_rows: index {idx} out of bounds");
        for (d, s) in dst.row_mut(idx).iter_mut().zip(src.row(r)) {
            *d += s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f32, b: f32, c: f32, d: f32) -> Matrix {
        Matrix::from_rows(&[&[a, b], &[c, d]])
    }

    #[test]
    fn matmul_matches_hand_computed() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let c = matmul(&a, &b);
        assert_eq!(c, m22(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(matmul(&a, &Matrix::identity(3)), a);
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn transpose_variants_agree() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, 0.0, 3.0]]);
        // a * b^T
        assert!(matmul_transpose_b(&a, &b).approx_eq(&matmul(&a, &transpose(&b)), 1e-6));
        // a^T * b
        assert!(matmul_transpose_a(&a, &b).approx_eq(&matmul(&transpose(&a), &b), 1e-6));
    }

    #[test]
    fn elementwise_ops() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(4.0, 3.0, 2.0, 1.0);
        assert_eq!(add(&a, &b), Matrix::full(2, 2, 5.0));
        assert_eq!(sub(&a, &b), m22(-3.0, -1.0, 1.0, 3.0));
        assert_eq!(mul(&a, &b), m22(4.0, 6.0, 6.0, 4.0));
        assert_eq!(div(&a, &b), m22(0.25, 2.0 / 3.0, 1.5, 4.0));
        assert_eq!(scale(&a, 2.0), m22(2.0, 4.0, 6.0, 8.0));
    }

    #[test]
    fn broadcast_bias() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let bias = Matrix::row_vector(&[10.0, 20.0]);
        assert_eq!(add_row_broadcast(&a, &bias), m22(11.0, 22.0, 13.0, 24.0));
    }

    #[test]
    fn reductions_by_axis() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(sum_rows(&a), Matrix::row_vector(&[9.0, 12.0]));
        assert_eq!(sum_cols(&a), Matrix::col_vector(&[3.0, 7.0, 11.0]));
        assert_eq!(mean_rows(&a), Matrix::row_vector(&[3.0, 4.0]));
    }

    #[test]
    fn dot_and_outer() {
        let a = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let b = Matrix::row_vector(&[4.0, 5.0, 6.0]);
        assert_eq!(dot(&a, &b), 32.0);
        let o = outer(&Matrix::col_vector(&[1.0, 2.0]), &Matrix::row_vector(&[3.0, 4.0]));
        assert_eq!(o, m22(3.0, 4.0, 6.0, 8.0));
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let table = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let g = gather_rows(&table, &[2, 0, 2]);
        assert_eq!(g.row(0), &[3.0, 3.0]);
        assert_eq!(g.row(2), &[3.0, 3.0]);

        let mut grad = Matrix::zeros(3, 2);
        scatter_add_rows(&mut grad, &[2, 0, 2], &Matrix::full(3, 2, 1.0));
        assert_eq!(grad.row(0), &[1.0, 1.0]);
        assert_eq!(grad.row(1), &[0.0, 0.0]);
        assert_eq!(grad.row(2), &[2.0, 2.0]);
    }

    #[test]
    fn clamp_limits_range() {
        let a = Matrix::row_vector(&[-2.0, 0.5, 3.0]);
        assert_eq!(clamp(&a, 0.0, 1.0), Matrix::row_vector(&[0.0, 0.5, 1.0]));
    }

    #[test]
    fn axpy_matches_scalar_loop() {
        let x: Vec<f32> = (0..11).map(|i| i as f32 * 0.5 - 2.0).collect();
        let mut y: Vec<f32> = (0..11).map(|i| i as f32 * -0.25).collect();
        let mut expect = y.clone();
        for (e, xv) in expect.iter_mut().zip(&x) {
            *e += 1.5 * xv;
        }
        axpy(1.5, &x, &mut y);
        assert_eq!(y, expect);
    }

    #[test]
    fn matmul_acc_accumulates_into_existing_output() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = Matrix::identity(2);
        let mut out = Matrix::full(2, 2, 1.0);
        matmul_acc(&a, &b, &mut out);
        assert_eq!(out, m22(2.0, 3.0, 4.0, 5.0));
    }

    #[test]
    fn fused_affine_matches_composition() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[-1.0, 0.5]]);
        let w = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.0, 0.0, -0.5]]);
        let bias = Matrix::row_vector(&[0.1, -0.2, 0.3]);
        let expect = add_row_broadcast(&matmul(&x, &w), &bias);
        assert_eq!(affine(&x, &w, &bias), expect);
    }

    #[test]
    fn fused_dual_affine_matches_composition() {
        let x = Matrix::from_rows(&[&[1.0, -2.0]]);
        let w = Matrix::from_rows(&[&[0.5, 1.0], &[-1.0, 0.25]]);
        let h = Matrix::from_rows(&[&[2.0, 0.5, -1.0]]);
        let u = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, -0.5], &[0.0, 2.0]]);
        let bias = Matrix::row_vector(&[0.1, 0.2]);
        let expect = add_row_broadcast(&add(&matmul(&x, &w), &matmul(&h, &u)), &bias);
        assert_eq!(dual_affine(&x, &w, &h, &u, &bias), expect);
    }

    #[test]
    fn fused_softmax_xent_matches_composition() {
        let logits = Matrix::from_rows(&[&[0.2, -1.0, 0.7], &[3.0, 3.0, 3.0]]);
        let targets = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.2, 0.3, 0.5]]);
        let (loss, probs) = softmax_xent_rows(&logits, &targets);
        let expect_probs = crate::stats::softmax_rows(&logits);
        assert!(probs.approx_eq(&expect_probs, 1e-7));
        let mut expect_loss = 0.0;
        for r in 0..logits.rows() {
            expect_loss += crate::stats::cross_entropy(targets.row(r), expect_probs.row(r));
        }
        expect_loss /= logits.rows() as f32;
        assert!((loss - expect_loss).abs() < 1e-5, "{loss} vs {expect_loss}");
    }

    #[test]
    fn add_row_broadcast_assign_matches_pure_version() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let bias = Matrix::row_vector(&[10.0, 20.0]);
        let mut b = a.clone();
        add_row_broadcast_assign(&mut b, &bias);
        assert_eq!(b, add_row_broadcast(&a, &bias));
    }
}
