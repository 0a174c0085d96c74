//! Whole-layer fused ops: the max-pooled text convolution of the sentence
//! CNN ([`Tape::conv_max_pool`]) and the full GRU unroll of the sequence
//! tagger ([`Tape::gru_sequence`]), each recorded as one tape node.
//!
//! Both backward rules add exactly the nonzero terms of the composed node
//! chains they replace (`conv_window` → `max_over_rows`, and the per-step
//! `row_slice` → `dual_affine` / `sigmoid` / `tanh` / `mul` / `one_minus` /
//! `add` → `vstack` unroll), in the same order, so every value and every
//! gradient is bitwise identical to the composed rules; every term they
//! skip is an exact ±0, which cannot change a sum that starts from `+0`.
//! The forward kernels are public so the tape-free eval paths of
//! `lncl-nn` run the very same arithmetic.

use crate::{Op, Tape, Var};
use lncl_tensor::{ops, simd, Matrix};

/// Index of each GRU parameter in the `[Var; 9]` / `[&Matrix; 9]` arrays
/// taken by [`Tape::gru_sequence`] and [`gru_sequence_forward`]:
/// `[wz, uz, bz, wr, ur, br, wh, uh, bh]`.
const WZ: usize = 0;
const UZ: usize = 1;
const BZ: usize = 2;
const WR: usize = 3;
const UR: usize = 4;
const BR: usize = 5;
const WH: usize = 6;
const UH: usize = 7;
const BH: usize = 8;

/// Per-step GRU activations cached by [`gru_sequence_forward`] for the
/// backward pass, each `T x hidden` (row `t` is step `t`).  The hidden
/// states themselves are the op's output.
pub struct GruGates {
    /// Update gate `z`.
    pub(crate) z: Matrix,
    /// Reset gate `r`.
    pub(crate) r: Matrix,
    /// Candidate state `tanh(x Wh + (r ⊙ h) Uh + bh)`.
    pub(crate) cand: Matrix,
}

/// `out[i, :] += a[off + i * row_step ..][..b.rows] · b` for `rows` rows,
/// with `out` a flat row-major buffer `b.cols` wide.  Per element the terms
/// add in ascending inner-index order onto the existing value, zero `a`
/// entries skipped — exactly the order of [`ops::matmul_acc`], so every
/// result is bitwise that of the matrix product.  Rows of `a` are addressed
/// by offset and step, so the overlapping windows of a convolution need no
/// im2col copy.
fn rows_times(a: &[f32], off: usize, row_step: usize, rows: usize, b: &Matrix, out: &mut [f32]) {
    let lhs = simd::Lhs { data: a, off, row_step, k_step: 1 };
    let shape = (rows, b.rows(), b.cols());
    simd::matmul_block(simd::detected_tier(), lhs, b.as_slice(), b.cols(), out, b.cols(), shape);
}

/// Max-pooled text convolution `max_over_rows(relu(im2col(x, window) * w +
/// bias))`: returns the pooled `1 x filters` row and, per filter, the
/// first window position attaining the maximum.  Window `p` is read in
/// place as the `window` consecutive rows of `x` starting at row `p`.
///
/// # Panics
/// Panics if `x` has fewer rows than `window` or on a shape mismatch.
pub fn conv_max_pool_forward(x: &Matrix, w: &Matrix, bias: &Matrix, window: usize) -> (Matrix, Vec<usize>) {
    let d = x.cols();
    assert!(window >= 1 && x.rows() >= window, "conv_max_pool: {} rows for window {window}; pad first", x.rows());
    assert_eq!(w.rows(), window * d, "conv_max_pool: weight has {} rows, expected {}", w.rows(), window * d);
    assert_eq!(bias.shape(), (1, w.cols()), "conv_max_pool: bias must be 1 x {}", w.cols());
    let (positions, filters) = (x.rows() - window + 1, w.cols());
    let mut act = vec![0.0f32; positions * filters];
    rows_times(x.as_slice(), 0, d, positions, w, &mut act);
    let mut pooled = Matrix::full(1, filters, f32::NEG_INFINITY);
    let mut argmax = vec![0usize; filters];
    for (p, row) in act.chunks_exact(filters).enumerate() {
        for (c, (&v, &b)) in row.iter().zip(bias.row(0)).enumerate() {
            let v = (v + b).max(0.0);
            if v > pooled[(0, c)] {
                pooled[(0, c)] = v;
                argmax[c] = p;
            }
        }
    }
    (pooled, argmax)
}

/// Unrolls a GRU over the `T x in` sequence `x` from a zero hidden state:
///
/// ```text
/// z = σ(x Wz + h Uz + bz)
/// r = σ(x Wr + h Ur + br)
/// h̃ = tanh(x Wh + (r ⊙ h) Uh + bh)
/// h' = (1 - z) ⊙ h + z ⊙ h̃
/// ```
///
/// `params` is `[wz, uz, bz, wr, ur, br, wh, uh, bh]`.  Returns the stacked
/// hidden states (`T x hidden`) and the gates the backward pass needs.
/// The input projections of all three gates run as one product against
/// `[Wz | Wr | Wh]` up front and the recurrent ones of `z` and `r` as one
/// against `[Uz | Ur]` per step; every element is summed exactly as the
/// per-step fused `dual_affine` computes it, `(x w + h u) + b`.
///
/// # Panics
/// Panics on an empty sequence or a shape mismatch.
pub fn gru_sequence_forward(x: &Matrix, params: [&Matrix; 9]) -> (Matrix, GruGates) {
    let (steps, in_dim) = x.shape();
    assert!(steps > 0, "gru_sequence: empty sequence");
    let hid = params[UZ].rows();
    for (i, shape) in [(in_dim, hid), (hid, hid), (1, hid)].into_iter().cycle().take(9).enumerate() {
        assert_eq!(params[i].shape(), shape, "gru_sequence: parameter {i} has the wrong shape");
    }
    // row t: [x_t Wz | x_t Wr | x_t Wh]
    let mut proj = vec![0.0f32; steps * 3 * hid];
    let w_all = Matrix::hstack(&[params[WZ], params[WR], params[WH]]);
    rows_times(x.as_slice(), 0, in_dim, steps, &w_all, &mut proj);
    let (u_zr, u_h) = (Matrix::hstack(&[params[UZ], params[UR]]), params[UH]);
    let (bz, br, bh) = (params[BZ].row(0), params[BR].row(0), params[BH].row(0));
    let mut out = Matrix::zeros(steps, hid);
    let mut gates =
        GruGates { z: Matrix::zeros(steps, hid), r: Matrix::zeros(steps, hid), cand: Matrix::zeros(steps, hid) };
    let (mut h_zr, mut rh, mut rh_u) = (vec![0.0f32; 2 * hid], vec![0.0f32; hid], vec![0.0f32; hid]);
    let zero = vec![0.0f32; hid];
    for t in 0..steps {
        let xw = &proj[t * 3 * hid..(t + 1) * 3 * hid];
        // [h Uz | h Ur]; the zero initial state contributes +0
        h_zr.fill(0.0);
        if t > 0 {
            rows_times(out.as_slice(), (t - 1) * hid, hid, 1, &u_zr, &mut h_zr);
        }
        let (done, rest) = out.as_mut_slice().split_at_mut(t * hid);
        let h = if t > 0 { &done[(t - 1) * hid..] } else { &zero[..] };
        let (z, r) = (gates.z.row_mut(t), gates.r.row_mut(t));
        for j in 0..hid {
            let sz = (xw[j] + h_zr[j]) + bz[j];
            z[j] = 1.0 / (1.0 + (-sz).exp());
            let sr = (xw[hid + j] + h_zr[hid + j]) + br[j];
            r[j] = 1.0 / (1.0 + (-sr).exp());
            rh[j] = r[j] * h[j];
        }
        rh_u.fill(0.0);
        rows_times(&rh, 0, hid, 1, u_h, &mut rh_u);
        let (z, cand) = (gates.z.row(t), gates.cand.row_mut(t));
        for j in 0..hid {
            cand[j] = ((xw[2 * hid + j] + rh_u[j]) + bh[j]).tanh();
            let keep = (1.0 - z[j]) * h[j];
            let update = z[j] * cand[j];
            rest[j] = keep + update;
        }
    }
    (out, gates)
}

/// `[g_0 | g_1 | ...] += lhs · rhs` for the gradient buffers `g_i` of
/// `params` (a product per buffer, run as one).
fn accumulate_stacked(tape: &mut Tape, params: &[Var], lhs: &Matrix, rhs: &Matrix) {
    let grads: Vec<&Matrix> = params.iter().map(|v| &tape.nodes[v.0].grad).collect();
    let mut acc = Matrix::hstack(&grads);
    rows_times(lhs.as_slice(), 0, lhs.cols(), lhs.rows(), rhs, acc.as_mut_slice());
    let mut c0 = 0;
    for v in params {
        let grad = &mut tape.nodes[v.0].grad;
        let width = grad.cols();
        for r in 0..grad.rows() {
            grad.row_mut(r).copy_from_slice(&acc.row(r)[c0..c0 + width]);
        }
        c0 += width;
    }
}

impl Tape {
    /// Fused max-pooled text convolution: `conv_window(x, w, bias, window)`
    /// followed by `max_over_rows` as one node (`T x d -> 1 x filters`).
    /// Only the pooled row and the argmax positions are kept; the backward
    /// rule visits the argmax window of each filter whose pooled value is
    /// positive instead of the whole `(T - window + 1) x filters` map.
    ///
    /// # Panics
    /// Panics if `x` has fewer rows than `window`.
    pub fn conv_max_pool(&mut self, x: Var, w: Var, bias: Var, window: usize) -> Var {
        let (value, argmax) = conv_max_pool_forward(self.value(x), self.value(w), self.value(bias), window);
        self.push(value, Op::ConvMaxPool { x, w, bias, window, argmax })
    }

    /// Fused GRU unroll over the `T x in` sequence `x` from a zero hidden
    /// state, as one node producing the stacked `T x hidden` states (see
    /// [`gru_sequence_forward`]; `params` is `[wz, uz, bz, wr, ur, br, wh,
    /// uh, bh]`).  Caches the gates, and the backward rule runs a
    /// hand-written backpropagation through time.
    ///
    /// # Panics
    /// Panics on an empty sequence, a shape mismatch, or a node passed
    /// twice.
    pub fn gru_sequence(&mut self, x: Var, params: [Var; 9]) -> Var {
        for (i, p) in params.iter().enumerate() {
            assert!(
                *p != x && !params[..i].contains(p),
                "gru_sequence: parameters must be distinct nodes other than x"
            );
        }
        let (value, gates) = gru_sequence_forward(self.value(x), params.map(|p| self.value(p)));
        self.push(value, Op::GruSequence { x, params, gates })
    }

    /// Backward rule of [`Tape::conv_max_pool`].  With `g` the upstream
    /// row, for each filter `c` whose pooled value is positive and whose
    /// argmax window is `p = argmax[c]`:
    /// `dW[:, c] += cols[p, :] · g_c`, `dbias[c] += g_c`, and
    /// `dcols[p] = Σ_{c: argmax_c = p, ascending c} g_c · W[:, c]` is
    /// scattered into `x` in ascending `(p, window row)` order.
    pub(crate) fn backward_conv_max_pool(&mut self, index: usize, op: &Op, upstream: &Matrix) {
        let &Op::ConvMaxPool { x, w, bias, window, ref argmax } = op else {
            unreachable!("backward_conv_max_pool on another op")
        };
        let g = upstream.row(0);
        // live filters in ascending (argmax, filter) order
        let pooled = self.nodes[index].value.row(0);
        let mut live: Vec<usize> = (0..g.len()).filter(|&c| pooled[c] > 0.0 && g[c] != 0.0).collect();
        live.sort_by_key(|&c| argmax[c]);
        let positions: Vec<usize> = live.iter().map(|&c| argmax[c]).collect();
        let d = self.nodes[x.0].value.cols();
        let span = window * d;

        // dW and dbias: one window of x per live filter
        let mut dw = std::mem::replace(&mut self.nodes[w.0].grad, Matrix::zeros(0, 0));
        let xs = self.nodes[x.0].value.as_slice();
        for (&c, &p) in live.iter().zip(&positions) {
            for (k, &xv) in xs[p * d..p * d + span].iter().enumerate() {
                dw[(k, c)] += xv * g[c];
            }
        }
        self.nodes[w.0].grad = dw;
        let dbias = self.nodes[bias.0].grad.row_mut(0);
        for &c in &live {
            dbias[c] += g[c];
        }

        // dcols for each argmax window, scattered straight into x
        let mut dcols = vec![0.0f32; span];
        let mut start = 0;
        while start < live.len() {
            let p = positions[start];
            let end = start + positions[start..].iter().take_while(|&&q| q == p).count();
            let wv = &self.nodes[w.0].value;
            for (k, slot) in dcols.iter_mut().enumerate() {
                let w_row = wv.row(k);
                let mut acc = 0.0f32;
                for &c in &live[start..end] {
                    acc += g[c] * w_row[c];
                }
                *slot = acc;
            }
            let dx = &mut self.nodes[x.0].grad;
            for wnd in 0..window {
                for (dst, s) in dx.row_mut(p + wnd).iter_mut().zip(&dcols[wnd * d..(wnd + 1) * d]) {
                    *dst += s;
                }
            }
            start = end;
        }
    }

    /// Backward rule of [`Tape::gru_sequence`]: backpropagation through
    /// time reproducing the composed per-step chain.  For `t` descending,
    /// with `gh` the gradient of `h_t`:
    ///
    /// * update ⊙ and keep ⊙: `dz = gh ⊙ h̃ - gh ⊙ h_{t-1}`;
    /// * tanh: `dsh = (gh ⊙ z) ⊙ (1 - h̃²)`; candidate `dual_affine`:
    ///   `g_rh = dsh · Uhᵀ`;
    /// * r ⊙ h and the reset sigmoid: `dsr = (g_rh ⊙ h_{t-1}) ⊙ r(1 - r)`,
    ///   `dh_r = dsr · Urᵀ`;
    /// * the update sigmoid: `dsz = dz ⊙ z(1 - z)`, `dh_z = dsz · Uzᵀ`;
    /// * `g_{h_{t-1}} = (((G[t-1] + gh ⊙ (1 - z)) + g_rh ⊙ r) + dh_r) + dh_z`.
    ///
    /// Weight and bias gradients add their per-step terms in descending
    /// `t`, and the input gradient of step `t` is `(dx_h + dx_r) + dx_z`;
    /// every `dx` / `dh` element is an ascending-index dot product.  Those
    /// per-step terms are batched into a few matrix products after the
    /// recurrence, with the time axis reversed so the sums keep the
    /// descending-`t` order.
    pub(crate) fn backward_gru_sequence(&mut self, index: usize, op: &Op, upstream: &Matrix) {
        let &Op::GruSequence { x, params, ref gates } = op else { unreachable!("backward_gru_sequence on another op") };
        let hs = &self.nodes[index].value;
        let (steps, hid) = hs.shape();
        let p = params.map(|v| &self.nodes[v.0].value);
        let (uz_t, ur_t, uh_t) = (ops::transpose(p[UZ]), ops::transpose(p[UR]), ops::transpose(p[UH]));

        // pre-activation gradients per step, row k holding step T-1-k
        let mut dsz = Matrix::zeros(steps, hid);
        let mut dsr = Matrix::zeros(steps, hid);
        let mut dsh = Matrix::zeros(steps, hid);
        let mut gh = upstream.row(steps - 1).to_vec();
        let mut g_rh = vec![0.0f32; hid];
        let mut dh_r = vec![0.0f32; hid];
        let mut dh_z = vec![0.0f32; hid];
        let mut dz = vec![0.0f32; hid];
        let zero = vec![0.0f32; hid];
        for t in (0..steps).rev() {
            let k = steps - 1 - t;
            let (z, r, cand) = (gates.z.row(t), gates.r.row(t), gates.cand.row(t));
            let h_prev = if t > 0 { hs.row(t - 1) } else { &zero[..] };
            let sh_row = dsh.row_mut(k);
            for j in 0..hid {
                dz[j] = gh[j] * cand[j] - gh[j] * h_prev[j];
                sh_row[j] = (gh[j] * z[j]) * (1.0 - cand[j] * cand[j]);
            }
            g_rh.fill(0.0);
            rows_times(dsh.as_slice(), k * hid, hid, 1, &uh_t, &mut g_rh);
            let sr_row = dsr.row_mut(k);
            for j in 0..hid {
                sr_row[j] = (g_rh[j] * h_prev[j]) * (r[j] * (1.0 - r[j]));
            }
            dh_r.fill(0.0);
            rows_times(dsr.as_slice(), k * hid, hid, 1, &ur_t, &mut dh_r);
            let sz_row = dsz.row_mut(k);
            for j in 0..hid {
                sz_row[j] = dz[j] * (z[j] * (1.0 - z[j]));
            }
            dh_z.fill(0.0);
            rows_times(dsz.as_slice(), k * hid, hid, 1, &uz_t, &mut dh_z);
            if t > 0 {
                let g_prev = upstream.row(t - 1);
                for j in 0..hid {
                    gh[j] = (((g_prev[j] + gh[j] * (1.0 - z[j])) + g_rh[j] * r[j]) + dh_r[j]) + dh_z[j];
                }
            }
        }

        // input gradient, (dx_h + dx_r) + dx_z per step: dsh · Whᵀ etc.
        let in_dim = self.nodes[x.0].value.cols();
        let times_transpose = |ds: &Matrix, w: &Matrix| {
            let mut out = Matrix::zeros(steps, in_dim);
            rows_times(ds.as_slice(), 0, hid, steps, &ops::transpose(w), out.as_mut_slice());
            out
        };
        let mut dx = times_transpose(&dsh, p[WH]);
        ops::add_assign(&mut dx, &times_transpose(&dsr, p[WR]));
        ops::add_assign(&mut dx, &times_transpose(&dsz, p[WZ]));
        // time-reversed, transposed operands of the weight gradients:
        // x_t, h_{t-1} and r_t ⊙ h_{t-1} as columns T-1-t
        let xv = &self.nodes[x.0].value;
        let mut x_rev_t = Matrix::zeros(in_dim, steps);
        let mut h_rev_t = Matrix::zeros(hid, steps);
        let mut rh_rev_t = Matrix::zeros(hid, steps);
        for t in 0..steps {
            let k = steps - 1 - t;
            for (i, &v) in xv.row(t).iter().enumerate() {
                x_rev_t[(i, k)] = v;
            }
            if t > 0 {
                for (i, (&h, &r)) in hs.row(t - 1).iter().zip(gates.r.row(t)).enumerate() {
                    h_rev_t[(i, k)] = h;
                    rh_rev_t[(i, k)] = r * h;
                }
            }
        }

        let dx_grad = &mut self.nodes[x.0].grad;
        for t in 0..steps {
            for (dst, s) in dx_grad.row_mut(t).iter_mut().zip(dx.row(steps - 1 - t)) {
                *dst += s;
            }
        }
        accumulate_stacked(self, &[params[WZ], params[WR], params[WH]], &x_rev_t, &Matrix::hstack(&[&dsz, &dsr, &dsh]));
        accumulate_stacked(self, &[params[UZ], params[UR]], &h_rev_t, &Matrix::hstack(&[&dsz, &dsr]));
        accumulate_stacked(self, &[params[UH]], &rh_rev_t, &dsh);
        for (param, ds) in [(BZ, &dsz), (BR, &dsr), (BH, &dsh)] {
            let grad = self.nodes[params[param].0].grad.row_mut(0);
            for k in 0..steps {
                for (dst, s) in grad.iter_mut().zip(ds.row(k)) {
                    *dst += s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The composed node chains the fused ops replace are kept here as the
    //! bitwise oracle.
    use super::*;
    use crate::gradcheck::assert_gradients_close;
    use lncl_tensor::TensorRng;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn assert_bitwise(fused: &Matrix, composed: &Matrix, what: &str) {
        assert_eq!(fused.shape(), composed.shape(), "{what}: shape");
        assert_eq!(bits(fused), bits(composed), "{what}: fused {fused:?} vs composed {composed:?}");
    }

    /// How the test loss consumes the op's output.
    #[derive(Clone, Copy)]
    enum Head {
        /// Affine + soft-target cross-entropy: a dense upstream gradient.
        Softmax,
        /// Half the output entries masked to exact zeros before the loss.
        Masked,
        /// Output scaled by 0: an all-zero upstream gradient.
        Zero,
    }

    /// Builds `head(out)` on the tape and returns the scalar loss.
    fn head(tape: &mut Tape, out: Var, head: Head, rng: &mut TensorRng) -> Var {
        let (rows, cols) = tape.shape(out);
        match head {
            Head::Softmax => {
                let w = tape.constant(rng.normal_matrix(cols, 3, 0.7));
                let b = tape.constant(rng.normal_matrix(1, 3, 0.1));
                let logits = tape.affine(out, w, b);
                let targets = lncl_tensor::stats::softmax_rows(&rng.normal_matrix(rows, 3, 1.0));
                tape.softmax_cross_entropy(logits, targets)
            }
            Head::Masked => {
                let mask = tape.constant(Matrix::from_fn(rows, cols, |r, c| ((r + c) % 2) as f32 * 0.5));
                let kept = tape.mul(out, mask);
                let t = tape.tanh(kept);
                tape.sum_all(t)
            }
            Head::Zero => {
                let zero = tape.scale(out, 0.0);
                tape.sum_all(zero)
            }
        }
    }

    /// Input with exact zeros, as after dropout.
    fn dropped(rng: &mut TensorRng, rows: usize, cols: usize) -> Matrix {
        let mut x = rng.normal_matrix(rows, cols, 1.0);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 1 {
                *v = 0.0;
            }
        }
        x
    }

    /// Runs the fused and composed forms of one max-pooled convolution bank
    /// per window (sharing `x`, as `TextConv` does) under `h` and asserts
    /// the pooled values and every gradient are bitwise equal.
    fn check_conv(x: &Matrix, banks: &[(Matrix, Matrix, usize)], h: Head, seed: u64) {
        let run = |fused: bool| {
            let mut rng = TensorRng::seed_from_u64(seed);
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let mut leaves = Vec::new();
            let mut pooled = Vec::new();
            for (w, b, window) in banks {
                let (wv, bv) = (tape.leaf(w.clone()), tape.leaf(b.clone()));
                leaves.push((wv, bv));
                pooled.push(if fused {
                    tape.conv_max_pool(xv, wv, bv, *window)
                } else {
                    let act = tape.conv_window(xv, wv, bv, *window);
                    tape.max_over_rows(act)
                });
            }
            let features = tape.hstack(&pooled);
            let loss = head(&mut tape, features, h, &mut rng);
            tape.backward(loss);
            let mut out = vec![tape.value(features).clone(), tape.grad(xv).clone()];
            for (wv, bv) in leaves {
                out.push(tape.grad(wv).clone());
                out.push(tape.grad(bv).clone());
            }
            out
        };
        let (fused, composed) = (run(true), run(false));
        for (i, (f, c)) in fused.iter().zip(&composed).enumerate() {
            assert_bitwise(f, c, &format!("conv output/grad #{i}"));
        }
    }

    fn bank(rng: &mut TensorRng, d: usize, window: usize, filters: usize) -> (Matrix, Matrix, usize) {
        (rng.normal_matrix(window * d, filters, 0.6), rng.normal_matrix(1, filters, 0.3), window)
    }

    #[test]
    fn conv_max_pool_is_bitwise_identical_to_the_composed_chain() {
        let mut rng = TensorRng::seed_from_u64(11);
        let d = 4;
        for h in [Head::Softmax, Head::Masked, Head::Zero] {
            // long sequence, several window sizes sharing x
            let x = rng.normal_matrix(9, d, 1.0);
            let banks = [bank(&mut rng, d, 2, 5), bank(&mut rng, d, 3, 5), bank(&mut rng, d, 4, 5)];
            check_conv(&x, &banks, h, 1);
            // T = window (one position) and T = 1 with window 1
            let banks = [bank(&mut rng, d, 3, 6)];
            check_conv(&rng.normal_matrix(3, d, 1.0), &banks, h, 2);
            let banks = [bank(&mut rng, d, 1, 6)];
            check_conv(&rng.normal_matrix(1, d, 1.0), &banks, h, 3);
            // dropout zeros in x
            let banks = [bank(&mut rng, d, 2, 7), bank(&mut rng, d, 3, 7)];
            check_conv(&dropped(&mut rng, 8, d), &banks, h, 4);
        }
    }

    #[test]
    fn conv_max_pool_ties_pick_the_first_window_and_dead_filters_stay_silent() {
        let mut rng = TensorRng::seed_from_u64(12);
        let d = 3;
        // rows repeat, so every window of size 2 recurs and argmax ties
        let row = rng.normal_matrix(1, d, 1.0);
        let x = Matrix::from_fn(6, d, |r, c| if r % 2 == 0 { row[(0, c)] } else { -row[(0, c)] });
        let (w, mut b, window) = bank(&mut rng, d, 2, 6);
        // filters 0 and 3 are ReLU-dead: pooled value exactly 0
        b[(0, 0)] = -100.0;
        b[(0, 3)] = -100.0;
        let mut tape = Tape::new();
        let (xv, wv, bv) = (tape.leaf(x.clone()), tape.leaf(w.clone()), tape.leaf(b.clone()));
        let pooled = tape.conv_max_pool(xv, wv, bv, window);
        let Op::ConvMaxPool { argmax, .. } = &tape.nodes[pooled.0].op else { unreachable!() };
        assert!(argmax.iter().all(|&p| p < 2), "ties must resolve to the first window: {argmax:?}");
        assert_eq!(tape.value(pooled)[(0, 0)], 0.0);
        assert_eq!(tape.value(pooled)[(0, 3)], 0.0);
        let loss = tape.sum_all(pooled);
        tape.backward(loss);
        let dw = tape.grad(wv);
        assert!((0..dw.rows()).all(|k| dw[(k, 0)] == 0.0 && dw[(k, 3)] == 0.0), "dead filter got dW");
        assert_eq!((tape.grad(bv)[(0, 0)], tape.grad(bv)[(0, 3)]), (0.0, 0.0), "dead filter got dbias");
        for h in [Head::Softmax, Head::Masked, Head::Zero] {
            check_conv(&x, &[(w.clone(), b.clone(), window)], h, 5);
        }
    }

    #[test]
    fn conv_max_pool_passes_gradcheck() {
        let mut rng = TensorRng::seed_from_u64(13);
        let x = rng.normal_matrix(5, 3, 1.0);
        let (w, b, window) = bank(&mut rng, 3, 2, 4);
        assert_gradients_close(&[x, w, b], 1e-3, 2e-2, move |tape, v| {
            let pooled = tape.conv_max_pool(v[0], v[1], v[2], window);
            let t = tape.tanh(pooled);
            tape.sum_all(t)
        });
    }

    /// The composed per-step GRU unroll (`row_slice` → gates → `vstack`),
    /// node for node the chain `gru_sequence` replaces.
    fn composed_gru(tape: &mut Tape, x: Var, p: [Var; 9]) -> Var {
        let steps = tape.shape(x).0;
        let mut h = tape.constant(Matrix::zeros(1, tape.shape(p[UZ]).0));
        let mut outputs = Vec::with_capacity(steps);
        for t in 0..steps {
            let xt = tape.row_slice(x, t);
            let sz = tape.dual_affine(xt, p[WZ], h, p[UZ], p[BZ]);
            let z = tape.sigmoid(sz);
            let sr = tape.dual_affine(xt, p[WR], h, p[UR], p[BR]);
            let r = tape.sigmoid(sr);
            let rh = tape.mul(r, h);
            let sh = tape.dual_affine(xt, p[WH], rh, p[UH], p[BH]);
            let cand = tape.tanh(sh);
            let one_minus_z = tape.one_minus(z);
            let keep = tape.mul(one_minus_z, h);
            let update = tape.mul(z, cand);
            h = tape.add(keep, update);
            outputs.push(h);
        }
        tape.vstack(&outputs)
    }

    fn gru_params(rng: &mut TensorRng, in_dim: usize, hid: usize) -> [Matrix; 9] {
        std::array::from_fn(|i| match i % 3 {
            0 => rng.normal_matrix(in_dim, hid, 0.5),
            1 => rng.normal_matrix(hid, hid, 0.5),
            _ => rng.normal_matrix(1, hid, 0.2),
        })
    }

    fn check_gru(x: &Matrix, params: &[Matrix; 9], h: Head, seed: u64) {
        let run = |fused: bool| {
            let mut rng = TensorRng::seed_from_u64(seed);
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let pv: [Var; 9] = std::array::from_fn(|i| tape.leaf(params[i].clone()));
            let out = if fused { tape.gru_sequence(xv, pv) } else { composed_gru(&mut tape, xv, pv) };
            let loss = head(&mut tape, out, h, &mut rng);
            tape.backward(loss);
            let mut all = vec![tape.value(out).clone(), tape.grad(xv).clone()];
            all.extend(pv.iter().map(|&v| tape.grad(v).clone()));
            all
        };
        let (fused, composed) = (run(true), run(false));
        let names = ["h", "dx", "dwz", "duz", "dbz", "dwr", "dur", "dbr", "dwh", "duh", "dbh"];
        for ((f, c), name) in fused.iter().zip(&composed).zip(names) {
            assert_bitwise(f, c, name);
        }
    }

    #[test]
    fn gru_sequence_is_bitwise_identical_to_the_composed_unroll() {
        let mut rng = TensorRng::seed_from_u64(21);
        for h in [Head::Softmax, Head::Masked, Head::Zero] {
            for (steps, in_dim, hid) in [(1, 3, 4), (2, 5, 3), (7, 6, 5), (12, 20, 17)] {
                let params = gru_params(&mut rng, in_dim, hid);
                check_gru(&rng.normal_matrix(steps, in_dim, 1.0), &params, h, steps as u64);
                check_gru(&dropped(&mut rng, steps, in_dim), &params, h, 100 + steps as u64);
            }
        }
    }

    #[test]
    fn gru_forward_kernel_matches_the_tape_value() {
        let mut rng = TensorRng::seed_from_u64(22);
        let params = gru_params(&mut rng, 4, 6);
        let x = rng.normal_matrix(5, 4, 1.0);
        let (h, gates) = gru_sequence_forward(&x, std::array::from_fn(|i| &params[i]));
        assert_eq!(gates.z.shape(), (5, 6));
        // every hidden state is a convex mix of tanh values, so in (-1, 1)
        assert!(h.as_slice().iter().all(|v| v.abs() < 1.0));
        let mut tape = Tape::new();
        let xv = tape.leaf(x);
        let pv: [Var; 9] = std::array::from_fn(|i| tape.leaf(params[i].clone()));
        let out = composed_gru(&mut tape, xv, pv);
        assert_bitwise(&h, tape.value(out), "forward kernel");
    }

    #[test]
    fn gru_sequence_passes_gradcheck() {
        let mut rng = TensorRng::seed_from_u64(23);
        let mut inputs = vec![rng.normal_matrix(4, 3, 1.0)];
        inputs.extend(gru_params(&mut rng, 3, 4));
        let weights = rng.normal_matrix(4, 4, 1.0);
        assert_gradients_close(&inputs, 1e-3, 2e-2, move |tape, v| {
            let out = tape.gru_sequence(v[0], std::array::from_fn(|i| v[i + 1]));
            let w = tape.constant(weights.clone());
            let weighted = tape.mul(out, w);
            tape.sum_all(weighted)
        });
    }
}
