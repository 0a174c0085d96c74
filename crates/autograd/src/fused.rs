//! Whole-layer fused ops: the max-pooled text convolution of the sentence
//! CNN ([`Tape::conv_max_pool`]), the same-length convolution of the
//! sequence tagger ([`Tape::same_conv`]) and its full GRU unroll
//! ([`Tape::gru_sequence`]), each recorded as one tape node.
//!
//! Every backward rule adds exactly the nonzero terms of the composed node
//! chain it replaces (`im2col` → `affine` → `relu` → `max_over_rows`; the
//! zero `vstack` padding → `im2col` → `affine` → `relu`; and the per-step
//! `row_slice` → `dual_affine` / `sigmoid` / `tanh` / `mul` / `one_minus` /
//! `add` → `vstack` unroll), in the same order, so every value and every
//! gradient is bitwise identical to the composed rules; every term they
//! skip is an exact ±0, which cannot change a sum that starts from `+0`.
//! Training and evaluation both record these nodes: an eval pass is the
//! same forward on a reused tape, with no backward.
//!
//! On a reused tape (see [`Tape::rewind`]) the rules build no temporaries
//! of their own: outputs, cached gates and argmax lists live in the
//! recycled node, scratch matrices in the tape, and the parameter
//! transposes of the backward products in a tape cache that recomputes one
//! only after its parameter leaf was replaced.

use crate::{Op, Tape, Var};
use lncl_tensor::simd::{self, Lhs};
use lncl_tensor::{ops, Matrix};

/// Index of each GRU parameter in the `[Var; 9]` / `[&Matrix; 9]` arrays
/// taken by [`Tape::gru_sequence`] and its kernel:
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

/// Per-step GRU activations cached by [`Tape::gru_sequence`] for the
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

/// Rows `off + r * row_step` of `data`, read with unit depth step.
fn rows(data: &[f32], off: usize, row_step: usize) -> Lhs<'_> {
    Lhs { data, off, row_step, k_step: 1 }
}

/// `out[r * out_stride + j] += Σ_kk a(r, kk) · b[kk * b_stride + j]`: one
/// [`simd::matmul_block`] on the detected tier.  Per element every term
/// adds in ascending `kk` onto the existing value — exactly the order of
/// [`ops::matmul_acc`], so every result is bitwise that of the matrix
/// product.
fn block(a: Lhs<'_>, b: &[f32], b_stride: usize, out: &mut [f32], out_stride: usize, shape: simd::Shape) {
    simd::matmul_block(simd::detected_tier(), a, b, b_stride, out, out_stride, shape);
}

/// Checks a max-pooled convolution's shapes; returns `(positions, filters)`.
fn conv_shape(x: &Matrix, w: &Matrix, bias: &Matrix, window: usize) -> (usize, usize) {
    assert!(window >= 1 && x.rows() >= window, "conv_max_pool: {} rows for window {window}; pad first", x.rows());
    assert_eq!(
        w.rows(),
        window * x.cols(),
        "conv_max_pool: weight has {} rows, expected {}",
        w.rows(),
        window * x.cols()
    );
    assert_eq!(bias.shape(), (1, w.cols()), "conv_max_pool: bias must be 1 x {}", w.cols());
    (x.rows() - window + 1, w.cols())
}

/// The max-pooled convolution into caller buffers: `act` (zeroed,
/// `positions x filters`) takes the window products, `pooled` and `argmax`
/// (`filters` each) the column maxima and their first positions.
fn conv_max_pool_into(
    x: &Matrix,
    w: &Matrix,
    bias: &Matrix,
    window: usize,
    act: &mut [f32],
    pooled: &mut [f32],
    argmax: &mut [usize],
) {
    let (positions, filters) = conv_shape(x, w, bias, window);
    block(rows(x.as_slice(), 0, x.cols()), w.as_slice(), filters, act, filters, (positions, w.rows(), filters));
    pooled.fill(f32::NEG_INFINITY);
    argmax.fill(0);
    for (p, row) in act.chunks_exact(filters).enumerate() {
        for (c, (&v, &b)) in row.iter().zip(bias.row(0)).enumerate() {
            let v = (v + b).max(0.0);
            if v > pooled[c] {
                pooled[c] = v;
                argmax[c] = p;
            }
        }
    }
}

/// Checks a same-length convolution's shapes; returns `(T, d, filters)`.
fn same_conv_shape(x: &Matrix, w: &Matrix, bias: &Matrix, window: usize) -> (usize, usize, usize) {
    assert!(window % 2 == 1, "same_conv: window {window} must be odd");
    assert!(x.rows() > 0, "same_conv: empty sequence");
    assert_eq!(w.rows(), window * x.cols(), "same_conv: weight has {} rows, expected {}", w.rows(), window * x.cols());
    assert_eq!(bias.shape(), (1, w.cols()), "same_conv: bias must be 1 x {}", w.cols());
    (x.rows(), x.cols(), w.cols())
}

/// `out` (zeroed, `T x filters`) `= relu(windows · w + bias)`, where the
/// window of position `p` covers rows `p - window/2 ..= p + window/2` of a
/// zero-padded `x`.  Windows are read in place from `x`: the full ones as
/// one product with `row_step = d`, each border one clipped to its rows
/// inside `x`.  The padded product's terms from padding rows are `±0`
/// added to a sum that starts at `+0`, which leaves it unchanged while `w`
/// is finite, so the sums are bitwise those of the padded product.
fn same_conv_into(x: &Matrix, w: &Matrix, bias: &Matrix, window: usize, out: &mut [f32]) {
    let (t, d, filters) = same_conv_shape(x, w, bias, window);
    let half = window / 2;
    let full = half..t.saturating_sub(half);
    if !full.is_empty() {
        let lhs = rows(x.as_slice(), (full.start - half) * d, d);
        block(lhs, w.as_slice(), filters, &mut out[full.start * filters..], filters, (full.len(), window * d, filters));
    }
    for p in (0..t).filter(|p| !full.contains(p)) {
        let (lo, hi) = (p.saturating_sub(half), (p + half + 1).min(t));
        let skip = (lo + half - p) * d;
        let lhs = rows(x.as_slice(), lo * d, d);
        block(
            lhs,
            &w.as_slice()[skip * filters..],
            filters,
            &mut out[p * filters..],
            filters,
            (1, (hi - lo) * d, filters),
        );
    }
    for row in out.chunks_exact_mut(filters) {
        for (o, b) in row.iter_mut().zip(bias.row(0)) {
            *o = (*o + b).max(0.0);
        }
    }
}

/// Checks a GRU's shapes; returns `(T, in, hidden)`.
fn gru_shape(x: &Matrix, params: [&Matrix; 9]) -> (usize, usize, usize) {
    let (steps, in_dim) = x.shape();
    assert!(steps > 0, "gru_sequence: empty sequence");
    let hid = params[UZ].rows();
    for (i, shape) in [(in_dim, hid), (hid, hid), (1, hid)].into_iter().cycle().take(9).enumerate() {
        assert_eq!(params[i].shape(), shape, "gru_sequence: parameter {i} has the wrong shape");
    }
    (steps, in_dim, hid)
}

/// The GRU unroll into caller buffers, all zeroed: `out` and the gates
/// `T x hidden`, `proj` (`T x 3·hidden`) and `step` (`1 x 5·hidden`)
/// scratch.
fn gru_sequence_into(
    x: &Matrix,
    params: [&Matrix; 9],
    out: &mut Matrix,
    gates: &mut GruGates,
    proj: &mut [f32],
    step: &mut [f32],
) {
    let (steps, in_dim, hid) = gru_shape(x, params);
    // row t: [x_t Wz | x_t Wr | x_t Wh]
    for (g, p) in [WZ, WR, WH].into_iter().enumerate() {
        let lhs = rows(x.as_slice(), 0, in_dim);
        block(lhs, params[p].as_slice(), hid, &mut proj[g * hid..], 3 * hid, (steps, in_dim, hid));
    }
    let (bz, br, bh) = (params[BZ].row(0), params[BR].row(0), params[BH].row(0));
    let (h_zr, rest) = step.split_at_mut(2 * hid);
    let (rh, rest) = rest.split_at_mut(hid);
    let (rh_u, zero) = rest.split_at_mut(hid);
    for t in 0..steps {
        let xw = &proj[t * 3 * hid..(t + 1) * 3 * hid];
        // [h Uz | h Ur]; the zero initial state contributes +0
        h_zr.fill(0.0);
        if t > 0 {
            for (g, p) in [UZ, UR].into_iter().enumerate() {
                let lhs = rows(out.as_slice(), (t - 1) * hid, hid);
                block(lhs, params[p].as_slice(), hid, &mut h_zr[g * hid..], hid, (1, hid, hid));
            }
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
        block(rows(rh, 0, hid), params[UH].as_slice(), hid, rh_u, hid, (1, hid, hid));
        let (z, cand) = (gates.z.row(t), gates.cand.row_mut(t));
        for j in 0..hid {
            cand[j] = ((xw[2 * hid + j] + rh_u[j]) + bh[j]).tanh();
            let keep = (1.0 - z[j]) * h[j];
            let update = z[j] * cand[j];
            rest[j] = keep + update;
        }
    }
}

impl Tape {
    /// Fused max-pooled text convolution `max_over_rows(relu(im2col(x,
    /// window) * w + bias))` as one node (`T x d -> 1 x filters`).  Window
    /// `p` is read in place as the `window` consecutive rows of `x`
    /// starting at row `p`.  Only the pooled row and, per filter, the
    /// first window position attaining the maximum are kept; the backward
    /// rule visits the argmax window of each filter whose pooled value is
    /// positive instead of the whole `(T - window + 1) x filters` map.
    ///
    /// # Panics
    /// Panics if `x` has fewer rows than `window` or on a shape mismatch.
    pub fn conv_max_pool(&mut self, x: Var, w: Var, bias: Var, window: usize) -> Var {
        let (positions, filters) = conv_shape(self.value(x), self.value(w), self.value(bias), window);
        let mut node = self.next_node();
        let mut argmax = match std::mem::replace(&mut node.op, Op::Leaf) {
            Op::ConvMaxPool { argmax, .. } => argmax,
            _ => Vec::new(),
        };
        argmax.resize(filters, 0);
        let mut s = self.take_scratch(1);
        self.zeroed(&mut s[0], positions, filters);
        self.zeroed(&mut node.value, 1, filters);
        let (xv, wv, bv) = (self.value(x), self.value(w), self.value(bias));
        conv_max_pool_into(xv, wv, bv, window, s[0].as_mut_slice(), node.value.as_mut_slice(), &mut argmax);
        self.put_scratch(s);
        node.op = Op::ConvMaxPool { x, w, bias, window, argmax };
        self.push_node(node)
    }

    /// Fused same-length convolution
    /// `relu(im2col(zero_pad(x), window) * w + bias)` as one node
    /// (`T x d -> T x filters`, `window/2` zero rows padded at each end):
    /// the windows are read in place from `x`, with no padded copy, no
    /// im2col matrix and no intermediate nodes.
    ///
    /// # Panics
    /// Panics on an even window, an empty sequence or a shape mismatch.
    pub fn same_conv(&mut self, x: Var, w: Var, bias: Var, window: usize) -> Var {
        let (t, _, filters) = same_conv_shape(self.value(x), self.value(w), self.value(bias), window);
        let mut node = self.next_node();
        self.zeroed(&mut node.value, t, filters);
        same_conv_into(self.value(x), self.value(w), self.value(bias), window, node.value.as_mut_slice());
        node.op = Op::SameConv { x, w, bias, window };
        self.push_node(node)
    }

    /// Fused GRU unroll over the `T x in` sequence `x` from a zero hidden
    /// state, as one node producing the stacked `T x hidden` states:
    ///
    /// ```text
    /// z = σ(x Wz + h Uz + bz)
    /// r = σ(x Wr + h Ur + br)
    /// h̃ = tanh(x Wh + (r ⊙ h) Uh + bh)
    /// h' = (1 - z) ⊙ h + z ⊙ h̃
    /// ```
    ///
    /// `params` is `[wz, uz, bz, wr, ur, br, wh, uh, bh]`.  The input
    /// projections of all three gates run up front into one `T x 3·hidden`
    /// buffer (each gate's weights written at its column offset) and the
    /// recurrent ones of `z` and `r` into one `[h Uz | h Ur]` row per step;
    /// every element is summed exactly as the per-step fused `dual_affine`
    /// computes it, `(x w + h u) + b`.  Caches the gates, and the backward
    /// rule runs a hand-written backpropagation through time.
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
        let (steps, _, hid) = gru_shape(self.value(x), params.map(|p| self.value(p)));
        let mut node = self.next_node();
        let mut gates = match std::mem::replace(&mut node.op, Op::Leaf) {
            Op::GruSequence { gates, .. } => gates,
            _ => GruGates { z: Matrix::zeros(0, 0), r: Matrix::zeros(0, 0), cand: Matrix::zeros(0, 0) },
        };
        for m in [&mut node.value, &mut gates.z, &mut gates.r, &mut gates.cand] {
            self.zeroed(m, steps, hid);
        }
        let mut s = self.take_scratch(2);
        self.zeroed(&mut s[0], steps, 3 * hid);
        self.zeroed(&mut s[1], 1, 5 * hid);
        let [proj, step] = &mut s[..2] else { unreachable!("two scratch matrices") };
        let (xv, pv) = (self.value(x), params.map(|p| self.value(p)));
        gru_sequence_into(xv, pv, &mut node.value, &mut gates, proj.as_mut_slice(), step.as_mut_slice());
        self.put_scratch(s);
        node.op = Op::GruSequence { x, params, gates };
        self.push_node(node)
    }

    /// Backward rule of [`Tape::conv_max_pool`].  With `g` the upstream
    /// row, `G` (`positions x filters`) holds `g_c` in row `argmax[c]` of
    /// each filter `c` whose pooled value is positive and zeros elsewhere;
    /// then `dW += colsᵀ · G` (the windows of `x` read in place with
    /// `row_step = 1, k_step = d`), `dbias[c] += g_c` for those filters,
    /// and `dcols = G · Wᵀ`, whose argmax rows are scattered into `x` in
    /// ascending `(p, window row)` order.
    ///
    /// Each `dW` element gets its one nonzero term; the others are `±0`
    /// added to a sum that starts at `+0`, which leaves it unchanged while
    /// `x` is finite.  `G` has one nonzero per live filter, so `dcols` is
    /// built from those alone: row `argmax[c]` adds `g_c` times row `c` of
    /// the cached transpose, in ascending filter order.  That is the
    /// product's own order without its `±0` terms, the composed rule's
    /// per-filter loop, and it costs `live filters × span` instead of
    /// `positions × filters × span`.
    pub(crate) fn backward_conv_max_pool(&mut self, index: usize, op: &Op, upstream: &Matrix) {
        let &Op::ConvMaxPool { x, w, bias, window, ref argmax } = op else {
            unreachable!("backward_conv_max_pool on another op")
        };
        let wt = self.transpose_of(w);
        let g = upstream.row(0);
        let filters = g.len();
        let (t, d) = self.nodes[x.0].value.shape();
        let (positions, span) = (t - window + 1, window * d);
        let mut s = self.take_scratch(2);
        let [gm, dcols] = &mut s[..2] else { unreachable!("two scratch matrices") };
        self.zeroed(gm, positions, filters);
        let pooled = self.nodes[index].value.row(0);
        for c in (0..filters).filter(|&c| pooled[c] > 0.0 && g[c] != 0.0) {
            gm[(argmax[c], c)] = g[c];
        }
        let live = |c: usize| gm[(argmax[c], c)] != 0.0;

        let mut dw = std::mem::replace(&mut self.nodes[w.0].grad, Matrix::zeros(0, 0));
        let cols = Lhs { data: self.nodes[x.0].value.as_slice(), off: 0, row_step: 1, k_step: d };
        block(cols, gm.as_slice(), filters, dw.as_mut_slice(), filters, (span, positions, filters));
        self.nodes[w.0].grad = dw;
        let dbias = self.nodes[bias.0].grad.row_mut(0);
        for c in (0..filters).filter(|&c| live(c)) {
            dbias[c] += g[c];
        }

        self.zeroed(dcols, positions, span);
        let wt = &self.transposes[wt].value;
        for c in (0..filters).filter(|&c| live(c)) {
            for (s, &v) in dcols.row_mut(argmax[c]).iter_mut().zip(wt.row(c)) {
                *s += g[c] * v;
            }
        }
        let dx = self.nodes[x.0].grad.as_mut_slice();
        for p in (0..positions).filter(|&p| gm.row(p).iter().any(|&v| v != 0.0)) {
            for (dst, s) in dx[p * d..p * d + span].iter_mut().zip(dcols.row(p)) {
                *dst += s;
            }
        }
        self.put_scratch(s);
    }

    /// Backward rule of [`Tape::same_conv`], the composed chain's rules in
    /// its order: with `m` the upstream masked by the ReLU output and
    /// `cols` the padded windows, `dW = colsᵀ · m` (per window row, the
    /// positions whose row lies inside `x`, read in place with
    /// `row_step = 1, k_step = d`), `dbias = Σ_rows m`, `dcols = m · Wᵀ`
    /// against the cached transpose, and `dcols` scattered into the padded
    /// rows in ascending `(position, window row)` order, whose rows inside
    /// `x` are then added to its gradient.
    pub(crate) fn backward_same_conv(&mut self, index: usize, op: &Op, upstream: &Matrix) {
        let &Op::SameConv { x, w, bias, window } = op else { unreachable!("backward_same_conv on another op") };
        let wt = self.transpose_of(w);
        let (t, d) = self.nodes[x.0].value.shape();
        let (filters, half, span) = (upstream.cols(), window / 2, window * d);
        let mut s = self.take_scratch(5);
        let [masked, dw, dbias, dcols, dx] = &mut s[..5] else { unreachable!("five scratch matrices") };
        self.zeroed(masked, t, filters);
        let y = &self.nodes[index].value;
        for ((m, &g), &v) in masked.as_mut_slice().iter_mut().zip(upstream.as_slice()).zip(y.as_slice()) {
            *m = if v <= 0.0 { 0.0 } else { g };
        }
        self.zeroed(dw, span, filters);
        let xs = self.nodes[x.0].value.as_slice();
        for wnd in 0..window {
            // positions p whose window row wnd is row p + wnd - half of x
            let (p0, p1) = (half.saturating_sub(wnd), (t + half).saturating_sub(wnd).min(t));
            if p0 < p1 {
                let lhs = Lhs { data: xs, off: (p0 + wnd - half) * d, row_step: 1, k_step: d };
                let (b, out) = (&masked.as_slice()[p0 * filters..], &mut dw.as_mut_slice()[wnd * d * filters..]);
                block(lhs, b, filters, out, filters, (d, p1 - p0, filters));
            }
        }
        crate::ops::sum_rows_into(masked, dbias);
        self.zeroed(dcols, t, span);
        ops::matmul_acc(masked, &self.transposes[wt].value, dcols);
        self.zeroed(dx, t, d);
        for p in 0..t {
            for wnd in 0..window {
                let Some(r) = (p + wnd).checked_sub(half).filter(|&r| r < t) else { continue };
                for (dst, s) in dx.row_mut(r).iter_mut().zip(&dcols.row(p)[wnd * d..(wnd + 1) * d]) {
                    *dst += s;
                }
            }
        }
        ops::add_assign(&mut self.nodes[w.0].grad, dw);
        ops::add_assign(&mut self.nodes[bias.0].grad, dbias);
        ops::add_assign(&mut self.nodes[x.0].grad, dx);
        self.put_scratch(s);
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
    /// descending-`t` order; the `Uᵀ` / `Wᵀ` panels are the tape's cached
    /// transposes.
    pub(crate) fn backward_gru_sequence(&mut self, index: usize, op: &Op, upstream: &Matrix) {
        let &Op::GruSequence { x, params, ref gates } = op else { unreachable!("backward_gru_sequence on another op") };
        let [uz_t, ur_t, uh_t, wz_t, wr_t, wh_t] = [UZ, UR, UH, WZ, WR, WH].map(|p| self.transpose_of(params[p]));
        let (steps, hid) = self.nodes[index].value.shape();
        let in_dim = self.nodes[x.0].value.cols();
        let mut s = self.take_scratch(7);
        let [ds, vecs, dx, tmp, x_rev, h_rev, rh_rev] = &mut s[..7] else { unreachable!("seven scratch matrices") };
        // row k: [dsz | dsr | dsh] of step T-1-k
        self.zeroed(ds, steps, 3 * hid);
        self.zeroed(vecs, 6, hid);
        let (gh, rest) = vecs.as_mut_slice().split_at_mut(hid);
        let (g_rh, rest) = rest.split_at_mut(hid);
        let (dh_r, rest) = rest.split_at_mut(hid);
        let (dh_z, rest) = rest.split_at_mut(hid);
        let (dz, zero) = rest.split_at_mut(hid);
        let (hs, tr) = (&self.nodes[index].value, &self.transposes);
        gh.copy_from_slice(upstream.row(steps - 1));
        for t in (0..steps).rev() {
            let k = steps - 1 - t;
            let (z, r, cand) = (gates.z.row(t), gates.r.row(t), gates.cand.row(t));
            let h_prev = if t > 0 { hs.row(t - 1) } else { &zero[..] };
            let sh_row = &mut ds.row_mut(k)[2 * hid..];
            for j in 0..hid {
                dz[j] = gh[j] * cand[j] - gh[j] * h_prev[j];
                sh_row[j] = (gh[j] * z[j]) * (1.0 - cand[j] * cand[j]);
            }
            g_rh.fill(0.0);
            block(
                rows(ds.as_slice(), k * 3 * hid + 2 * hid, 3 * hid),
                tr[uh_t].value.as_slice(),
                hid,
                g_rh,
                hid,
                (1, hid, hid),
            );
            let sr_row = &mut ds.row_mut(k)[hid..2 * hid];
            for j in 0..hid {
                sr_row[j] = (g_rh[j] * h_prev[j]) * (r[j] * (1.0 - r[j]));
            }
            dh_r.fill(0.0);
            block(
                rows(ds.as_slice(), k * 3 * hid + hid, 3 * hid),
                tr[ur_t].value.as_slice(),
                hid,
                dh_r,
                hid,
                (1, hid, hid),
            );
            let sz_row = &mut ds.row_mut(k)[..hid];
            for j in 0..hid {
                sz_row[j] = dz[j] * (z[j] * (1.0 - z[j]));
            }
            dh_z.fill(0.0);
            block(rows(ds.as_slice(), k * 3 * hid, 3 * hid), tr[uz_t].value.as_slice(), hid, dh_z, hid, (1, hid, hid));
            if t > 0 {
                let g_prev = upstream.row(t - 1);
                for j in 0..hid {
                    gh[j] = (((g_prev[j] + gh[j] * (1.0 - z[j])) + g_rh[j] * r[j]) + dh_r[j]) + dh_z[j];
                }
            }
        }

        // input gradient, (dx_h + dx_r) + dx_z per step: dsh · Whᵀ etc.
        self.zeroed(dx, steps, in_dim);
        for (g, w_t) in [(2, wh_t), (1, wr_t), (0, wz_t)] {
            let out = if g == 2 { &mut *dx } else { &mut *tmp };
            if g < 2 {
                self.zeroed(out, steps, in_dim);
            }
            let lhs = rows(ds.as_slice(), g * hid, 3 * hid);
            block(lhs, self.transposes[w_t].value.as_slice(), in_dim, out.as_mut_slice(), in_dim, (steps, hid, in_dim));
            if g < 2 {
                ops::add_assign(dx, tmp);
            }
        }
        // time-reversed operands of the weight gradients: x_t, h_{t-1} and
        // r_t ⊙ h_{t-1} as rows T-1-t, read as columns (`k_step` = width)
        self.zeroed(x_rev, steps, in_dim);
        self.zeroed(h_rev, steps, hid);
        self.zeroed(rh_rev, steps, hid);
        let (xv, hs) = (&self.nodes[x.0].value, &self.nodes[index].value);
        for t in 0..steps {
            let k = steps - 1 - t;
            x_rev.row_mut(k).copy_from_slice(xv.row(t));
            if t > 0 {
                h_rev.row_mut(k).copy_from_slice(hs.row(t - 1));
                for ((rh, &h), &r) in rh_rev.row_mut(k).iter_mut().zip(hs.row(t - 1)).zip(gates.r.row(t)) {
                    *rh = r * h;
                }
            }
        }

        let dx_grad = &mut self.nodes[x.0].grad;
        for t in 0..steps {
            for (dst, s) in dx_grad.row_mut(t).iter_mut().zip(dx.row(steps - 1 - t)) {
                *dst += s;
            }
        }
        // dW / dU += reversed operandᵀ · ds, one gate's block at a time
        for (p, operand, g) in
            [(WZ, &*x_rev, 0), (WR, x_rev, 1), (WH, x_rev, 2), (UZ, h_rev, 0), (UR, h_rev, 1), (UH, rh_rev, 2)]
        {
            let grad = self.nodes[params[p].0].grad.as_mut_slice();
            let lhs = Lhs { data: operand.as_slice(), off: 0, row_step: 1, k_step: operand.cols() };
            block(lhs, &ds.as_slice()[g * hid..], 3 * hid, grad, hid, (operand.cols(), steps, hid));
        }
        for (param, g) in [(BZ, 0), (BR, 1), (BH, 2)] {
            let grad = self.nodes[params[param].0].grad.row_mut(0);
            for k in 0..steps {
                for (dst, s) in grad.iter_mut().zip(&ds.row(k)[g * hid..(g + 1) * hid]) {
                    *dst += s;
                }
            }
        }
        self.put_scratch(s);
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
                    let cols = tape.im2col(xv, *window);
                    let pre = tape.affine(cols, wv, bv);
                    let act = tape.relu(pre);
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

    /// Runs the fused and composed (`vstack` zero padding → `im2col` →
    /// `affine` → `relu`) forms of one same-length convolution under `h` and
    /// asserts the output and every gradient are bitwise equal.
    fn check_same_conv(x: &Matrix, (w, b, window): &(Matrix, Matrix, usize), h: Head, seed: u64) {
        let run = |fused: bool| {
            let mut rng = TensorRng::seed_from_u64(seed);
            let mut tape = Tape::new();
            let (xv, wv, bv) = (tape.leaf(x.clone()), tape.leaf(w.clone()), tape.leaf(b.clone()));
            let out = if fused {
                tape.same_conv(xv, wv, bv, *window)
            } else {
                let pad = tape.constant(Matrix::zeros(window / 2, x.cols()));
                let padded = tape.vstack(&[pad, xv, pad]);
                let cols = tape.im2col(padded, *window);
                let pre = tape.affine(cols, wv, bv);
                tape.relu(pre)
            };
            let loss = head(&mut tape, out, h, &mut rng);
            tape.backward(loss);
            [out, xv, wv, bv].map(|v| if v == out { tape.value(v).clone() } else { tape.grad(v).clone() })
        };
        let (fused, composed) = (run(true), run(false));
        for ((f, c), name) in fused.iter().zip(&composed).zip(["y", "dx", "dw", "dbias"]) {
            assert_bitwise(f, c, name);
        }
    }

    #[test]
    fn same_conv_is_bitwise_identical_to_the_composed_chain() {
        let mut rng = TensorRng::seed_from_u64(14);
        let d = 4;
        for h in [Head::Softmax, Head::Masked, Head::Zero] {
            for window in [1, 3, 5] {
                // shorter than, equal to and longer than the window
                for t in [1, 2, window, 9, 12] {
                    let conv = bank(&mut rng, d, window, 6);
                    check_same_conv(&rng.normal_matrix(t, d, 1.0), &conv, h, t as u64);
                    check_same_conv(&dropped(&mut rng, t, d), &conv, h, 100 + t as u64);
                }
            }
        }
    }

    #[test]
    fn same_conv_passes_gradcheck() {
        let mut rng = TensorRng::seed_from_u64(15);
        let x = rng.normal_matrix(4, 3, 1.0);
        let (w, b, window) = bank(&mut rng, 3, 3, 4);
        assert_gradients_close(&[x, w, b], 1e-3, 2e-2, move |tape, v| {
            let y = tape.same_conv(v[0], v[1], v[2], window);
            let t = tape.tanh(y);
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
