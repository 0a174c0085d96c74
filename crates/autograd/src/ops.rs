//! Operator definitions: eager forward computation plus the per-op backward
//! rules used by [`Tape::backward`].

use crate::fused::GruGates;
use crate::{Tape, Var};
use lncl_tensor::{ops, Matrix};

/// How a node on the tape was produced.
///
/// Every variant stores the operand handles (and any auxiliary data, such as
/// max-pool argmax indices or the cached softmax probabilities) needed to
/// run its backward rule.
pub enum Op {
    /// Input or parameter copy; no backward rule.
    Leaf,
    /// Matrix product `a * b`.
    MatMul(Var, Var),
    /// Element-wise `a + b`.
    Add(Var, Var),
    /// Element-wise (Hadamard) `a ⊙ b`.
    Mul(Var, Var),
    /// Scalar multiple `s * a`.
    Scale(Var, f32),
    /// `1 - a` element-wise (used by the GRU update gate).
    OneMinus(Var),
    /// Adds a `1 x cols` bias row to every row of `a`.
    AddRowBroadcast(Var, Var),
    /// Rectified linear unit.
    Relu(Var),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// Sum of every entry, producing a scalar.
    SumAll(Var),
    /// Horizontal concatenation (same row count).
    HStack(Vec<Var>),
    /// Vertical concatenation (same column count).
    VStack(Vec<Var>),
    /// Gather of the listed rows (embedding lookup).
    GatherRows(Var, Vec<usize>),
    /// Sliding-window flattening: row `p` of the output is the
    /// concatenation of input rows `p .. p+window`.  Test-only: a link of
    /// the composed chains the fused convolutions are checked against.
    #[cfg(test)]
    Im2Col(Var, usize),
    /// Column-wise max over rows ("max-over-time" pooling); stores argmax.
    /// Test-only, like [`Op::Im2Col`].
    #[cfg(test)]
    MaxOverRows(Var, Vec<usize>),
    /// Element-wise multiplication by a fixed inverted-dropout mask.
    Dropout(Var, Matrix),
    /// Extraction of a single row as a `1 x cols` matrix.
    RowSlice(Var, usize),
    /// Fused affine map `x * w + bias` (bias broadcast over rows).
    Affine { x: Var, w: Var, bias: Var },
    /// Fused dual affine map `x * w + h * u + bias` (a GRU gate
    /// pre-activation).
    DualAffine { x: Var, w: Var, h: Var, u: Var, bias: Var },
    /// Fused same-length convolution
    /// `relu(im2col(zero_pad(x), window) * w + bias)` as one node
    /// ([`Tape::same_conv`]); windows are read in place from `x`.
    SameConv { x: Var, w: Var, bias: Var, window: usize },
    /// Fused max-pooled text convolution
    /// `max_over_rows(relu(im2col(x, window) * w + bias))` as one node
    /// ([`Tape::conv_max_pool`]).  Stores the argmax window of each filter;
    /// the backward rule visits only those windows.
    ConvMaxPool { x: Var, w: Var, bias: Var, window: usize, argmax: Vec<usize> },
    /// Fused GRU unroll over a whole sequence ([`Tape::gru_sequence`]);
    /// `params` is `[wz, uz, bz, wr, ur, br, wh, uh, bh]`.  Stores the
    /// per-step gates for the backpropagation through time.
    GruSequence { x: Var, params: [Var; 9], gates: GruGates },
    /// Fused row-softmax + cross-entropy against fixed soft targets,
    /// averaged over rows.  Stores the softmax probabilities.
    SoftmaxCrossEntropy { logits: Var, targets: Matrix, probs: Matrix },
}

impl Tape {
    // ---------------------------------------------------------------------
    // Forward operator constructors
    // ---------------------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = ops::matmul(self.value(a), self.value(b));
        self.push(value, Op::MatMul(a, b))
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = ops::add(self.value(a), self.value(b));
        self.push(value, Op::Add(a, b))
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = ops::mul(self.value(a), self.value(b));
        self.push(value, Op::Mul(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let mut node = self.next_node();
        let input = &self.nodes[a.0].value;
        self.zeroed(&mut node.value, input.rows(), input.cols());
        for (o, &v) in node.value.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = v * s;
        }
        node.op = Op::Scale(a, s);
        self.push_node(node)
    }

    /// `1 - a` element-wise.
    pub fn one_minus(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|v| 1.0 - v);
        self.push(value, Op::OneMinus(a))
    }

    /// Adds a `1 x cols` bias row to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let value = ops::add_row_broadcast(self.value(a), self.value(bias));
        self.push(value, Op::AddRowBroadcast(a, bias))
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|v| v.max(0.0));
        self.push(value, Op::Relu(a))
    }

    /// Tanh activation.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::tanh);
        self.push(value, Op::Tanh(a))
    }

    /// Sigmoid activation.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|v| 1.0 / (1.0 + (-v).exp()));
        self.push(value, Op::Sigmoid(a))
    }

    /// Sum of all entries (scalar output).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Matrix::full(1, 1, self.value(a).sum());
        self.push(value, Op::SumAll(a))
    }

    /// Horizontal concatenation of equally-tall matrices.
    pub fn hstack(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "hstack: no operands");
        let mut node = self.next_node();
        let rows = self.shape(parts[0]).0;
        let cols = parts.iter().map(|&p| self.shape(p).1).sum();
        self.zeroed(&mut node.value, rows, cols);
        let mut offset = 0;
        for &p in parts {
            let part = &self.nodes[p.0].value;
            assert_eq!(part.rows(), rows, "hstack: inconsistent row counts");
            for r in 0..rows {
                node.value.row_mut(r)[offset..offset + part.cols()].copy_from_slice(part.row(r));
            }
            offset += part.cols();
        }
        let mut vars = match std::mem::replace(&mut node.op, Op::Leaf) {
            Op::HStack(vars) => vars,
            _ => Vec::new(),
        };
        vars.clear();
        vars.extend_from_slice(parts);
        node.op = Op::HStack(vars);
        self.push_node(node)
    }

    /// Vertical concatenation of equally-wide matrices.
    pub fn vstack(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "vstack: no operands");
        let values: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let value = Matrix::vstack(&values);
        self.push(value, Op::VStack(parts.to_vec()))
    }

    /// Gathers the listed rows of `a` (embedding lookup); repeats allowed.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let value = ops::gather_rows(self.value(a), indices);
        self.push(value, Op::GatherRows(a, indices.to_vec()))
    }

    /// Sliding-window flattening used to express a text convolution as a
    /// single matrix product: with input `T x d` and window `w`, row `p` of
    /// the `(T - w + 1) x (w * d)` output is the concatenation of input rows
    /// `p .. p + w`.
    ///
    /// # Panics
    /// Panics if the window is zero or the input has fewer rows than it.
    #[cfg(test)]
    pub fn im2col(&mut self, a: Var, window: usize) -> Var {
        let input = self.value(a);
        assert!(window >= 1 && input.rows() >= window, "im2col: {} rows for window {window}", input.rows());
        let d = input.cols();
        let value = Matrix::from_fn(input.rows() - window + 1, window * d, |p, j| input[(p + j / d, j % d)]);
        self.push(value, Op::Im2Col(a, window))
    }

    /// Column-wise max over rows ("max-over-time" pooling): `T x c -> 1 x c`,
    /// keeping the first row that attains each maximum.
    #[cfg(test)]
    pub fn max_over_rows(&mut self, a: Var) -> Var {
        let input = self.value(a);
        assert!(input.rows() > 0, "max_over_rows: empty matrix");
        let argmax: Vec<usize> = (0..input.cols())
            .map(|c| (0..input.rows()).fold(0, |best, r| if input[(r, c)] > input[(best, c)] { r } else { best }))
            .collect();
        let value = Matrix::from_fn(1, input.cols(), |_, c| input[(argmax[c], c)]);
        self.push(value, Op::MaxOverRows(a, argmax))
    }

    /// Inverted dropout with the given keep probability.  When `training` is
    /// false (or `keep >= 1`) this is the identity: no node, no mask, no
    /// copy.  Otherwise the mask draws one uniform number in `[0,1)` per
    /// entry from `uniform`, in row-major order, so the caller controls the
    /// randomness (and reproducibility); mask and value are written into
    /// reused buffers.
    pub fn dropout(&mut self, a: Var, keep: f32, mut uniform: impl FnMut() -> f32, training: bool) -> Var {
        if !training || keep >= 1.0 {
            return a;
        }
        assert!(keep > 0.0, "dropout: keep probability must be positive");
        let inv_keep = 1.0 / keep;
        let mut node = self.next_node();
        let mut mask = match std::mem::replace(&mut node.op, Op::Leaf) {
            Op::Dropout(_, mask) => mask,
            _ => Matrix::zeros(0, 0),
        };
        let input = &self.nodes[a.0].value;
        self.zeroed(&mut mask, input.rows(), input.cols());
        self.zeroed(&mut node.value, input.rows(), input.cols());
        for m in mask.as_mut_slice() {
            *m = if uniform() < keep { inv_keep } else { 0.0 };
        }
        for ((o, &v), &m) in node.value.as_mut_slice().iter_mut().zip(input.as_slice()).zip(mask.as_slice()) {
            *o = v * m;
        }
        node.op = Op::Dropout(a, mask);
        self.push_node(node)
    }

    /// Extracts row `r` of `a` as a `1 x cols` node.
    pub fn row_slice(&mut self, a: Var, r: usize) -> Var {
        let input = self.value(a);
        assert!(r < input.rows(), "row_slice: row {r} out of bounds ({} rows)", input.rows());
        let value = Matrix::from_vec(1, input.cols(), input.row(r).to_vec());
        self.push(value, Op::RowSlice(a, r))
    }

    /// Fused softmax + cross-entropy against fixed soft targets, averaged
    /// over rows.  `targets` must have the same shape as `logits` and each
    /// row should be a probability distribution (the "soft label" `q_f(t)`
    /// of the paper).  Returns a scalar node.  Forward runs as the single
    /// fused pass [`ops::softmax_xent_rows`], whose probabilities are kept
    /// for the backward rule.
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: Matrix) -> Var {
        let mut node = self.next_node();
        let mut probs = match std::mem::replace(&mut node.op, Op::Leaf) {
            Op::SoftmaxCrossEntropy { probs, .. } => probs,
            _ => Matrix::zeros(0, 0),
        };
        let input = &self.nodes[logits.0].value;
        self.zeroed(&mut probs, input.rows(), input.cols());
        let loss = ops::softmax_xent_rows_into(input, &targets, &mut probs);
        node.value.reset(1, 1);
        node.value[(0, 0)] = loss;
        node.op = Op::SoftmaxCrossEntropy { logits, targets, probs };
        self.push_node(node)
    }

    /// Fused affine layer `x * w + bias` with bias broadcast over rows: one
    /// node and one output allocation instead of the matmul + broadcast
    /// composition.
    pub fn affine(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let mut node = self.next_node();
        self.zeroed(&mut node.value, self.shape(x).0, self.shape(w).1);
        ops::affine_into(self.value(x), self.value(w), self.value(bias), &mut node.value);
        node.op = Op::Affine { x, w, bias };
        self.push_node(node)
    }

    /// Fused dual affine map `x * w + h * u + bias` (bias broadcast over
    /// rows), the pre-activation of a GRU gate: one node instead of the
    /// two-matmul + add + broadcast composition.
    pub fn dual_affine(&mut self, x: Var, w: Var, h: Var, u: Var, bias: Var) -> Var {
        let value = ops::dual_affine(self.value(x), self.value(w), self.value(h), self.value(u), self.value(bias));
        self.push(value, Op::DualAffine { x, w, h, u, bias })
    }

    // ---------------------------------------------------------------------
    // Backward rules
    // ---------------------------------------------------------------------

    pub(crate) fn backward_node(&mut self, index: usize) {
        // Temporarily move the op and upstream gradient out of the node so
        // we can mutate other nodes' gradients without aliasing (moved, not
        // cloned — they are restored below).
        let upstream = std::mem::replace(&mut self.nodes[index].grad, Matrix::zeros(0, 0));
        if upstream.as_slice().iter().all(|&g| g == 0.0) {
            self.nodes[index].grad = upstream;
            return;
        }
        let op = std::mem::replace(&mut self.nodes[index].op, Op::Leaf);
        match &op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let da = ops::matmul_transpose_b(&upstream, &self.nodes[b.0].value);
                let db = ops::matmul_transpose_a(&self.nodes[a.0].value, &upstream);
                ops::add_assign(&mut self.nodes[a.0].grad, &da);
                ops::add_assign(&mut self.nodes[b.0].grad, &db);
            }
            Op::Add(a, b) => {
                ops::add_assign(&mut self.nodes[a.0].grad, &upstream);
                ops::add_assign(&mut self.nodes[b.0].grad, &upstream);
            }
            Op::Mul(a, b) => {
                let da = ops::mul(&upstream, &self.nodes[b.0].value);
                let db = ops::mul(&upstream, &self.nodes[a.0].value);
                ops::add_assign(&mut self.nodes[a.0].grad, &da);
                ops::add_assign(&mut self.nodes[b.0].grad, &db);
            }
            Op::Scale(a, s) => {
                ops::add_scaled_assign(&mut self.nodes[a.0].grad, &upstream, *s);
            }
            Op::OneMinus(a) => {
                ops::add_scaled_assign(&mut self.nodes[a.0].grad, &upstream, -1.0);
            }
            Op::AddRowBroadcast(a, bias) => {
                ops::add_assign(&mut self.nodes[a.0].grad, &upstream);
                let dbias = ops::sum_rows(&upstream);
                ops::add_assign(&mut self.nodes[bias.0].grad, &dbias);
            }
            Op::Relu(a) => {
                let mask = self.nodes[a.0].value.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                let da = ops::mul(&upstream, &mask);
                ops::add_assign(&mut self.nodes[a.0].grad, &da);
            }
            Op::Tanh(a) => {
                let y = &self.nodes[index].value;
                let deriv = y.map(|v| 1.0 - v * v);
                let da = ops::mul(&upstream, &deriv);
                ops::add_assign(&mut self.nodes[a.0].grad, &da);
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[index].value;
                let deriv = y.map(|v| v * (1.0 - v));
                let da = ops::mul(&upstream, &deriv);
                ops::add_assign(&mut self.nodes[a.0].grad, &da);
            }
            Op::SumAll(a) => {
                let g = upstream[(0, 0)];
                let shape = self.nodes[a.0].value.shape();
                let da = Matrix::full(shape.0, shape.1, g);
                ops::add_assign(&mut self.nodes[a.0].grad, &da);
            }
            Op::HStack(parts) => {
                let mut offset = 0;
                for &p in parts {
                    let grad = &mut self.nodes[p.0].grad;
                    let cols = grad.cols();
                    for r in 0..upstream.rows() {
                        for (dst, s) in grad.row_mut(r).iter_mut().zip(&upstream.row(r)[offset..offset + cols]) {
                            *dst += s;
                        }
                    }
                    offset += cols;
                }
            }
            Op::VStack(parts) => {
                let mut offset = 0;
                for &p in parts {
                    let rows = self.nodes[p.0].value.rows();
                    let dp = upstream.slice_rows(offset, offset + rows);
                    ops::add_assign(&mut self.nodes[p.0].grad, &dp);
                    offset += rows;
                }
            }
            Op::GatherRows(a, indices) => {
                ops::scatter_add_rows(&mut self.nodes[a.0].grad, indices, &upstream);
            }
            #[cfg(test)]
            Op::Im2Col(a, window) => {
                let d = self.nodes[a.0].value.cols();
                let grad = &mut self.nodes[a.0].grad;
                for p in 0..upstream.rows() {
                    for w in 0..*window {
                        let src = &upstream.row(p)[w * d..(w + 1) * d];
                        for (dst, s) in grad.row_mut(p + w).iter_mut().zip(src) {
                            *dst += s;
                        }
                    }
                }
            }
            #[cfg(test)]
            Op::MaxOverRows(a, argmax) => {
                let grad = &mut self.nodes[a.0].grad;
                for (c, &r) in argmax.iter().enumerate() {
                    grad[(r, c)] += upstream[(0, c)];
                }
            }
            Op::Dropout(a, mask) => {
                let grad = self.nodes[a.0].grad.as_mut_slice();
                for ((dst, &g), &m) in grad.iter_mut().zip(upstream.as_slice()).zip(mask.as_slice()) {
                    *dst += g * m;
                }
            }
            Op::RowSlice(a, r) => {
                let grad = &mut self.nodes[a.0].grad;
                for (dst, s) in grad.row_mut(*r).iter_mut().zip(upstream.row(0)) {
                    *dst += s;
                }
            }
            Op::Affine { x, w, bias } => {
                // dx = g · wᵀ against the cached transpose, dw = xᵀ · g and
                // dbias = Σ_rows g, each summed from zero before it is added
                let wt = self.transpose_of(*w);
                let mut s = self.take_scratch(3);
                let [dx, dw, dbias] = &mut s[..3] else { unreachable!("three scratch matrices") };
                self.zeroed(dx, upstream.rows(), self.transposes[wt].value.cols());
                ops::matmul_acc(&upstream, &self.transposes[wt].value, dx);
                let xv = &self.nodes[x.0].value;
                self.zeroed(dw, xv.cols(), upstream.cols());
                ops::matmul_transpose_a_acc(xv, &upstream, dw);
                sum_rows_into(&upstream, dbias);
                ops::add_assign(&mut self.nodes[x.0].grad, dx);
                ops::add_assign(&mut self.nodes[w.0].grad, dw);
                ops::add_assign(&mut self.nodes[bias.0].grad, dbias);
                self.put_scratch(s);
            }
            Op::DualAffine { x, w, h, u, bias } => {
                let dx = ops::matmul_transpose_b(&upstream, &self.nodes[w.0].value);
                let dw = ops::matmul_transpose_a(&self.nodes[x.0].value, &upstream);
                let dh = ops::matmul_transpose_b(&upstream, &self.nodes[u.0].value);
                let du = ops::matmul_transpose_a(&self.nodes[h.0].value, &upstream);
                let dbias = ops::sum_rows(&upstream);
                ops::add_assign(&mut self.nodes[x.0].grad, &dx);
                ops::add_assign(&mut self.nodes[w.0].grad, &dw);
                ops::add_assign(&mut self.nodes[h.0].grad, &dh);
                ops::add_assign(&mut self.nodes[u.0].grad, &du);
                ops::add_assign(&mut self.nodes[bias.0].grad, &dbias);
            }
            Op::ConvMaxPool { .. } => self.backward_conv_max_pool(index, &op, &upstream),
            Op::SameConv { .. } => self.backward_same_conv(index, &op, &upstream),
            Op::GruSequence { .. } => self.backward_gru_sequence(index, &op, &upstream),
            Op::SoftmaxCrossEntropy { logits, targets, probs } => {
                let g = upstream[(0, 0)];
                let rows = probs.rows().max(1) as f32;
                let grad = self.nodes[logits.0].grad.as_mut_slice();
                for ((dst, &p), &t) in grad.iter_mut().zip(probs.as_slice()).zip(targets.as_slice()) {
                    *dst += (p - t) * g / rows;
                }
            }
        }
        self.nodes[index].op = op;
        self.nodes[index].grad = upstream;
    }
}

/// `out = Σ_rows a` as a `1 x cols` row, summed in ascending row order
/// from zero (as [`ops::sum_rows`]), reusing `out`'s buffer.
pub(crate) fn sum_rows_into(a: &Matrix, out: &mut Matrix) {
    out.reset(1, a.cols());
    for r in 0..a.rows() {
        for (o, v) in out.row_mut(0).iter_mut().zip(a.row(r)) {
            *o += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_backward_matches_hand_computed() {
        let mut tape = Tape::new();
        let a = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = tape.leaf(Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let c = tape.matmul(a, b);
        let loss = tape.sum_all(c);
        tape.backward(loss);
        // dA = 1 * B^T summed over output: each entry of dA is sum of B row.
        assert_eq!(tape.grad(a), &Matrix::from_rows(&[&[11.0, 15.0], &[11.0, 15.0]]));
        assert_eq!(tape.grad(b), &Matrix::from_rows(&[&[4.0, 4.0], &[6.0, 6.0]]));
    }

    #[test]
    fn relu_blocks_negative_gradients() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::row_vector(&[-1.0, 2.0]));
        let y = tape.relu(x);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.grad(x), &Matrix::row_vector(&[0.0, 1.0]));
    }

    #[test]
    fn sigmoid_tanh_values() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::row_vector(&[0.0]));
        let s = tape.sigmoid(x);
        let t = tape.tanh(x);
        assert!((tape.value(s)[(0, 0)] - 0.5).abs() < 1e-6);
        assert!(tape.value(t)[(0, 0)].abs() < 1e-6);
    }

    #[test]
    fn softmax_cross_entropy_grad_is_probs_minus_targets() {
        let mut tape = Tape::new();
        let logits = tape.leaf(Matrix::row_vector(&[0.0, 0.0]));
        let targets = Matrix::row_vector(&[1.0, 0.0]);
        let loss = tape.softmax_cross_entropy(logits, targets);
        assert!((tape.scalar(loss) - (2.0f32).ln()).abs() < 1e-5);
        tape.backward(loss);
        let g = tape.grad(logits);
        assert!((g[(0, 0)] - (-0.5)).abs() < 1e-5);
        assert!((g[(0, 1)] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn max_over_rows_routes_gradient_to_argmax() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[&[1.0, 9.0], &[7.0, 2.0], &[3.0, 4.0], &[7.0, 9.0]]));
        let pooled = tape.max_over_rows(x);
        // ties keep the first row
        assert_eq!(tape.value(pooled), &Matrix::row_vector(&[7.0, 9.0]));
        let loss = tape.sum_all(pooled);
        tape.backward(loss);
        assert_eq!(tape.grad(x), &Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[0.0, 0.0], &[0.0, 0.0]]));
    }

    #[test]
    fn gather_rows_accumulates_repeated_indices() {
        let mut tape = Tape::new();
        let table = tape.leaf(Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let picked = tape.gather_rows(table, &[1, 1, 2]);
        let loss = tape.sum_all(picked);
        tape.backward(loss);
        assert_eq!(tape.grad(table), &Matrix::from_rows(&[&[0.0], &[2.0], &[1.0]]));
    }

    #[test]
    fn im2col_shapes_and_backward() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let cols = tape.im2col(x, 2);
        assert_eq!(tape.shape(cols), (2, 4));
        assert_eq!(tape.value(cols).row(0), &[1.0, 2.0, 3.0, 4.0]);
        let loss = tape.sum_all(cols);
        tape.backward(loss);
        // middle row participates in both windows.
        assert_eq!(tape.grad(x), &Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[1.0, 1.0]]));
    }

    #[test]
    fn hstack_vstack_split_gradients() {
        let mut tape = Tape::new();
        let a = tape.leaf(Matrix::row_vector(&[1.0]));
        let b = tape.leaf(Matrix::row_vector(&[2.0, 3.0]));
        let h = tape.hstack(&[a, b]);
        assert_eq!(tape.shape(h), (1, 3));
        let loss = tape.sum_all(h);
        tape.backward(loss);
        assert_eq!(tape.grad(a), &Matrix::row_vector(&[1.0]));
        assert_eq!(tape.grad(b), &Matrix::row_vector(&[1.0, 1.0]));

        let mut tape2 = Tape::new();
        let c = tape2.leaf(Matrix::row_vector(&[1.0, 2.0]));
        let d = tape2.leaf(Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let v = tape2.vstack(&[c, d]);
        assert_eq!(tape2.shape(v), (3, 2));
        let loss2 = tape2.sum_all(v);
        tape2.backward(loss2);
        assert_eq!(tape2.grad(c), &Matrix::row_vector(&[1.0, 1.0]));
        assert_eq!(tape2.grad(d), &Matrix::full(2, 2, 1.0));
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::row_vector(&[1.0, 2.0, 3.0]));
        let y = tape.dropout(x, 0.5, || unreachable!("eval mode draws nothing"), false);
        assert_eq!(tape.value(y), tape.value(x));
    }

    #[test]
    fn dropout_training_scales_kept_units() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::row_vector(&[1.0, 2.0]));
        // first uniform 0.9 >= keep=0.5 -> dropped, second 0.1 < 0.5 -> kept.
        let mut uniforms = [0.9, 0.1].into_iter();
        let y = tape.dropout(x, 0.5, || uniforms.next().expect("one per entry"), true);
        assert_eq!(tape.value(y), &Matrix::row_vector(&[0.0, 4.0]));
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.grad(x), &Matrix::row_vector(&[0.0, 2.0]));
    }

    #[test]
    fn row_slice_backward_targets_single_row() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let r = tape.row_slice(x, 1);
        let loss = tape.sum_all(r);
        tape.backward(loss);
        assert_eq!(tape.grad(x), &Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]));
    }

    #[test]
    fn one_minus_and_scale() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::row_vector(&[0.25]));
        let y = tape.one_minus(x);
        let z = tape.scale(y, 4.0);
        let loss = tape.sum_all(z);
        assert!((tape.scalar(loss) - 3.0).abs() < 1e-6);
        tape.backward(loss);
        assert_eq!(tape.grad(x), &Matrix::row_vector(&[-4.0]));
    }

    #[test]
    fn affine_matches_manual_composition() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let w = tape.leaf(Matrix::from_rows(&[&[1.0], &[1.0]]));
        let b = tape.leaf(Matrix::row_vector(&[0.5]));
        let y = tape.affine(x, w, b);
        assert_eq!(tape.value(y), &Matrix::from_rows(&[&[3.5], &[7.5]]));
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.grad(b), &Matrix::row_vector(&[2.0]));
    }

    #[test]
    fn fused_affine_matches_composed_forward_and_backward() {
        let x_val = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let w_val = Matrix::from_rows(&[&[0.5, 1.0, -1.0], &[2.0, 0.0, 0.5]]);
        let b_val = Matrix::row_vector(&[0.1, -0.2, 0.3]);

        let mut fused = Tape::new();
        let (fx, fw, fb) = (fused.leaf(x_val.clone()), fused.leaf(w_val.clone()), fused.leaf(b_val.clone()));
        let fy = fused.affine(fx, fw, fb);
        let floss = fused.sum_all(fy);
        fused.backward(floss);

        let mut composed = Tape::new();
        let (cx, cw, cb) = (composed.leaf(x_val), composed.leaf(w_val), composed.leaf(b_val));
        let xw = composed.matmul(cx, cw);
        let cy = composed.add_row_broadcast(xw, cb);
        let closs = composed.sum_all(cy);
        composed.backward(closs);

        assert_eq!(fused.value(fy), composed.value(cy));
        assert_eq!(fused.grad(fx), composed.grad(cx));
        assert_eq!(fused.grad(fw), composed.grad(cw));
        assert_eq!(fused.grad(fb), composed.grad(cb));
    }

    #[test]
    fn fused_dual_affine_matches_composition() {
        let x_val = Matrix::from_rows(&[&[1.0, -0.5]]);
        let w_val = Matrix::from_rows(&[&[0.5, 1.0], &[2.0, -0.5]]);
        let h_val = Matrix::from_rows(&[&[0.25, 0.75, -1.0]]);
        let u_val = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, -0.5], &[0.0, 2.0]]);
        let b_val = Matrix::row_vector(&[0.1, 0.2]);

        let mut fused = Tape::new();
        let fx = fused.leaf(x_val.clone());
        let fw = fused.leaf(w_val.clone());
        let fh = fused.leaf(h_val.clone());
        let fu = fused.leaf(u_val.clone());
        let fb = fused.leaf(b_val.clone());
        let fy = fused.dual_affine(fx, fw, fh, fu, fb);
        let floss = fused.sum_all(fy);
        fused.backward(floss);

        let mut composed = Tape::new();
        let cx = composed.leaf(x_val);
        let cw = composed.leaf(w_val);
        let ch = composed.leaf(h_val);
        let cu = composed.leaf(u_val);
        let cb = composed.leaf(b_val);
        let xw = composed.matmul(cx, cw);
        let hu = composed.matmul(ch, cu);
        let sum = composed.add(xw, hu);
        let cy = composed.add_row_broadcast(sum, cb);
        let closs = composed.sum_all(cy);
        composed.backward(closs);

        assert_eq!(fused.value(fy), composed.value(cy));
        assert_eq!(fused.grad(fx), composed.grad(cx));
        assert_eq!(fused.grad(fw), composed.grad(cw));
        assert_eq!(fused.grad(fh), composed.grad(ch));
        assert_eq!(fused.grad(fu), composed.grad(cu));
        assert_eq!(fused.grad(fb), composed.grad(cb));
    }

    #[test]
    fn fused_ops_pass_gradcheck() {
        use crate::gradcheck::assert_gradients_close;
        let x = Matrix::from_rows(&[&[0.3, -0.6], &[0.1, 0.8]]);
        let w = Matrix::from_rows(&[&[0.5, 0.2], &[-0.4, 0.7]]);
        let h = Matrix::from_rows(&[&[0.2, -0.1], &[0.6, 0.4]]);
        let u = Matrix::from_rows(&[&[0.9, -0.3], &[0.2, 0.5]]);
        let b = Matrix::row_vector(&[0.05, -0.15]);
        assert_gradients_close(&[x.clone(), w.clone(), b.clone()], 1e-2, 1e-2, |tape, v| {
            let y = tape.affine(v[0], v[1], v[2]);
            let t = tape.tanh(y);
            tape.sum_all(t)
        });
        assert_gradients_close(&[x, w, h, u, b], 1e-2, 1e-2, |tape, v| {
            let y = tape.dual_affine(v[0], v[1], v[2], v[3], v[4]);
            let t = tape.sigmoid(y);
            tape.sum_all(t)
        });
    }

    #[test]
    fn eval_mode_dropout_adds_no_node() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::row_vector(&[1.0, 2.0]));
        let before = tape.len();
        let y = tape.dropout(x, 0.5, || unreachable!("eval mode draws nothing"), false);
        assert_eq!(y, x, "eval-mode dropout must be the identity node");
        assert_eq!(tape.len(), before);
    }
}
