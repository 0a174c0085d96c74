//! # lncl-autograd
//!
//! A small reverse-mode automatic-differentiation engine built on top of
//! [`lncl_tensor::Matrix`].  The Logic-LNCL paper trains two neural
//! architectures (a Kim-2014 style text CNN and a convolution + GRU sequence
//! tagger); this crate provides exactly the operator set those models need,
//! each with a hand-written backward pass, recorded on a [`Tape`].
//! (Where this sits in the workspace: `ARCHITECTURE.md` at the repository
//! root.)
//!
//! ## Design
//!
//! * A [`Tape`] owns a flat `Vec` of nodes.  Each node stores its value, its
//!   gradient accumulator and an [`Op`] describing how it was produced.
//! * [`Var`] is a copyable handle (just an index) into the tape.
//! * `Tape::backward(loss)` walks the nodes in reverse creation order and
//!   accumulates gradients — creation order is already a topological order
//!   because operands must exist before the ops that consume them.
//! * Three whole-layer ops ([`Tape::conv_max_pool`], [`Tape::same_conv`],
//!   [`Tape::gru_sequence`] in [`fused`]) record a max-pooled text
//!   convolution, a same-length convolution and a full GRU unroll as one
//!   node each, with backward rules bitwise equal to the composed node
//!   chains they replace.
//! * Parameters live *outside* the tape (plain `Matrix` values owned by the
//!   `lncl-nn` layer structs) and are copied onto it as leaves
//!   ([`Tape::leaf_from`]); the optimiser reads the gradients back with
//!   [`Tape::grad`], which keeps borrow-checking trivial.  A tape can be
//!   reused: [`Tape::rewind`] keeps a prefix of nodes (the parameter
//!   leaves, copied once per mini-batch) and recycles the buffers of the
//!   rest, so the M-step's per-instance passes allocate nothing and copy no
//!   parameter.  A fresh tape per pass computes the same bits.
//!
//! ```
//! use lncl_autograd::Tape;
//! use lncl_tensor::Matrix;
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
//! let w = tape.leaf(Matrix::from_rows(&[&[0.5], &[-0.5]]));
//! let y = tape.matmul(x, w);          // 1x1
//! let loss = tape.sum_all(y);
//! tape.backward(loss);
//! assert_eq!(tape.grad(w).row(0), &[1.0]);
//! assert_eq!(tape.grad(w).row(1), &[2.0]);
//! ```

pub mod fused;
pub mod gradcheck;
mod ops;

pub use ops::Op;

use lncl_tensor::Matrix;

/// Copyable handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Index of the node inside its tape (mostly useful for debugging).
    pub fn index(self) -> usize {
        self.0
    }
}

pub(crate) struct Node {
    pub value: Matrix,
    pub grad: Matrix,
    pub op: Op,
    /// The tape's generation when the node was pushed: a node index plus
    /// this stamp names one value for the life of the tape.
    pub born: u64,
}

impl Node {
    fn empty() -> Self {
        Self { value: Matrix::zeros(0, 0), grad: Matrix::zeros(0, 0), op: Op::Leaf, born: 0 }
    }
}

/// The transpose of a node's value, valid while the node keeps its `born`
/// stamp (see [`Tape::rewind`]).
pub(crate) struct Transposed {
    src: usize,
    born: u64,
    pub value: Matrix,
}

/// A reverse-mode autodiff tape.
///
/// All operator methods (`matmul`, `add`, `relu`, …) are defined in the
/// `ops` module and compute the forward value eagerly while recording enough
/// information to run the backward pass later.
///
/// A tape can be reused: [`Tape::rewind`] drops the nodes past a prefix but
/// keeps their buffers, and the next nodes pushed at those positions (and
/// the temporaries of the fused rules) write into them.  A training loop
/// that rewinds to its parameter leaves before every instance allocates
/// nothing once the buffers have grown to the longest input.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
    /// Nodes dropped by the last rewinds, the one for the next index last.
    spare: Vec<Node>,
    /// Bumped by every rewind.
    generation: u64,
    /// Rows a buffer is given room for when it has to grow.
    rows_hint: usize,
    /// Transposes of node values, kept while the node is unchanged.
    pub(crate) transposes: Vec<Transposed>,
    /// Temporaries of the fused forward and backward rules.
    scratch: Vec<Matrix>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tape with room for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { nodes: Vec::with_capacity(capacity), ..Self::default() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Gives every buffer that has to grow from now on room for `rows` rows,
    /// so inputs up to that length reuse it after a [`Tape::rewind`].
    pub fn reserve_rows(&mut self, rows: usize) {
        self.rows_hint = rows;
    }

    /// Keeps the first `len` nodes and clears every gradient.  The dropped
    /// nodes' buffers are reused by the nodes pushed next at the same
    /// positions; the kept nodes (and cached forms derived from them) stay
    /// valid, so parameters placed on the tape once serve many passes.
    pub fn rewind(&mut self, len: usize) {
        while self.nodes.len() > len {
            let node = self.nodes.pop().expect("len checked");
            self.spare.push(node);
        }
        for node in &mut self.nodes {
            node.grad.reset(0, 0);
        }
        self.generation += 1;
    }

    /// The node for the next index: the one a rewind left at this position
    /// (its buffers and op payload to be reused) or a new one.
    pub(crate) fn next_node(&mut self) -> Node {
        let mut node = self.spare.pop().unwrap_or_else(Node::empty);
        // gradients stay unmaterialised until `backward`
        node.grad.reset(0, 0);
        node.born = self.generation;
        node
    }

    pub(crate) fn push_node(&mut self, node: Node) -> Var {
        self.nodes.push(node);
        Var(self.nodes.len() - 1)
    }

    /// Reshapes `m` to `rows x cols` zeros; a buffer that has to grow gets
    /// room for [`Tape::reserve_rows`] rows.
    pub(crate) fn zeroed(&self, m: &mut Matrix, rows: usize, cols: usize) {
        m.reserve(self.rows_hint.max(rows) * cols);
        m.reset(rows, cols);
    }

    /// `n` scratch matrices, taken out of the tape; hand them back with
    /// [`Tape::put_scratch`].
    pub(crate) fn take_scratch(&mut self, n: usize) -> Vec<Matrix> {
        let mut scratch = std::mem::take(&mut self.scratch);
        if scratch.len() < n {
            scratch.resize_with(n, || Matrix::zeros(0, 0));
        }
        scratch
    }

    pub(crate) fn put_scratch(&mut self, scratch: Vec<Matrix>) {
        self.scratch = scratch;
    }

    /// Index into `self.transposes` of the transpose of `v`'s value,
    /// computed only when `v` changed since it was last cached.
    pub(crate) fn transpose_of(&mut self, v: Var) -> usize {
        let born = self.nodes[v.0].born;
        let slot = match self.transposes.iter().position(|t| t.src == v.0) {
            Some(i) if self.transposes[i].born == born => return i,
            Some(i) => i,
            None => {
                self.transposes.push(Transposed { src: v.0, born, value: Matrix::zeros(0, 0) });
                self.transposes.len() - 1
            }
        };
        self.transposes[slot].born = born;
        lncl_tensor::ops::transpose_into(&self.nodes[v.0].value, &mut self.transposes[slot].value);
        slot
    }

    /// Registers a leaf node (an input or a parameter copy).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Registers a leaf holding a copy of `value`, written into a reused
    /// buffer.
    pub fn leaf_from(&mut self, value: &Matrix) -> Var {
        let mut node = self.next_node();
        node.value.reserve(value.len());
        node.value.assign(value);
        node.op = Op::Leaf;
        self.push_node(node)
    }

    /// Registers a leaf holding the listed rows of `table` (an embedding
    /// lookup; repeats allowed), written into a reused buffer.
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn leaf_gathered(&mut self, table: &Matrix, rows: &[usize]) -> Var {
        let mut node = self.next_node();
        self.zeroed(&mut node.value, rows.len(), table.cols());
        for (r, &idx) in rows.iter().enumerate() {
            assert!(idx < table.rows(), "leaf_gathered: index {idx} out of bounds ({} rows)", table.rows());
            node.value.row_mut(r).copy_from_slice(table.row(idx));
        }
        node.op = Op::Leaf;
        self.push_node(node)
    }

    /// Alias of [`Tape::leaf`] that documents intent for non-trainable data.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.leaf(value)
    }

    pub(crate) fn push(&mut self, value: Matrix, op: Op) -> Var {
        // Gradient buffers are materialised lazily by `backward`; a
        // forward-only pass (e.g. `predict_proba`) never allocates them.
        let mut node = self.next_node();
        node.value = value;
        node.op = op;
        self.push_node(node)
    }

    /// Immutable access to a node's value.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Immutable access to a node's accumulated gradient.  Gradient buffers
    /// are allocated lazily: before the first [`Tape::backward`] call (and
    /// after a [`Tape::rewind`]) this returns an empty (0x0) matrix.
    pub fn grad(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].grad
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    /// Resets every gradient accumulator to zero (rarely needed: a reused
    /// tape's [`Tape::rewind`] already clears them, but handy for
    /// multi-loss experiments).
    pub fn zero_grad(&mut self) {
        for node in &mut self.nodes {
            node.grad.fill(0.0);
        }
    }

    /// Runs the backward pass from `loss`, which must be a `1x1` node.
    ///
    /// Gradients are accumulated into every node reachable from `loss`;
    /// calling it twice without [`Tape::zero_grad`] adds the gradients a
    /// second time (matching the usual "accumulate until cleared" autograd
    /// contract).
    ///
    /// # Panics
    /// Panics if `loss` is not a scalar (1x1) node.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.shape(loss), (1, 1), "backward: loss must be a 1x1 scalar node, got {:?}", self.shape(loss));
        // materialise any gradient buffers the (lazy) forward pass skipped
        let rows_hint = self.rows_hint;
        for node in &mut self.nodes {
            if node.grad.shape() != node.value.shape() {
                let (rows, cols) = node.value.shape();
                node.grad.reserve(rows_hint.max(rows) * cols);
                node.grad.reset(rows, cols);
            }
        }
        self.nodes[loss.0].grad.fill(1.0);
        for i in (0..=loss.0).rev() {
            self.backward_node(i);
        }
    }

    /// Convenience: value of a scalar (1x1) node.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar: node is not 1x1");
        m[(0, 0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let mut tape = Tape::new();
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = tape.leaf(m.clone());
        assert_eq!(tape.value(v), &m);
        assert_eq!(tape.shape(v), (2, 2));
        assert_eq!(tape.len(), 1);
    }

    #[test]
    #[should_panic]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let v = tape.leaf(Matrix::zeros(2, 2));
        tape.backward(v);
    }

    #[test]
    fn zero_grad_clears_accumulators() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(1, 3, 2.0));
        let s = tape.sum_all(x);
        tape.backward(s);
        assert!(tape.grad(x).as_slice().iter().all(|&g| g == 1.0));
        tape.zero_grad();
        assert!(tape.grad(x).as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn backward_accumulates_when_called_twice() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(1, 2, 1.0));
        let s = tape.sum_all(x);
        tape.backward(s);
        tape.backward(s);
        assert!(tape.grad(x).as_slice().iter().all(|&g| (g - 2.0).abs() < 1e-6));
    }
}
