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
//! * Two whole-layer ops ([`Tape::conv_max_pool`], [`Tape::gru_sequence`]
//!   in [`fused`]) record a max-pooled text convolution and a full GRU
//!   unroll as one node each, with backward rules bitwise equal to the
//!   composed node chains they replace.
//! * Parameters live *outside* the tape (plain `Matrix` values owned by the
//!   `lncl-nn` layer structs); every forward pass copies them onto a fresh
//!   tape with [`Tape::leaf`], and the optimiser reads the gradients back
//!   with [`Tape::grad`].  At the scale of the paper's (simulated)
//!   experiments the copies are negligible and the design keeps borrow-
//!   checking trivial.
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
}

/// A reverse-mode autodiff tape.
///
/// All operator methods (`matmul`, `add`, `relu`, …) are defined in the
/// `ops` module and compute the forward value eagerly while recording enough
/// information to run the backward pass later.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Creates an empty tape with room for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { nodes: Vec::with_capacity(capacity) }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Registers a leaf node (an input or a parameter copy).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Alias of [`Tape::leaf`] that documents intent for non-trainable data.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.leaf(value)
    }

    pub(crate) fn push(&mut self, value: Matrix, op: Op) -> Var {
        // Gradient buffers are materialised lazily by `backward`; a
        // forward-only pass (e.g. `predict_proba`) never allocates them.
        self.nodes.push(Node { value, grad: Matrix::zeros(0, 0), op });
        Var(self.nodes.len() - 1)
    }

    /// Immutable access to a node's value.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Immutable access to a node's accumulated gradient.  Gradient buffers
    /// are allocated lazily: before the first [`Tape::backward`] call this
    /// returns an empty (0x0) matrix.
    pub fn grad(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].grad
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    /// Resets every gradient accumulator to zero (rarely needed because a
    /// fresh tape is built per step, but handy for multi-loss experiments).
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
        for node in &mut self.nodes {
            if node.grad.shape() != node.value.shape() {
                node.grad = Matrix::zeros(node.value.rows(), node.value.cols());
            }
        }
        self.nodes[loss.0].grad = Matrix::full(1, 1, 1.0);
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
