//! Token-embedding lookup table.

use crate::module::{Binding, Module, Param};
use lncl_autograd::{Tape, Var};
use lncl_tensor::TensorRng;

/// Learned word-embedding table (`vocab_size x dim`).
///
/// The paper uses pre-trained 300-d word2vec/GloVe vectors; in this
/// reproduction the table is randomly initialised and trained jointly with
/// the task (see DESIGN.md §1 for the substitution rationale).  Index `0`
/// is reserved as the padding token by the models in [`crate::models`].
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The embedding table.
    pub table: Param,
    vocab_size: usize,
    dim: usize,
}

impl Embedding {
    /// Creates a table with small normal-initialised entries.
    pub fn new(name: &str, vocab_size: usize, dim: usize, rng: &mut TensorRng) -> Self {
        let mut table = rng.normal_matrix(vocab_size, dim, 0.1);
        // keep the padding row at zero so padded positions contribute nothing.
        if vocab_size > 0 {
            table.row_mut(0).iter_mut().for_each(|v| *v = 0.0);
        }
        Self { table: Param::new_gathered(format!("{name}.table"), table), vocab_size, dim }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up `tokens` followed by the padding token 0 up to `min_rows`
    /// rows, producing a `max(tokens.len(), min_rows) x dim` node.
    ///
    /// Only the looked-up rows are copied onto the tape (a gathered
    /// binding), so the cost of a forward pass scales with the sentence
    /// length, not the vocabulary size.
    ///
    /// # Panics
    /// Panics if any token id is outside the vocabulary or nothing is
    /// looked up.
    pub fn forward(&self, tape: &mut Tape, binding: &mut Binding, tokens: &[usize], min_rows: usize) -> Var {
        assert!(!tokens.is_empty() || min_rows > 0, "Embedding::forward: empty token sequence");
        for &t in tokens {
            assert!(t < self.vocab_size, "token id {t} out of vocabulary (size {})", self.vocab_size);
        }
        let padding = std::iter::repeat_n(0, min_rows.saturating_sub(tokens.len()));
        binding.bind_gathered(tape, &self.table, tokens.iter().copied().chain(padding))
    }
}

impl Module for Embedding {
    fn params(&self) -> Vec<&Param> {
        vec![&self.table]
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.table]
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_returns_table_rows_then_padding() {
        let mut rng = TensorRng::seed_from_u64(0);
        let emb = Embedding::new("emb", 5, 3, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let e = emb.forward(&mut tape, &mut binding, &[2, 4], 3);
        let m = tape.value(e);
        assert_eq!(m.row(0), emb.table.value.row(2));
        assert_eq!(m.row(1), emb.table.value.row(4));
        assert_eq!(m.row(2), emb.table.value.row(0));
    }

    #[test]
    fn padding_row_is_zero() {
        let mut rng = TensorRng::seed_from_u64(1);
        let emb = Embedding::new("emb", 4, 8, &mut rng);
        assert!(emb.table.value.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradient_accumulates_only_on_used_rows() {
        let mut rng = TensorRng::seed_from_u64(2);
        let mut emb = Embedding::new("emb", 6, 2, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let e = emb.forward(&mut tape, &mut binding, &[1, 1, 3], 0);
        let loss = tape.sum_all(e);
        tape.backward(loss);
        binding.accumulate(&tape, emb.params_mut());
        assert_eq!(emb.table.grad.row(1), &[2.0, 2.0]);
        assert_eq!(emb.table.grad.row(3), &[1.0, 1.0]);
        assert_eq!(emb.table.grad.row(2), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn out_of_vocab_panics() {
        let mut rng = TensorRng::seed_from_u64(3);
        let emb = Embedding::new("emb", 3, 2, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let _ = emb.forward(&mut tape, &mut binding, &[5], 0);
    }
}
