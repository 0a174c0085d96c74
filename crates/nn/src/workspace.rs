//! The reused training state of the per-instance M-step: one tape and one
//! binding for a whole training run.
//!
//! Parameter values do not change inside a mini-batch, so
//! [`Workspace::begin_batch`] places them on the tape once; every
//! [`Workspace::instance`] then rewinds the tape to those leaves (its node
//! and scratch buffers reused), re-zeroes only their gradients and adds
//! them into the parameters' accumulators exactly as a fresh
//! `Tape` + [`Binding`] + [`Binding::accumulate`] pass would.  Once the
//! buffers have grown to the longest sentence an instance allocates
//! nothing beyond what its loss closure builds.

use crate::models::InstanceClassifier;
use crate::module::{Binding, Module};
use lncl_autograd::{Tape, Var};
use lncl_tensor::TensorRng;

/// One tape and binding reused across the instances of every mini-batch.
#[derive(Default)]
pub struct Workspace {
    tape: Tape,
    binding: Binding,
    /// Tape nodes and bindings placed by [`Workspace::begin_batch`].
    bound: (usize, usize),
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes buffers that grow from now on for sentences of up to `tokens`
    /// tokens, so later, longer sentences do not reallocate them.
    pub fn reserve_tokens(&mut self, tokens: usize) {
        self.tape.reserve_rows(tokens);
        self.binding.reserve_rows(tokens);
    }

    /// Starts a mini-batch: places a copy of every parameter of `model`
    /// except its lookup tables ([`Param::is_gathered`](crate::Param::is_gathered))
    /// on the tape.
    pub fn begin_batch(&mut self, model: &impl Module) {
        self.tape.rewind(0);
        self.binding.truncate(0);
        for param in model.params().into_iter().filter(|p| !p.is_gathered()) {
            self.binding.bind(&mut self.tape, param);
        }
        self.bound = (self.tape.len(), self.binding.len());
    }

    /// Trains on one instance: the training-mode forward pass of `model` on
    /// `tokens` (dropout drawn from `rng`), `loss(tape, logits)`, the
    /// backward pass, and the gradients added into `model`'s accumulators.
    /// Returns the loss value.  Call [`Workspace::begin_batch`] first, and
    /// again whenever the parameter values change.
    pub fn instance<M: InstanceClassifier>(
        &mut self,
        model: &mut M,
        tokens: &[usize],
        rng: &mut TensorRng,
        loss: impl FnOnce(&mut Tape, Var) -> Var,
    ) -> f32 {
        self.tape.rewind(self.bound.0);
        self.binding.truncate(self.bound.1);
        let logits = model.forward_logits(&mut self.tape, &mut self.binding, tokens, true, rng);
        let loss = loss(&mut self.tape, logits);
        let value = self.tape.scalar(loss);
        self.tape.backward(loss);
        let (tape, binding) = (&self.tape, &self.binding);
        model.visit_params_mut(&mut |param| binding.accumulate_param(tape, param));
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{NerConvGru, NerConvGruConfig, SentimentCnn, SentimentCnnConfig};
    use lncl_tensor::Matrix;

    fn bits<M: Module>(model: &M) -> Vec<Vec<u32>> {
        model.params().iter().map(|p| p.grad.as_slice().iter().map(|v| v.to_bits()).collect()).collect()
    }

    /// Two batches through a workspace against a fresh tape and binding per
    /// instance: losses and every accumulated gradient bit for bit.
    fn check<M: InstanceClassifier + Clone>(model: M, sentences: &[Vec<usize>], classes: usize) {
        let target = |tape: &mut Tape, logits: Var| {
            let rows = tape.shape(logits).0;
            tape.softmax_cross_entropy(
                logits,
                Matrix::from_fn(rows, classes, |r, c| ((r + c) % classes == 0) as u8 as f32),
            )
        };
        let (mut fresh, mut reused) = (model.clone(), model);
        let (mut rng_a, mut rng_b) = (TensorRng::seed_from_u64(3), TensorRng::seed_from_u64(3));
        let mut workspace = Workspace::new();
        for batch in sentences.chunks(3) {
            fresh.zero_grad();
            reused.zero_grad();
            workspace.begin_batch(&reused);
            for tokens in batch {
                let mut tape = Tape::new();
                let mut binding = Binding::new();
                let logits = fresh.forward_logits(&mut tape, &mut binding, tokens, true, &mut rng_a);
                let loss = target(&mut tape, logits);
                tape.backward(loss);
                binding.accumulate(&tape, fresh.params_mut());
                let value = workspace.instance(&mut reused, tokens, &mut rng_b, target);
                assert_eq!(value.to_bits(), tape.scalar(loss).to_bits(), "loss of {tokens:?}");
            }
            assert_eq!(bits(&fresh), bits(&reused), "accumulated gradients");
            // a step between batches, so the next one rebinds new values
            for (a, b) in fresh.params_mut().into_iter().zip(reused.params_mut()) {
                a.value.map_inplace(|v| v * 0.5);
                b.value.map_inplace(|v| v * 0.5);
            }
        }
    }

    fn sentences() -> Vec<Vec<usize>> {
        // lengths around the windows, a repeated token, an empty sentence
        vec![vec![1, 2, 3, 4, 5, 6], vec![7], vec![3, 3, 9, 3], vec![], vec![2, 8, 4, 4, 6, 1, 9, 5, 2, 7], vec![5, 6]]
    }

    #[test]
    fn sentiment_instances_match_fresh_tapes_bitwise() {
        let mut rng = TensorRng::seed_from_u64(1);
        let config = SentimentCnnConfig {
            vocab_size: 12,
            embedding_dim: 6,
            windows: vec![2, 3],
            filters_per_window: 4,
            ..Default::default()
        };
        check(SentimentCnn::new(config, &mut rng), &sentences(), 2);
    }

    #[test]
    fn ner_instances_match_fresh_tapes_bitwise() {
        let mut rng = TensorRng::seed_from_u64(2);
        let config = NerConvGruConfig {
            vocab_size: 12,
            embedding_dim: 5,
            conv_window: 3,
            conv_features: 6,
            gru_hidden: 4,
            num_classes: 5,
            ..Default::default()
        };
        check(NerConvGru::new(config, &mut rng), &sentences(), 5);
    }
}
