//! The reused tape state of training and evaluation: one tape and one
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
//!
//! Evaluation runs the same forward pass: [`Workspace::eval`] binds the
//! parameters once and each [`Evaluator::proba`] rewinds to them, runs the
//! eval-mode [`InstanceClassifier::forward_logits`] and softmaxes the
//! logits, allocating only its result once the buffers have grown.

use crate::models::InstanceClassifier;
use crate::module::{Binding, Module, Param};
use lncl_autograd::{Tape, Var};
use lncl_tensor::{stats, Matrix, TensorRng};

/// One tape and binding reused across the instances of every mini-batch
/// and the sentences of every evaluation pass.
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
    pub fn begin_batch<M: Module + ?Sized>(&mut self, model: &M) {
        self.tape.rewind(0);
        self.binding.truncate(0);
        for param in model.params().into_iter().filter(|p| !p.is_gathered()) {
            self.binding.bind(&mut self.tape, param);
        }
        self.bound = (self.tape.len(), self.binding.len());
    }

    /// Drops everything recorded after the parameters bound by
    /// [`Workspace::begin_batch`].
    fn rewind(&mut self) {
        self.tape.rewind(self.bound.0);
        self.binding.truncate(self.bound.1);
    }

    /// Trains on one instance: the training-mode forward pass of `model` on
    /// `tokens` (dropout drawn from `rng`), `loss(tape, binding, group,
    /// logits)`, the backward pass, and the gradients added into the
    /// accumulators of `model` and of the parameters of `group` the loss
    /// bound (with `binding.bind(tape, &group[j])`).  Returns the loss
    /// value; a loss of `None` skips the instance (no backward pass, no
    /// gradient, a value of 0).  Call [`Workspace::begin_batch`] first, and
    /// again whenever the parameter values change.
    pub fn instance<M: InstanceClassifier>(
        &mut self,
        model: &mut M,
        group: &mut [Param],
        tokens: &[usize],
        rng: &mut TensorRng,
        loss: impl FnOnce(&mut Tape, &mut Binding, &[Param], Var) -> Option<Var>,
    ) -> f32 {
        self.rewind();
        let logits = model.forward_logits(&mut self.tape, &mut self.binding, tokens, true, rng);
        let Some(loss) = loss(&mut self.tape, &mut self.binding, group, logits) else { return 0.0 };
        let value = self.tape.scalar(loss);
        self.tape.backward(loss);
        let (tape, binding) = (&self.tape, &self.binding);
        model.visit_params_mut(&mut |param| binding.accumulate_param(tape, param));
        binding.accumulate(tape, group);
        value
    }

    /// Starts an evaluation pass of `model`: binds its parameters as
    /// [`Workspace::begin_batch`] does.  The evaluator borrows the model,
    /// so its parameters cannot change while it lives; take a new one after
    /// a training step.
    pub fn eval<'a, M: InstanceClassifier + ?Sized>(&'a mut self, model: &'a M) -> Evaluator<'a, M> {
        self.begin_batch(model);
        // eval-mode dropout draws nothing, so the seed is never used
        Evaluator { workspace: self, model, rng: TensorRng::seed_from_u64(0) }
    }
}

/// Evaluation-mode class probabilities of one model, computed on the tape
/// of a [`Workspace`] (see [`Workspace::eval`]).
pub struct Evaluator<'a, M: ?Sized> {
    workspace: &'a mut Workspace,
    model: &'a M,
    rng: TensorRng,
}

impl<M: InstanceClassifier + ?Sized> Evaluator<'_, M> {
    /// The `units x K` class probabilities of `tokens`: the softmax of
    /// [`InstanceClassifier::forward_logits`] with dropout disabled.
    pub fn proba(&mut self, tokens: &[usize]) -> Matrix {
        let workspace = &mut *self.workspace;
        workspace.rewind();
        let logits =
            self.model.forward_logits(&mut workspace.tape, &mut workspace.binding, tokens, false, &mut self.rng);
        let mut probs = workspace.tape.value(logits).clone();
        stats::softmax_rows_in_place(&mut probs);
        probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{NerConvGru, NerConvGruConfig, SentimentCnn, SentimentCnnConfig};

    fn bits<'a>(params: impl IntoIterator<Item = &'a Param>) -> Vec<Vec<u32>> {
        params.into_iter().map(|p| p.grad.as_slice().iter().map(|v| v.to_bits()).collect()).collect()
    }

    /// Two batches through a workspace against a fresh tape and binding per
    /// instance: losses and every accumulated gradient bit for bit, the
    /// model's and those of a second group (a `K x K` parameter the loss
    /// binds and maps the logits through).
    fn check<M: InstanceClassifier + Clone>(model: M, sentences: &[Vec<usize>], classes: usize) {
        let target = |tape: &mut Tape, binding: &mut Binding, group: &[Param], logits: Var| {
            let rows = tape.shape(logits).0;
            let w = binding.bind(tape, &group[0]);
            let scores = tape.matmul(logits, w);
            Some(tape.softmax_cross_entropy(
                scores,
                Matrix::from_fn(rows, classes, |r, c| ((r + c) % classes == 0) as u8 as f32),
            ))
        };
        let extra =
            Param::new("extra", Matrix::from_fn(classes, classes, |r, c| (r == c) as u8 as f32 + 0.1 * c as f32));
        let (mut fresh, mut reused) = (model.clone(), model);
        let (mut fresh_group, mut reused_group) = ([extra.clone()], [extra]);
        let (mut rng_a, mut rng_b) = (TensorRng::seed_from_u64(3), TensorRng::seed_from_u64(3));
        let mut workspace = Workspace::new();
        for batch in sentences.chunks(3) {
            fresh.zero_grad();
            reused.zero_grad();
            fresh_group[0].zero_grad();
            reused_group[0].zero_grad();
            workspace.begin_batch(&reused);
            for tokens in batch {
                let mut tape = Tape::new();
                let mut binding = Binding::new();
                let logits = fresh.forward_logits(&mut tape, &mut binding, tokens, true, &mut rng_a);
                let loss = target(&mut tape, &mut binding, &fresh_group, logits).expect("a loss");
                tape.backward(loss);
                binding.accumulate(&tape, fresh.params_mut());
                binding.accumulate(&tape, &mut fresh_group);
                let value = workspace.instance(&mut reused, &mut reused_group, tokens, &mut rng_b, target);
                assert_eq!(value.to_bits(), tape.scalar(loss).to_bits(), "loss of {tokens:?}");
            }
            assert_eq!(bits(fresh.params()), bits(reused.params()), "accumulated gradients");
            assert_eq!(bits(&fresh_group), bits(&reused_group), "accumulated second-group gradients");
            // a step between batches, so the next one rebinds new values
            let fresh_params = fresh.params_mut().into_iter().chain(&mut fresh_group);
            for (a, b) in fresh_params.zip(reused.params_mut().into_iter().chain(&mut reused_group)) {
                a.value.map_inplace(|v| v * 0.5);
                b.value.map_inplace(|v| v * 0.5);
            }
        }
    }

    fn sentences() -> Vec<Vec<usize>> {
        // lengths around the windows, a repeated token, an empty sentence
        vec![vec![1, 2, 3, 4, 5, 6], vec![7], vec![3, 3, 9, 3], vec![], vec![2, 8, 4, 4, 6, 1, 9, 5, 2, 7], vec![5, 6]]
    }

    /// Softmax of the eval-mode logits on a fresh tape and binding.
    fn fresh_proba<M: InstanceClassifier>(model: &M, tokens: &[usize]) -> Matrix {
        let (mut tape, mut binding) = (Tape::new(), Binding::new());
        let logits = model.forward_logits(&mut tape, &mut binding, tokens, false, &mut TensorRng::seed_from_u64(9));
        stats::softmax_rows(tape.value(logits))
    }

    fn matrix_bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// One evaluator over every sentence, in a workspace that has just
    /// trained, against the one-shot trait default and a fresh tape; then a
    /// parameter update, after which a new evaluator must see the new
    /// values.
    fn check_eval<M: InstanceClassifier + Clone>(mut model: M, sentences: &[Vec<usize>]) {
        let mut workspace = Workspace::new();
        let mut rng = TensorRng::seed_from_u64(4);
        workspace.begin_batch(&model);
        workspace
            .instance(&mut model, &mut [], &sentences[0], &mut rng, |tape, _, _, logits| Some(tape.sum_all(logits)));
        for round in 0..2 {
            let mut evaluator = workspace.eval(&model);
            let before: Vec<Matrix> = sentences.iter().map(|tokens| evaluator.proba(tokens)).collect();
            for (tokens, probs) in sentences.iter().zip(&before) {
                let expected = matrix_bits(&fresh_proba(&model, tokens));
                assert_eq!(matrix_bits(probs), expected, "round {round}, fresh tape, {tokens:?}");
                assert_eq!(matrix_bits(&model.predict_proba(tokens)), expected, "round {round}, default, {tokens:?}");
            }
            model.visit_params_mut(&mut |p| p.value.map_inplace(|v| v * 0.5 + 0.01));
            let mut evaluator = workspace.eval(&model);
            for (tokens, old) in sentences.iter().zip(&before) {
                let probs = evaluator.proba(tokens);
                assert_eq!(matrix_bits(&probs), matrix_bits(&fresh_proba(&model, tokens)), "updated, {tokens:?}");
                assert_ne!(matrix_bits(&probs), matrix_bits(old), "stale parameters for {tokens:?}");
            }
        }
    }

    #[test]
    fn sentiment_evaluator_matches_the_default_and_sees_updates() {
        let mut rng = TensorRng::seed_from_u64(5);
        let config = SentimentCnnConfig {
            vocab_size: 12,
            embedding_dim: 6,
            windows: vec![2, 3],
            filters_per_window: 4,
            ..Default::default()
        };
        check_eval(SentimentCnn::new(config, &mut rng), &sentences());
    }

    #[test]
    fn ner_evaluator_matches_the_default_and_sees_updates() {
        let mut rng = TensorRng::seed_from_u64(6);
        let config = NerConvGruConfig {
            vocab_size: 12,
            embedding_dim: 5,
            conv_window: 3,
            conv_features: 6,
            gru_hidden: 4,
            num_classes: 5,
            ..Default::default()
        };
        check_eval(NerConvGru::new(config, &mut rng), &sentences());
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
