//! The two classifier architectures evaluated in the paper (Figure 5),
//! rebuilt at CPU-friendly widths, plus the [`InstanceClassifier`] trait the
//! Logic-LNCL trainer and all baselines are written against.

pub mod ner_conv_gru;
pub mod sentiment_cnn;

pub use ner_conv_gru::{NerConvGru, NerConvGruConfig};
pub use sentiment_cnn::{SentimentCnn, SentimentCnnConfig};

use crate::module::{Binding, Module};
use crate::Workspace;
use lncl_autograd::{Tape, Var};
use lncl_tensor::{stats, Matrix, TensorRng};

/// A type-erased classifier covering both of the paper's architectures.
///
/// The polymorphic [`CrowdMethod`](https://docs.rs/logic-lncl) API runs every
/// compared method through trait objects, so the per-method runners cannot be
/// generic over the model type.  `AnyModel` closes that gap: a `RunContext`
/// carries a `Fn(u64) -> AnyModel` factory and the monomorphic trainers see a
/// single concrete type that dispatches to whichever architecture the dataset
/// needs.
// Both variants are parameter handles whose weight matrices live on the
// heap; the stack-size gap clippy flags is irrelevant next to that.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// The sentence-level sentiment CNN (Kim-style).
    Sentiment(SentimentCnn),
    /// The token-level convolution + GRU NER tagger.
    Ner(NerConvGru),
}

impl From<SentimentCnn> for AnyModel {
    fn from(model: SentimentCnn) -> Self {
        AnyModel::Sentiment(model)
    }
}

impl From<NerConvGru> for AnyModel {
    fn from(model: NerConvGru) -> Self {
        AnyModel::Ner(model)
    }
}

impl Module for AnyModel {
    fn params(&self) -> Vec<&crate::module::Param> {
        match self {
            AnyModel::Sentiment(m) => m.params(),
            AnyModel::Ner(m) => m.params(),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut crate::module::Param> {
        match self {
            AnyModel::Sentiment(m) => m.params_mut(),
            AnyModel::Ner(m) => m.params_mut(),
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut crate::module::Param)) {
        match self {
            AnyModel::Sentiment(m) => m.visit_params_mut(f),
            AnyModel::Ner(m) => m.visit_params_mut(f),
        }
    }
}

impl InstanceClassifier for AnyModel {
    fn num_classes(&self) -> usize {
        match self {
            AnyModel::Sentiment(m) => m.num_classes(),
            AnyModel::Ner(m) => m.num_classes(),
        }
    }

    fn forward_logits(
        &self,
        tape: &mut Tape,
        binding: &mut Binding,
        tokens: &[usize],
        training: bool,
        rng: &mut TensorRng,
    ) -> Var {
        match self {
            AnyModel::Sentiment(m) => m.forward_logits(tape, binding, tokens, training, rng),
            AnyModel::Ner(m) => m.forward_logits(tape, binding, tokens, training, rng),
        }
    }
}

/// A classifier that maps a token sequence to per-unit class logits.
///
/// * For sentence-level classification (sentiment) the output has **one
///   row**: the class logits of the whole sentence.
/// * For sequence labelling (NER) the output has **one row per token**.
///
/// This is the only interface the Logic-LNCL trainer, the EM baselines and
/// the crowd-layer baselines need, which is what lets a single generic
/// trainer cover both tasks exactly as the paper describes.
pub trait InstanceClassifier: Module {
    /// Number of classes `K`.
    fn num_classes(&self) -> usize;

    /// Runs the forward pass on the tape, returning a `units x K` logits
    /// node.  `training` enables dropout; `rng` supplies its randomness.
    fn forward_logits(
        &self,
        tape: &mut Tape,
        binding: &mut Binding,
        tokens: &[usize],
        training: bool,
        rng: &mut TensorRng,
    ) -> Var;

    /// Evaluation-mode class probabilities (`units x K`), softmax of
    /// [`InstanceClassifier::forward_logits`] with dropout disabled, on a
    /// workspace of its own.  A pass over many sentences should take one
    /// [`Workspace::eval`] evaluator instead, which binds the parameters
    /// once and reuses the tape.
    fn predict_proba(&self, tokens: &[usize]) -> Matrix {
        Workspace::new().eval(self).proba(tokens)
    }

    /// Evaluation-mode hard predictions (argmax per unit).
    fn predict(&self, tokens: &[usize]) -> Vec<usize> {
        stats::argmax_rows(&self.predict_proba(tokens))
    }
}
