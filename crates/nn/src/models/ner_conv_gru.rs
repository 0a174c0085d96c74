//! The convolution + GRU sequence tagger used for the NER task (right half
//! of Figure 5 in the paper): word embeddings → same-length convolution →
//! dropout → GRU → per-token fully-connected softmax layer.
//!
//! The paper uses 300-d GloVe embeddings, 512 convolution features and a
//! 50-unit GRU; this reproduction keeps the same topology at reduced widths
//! (see DESIGN.md §1).

use crate::layers::{Dropout, Embedding, Gru, Linear, SameConv};
use crate::models::InstanceClassifier;
use crate::module::{Binding, Module, Param};
use lncl_autograd::{Tape, Var};
use lncl_tensor::TensorRng;

/// Hyper-parameters of the NER tagger.
#[derive(Debug, Clone)]
pub struct NerConvGruConfig {
    /// Vocabulary size (token id 0 is the padding token).
    pub vocab_size: usize,
    /// Embedding dimensionality.
    pub embedding_dim: usize,
    /// Convolution window (paper: 5; must be odd).
    pub conv_window: usize,
    /// Convolution output features.
    pub conv_features: usize,
    /// GRU hidden size (paper: 50).
    pub gru_hidden: usize,
    /// Dropout keep probability after the convolution (paper: 0.5).
    pub dropout_keep: f32,
    /// Number of BIO classes (9 for CoNLL-2003).
    pub num_classes: usize,
}

impl Default for NerConvGruConfig {
    fn default() -> Self {
        Self {
            vocab_size: 1000,
            embedding_dim: 24,
            conv_window: 5,
            conv_features: 32,
            gru_hidden: 24,
            dropout_keep: 0.5,
            num_classes: 9,
        }
    }
}

/// The per-token sequence tagger.
#[derive(Debug, Clone)]
pub struct NerConvGru {
    embedding: Embedding,
    conv: SameConv,
    dropout: Dropout,
    gru: Gru,
    output: Linear,
    config: NerConvGruConfig,
}

impl NerConvGru {
    /// Builds the model with randomly initialised parameters.
    pub fn new(config: NerConvGruConfig, rng: &mut TensorRng) -> Self {
        assert!(config.num_classes >= 2, "NerConvGru: need at least two classes");
        let embedding = Embedding::new("ner_conv_gru.embedding", config.vocab_size, config.embedding_dim, rng);
        let conv =
            SameConv::new("ner_conv_gru.conv", config.embedding_dim, config.conv_features, config.conv_window, rng);
        let dropout = Dropout::new(config.dropout_keep);
        let gru = Gru::new("ner_conv_gru.gru", config.conv_features, config.gru_hidden, rng);
        let output = Linear::new("ner_conv_gru.output", config.gru_hidden, config.num_classes, rng);
        Self { embedding, conv, dropout, gru, output, config }
    }

    /// The model configuration.
    pub fn config(&self) -> &NerConvGruConfig {
        &self.config
    }
}

impl Module for NerConvGru {
    fn params(&self) -> Vec<&Param> {
        let mut out = self.embedding.params();
        out.extend(self.conv.params());
        out.extend(self.gru.params());
        out.extend(self.output.params());
        out
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.embedding.params_mut();
        out.extend(self.conv.params_mut());
        out.extend(self.gru.params_mut());
        out.extend(self.output.params_mut());
        out
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embedding.visit_params_mut(f);
        self.conv.visit_params_mut(f);
        self.gru.visit_params_mut(f);
        self.output.visit_params_mut(f);
    }
}

impl InstanceClassifier for NerConvGru {
    fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    fn forward_logits(
        &self,
        tape: &mut Tape,
        binding: &mut Binding,
        tokens: &[usize],
        training: bool,
        rng: &mut TensorRng,
    ) -> Var {
        // an empty sentence is one padding token
        let embedded = self.embedding.forward(tape, binding, tokens, 1);
        let conv = self.conv.forward(tape, binding, embedded);
        let dropped = self.dropout.forward(tape, conv, rng, training);
        let hidden = self.gru.forward(tape, binding, dropped);
        self.output.forward(tape, binding, hidden)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model(seed: u64) -> NerConvGru {
        let mut rng = TensorRng::seed_from_u64(seed);
        NerConvGru::new(
            NerConvGruConfig {
                vocab_size: 40,
                embedding_dim: 6,
                conv_window: 3,
                conv_features: 8,
                gru_hidden: 6,
                dropout_keep: 0.5,
                num_classes: 5,
            },
            &mut rng,
        )
    }

    #[test]
    fn one_row_of_logits_per_token() {
        let model = tiny_model(0);
        let probs = model.predict_proba(&[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(probs.shape(), (7, 5));
        for r in 0..probs.rows() {
            assert!((probs.row(r).iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn single_token_and_empty_sequences_handled() {
        let model = tiny_model(1);
        assert_eq!(model.predict_proba(&[3]).shape(), (1, 5));
        assert_eq!(model.predict_proba(&[]).shape(), (1, 5));
    }

    #[test]
    fn training_reduces_per_token_loss() {
        use crate::optim::{Adam, Optimizer};
        let mut model = tiny_model(2);
        let mut opt = Adam::new(0.01);
        let mut rng = TensorRng::seed_from_u64(5);
        let tokens = [2usize, 9, 4, 17, 8];
        // target: class t = position % 5 as a one-hot distribution
        let target = lncl_tensor::Matrix::from_fn(5, 5, |r, c| if c == r % 5 { 1.0 } else { 0.0 });
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..40 {
            model.zero_grad();
            let mut tape = Tape::new();
            let mut binding = Binding::new();
            let logits = model.forward_logits(&mut tape, &mut binding, &tokens, false, &mut rng);
            let loss = tape.softmax_cross_entropy(logits, target.clone());
            let value = tape.scalar(loss);
            if step == 0 {
                first = value;
            }
            last = value;
            tape.backward(loss);
            binding.accumulate(&tape, model.params_mut());
            let mut params = model.params_mut();
            opt.step(&mut params);
        }
        assert!(last < first * 0.6, "loss should drop: {first} -> {last}");
    }

    #[test]
    fn predictions_are_valid_class_indices() {
        let model = tiny_model(3);
        let preds = model.predict(&[1, 2, 3, 4]);
        assert_eq!(preds.len(), 4);
        assert!(preds.iter().all(|&p| p < 5));
    }
}
