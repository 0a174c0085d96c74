//! The Kim-2014 style sentence CNN used for the sentiment-polarity task
//! (left half of Figure 5 in the paper): word embeddings → parallel
//! convolutions with several window sizes → ReLU → max-over-time pooling →
//! dropout → fully-connected softmax layer.
//!
//! The paper uses 300-d static word2vec embeddings and 100 feature maps per
//! window on a GPU; this reproduction trains much smaller trainable
//! embeddings and fewer filters so that the full experiment grid runs on a
//! CPU in minutes (see DESIGN.md §1).

use crate::layers::{Dropout, Embedding, Linear, TextConv};
use crate::models::InstanceClassifier;
use crate::module::{Binding, Module, Param};
use lncl_autograd::{Tape, Var};
use lncl_tensor::TensorRng;

/// Hyper-parameters of the sentiment CNN.
#[derive(Debug, Clone)]
pub struct SentimentCnnConfig {
    /// Vocabulary size (token id 0 is the padding token).
    pub vocab_size: usize,
    /// Embedding dimensionality.
    pub embedding_dim: usize,
    /// Convolution window sizes (the paper uses 3, 4, 5).
    pub windows: Vec<usize>,
    /// Feature maps per window size.
    pub filters_per_window: usize,
    /// Dropout keep probability on the penultimate layer (paper: 0.5).
    pub dropout_keep: f32,
    /// Number of output classes (2 for sentiment polarity).
    pub num_classes: usize,
}

impl Default for SentimentCnnConfig {
    fn default() -> Self {
        Self {
            vocab_size: 1000,
            embedding_dim: 24,
            windows: vec![3, 4, 5],
            filters_per_window: 16,
            dropout_keep: 0.5,
            num_classes: 2,
        }
    }
}

/// The sentence-level CNN classifier.
#[derive(Debug, Clone)]
pub struct SentimentCnn {
    embedding: Embedding,
    conv: TextConv,
    dropout: Dropout,
    output: Linear,
    config: SentimentCnnConfig,
}

impl SentimentCnn {
    /// Builds the model with randomly initialised parameters.
    pub fn new(config: SentimentCnnConfig, rng: &mut TensorRng) -> Self {
        assert!(config.num_classes >= 2, "SentimentCnn: need at least two classes");
        let embedding = Embedding::new("sentiment_cnn.embedding", config.vocab_size, config.embedding_dim, rng);
        let conv =
            TextConv::new("sentiment_cnn", config.embedding_dim, &config.windows, config.filters_per_window, rng);
        let dropout = Dropout::new(config.dropout_keep);
        let output = Linear::new("sentiment_cnn.output", conv.output_dim(), config.num_classes, rng);
        Self { embedding, conv, dropout, output, config }
    }

    /// The model configuration.
    pub fn config(&self) -> &SentimentCnnConfig {
        &self.config
    }
}

impl Module for SentimentCnn {
    fn params(&self) -> Vec<&Param> {
        let mut out = self.embedding.params();
        out.extend(self.conv.params());
        out.extend(self.output.params());
        out
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.embedding.params_mut();
        out.extend(self.conv.params_mut());
        out.extend(self.output.params_mut());
        out
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embedding.visit_params_mut(f);
        self.conv.visit_params_mut(f);
        self.output.visit_params_mut(f);
    }
}

impl InstanceClassifier for SentimentCnn {
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
        // padded with token 0 to the largest window (an empty sentence too)
        let embedded = self.embedding.forward(tape, binding, tokens, self.conv.max_window().max(1));
        let features = self.conv.forward(tape, binding, embedded);
        let dropped = self.dropout.forward(tape, features, rng, training);
        self.output.forward(tape, binding, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_tensor::stats;

    fn tiny_model(seed: u64) -> SentimentCnn {
        let mut rng = TensorRng::seed_from_u64(seed);
        SentimentCnn::new(
            SentimentCnnConfig {
                vocab_size: 30,
                embedding_dim: 8,
                windows: vec![2, 3],
                filters_per_window: 4,
                dropout_keep: 0.5,
                num_classes: 2,
            },
            &mut rng,
        )
    }

    #[test]
    fn forward_produces_single_row_of_logits() {
        let model = tiny_model(0);
        let probs = model.predict_proba(&[1, 2, 3, 4, 5]);
        assert_eq!(probs.shape(), (1, 2));
        assert!((probs.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn short_and_empty_sentences_are_padded() {
        let model = tiny_model(1);
        // shorter than the largest window (3) and even empty must not panic.
        let p1 = model.predict_proba(&[4]);
        let p2 = model.predict_proba(&[]);
        assert_eq!(p1.shape(), (1, 2));
        assert_eq!(p2.shape(), (1, 2));
    }

    #[test]
    fn training_step_reduces_loss_on_single_example() {
        use crate::optim::{Adadelta, Optimizer};
        let mut model = tiny_model(2);
        let mut opt = Adadelta::new(1.0);
        let mut rng = TensorRng::seed_from_u64(9);
        let tokens = [3usize, 7, 9, 11, 2];
        let target = lncl_tensor::Matrix::row_vector(&[1.0, 0.0]);
        let mut losses = Vec::new();
        for _ in 0..30 {
            model.zero_grad();
            let mut tape = Tape::new();
            let mut binding = Binding::new();
            let logits = model.forward_logits(&mut tape, &mut binding, &tokens, false, &mut rng);
            let loss = tape.softmax_cross_entropy(logits, target.clone());
            losses.push(tape.scalar(loss));
            tape.backward(loss);
            binding.accumulate(&tape, model.params_mut());
            let mut params = model.params_mut();
            opt.step(&mut params);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss should at least halve: {:?} -> {:?}",
            losses[0],
            losses.last().unwrap()
        );
    }

    #[test]
    fn predict_agrees_with_argmax_of_proba() {
        let model = tiny_model(3);
        let tokens = [5usize, 6, 7, 8];
        let proba = model.predict_proba(&tokens);
        assert_eq!(model.predict(&tokens), stats::argmax_rows(&proba));
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let model = tiny_model(4);
        let emb = 30 * 8;
        let conv = (2 * 8 * 4 + 4) + (3 * 8 * 4 + 4);
        let out = 2 * 4 * 2 + 2;
        assert_eq!(model.num_parameters(), emb + conv + out);
    }
}
