//! Two-stage baselines: estimate the ground truth with a truth-inference
//! method (or use the gold labels), then train the classifier with ordinary
//! supervised learning.  Covers MV-Classifier, GLAD-Classifier and the Gold
//! upper bound of Tables II/III.

use crate::config::TrainConfig;
use crate::fit::{DevSelection, MStep};
use crate::predict::evaluate_predictions;
use crate::report::{EvalMetrics, TrainReport};
use lncl_crowd::CrowdDataset;
use lncl_nn::{InstanceClassifier, Module};
use lncl_tensor::Matrix;

/// Trains `model` on the training split of `dataset` against the supplied
/// per-instance *soft* target matrices (`units x K`; use one-hot rows for
/// hard labels).  Early stopping follows the development split exactly as
/// in the paper.  The report's `inference` is left at its default: the
/// targets, not the model, are this pipeline's truth estimate.
pub fn train_supervised<M: InstanceClassifier + Module + Clone>(
    model: &mut M,
    dataset: &CrowdDataset,
    targets: &[Matrix],
    config: &TrainConfig,
) -> TrainReport {
    assert_eq!(targets.len(), dataset.train.len(), "one target per training instance required");
    let mut m_step = MStep::new(config);
    let mut dev = DevSelection::new(config);
    let mut loss_history = Vec::new();
    for epoch in 0..config.epochs {
        loss_history.push(m_step.epoch(model, &dataset.train, epoch, None, |tape, _, _, logits, i| {
            Some(tape.softmax_cross_entropy(logits, targets[i].clone()))
        }));
        if dev.stop_after(model, dataset, epoch) {
            break;
        }
    }
    TrainReport { loss_history, ..dev.finish(model) }
}

/// Converts hard label sequences (an instance's units, or one crowd label's)
/// into one-hot soft-target matrices, one `len x num_classes` matrix each.
pub fn one_hot_targets(labels: impl IntoIterator<Item = impl AsRef<[usize]>>, num_classes: usize) -> Vec<Matrix> {
    labels
        .into_iter()
        .map(|inst| {
            let inst = inst.as_ref();
            Matrix::from_fn(inst.len(), num_classes, |u, c| if inst[u] == c { 1.0 } else { 0.0 })
        })
        .collect()
}

/// Gold-label targets of a dataset's training split (the "Gold" upper bound).
pub fn gold_targets(dataset: &CrowdDataset) -> Vec<Matrix> {
    one_hot_targets(dataset.train.iter().map(|i| &i.gold), dataset.num_classes)
}

/// Evaluates the inference quality of a set of hard labels against the
/// training gold (the "Inference" column for two-stage methods).
pub fn inference_metrics_of(labels: &[Vec<usize>], dataset: &CrowdDataset) -> EvalMetrics {
    evaluate_predictions(labels, &dataset.train, dataset.task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::{evaluate_split, PredictionMode};
    use lncl_crowd::datasets::{generate_sentiment, SentimentDatasetConfig};
    use lncl_crowd::truth::{MajorityVote, TruthInference};
    use lncl_nn::models::{SentimentCnn, SentimentCnnConfig};
    use lncl_tensor::TensorRng;

    fn tiny() -> (CrowdDataset, SentimentCnn, TrainConfig) {
        let dataset = generate_sentiment(&SentimentDatasetConfig {
            train_size: 400,
            dev_size: 150,
            test_size: 150,
            num_annotators: 15,
            filler_vocab: 40,
            seed: 0,
            ..SentimentDatasetConfig::tiny()
        });
        let mut rng = TensorRng::seed_from_u64(0);
        let model = SentimentCnn::new(
            SentimentCnnConfig {
                vocab_size: dataset.vocab_size(),
                embedding_dim: 16,
                windows: vec![2, 3],
                filters_per_window: 8,
                dropout_keep: 0.7,
                num_classes: 2,
            },
            &mut rng,
        );
        let config = TrainConfig::fast(12);
        (dataset, model, config)
    }

    #[test]
    fn one_hot_targets_are_valid() {
        let t = one_hot_targets(&[vec![1, 0]], 3);
        assert_eq!(t[0].row(0), &[0.0, 1.0, 0.0]);
        assert_eq!(t[0].row(1), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn gold_training_beats_chance() {
        let (dataset, mut model, config) = tiny();
        let report = train_supervised(&mut model, &dataset, &gold_targets(&dataset), &config);
        assert!(report.epochs_run >= 1);
        let acc = evaluate_split(
            &model,
            &dataset.test,
            dataset.task,
            PredictionMode::Student,
            &crate::distill::TaskRules::None,
            0.0,
        )
        .accuracy;
        assert!(acc > 0.65, "gold-trained classifier should beat chance clearly, got {acc}");
    }

    #[test]
    fn mv_classifier_pipeline_runs() {
        let (dataset, mut model, config) = tiny();
        let view = dataset.annotation_view();
        let mv = MajorityVote.infer(&view);
        let labels = mv.hard_by_instance(&view);
        let inference = inference_metrics_of(&labels, &dataset);
        assert!(inference.accuracy > 0.7, "MV inference should be decent: {}", inference.accuracy);
        let targets = one_hot_targets(&labels, dataset.num_classes);
        let report = train_supervised(&mut model, &dataset, &targets, &config);
        assert!(!report.loss_history.is_empty());
        assert!(report.loss_history.last().unwrap() < &report.loss_history[0]);
    }

    #[test]
    #[should_panic]
    fn target_count_mismatch_panics() {
        let (dataset, mut model, config) = tiny();
        let _ = train_supervised(&mut model, &dataset, &[], &config);
    }
}
