//! The "crowd layer" baselines CL(MW), CL(VW) and CL(VW-B) of Rodrigues &
//! Pereira (AAAI 2018).
//!
//! The classifier's class scores are mapped to each annotator's label
//! distribution by an annotator-specific transformation and the whole stack
//! is trained end-to-end on the raw crowd labels:
//!
//! * **MW** — a per-annotator `K x K` matrix (identity-initialised);
//! * **VW** — a per-annotator per-class scaling vector (ones-initialised);
//! * **VW-B** — scaling vector plus per-class bias.
//!
//! As in the paper, the classifier can be pre-trained for a few epochs on
//! majority-voting labels before the crowd layer is attached (the `MW, 5`
//! configuration of Table III).

use crate::baselines::two_stage::{one_hot_targets, train_supervised};
use crate::config::TrainConfig;
use crate::fit::{DevSelection, MStep};
use crate::predict::{evaluate_split, PredictionMode};
use crate::report::EvalMetrics;
use lncl_crowd::truth::{MajorityVote, TruthInference};
use lncl_crowd::{CrowdDataset, TaskKind};
use lncl_nn::optim::{Optimizer, Sgd};
use lncl_nn::{InstanceClassifier, Module, Param, Workspace};
use lncl_tensor::{stats, Matrix};

/// Which annotator transformation the crowd layer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrowdLayerKind {
    /// Matrix-per-annotator ("MW").
    MatrixWeight,
    /// Vector-per-annotator ("VW").
    VectorWeight,
    /// Vector plus bias ("VW-B").
    VectorWeightBias,
}

impl CrowdLayerKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            CrowdLayerKind::MatrixWeight => "CL (MW)",
            CrowdLayerKind::VectorWeight => "CL (VW)",
            CrowdLayerKind::VectorWeightBias => "CL (VW-B)",
        }
    }
}

/// End-to-end crowd-layer trainer wrapping any [`InstanceClassifier`].
pub struct CrowdLayerTrainer<M: InstanceClassifier + Module + Clone> {
    /// The backbone classifier.
    pub model: M,
    kind: CrowdLayerKind,
    /// Per-annotator transformation parameters: every annotator's weight,
    /// then every annotator's bias (trained only by VW-B).
    layer: Vec<Param>,
    config: TrainConfig,
    /// Number of epochs of majority-voting pre-training before end-to-end
    /// training (0 disables pre-training).
    pub pretrain_epochs: usize,
}

impl<M: InstanceClassifier + Module + Clone> CrowdLayerTrainer<M> {
    /// Creates a crowd-layer trainer.
    pub fn new(
        model: M,
        dataset: &CrowdDataset,
        kind: CrowdLayerKind,
        config: TrainConfig,
        pretrain_epochs: usize,
    ) -> Self {
        let k = dataset.num_classes;
        let weights = (0..dataset.num_annotators).map(|j| match kind {
            CrowdLayerKind::MatrixWeight => Param::new(format!("crowd_layer.w{j}"), Matrix::identity(k)),
            _ => Param::new(format!("crowd_layer.w{j}"), Matrix::full(1, k, 1.0)),
        });
        let biases = (0..dataset.num_annotators).map(|j| Param::new(format!("crowd_layer.b{j}"), Matrix::zeros(1, k)));
        Self { model, kind, layer: weights.chain(biases).collect(), config, pretrain_epochs }
    }

    /// Trains the crowd layer end-to-end on the raw crowd labels.
    pub fn train(&mut self, dataset: &CrowdDataset) -> EvalMetrics {
        // optional pre-training on MV labels
        if self.pretrain_epochs > 0 {
            let view = dataset.annotation_view();
            let mv = MajorityVote.infer(&view);
            let targets = one_hot_targets(mv.hard_by_instance(&view), dataset.num_classes);
            let pre_config = TrainConfig { epochs: self.pretrain_epochs, ..self.config.clone() };
            train_supervised(&mut self.model, dataset, &targets, &pre_config);
        }

        let mut m_step = MStep::new(&TrainConfig { seed: self.config.seed.wrapping_add(17), ..self.config.clone() });
        // The crowd layer is invariant to a global class permutation (the
        // backbone can flip classes as long as every annotator matrix flips
        // them back).  Identity/ones initialisation plus a slow, plain-SGD
        // update of the annotator parameters keeps the class semantics
        // anchored to the backbone, as in the reference implementation.
        let mut annotator_optimizer = Sgd::new(0.01);
        let mut dev = DevSelection::new(&self.config);
        let (kind, annotators) = (self.kind, dataset.num_annotators);

        for epoch in 0..self.config.epochs {
            let group = Some((&mut self.layer[..], &mut annotator_optimizer as &mut dyn Optimizer));
            m_step.epoch(&mut self.model, &dataset.train, epoch, group, |tape, binding, layer, logits, i| {
                // The annotator transformation is applied to the class
                // scores (logits): with identity/ones initialisation the
                // crowd layer starts as plain cross-entropy training and
                // learns per-annotator distortions on top, which trains
                // much faster at this scale than stacking two softmaxes.
                let labels = &dataset.train[i].crowd_labels;
                let (units, k) = tape.shape(logits);
                let mut instance_loss = None;
                for (cl, observed) in labels.iter().zip(one_hot_targets(labels.iter().map(|cl| &cl.labels), k)) {
                    let w = binding.bind(tape, &layer[cl.annotator]);
                    let scores = match kind {
                        CrowdLayerKind::MatrixWeight => tape.matmul(logits, w),
                        CrowdLayerKind::VectorWeight => {
                            let w_rep = tape.gather_rows(w, &vec![0; units]);
                            tape.mul(logits, w_rep)
                        }
                        CrowdLayerKind::VectorWeightBias => {
                            let b = binding.bind(tape, &layer[annotators + cl.annotator]);
                            let w_rep = tape.gather_rows(w, &vec![0; units]);
                            let scaled = tape.mul(logits, w_rep);
                            tape.add_row_broadcast(scaled, b)
                        }
                    };
                    let loss = tape.softmax_cross_entropy(scores, observed);
                    instance_loss = Some(instance_loss.map_or(loss, |total| tape.add(total, loss)));
                }
                instance_loss
            });
            if dev.stop_after(&self.model, dataset, epoch) {
                break;
            }
        }
        // restore the best dev epoch's backbone; the history is not reported
        dev.finish(&mut self.model);
        self.inference_metrics(dataset)
    }

    /// Inference quality: the classifier's own outputs on the training split
    /// (the convention used for the CL rows of Tables II/III).
    pub fn inference_metrics(&self, dataset: &CrowdDataset) -> EvalMetrics {
        let mut workspace = Workspace::new();
        let mut evaluator = workspace.eval(&self.model);
        let predictions: Vec<Vec<usize>> =
            dataset.train.iter().map(|inst| stats::argmax_rows(&evaluator.proba(&inst.tokens))).collect();
        crate::baselines::two_stage::inference_metrics_of(&predictions, dataset)
    }

    /// Evaluates the backbone classifier on a split.
    pub fn evaluate(&self, split: &[lncl_crowd::Instance], task: TaskKind) -> EvalMetrics {
        evaluate_split(&self.model, split, task, PredictionMode::Student, &crate::distill::TaskRules::None, 0.0)
    }

    /// The trained backbone's softmax posterior over the true class for
    /// every unit of the training split, in
    /// [`AnnotationView`](lncl_crowd::AnnotationView) order.  The crowd
    /// layer has no explicit truth-inference stage; the backbone's own
    /// class distribution *is* its estimate of the truth (the same
    /// convention [`CrowdLayerTrainer::inference_metrics`] scores), which
    /// is what the robustness suite's posterior invariants validate.
    pub fn truth_posteriors(&self, dataset: &CrowdDataset) -> Vec<Vec<f32>> {
        split_posteriors(&self.model, &dataset.train)
    }
}

/// Softmax class probabilities of a classifier for every unit of a split,
/// one `K`-length row per unit in instance order.
pub(crate) fn split_posteriors<M: InstanceClassifier>(model: &M, split: &[lncl_crowd::Instance]) -> Vec<Vec<f32>> {
    let mut workspace = Workspace::new();
    let mut evaluator = workspace.eval(model);
    let mut rows = Vec::new();
    for inst in split {
        let probs = evaluator.proba(&inst.tokens);
        rows.extend((0..probs.rows()).map(|r| probs.row(r).to_vec()));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_crowd::datasets::{generate_sentiment, SentimentDatasetConfig};
    use lncl_nn::models::{SentimentCnn, SentimentCnnConfig};
    use lncl_tensor::TensorRng;

    fn setup() -> (CrowdDataset, SentimentCnn, TrainConfig) {
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
        let config = TrainConfig::fast(10);
        (dataset, model, config)
    }

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(CrowdLayerKind::MatrixWeight.name(), "CL (MW)");
        assert_eq!(CrowdLayerKind::VectorWeight.name(), "CL (VW)");
        assert_eq!(CrowdLayerKind::VectorWeightBias.name(), "CL (VW-B)");
    }

    #[test]
    fn mw_training_learns_better_than_chance() {
        let (dataset, model, config) = setup();
        let mut trainer = CrowdLayerTrainer::new(model, &dataset, CrowdLayerKind::MatrixWeight, config, 2);
        let inference = trainer.train(&dataset);
        let test = trainer.evaluate(&dataset.test, dataset.task);
        assert!(test.accuracy > 0.58, "CL(MW) test accuracy {}", test.accuracy);
        assert!(inference.accuracy > 0.65, "CL(MW) inference accuracy {}", inference.accuracy);
    }

    #[test]
    fn vw_variants_run_without_pretraining() {
        let (dataset, model, config) = setup();
        for kind in [CrowdLayerKind::VectorWeight, CrowdLayerKind::VectorWeightBias] {
            let mut trainer = CrowdLayerTrainer::new(model.clone(), &dataset, kind, config.clone(), 0);
            let inference = trainer.train(&dataset);
            assert!(inference.accuracy > 0.6, "{} inference {}", kind.name(), inference.accuracy);
        }
    }

    #[test]
    fn training_skips_instances_without_crowd_labels() {
        let (mut dataset, model, config) = setup();
        for inst in dataset.train.iter_mut().step_by(3) {
            inst.crowd_labels.clear();
        }
        let config = TrainConfig { epochs: 2, ..config };
        for kind in [CrowdLayerKind::MatrixWeight, CrowdLayerKind::VectorWeightBias] {
            let mut trainer = CrowdLayerTrainer::new(model.clone(), &dataset, kind, config.clone(), 0);
            trainer.train(&dataset);
            let params = trainer.model.params().into_iter().chain(&trainer.layer);
            for p in params {
                assert!(p.value.as_slice().iter().all(|v| v.is_finite()), "{}: {} is not finite", kind.name(), p.name);
            }
        }
    }
}
