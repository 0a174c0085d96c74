//! The Logic-LNCL trainer — Algorithm 1 of the paper.
//!
//! The trainer is generic over the classifier architecture (anything
//! implementing [`InstanceClassifier`]), which is how one implementation
//! covers both the sentiment CNN and the NER tagger, and — by switching the
//! attached [`TaskRules`] and [`PosteriorMode`] — also every EM baseline and
//! ablation variant of Tables II–IV:
//!
//! | paper method           | trainer configuration                                  |
//! |------------------------|--------------------------------------------------------|
//! | Logic-LNCL (student/teacher) | rules attached, iterative posterior              |
//! | AggNet / Raykar        | `TaskRules::None`, iterative posterior                 |
//! | w/o-Rule ablation      | `TaskRules::None`, iterative posterior                 |
//! | MV-Rule / GLAD-Rule    | rules attached, posterior fixed to MV / GLAD estimate  |
//! | our-other-rules        | the weaker rule variants attached                      |
//!
//! The epoch loop itself is not written here: the mini-batch pass of the
//! pseudo-M-step, the learning-rate step decay and the dev-split early
//! stopping come from the crate's `fit` module, which the supervised and
//! crowd-layer baselines share.  This module supplies the per-instance
//! loss on `q_f` and runs the pseudo-E-step between the M-step and the
//! dev check.

use crate::annotators::AnnotatorModel;
use crate::config::{MStepObjective, TrainConfig};
use crate::distill::{infer_qb, TaskRules};
use crate::fit::{DevSelection, MStep};
use crate::posterior::{eq13_into, infer_qa_into, FlatPosteriors};
use crate::predict::{evaluate_predictions, evaluate_split, PredictionMode};
use crate::report::{EvalMetrics, TrainReport};
use lncl_crowd::truth::ds_windowed::Windows;
use lncl_crowd::truth::{MajorityVote, TruthInference};
use lncl_crowd::{AnnotationView, CrowdDataset, TaskKind};
use lncl_nn::{InstanceClassifier, Module, Workspace};
use lncl_tensor::Matrix;
use std::cell::RefCell;

/// Where the truth posterior `q_a` comes from.
#[derive(Debug, Clone)]
pub enum PosteriorMode {
    /// Full Logic-LNCL: Eq. 13 with the live classifier and annotator model,
    /// refreshed every epoch.
    Iterative,
    /// Ablation mode (MV-Rule / GLAD-Rule): `q_a` is frozen to an external
    /// per-instance estimate (one `units x K` matrix per instance) and never
    /// refined.
    Fixed(Vec<Matrix>),
}

/// The Logic-LNCL trainer.
pub struct LogicLncl<M: InstanceClassifier + Module + Clone> {
    /// The neural classifier `p(t|x; Θ_NN)`.
    pub model: M,
    /// The annotator reliability model `Π` (pooled over each annotator's
    /// whole stream; always maintained, e.g. for
    /// [`AnnotatorModel::reliabilities`] read-outs).
    pub annotators: AnnotatorModel,
    /// Attached logic rules.
    pub rules: TaskRules,
    /// Training configuration.
    pub config: TrainConfig,
    /// Posterior mode (iterative vs fixed).
    pub posterior_mode: PosteriorMode,
    /// When set, the E-step judges every crowd label by its annotator's
    /// **stream-window** confusion matrix instead of the pooled one — the
    /// `logic-lncl-windowed` drift-tracking configuration.
    windowed: Option<StreamWindows>,
    /// Current training target `q_f` for the whole split, stored flat.
    qf: FlatPosteriors,
}

/// The `logic-lncl-windowed` E-step state: lncl-crowd's stream
/// [`Windows`] over the training split's annotation view, and every
/// annotator window's confusion as observed-major log-likelihoods
/// (`logs[j][w]` row `n`, column `m` is `ln(max(π_{m n}, 1e-12))`),
/// refreshed once per Eq. 12.
struct StreamWindows {
    view: AnnotationView,
    windows: Windows,
    /// Empty until the first Eq. 12: every window starts from the pooled
    /// model's diagonal initialisation, so the pooled rows judge until then.
    logs: Vec<Vec<Matrix>>,
}

impl StreamWindows {
    /// Windows of at most `size` instances: a label's position in its
    /// annotator's stream advances once per labelled training instance (the
    /// scenario generator's clock), so all units of an instance share their
    /// labels' windows.  The weak-column backoff is off, so each label is
    /// judged by its own window.
    fn new(dataset: &CrowdDataset, size: usize, decay: f32) -> Self {
        let view = dataset.annotation_view();
        let mut next = vec![0usize; dataset.num_annotators];
        let mut positions = Vec::with_capacity(view.num_units());
        for inst in &dataset.train {
            let stream: Vec<usize> = inst
                .crowd_labels
                .iter()
                .map(|cl| {
                    next[cl.annotator] += 1;
                    next[cl.annotator] - 1
                })
                .collect();
            positions.extend(std::iter::repeat_n(stream, inst.num_units()));
        }
        let windows = Windows::new(&view, &positions, size, decay, 0.0);
        Self { view, windows, logs: Vec::new() }
    }

    /// The windowed Eq. 12 from `q_f`, whose flat rows are the view's units.
    fn update_from_qf(&mut self, qf: &FlatPosteriors, smoothing: f32) {
        let k = qf.num_classes();
        let rows: Vec<&[f32]> = qf.data().as_slice().chunks_exact(k).collect();
        assert_eq!(rows.len(), self.view.num_units(), "qf must cover every training unit");
        let confusions = self.windows.confusions(&self.view, &rows, smoothing);
        self.logs = confusions
            .iter()
            .map(|per_window| {
                per_window.iter().map(|c| Matrix::from_fn(k, k, |n, m| c[(m, n)].max(1e-12).ln())).collect()
            })
            .collect();
    }

    /// The log-likelihood row that judges label `slot` of view unit `unit`
    /// (annotator `j` reporting `observed`), or `None` while the pooled
    /// model judges (before the first Eq. 12).
    fn log_likelihoods_for(&self, unit: usize, slot: usize, j: usize, observed: usize) -> Option<&[f32]> {
        let w = self.windows.judging_window(unit, slot, j, observed)?;
        Some(self.logs.get(j)?[w].row(observed))
    }
}

/// Builder for the [`LogicLncl`] trainer; see [`LogicLncl::builder`].
///
/// Defaults: no rules (the AggNet / w/o-Rule configuration), the
/// [`TrainConfig::fast`] configuration and the iterative posterior.
pub struct LogicLnclBuilder<M: InstanceClassifier + Module + Clone> {
    model: M,
    rules: TaskRules,
    config: TrainConfig,
    posterior: PosteriorMode,
    windowed: Option<(usize, f32)>,
}

impl<M: InstanceClassifier + Module + Clone> LogicLnclBuilder<M> {
    /// Attaches logic rules (e.g. [`crate::ablation::paper_rules`]).
    pub fn rules(mut self, rules: TaskRules) -> Self {
        self.rules = rules;
        self
    }

    /// Sets the training configuration.
    pub fn config(mut self, config: TrainConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the posterior mode (iterative vs fixed).
    pub fn posterior(mut self, posterior: PosteriorMode) -> Self {
        self.posterior = posterior;
        self
    }

    /// Freezes `q_a` to an external per-instance estimate (the MV-Rule /
    /// GLAD-Rule ablation); shorthand for
    /// `.posterior(PosteriorMode::Fixed(..))`.
    pub fn fixed_posterior(self, posterior: Vec<Matrix>) -> Self {
        self.posterior(PosteriorMode::Fixed(posterior))
    }

    /// Switches the E-step to **stream-windowed** confusion matrices
    /// (lncl-crowd's [`Windows`], the model DS-W runs on): each annotator's
    /// stream, one position per labelled training instance, is cut into
    /// windows of at most `window` instances, neighbouring windows are
    /// blended with `decay^distance`, and every crowd label is judged by
    /// its own window's confusion.  This is the `logic-lncl-windowed`
    /// drift-tracking configuration; degenerate parameters (`window == 0`,
    /// `decay` outside `(0, 1]`) are rejected with a descriptive panic when
    /// the trainer is built.
    pub fn windowed_confusions(mut self, window: usize, decay: f32) -> Self {
        self.windowed = Some((window, decay));
        self
    }

    /// Finishes the builder, sizing the annotator model for `dataset`.
    pub fn build(self, dataset: &CrowdDataset) -> LogicLncl<M> {
        let mut trainer = LogicLncl::new(self.model, dataset, self.rules, self.config);
        trainer.posterior_mode = self.posterior;
        trainer.windowed = self.windowed.map(|(window, decay)| StreamWindows::new(dataset, window, decay));
        trainer
    }
}

impl<M: InstanceClassifier + Module + Clone> LogicLncl<M> {
    /// Creates a trainer for a dataset.
    pub fn new(model: M, dataset: &CrowdDataset, rules: TaskRules, config: TrainConfig) -> Self {
        let annotators = AnnotatorModel::new(dataset.num_annotators, dataset.num_classes, 0.7);
        Self {
            model,
            annotators,
            rules,
            config,
            posterior_mode: PosteriorMode::Iterative,
            windowed: None,
            qf: FlatPosteriors::zeros(&[], dataset.num_classes),
        }
    }

    /// Starts a builder around a classifier:
    ///
    /// ```no_run
    /// # use lncl_crowd::datasets::{generate_sentiment, SentimentDatasetConfig};
    /// # use lncl_nn::models::{SentimentCnn, SentimentCnnConfig};
    /// # use lncl_tensor::TensorRng;
    /// use logic_lncl::ablation::paper_rules;
    /// use logic_lncl::{LogicLncl, TrainConfig};
    ///
    /// # let dataset = generate_sentiment(&SentimentDatasetConfig::tiny());
    /// # let mut rng = TensorRng::seed_from_u64(0);
    /// # let model = SentimentCnn::new(
    /// #     SentimentCnnConfig { vocab_size: dataset.vocab_size(), ..Default::default() },
    /// #     &mut rng,
    /// # );
    /// let mut trainer = LogicLncl::builder(model)
    ///     .rules(paper_rules(&dataset))
    ///     .config(TrainConfig::builder().epochs(10).seed(7).build())
    ///     .build(&dataset);
    /// let report = trainer.train(&dataset);
    /// ```
    pub fn builder(model: M) -> LogicLnclBuilder<M> {
        LogicLnclBuilder {
            model,
            rules: TaskRules::None,
            config: TrainConfig::fast(12),
            posterior: PosteriorMode::Iterative,
            windowed: None,
        }
    }

    /// Current `q_f` targets for the whole training split (flat storage,
    /// one `units x K` block per instance), e.g. for inspecting the
    /// inference quality during experiments.
    pub fn qf(&self) -> &FlatPosteriors {
        &self.qf
    }

    /// Initialises `q_f` with majority voting (Algorithm 1, line 1).
    fn initialize_qf(&mut self, dataset: &CrowdDataset) {
        let view = dataset.annotation_view();
        let mv = MajorityVote.infer(&view);
        let k = dataset.num_classes;
        let mut qf = FlatPosteriors::zeros(&dataset.train, k);
        let mut cursor = vec![0usize; dataset.train.len()];
        for (u, post) in mv.posteriors.iter().enumerate() {
            let i = view.unit_instance[u];
            let unit = cursor[i];
            qf.instance_slice_mut(i)[unit * k..(unit + 1) * k].copy_from_slice(post);
            cursor[i] += 1;
        }
        self.qf = qf;
    }

    /// The pseudo-E-step: recompute `q_a`, `q_b`, `q_f` and update Π.
    ///
    /// All of `q_a` and `q_f` live in one [`FlatPosteriors`] allocation;
    /// with no rules attached the rule projection and Eq. 9 interpolation
    /// run in place on it, so the whole step allocates nothing per
    /// instance.  Per-instance work only happens on the rules path, where
    /// the projection algorithms allocate their own results anyway.  The
    /// network's predictions (`p(t | x; Θ)` of every training instance and
    /// of every rule clause) run through one evaluator on `workspace`.
    fn pseudo_e_step(&mut self, dataset: &CrowdDataset, imitation_k: f32, workspace: &mut Workspace) {
        let evaluator = RefCell::new(workspace.eval(&self.model));
        let predictions: Vec<Matrix> =
            dataset.train.iter().map(|inst| evaluator.borrow_mut().proba(&inst.tokens)).collect();
        let clause = |tokens: &[usize]| evaluator.borrow_mut().proba(tokens).row(0).to_vec();
        let imitation_k = imitation_k.clamp(0.0, 1.0);

        let k = dataset.num_classes;
        let mut new_qf = FlatPosteriors::zeros(&dataset.train, k);
        // view unit index of instance i's first unit (windowed lookups)
        let mut first_unit = 0;
        for (i, inst) in dataset.train.iter().enumerate() {
            let out = new_qf.instance_slice_mut(i);
            match (&self.posterior_mode, &self.windowed) {
                (PosteriorMode::Iterative, None) => infer_qa_into(inst, &predictions[i], &self.annotators, out),
                (PosteriorMode::Iterative, Some(windowed)) => {
                    eq13_into(inst, &predictions[i], k, out, |u, slot, j, observed| {
                        windowed
                            .log_likelihoods_for(first_unit + u, slot, j, observed)
                            .unwrap_or_else(|| self.annotators.log_likelihoods_for(j, observed))
                    });
                }
                (PosteriorMode::Fixed(fixed), _) => out.copy_from_slice(fixed[i].as_slice()),
            }
            first_unit += inst.num_units();
            if self.rules.is_none() {
                // q_b == q_a: Eq. 9 in place
                for v in new_qf.instance_slice_mut(i) {
                    *v = (1.0 - imitation_k) * *v + imitation_k * *v;
                }
            } else {
                let qa = new_qf.instance_matrix(i);
                let qb = infer_qb(&qa, &inst.tokens, &self.rules, self.config.regularization_c, &clause);
                for ((f, &a), &b) in new_qf.instance_slice_mut(i).iter_mut().zip(qa.as_slice()).zip(qb.as_slice()) {
                    *f = (1.0 - imitation_k) * a + imitation_k * b;
                }
            }
        }
        self.qf = new_qf;
        // Eq. 12: closed-form annotator update from q_f.  The pooled model
        // is always refreshed (reliability read-outs stay meaningful); the
        // windowed model additionally tracks per-stream-window confusions.
        self.annotators.update_from_qf(dataset, &self.qf, 0.01);
        if let Some(windowed) = &mut self.windowed {
            windowed.update_from_qf(&self.qf, 0.01);
        }
    }

    /// Runs Algorithm 1 and returns the training report.  The model keeps
    /// the parameters of the best development epoch.
    pub fn train(&mut self, dataset: &CrowdDataset) -> TrainReport {
        assert!(!dataset.train.is_empty(), "cannot train on an empty dataset");
        let mut m_step = MStep::new(&self.config);
        let mut dev = DevSelection::new(&self.config);
        self.initialize_qf(dataset);

        let mut loss_history = Vec::new();
        for epoch in 0..self.config.epochs {
            let imitation_k = self.config.imitation.strength(epoch);

            // ---- pseudo-M-step: one pass of mini-batch updates on q_f ----
            let qf = &self.qf;
            let weighted = self.config.objective == MStepObjective::AnnotationWeighted;
            loss_history.push(m_step.epoch(&mut self.model, &dataset.train, epoch, None, |tape, _, _, logits, i| {
                let loss = tape.softmax_cross_entropy(logits, qf.instance_matrix(i));
                Some(if weighted { tape.scale(loss, dataset.train[i].num_annotations().max(1) as f32) } else { loss })
            }));

            // ---- pseudo-E-step ------------------------------------------
            self.pseudo_e_step(dataset, imitation_k, m_step.workspace());

            // ---- development evaluation & early stopping ----------------
            if dev.stop_after(&self.model, dataset, epoch) {
                break;
            }
        }

        // restore the best model seen on the development split
        let report = dev.finish(&mut self.model);
        TrainReport { loss_history, inference: self.inference_metrics(dataset), ..report }
    }

    /// Inference quality of the current `q_f` against the training gold
    /// labels (the "Inference" columns of Tables II/III).
    pub fn inference_metrics(&self, dataset: &CrowdDataset) -> EvalMetrics {
        if self.qf.num_instances() == 0 {
            return EvalMetrics::default();
        }
        let predictions: Vec<Vec<usize>> = (0..self.qf.num_instances()).map(|i| self.qf.instance_argmax(i)).collect();
        evaluate_predictions(&predictions, &dataset.train, dataset.task)
    }

    /// Evaluates the trained model on a split with the given output mode.
    pub fn evaluate(&self, split: &[lncl_crowd::Instance], task: TaskKind, mode: PredictionMode) -> EvalMetrics {
        evaluate_split(&self.model, split, task, mode, &self.rules, self.config.regularization_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_crowd::datasets::{generate_sentiment, SentimentDatasetConfig};
    use lncl_crowd::metrics;
    use lncl_logic::rules::sentiment_but::SentimentContrastRule;
    use lncl_nn::models::{SentimentCnn, SentimentCnnConfig};
    use lncl_tensor::TensorRng;

    fn tiny_dataset() -> CrowdDataset {
        generate_sentiment(&SentimentDatasetConfig {
            train_size: 400,
            dev_size: 150,
            test_size: 150,
            num_annotators: 15,
            filler_vocab: 40,
            seed: 0,
            ..SentimentDatasetConfig::tiny()
        })
    }

    fn tiny_model(dataset: &CrowdDataset, seed: u64) -> SentimentCnn {
        let mut rng = TensorRng::seed_from_u64(seed);
        SentimentCnn::new(
            SentimentCnnConfig {
                vocab_size: dataset.vocab_size(),
                embedding_dim: 16,
                windows: vec![2, 3],
                filters_per_window: 8,
                dropout_keep: 0.7,
                num_classes: dataset.num_classes,
            },
            &mut rng,
        )
    }

    fn fast_config(epochs: usize) -> TrainConfig {
        TrainConfig::fast(epochs)
    }

    fn but_rules(dataset: &CrowdDataset) -> TaskRules {
        TaskRules::Classification(vec![Box::new(SentimentContrastRule::but_rule(dataset.but_token.unwrap()))])
    }

    #[test]
    fn training_improves_over_initialisation() {
        let dataset = tiny_dataset();
        let model = tiny_model(&dataset, 1);
        let untrained_acc =
            evaluate_split(&model, &dataset.test, dataset.task, PredictionMode::Student, &TaskRules::None, 5.0)
                .accuracy;
        let mut trainer = LogicLncl::new(model, &dataset, but_rules(&dataset), fast_config(10));
        let report = trainer.train(&dataset);
        let trained_acc = trainer.evaluate(&dataset.test, dataset.task, PredictionMode::Student).accuracy;
        assert!(report.epochs_run >= 1);
        assert!(
            trained_acc > untrained_acc.max(0.62),
            "training should beat the untrained model: {untrained_acc} -> {trained_acc}"
        );
        // inference quality should comfortably beat raw crowd-label accuracy
        assert!(report.inference.accuracy > metrics::crowd_label_accuracy(&dataset));
    }

    #[test]
    fn loss_history_decreases() {
        let dataset = tiny_dataset();
        let model = tiny_model(&dataset, 2);
        let mut trainer = LogicLncl::new(model, &dataset, TaskRules::None, fast_config(5));
        let report = trainer.train(&dataset);
        assert!(report.loss_history.len() >= 2);
        assert!(
            report.loss_history.last().unwrap() < &report.loss_history[0],
            "loss should decrease: {:?}",
            report.loss_history
        );
    }

    #[test]
    fn early_stopping_respects_patience() {
        let dataset = tiny_dataset();
        let model = tiny_model(&dataset, 3);
        let config = TrainConfig { early_stopping_patience: 0, ..fast_config(30) };
        let mut trainer = LogicLncl::new(model, &dataset, TaskRules::None, config);
        let report = trainer.train(&dataset);
        assert!(report.epochs_run < 30, "patience 0 should stop early (ran {})", report.epochs_run);
    }

    #[test]
    fn fixed_posterior_mode_skips_qa_refinement() {
        let dataset = tiny_dataset();
        let view = dataset.annotation_view();
        let mv = MajorityVote.infer(&view);
        let mut fixed: Vec<Matrix> =
            dataset.train.iter().map(|inst| Matrix::zeros(inst.num_units(), dataset.num_classes)).collect();
        let mut cursor = vec![0usize; fixed.len()];
        for (u, post) in mv.posteriors.iter().enumerate() {
            let i = view.unit_instance[u];
            fixed[i].row_mut(cursor[i]).copy_from_slice(post);
            cursor[i] += 1;
        }
        let model = tiny_model(&dataset, 4);
        let mut trainer =
            LogicLncl::builder(model).config(fast_config(2)).fixed_posterior(fixed.clone()).build(&dataset);
        let _ = trainer.train(&dataset);
        // with no rules and a fixed posterior, q_f must equal the fixed MV estimate
        for (i, mv_inst) in fixed.iter().enumerate() {
            assert!(trainer.qf().instance_matrix(i).approx_eq(mv_inst, 1e-5));
        }
    }

    #[test]
    fn windowed_e_step_improves_inference_under_step_change_drift() {
        use lncl_crowd::scenario::{generate_scenario, Archetype, DriftSchedule, PropensityProfile, ScenarioConfig};
        let dataset = generate_scenario(
            &ScenarioConfig::tagging("step-drift")
                .with_sizes(400, 40, 40)
                .with_annotators(8)
                .with_redundancy(5, 5)
                .with_propensity(PropensityProfile::LongTail)
                .with_mix(vec![(Archetype::Reliable { accuracy: 0.9 }, 1.0)])
                .with_drift(DriftSchedule::StepChange { at: 0.5, level: 0.9 })
                .with_seed(17),
        );
        let config = fast_config(4);
        let mut rng = TensorRng::seed_from_u64(9);
        let model = lncl_nn::models::NerConvGru::new(
            lncl_nn::models::NerConvGruConfig {
                vocab_size: dataset.vocab_size(),
                embedding_dim: 12,
                conv_window: 3,
                conv_features: 12,
                gru_hidden: 10,
                dropout_keep: 0.7,
                num_classes: dataset.num_classes,
            },
            &mut rng,
        );
        let mut pooled = LogicLncl::builder(model.clone()).config(config.clone()).build(&dataset);
        let pooled_report = pooled.train(&dataset);
        let mut windowed = LogicLncl::builder(model).config(config).windowed_confusions(48, 0.35).build(&dataset);
        let windowed_report = windowed.train(&dataset);
        assert!(
            windowed_report.inference.accuracy > pooled_report.inference.accuracy + 0.02,
            "the windowed E-step must track the drift the pooled one averages away: pooled {}, windowed {}",
            pooled_report.inference.accuracy,
            windowed_report.inference.accuracy
        );
    }

    /// Annotator 0 reports gold for the first 10 instances, then always 0;
    /// annotator 1 reports gold throughout.
    fn dataset_with_step_change() -> CrowdDataset {
        use lncl_crowd::{CrowdLabel, Instance};
        let train = (0..20)
            .map(|i| {
                let gold = i % 2;
                let drifted = if i < 10 { gold } else { 0 };
                Instance {
                    tokens: vec![1],
                    gold: vec![gold],
                    crowd_labels: vec![
                        CrowdLabel { annotator: 0, labels: vec![drifted] },
                        CrowdLabel { annotator: 1, labels: vec![gold] },
                    ],
                }
            })
            .collect();
        CrowdDataset {
            task: TaskKind::Classification,
            num_classes: 2,
            num_annotators: 2,
            vocab: vec!["<pad>".into(), "w".into()],
            class_names: vec!["0".into(), "1".into()],
            train,
            dev: vec![],
            test: vec![],
            but_token: None,
            however_token: None,
        }
    }

    #[test]
    fn windowed_update_separates_the_streams_of_a_step_change() {
        let dataset = dataset_with_step_change();
        let gold: Vec<Matrix> = dataset
            .train
            .iter()
            .map(|inst| Matrix::from_fn(inst.gold.len(), 2, |u, c| if inst.gold[u] == c { 1.0 } else { 0.0 }))
            .collect();
        let mut windowed = StreamWindows::new(&dataset, 10, 0.2);
        assert!(windowed.log_likelihoods_for(1, 0, 0, 1).is_none(), "the pooled model judges before Eq. 12");
        windowed.update_from_qf(&FlatPosteriors::from_matrices(&gold, 2), 0.01);
        // one unit per instance, so view unit i is instance i.  Window 0
        // (instances 0..10): annotator 0 is near-perfect — ln π_{1,1} from a
        // truth-1 unit labelled 1 should dominate
        let early = windowed.log_likelihoods_for(1, 0, 0, 1).unwrap(); // instance 1 (gold 1, labelled 1)
        assert!(early[1] > early[0] + 1.0, "early window should trust annotator 0: {early:?}");
        // window 1 (instances 10..20): annotator 0 answers 0 on truth 1, so
        // observing a 0 no longer implicates truth 0 strongly
        let late = windowed.log_likelihoods_for(11, 0, 0, 0).unwrap(); // instance 11 (gold 1, labelled 0)
        assert!(
            (late[0] - late[1]).abs() < 1.0,
            "late window should treat annotator 0's zeros as weak evidence: {late:?}"
        );
    }

    #[test]
    #[should_panic(expected = "window must hold at least one label")]
    fn windowed_model_rejects_zero_window() {
        let dataset = dataset_with_step_change();
        let _ = LogicLncl::builder(tiny_model(&dataset, 6)).windowed_confusions(0, 0.5).build(&dataset);
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1]")]
    fn windowed_model_rejects_out_of_range_decay() {
        let dataset = dataset_with_step_change();
        let _ = LogicLncl::builder(tiny_model(&dataset, 6)).windowed_confusions(5, 0.0).build(&dataset);
    }

    #[test]
    fn annotator_reliability_estimates_correlate_with_truth() {
        let dataset = tiny_dataset();
        let model = tiny_model(&dataset, 5);
        let mut trainer = LogicLncl::new(model, &dataset, but_rules(&dataset), fast_config(8));
        let _ = trainer.train(&dataset);
        let estimated = trainer.annotators.reliabilities();
        // empirical reliability from the data
        let mut est = Vec::new();
        let mut real = Vec::new();
        for (a, &estimated_reliability) in estimated.iter().enumerate() {
            if let Some(acc) = metrics::annotator_accuracy(&dataset.train, a) {
                let labels = dataset.train.iter().filter(|i| i.labels_by(a).is_some()).count();
                if labels >= 5 {
                    est.push(estimated_reliability);
                    real.push(acc);
                }
            }
        }
        let r = lncl_tensor::stats::pearson(&est, &real);
        assert!(r > 0.5, "estimated reliabilities should correlate with the real ones (r = {r})");
    }
}
