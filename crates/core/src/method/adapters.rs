//! [`CrowdMethod`] adapters for every compared method of the paper.
//!
//! Each adapter owns its method-specific knobs (crowd-layer kind,
//! pre-training epochs, ablation variant, …) and reads everything shared —
//! training configuration and model factory — from the [`RunContext`], so
//! the bench harness and the examples construct methods exclusively through
//! the [`MethodRegistry`](super::MethodRegistry).
//! One adapter is one training: it emits every table row read from that
//! training (see [`CrowdMethod::run`]).

use super::{CrowdMethod, Family, MethodDescriptor, RunContext, TaskSupport};
use crate::ablation::{other_rules, paper_rules, AblationVariant};
use crate::baselines::two_stage::{gold_targets, inference_metrics_of, one_hot_targets, train_supervised};
use crate::baselines::{train_dl_dn, CrowdLayerKind, CrowdLayerTrainer, DlDnConfig};
use crate::config::TrainConfig;
use crate::distill::TaskRules;
use crate::predict::{evaluate_split, PredictionMode};
use crate::report::{EvalMetrics, MethodResult};
use crate::trainer::LogicLncl;
use lncl_crowd::truth::{DawidSkene, Glad, MajorityVote, TruthEstimate, TruthInference};
use lncl_crowd::{CrowdDataset, TaskKind};

/// Flattens trainer posteriors (`q_f`) into one row per unit, the layout
/// [`CrowdMethod::infer_posteriors`] returns.  The backing matrix stores
/// all instances contiguously in unit order, so chunking by `K` covers
/// every unit.
fn qf_rows(qf: &crate::posterior::FlatPosteriors) -> Vec<Vec<f32>> {
    qf.data().as_slice().chunks(qf.num_classes()).map(<[f32]>::to_vec).collect()
}

/// Builds and trains the shared neural-EM trainer: `TaskRules::None` gives
/// AggNet / w/o-Rule, [`paper_rules`] gives Logic-LNCL, [`other_rules`]
/// the rules ablation.  Used by both `run` and `infer_posteriors` of those
/// adapters, so the posterior the robustness suite validates always comes
/// from the same construction the tables report.
fn train_lncl(
    dataset: &CrowdDataset,
    ctx: &RunContext,
    rules: TaskRules,
) -> (crate::trainer::LogicLncl<lncl_nn::models::AnyModel>, crate::report::TrainReport) {
    let mut trainer =
        LogicLncl::builder(ctx.model(ctx.config.seed)).rules(rules).config(ctx.config.clone()).build(dataset);
    let report = trainer.train(dataset);
    (trainer, report)
}

/// Converts a flat truth estimate into per-instance soft-target matrices
/// (`units x K`), the layout consumed by the fixed-posterior trainer mode.
pub fn estimate_to_targets(estimate: &TruthEstimate, dataset: &CrowdDataset) -> Vec<lncl_tensor::Matrix> {
    let view = dataset.annotation_view();
    let mut targets: Vec<lncl_tensor::Matrix> =
        dataset.train.iter().map(|inst| lncl_tensor::Matrix::zeros(inst.num_units(), dataset.num_classes)).collect();
    let mut cursor = vec![0usize; targets.len()];
    for (u, post) in estimate.posteriors.iter().enumerate() {
        let i = view.unit_instance[u];
        targets[i].row_mut(cursor[i]).copy_from_slice(post);
        cursor[i] += 1;
    }
    targets
}

/// A truth-inference baseline contributing an inference-only table row
/// (the "Truth Inference" blocks of Tables II/III).
pub struct TruthOnly<I: TruthInference + Send + Sync> {
    name: String,
    inner: I,
    tasks: TaskSupport,
}

impl<I: TruthInference + Send + Sync> TruthOnly<I> {
    /// Wraps a truth-inference method under a registry key.
    pub fn new(name: impl Into<String>, inner: I, tasks: TaskSupport) -> Self {
        Self { name: name.into(), inner, tasks }
    }
}

impl<I: TruthInference + Send + Sync> CrowdMethod for TruthOnly<I> {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor::new(self.name.clone(), self.inner.name(), Family::TruthInference, self.tasks)
    }

    fn run(&self, dataset: &CrowdDataset, _ctx: &RunContext) -> Vec<MethodResult> {
        let view = dataset.annotation_view();
        let estimate = self.inner.infer(&view);
        let hard = estimate.hard_by_instance(&view);
        vec![MethodResult::new(self.inner.name(), EvalMetrics::default(), Some(inference_metrics_of(&hard, dataset)))]
    }

    fn infer_posteriors(&self, dataset: &CrowdDataset, _ctx: &RunContext) -> Option<Vec<Vec<f32>>> {
        Some(self.inner.infer(&dataset.annotation_view()).posteriors)
    }
}

/// A two-stage baseline: aggregate with the wrapped truth-inference method,
/// then train the classifier on the hard labels (MV-Classifier,
/// GLAD-Classifier).  With a teacher label the same trained classifier is
/// also evaluated with the paper rules applied at test time (Table IV's
/// `MV-t`), as a second row.
pub struct TwoStage<I: TruthInference + Send + Sync> {
    name: String,
    label: String,
    teacher_label: Option<&'static str>,
    inference: I,
    tasks: TaskSupport,
}

impl<I: TruthInference + Send + Sync> TwoStage<I> {
    /// Wraps a truth-inference method into a two-stage pipeline;
    /// `teacher_label` names the optional teacher-output row.
    pub fn new(
        name: impl Into<String>,
        label: impl Into<String>,
        teacher_label: Option<&'static str>,
        inference: I,
        tasks: TaskSupport,
    ) -> Self {
        Self { name: name.into(), label: label.into(), teacher_label, inference, tasks }
    }
}

impl<I: TruthInference + Send + Sync> CrowdMethod for TwoStage<I> {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor::new(self.name.clone(), self.label.clone(), Family::TwoStage, self.tasks)
    }

    fn run(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Vec<MethodResult> {
        let view = dataset.annotation_view();
        let hard = self.inference.infer(&view).hard_by_instance(&view);
        let inference = Some(inference_metrics_of(&hard, dataset));
        let mut model = ctx.model(ctx.config.seed);
        train_supervised(&mut model, dataset, &one_hot_targets(&hard, dataset.num_classes), &ctx.config);
        let evaluate = |mode, rules: &TaskRules, c| evaluate_split(&model, &dataset.test, dataset.task, mode, rules, c);
        let student = evaluate(PredictionMode::Student, &TaskRules::None, 0.0);
        let mut rows = vec![MethodResult::new(self.label.clone(), student, inference)];
        if let Some(label) = self.teacher_label {
            let teacher = evaluate(PredictionMode::Teacher, &paper_rules(dataset), ctx.config.regularization_c);
            rows.push(MethodResult::new(label, teacher, inference));
        }
        rows
    }

    fn infer_posteriors(&self, dataset: &CrowdDataset, _ctx: &RunContext) -> Option<Vec<Vec<f32>>> {
        Some(self.inference.infer(&dataset.annotation_view()).posteriors)
    }
}

/// The Gold upper bound: supervised training on the true labels.
pub struct GoldUpperBound;

impl CrowdMethod for GoldUpperBound {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor::new("gold", "Gold", Family::Gold, TaskSupport::Both)
    }

    fn run(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Vec<MethodResult> {
        let mut model = ctx.model(ctx.config.seed);
        train_supervised(&mut model, dataset, &gold_targets(dataset), &ctx.config);
        let prediction =
            evaluate_split(&model, &dataset.test, dataset.task, PredictionMode::Student, &TaskRules::None, 0.0);
        vec![MethodResult::new("Gold", prediction, Some(EvalMetrics::from_accuracy(1.0)))]
    }
}

/// The EM baseline without rules (AggNet with a neural classifier; the
/// inference column doubles as the Raykar row of Table II).  The same
/// training is Table IV's `w/o-Rule` ablation, so it emits that row too.
pub struct AggNet;

impl CrowdMethod for AggNet {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor::new("aggnet", "AggNet", Family::NeuralEm, TaskSupport::Both)
    }

    fn run(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Vec<MethodResult> {
        let (trainer, report) = train_lncl(dataset, ctx, TaskRules::None);
        let prediction = trainer.evaluate(&dataset.test, dataset.task, PredictionMode::Student);
        vec![
            MethodResult::new("AggNet", prediction, Some(report.inference)),
            MethodResult::new("w/o-Rule", prediction, Some(report.inference)),
        ]
    }

    fn infer_posteriors(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Option<Vec<Vec<f32>>> {
        Some(qf_rows(train_lncl(dataset, ctx, TaskRules::None).0.qf()))
    }
}

/// One crowd-layer variant (Rodrigues & Pereira 2018), optionally with a few
/// epochs of majority-voting pre-training (the `MW, 5` configuration of
/// Table III).
pub struct CrowdLayerMethod {
    kind: CrowdLayerKind,
    pretrain_epochs: usize,
}

impl CrowdLayerMethod {
    /// Creates the variant; `pretrain_epochs == 0` disables pre-training.
    pub fn new(kind: CrowdLayerKind, pretrain_epochs: usize) -> Self {
        Self { kind, pretrain_epochs }
    }

    fn key(&self) -> String {
        let base = match self.kind {
            CrowdLayerKind::MatrixWeight => "cl-mw",
            CrowdLayerKind::VectorWeight => "cl-vw",
            CrowdLayerKind::VectorWeightBias => "cl-vw-b",
        };
        if self.pretrain_epochs > 0 {
            // the epoch count is part of the key so differently pre-trained
            // variants of the same kind can coexist in one registry
            format!("{base}+pre{}", self.pretrain_epochs)
        } else {
            base.to_string()
        }
    }

    fn label(&self) -> String {
        if self.pretrain_epochs > 0 {
            format!("{} [{} pretrain]", self.kind.name(), self.pretrain_epochs)
        } else {
            self.kind.name().to_string()
        }
    }
}

impl CrowdMethod for CrowdLayerMethod {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor::new(self.key(), self.label(), Family::CrowdLayer, TaskSupport::Both)
    }

    fn run(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Vec<MethodResult> {
        let model = ctx.model(ctx.config.seed);
        let mut trainer = CrowdLayerTrainer::new(model, dataset, self.kind, ctx.config.clone(), self.pretrain_epochs);
        let inference = trainer.train(dataset);
        let prediction = trainer.evaluate(&dataset.test, dataset.task);
        vec![MethodResult::new(self.label(), prediction, Some(inference))]
    }

    fn infer_posteriors(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Option<Vec<Vec<f32>>> {
        // same construction as `run`: the trained backbone's softmax over
        // the true class is the crowd layer's truth estimate
        let model = ctx.model(ctx.config.seed);
        let mut trainer = CrowdLayerTrainer::new(model, dataset, self.kind, ctx.config.clone(), self.pretrain_epochs);
        trainer.train(dataset);
        Some(trainer.truth_posteriors(dataset))
    }
}

/// DL-DN / DL-WDN (Guan et al. 2018): one network per annotator.  One
/// trained ensemble gives both rows: the uniform prediction average
/// (DL-DN) and the average weighted by each annotator's labelled-instance
/// count (DL-WDN).
pub struct DlDnMethod;

impl DlDnMethod {
    /// The per-annotator training configuration shared by `run` and
    /// `infer_posteriors` (kept short: each annotator sees only a slice of
    /// the data).
    fn dl_config(ctx: &RunContext) -> DlDnConfig {
        DlDnConfig {
            train: TrainConfig { epochs: (ctx.config.epochs / 2).max(3), ..ctx.config.clone() },
            min_instances: 20,
            max_annotators: 10,
        }
    }
}

impl CrowdMethod for DlDnMethod {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor::new("dl-dn", "DL-DN", Family::DlDn, TaskSupport::Both)
    }

    fn run(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Vec<MethodResult> {
        let (uniform, weighted) = train_dl_dn(dataset, &Self::dl_config(ctx), |seed| ctx.model(seed));
        vec![MethodResult::new("DL-DN", uniform, None), MethodResult::new("DL-WDN", weighted, None)]
    }

    fn infer_posteriors(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Option<Vec<Vec<f32>>> {
        // the ensemble's uniform-average softmax is its (normalised)
        // estimate of the truth on the training split
        Some(crate::baselines::train_dl_dn_posteriors(dataset, &Self::dl_config(ctx), |seed| ctx.model(seed)))
    }
}

/// The full Logic-LNCL: one training run contributing the student and
/// teacher rows.
pub struct LogicLnclMethod;

impl CrowdMethod for LogicLnclMethod {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor::new("logic-lncl", "Logic-LNCL", Family::LogicLncl, TaskSupport::Both)
    }

    fn run(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Vec<MethodResult> {
        let (trainer, report) = train_lncl(dataset, ctx, paper_rules(dataset));
        let student = trainer.evaluate(&dataset.test, dataset.task, PredictionMode::Student);
        let teacher = trainer.evaluate(&dataset.test, dataset.task, PredictionMode::Teacher);
        vec![
            MethodResult::new("Logic-LNCL-student", student, Some(report.inference)),
            MethodResult::new("Logic-LNCL-teacher", teacher, Some(report.inference)),
        ]
    }

    fn infer_posteriors(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Option<Vec<Vec<f32>>> {
        Some(qf_rows(train_lncl(dataset, ctx, paper_rules(dataset)).0.qf()))
    }
}

/// Logic-LNCL with the **stream-windowed** E-step
/// ([`crate::annotators::WindowedAnnotatorModel`]): every crowd label is
/// judged by its annotator's confusion matrix in the window of their stream
/// it was produced in, so the method tracks drifting annotators
/// ([`lncl_crowd::scenario::DriftSchedule`]) that the pooled Eq. 12
/// averages away.
pub struct LogicLnclWindowedMethod;

impl LogicLnclWindowedMethod {
    /// Maximum instances per estimation window — shared with
    /// [`DsWindowed`](lncl_crowd::truth::DsWindowed) so both windowed
    /// registry methods run the same windowing scheme.
    pub const WINDOW: usize = lncl_crowd::truth::DsWindowed::DEFAULT_WINDOW;
    /// Cross-window count decay in `(0, 1]`, shared like
    /// [`LogicLnclWindowedMethod::WINDOW`].
    pub const DECAY: f32 = lncl_crowd::truth::DsWindowed::DEFAULT_DECAY;

    fn train(
        dataset: &CrowdDataset,
        ctx: &RunContext,
    ) -> (crate::trainer::LogicLncl<lncl_nn::models::AnyModel>, crate::report::TrainReport) {
        let mut trainer = LogicLncl::builder(ctx.model(ctx.config.seed))
            .rules(paper_rules(dataset))
            .config(ctx.config.clone())
            .windowed_confusions(Self::WINDOW, Self::DECAY)
            .build(dataset);
        let report = trainer.train(dataset);
        (trainer, report)
    }
}

impl CrowdMethod for LogicLnclWindowedMethod {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor::new("logic-lncl-windowed", "Logic-LNCL-W", Family::LogicLncl, TaskSupport::Both)
    }

    fn run(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Vec<MethodResult> {
        let (trainer, report) = Self::train(dataset, ctx);
        let student = trainer.evaluate(&dataset.test, dataset.task, PredictionMode::Student);
        vec![MethodResult::new("Logic-LNCL-W", student, Some(report.inference))]
    }

    fn infer_posteriors(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Option<Vec<Vec<f32>>> {
        Some(qf_rows(Self::train(dataset, ctx).0.qf()))
    }
}

/// One Table-IV ablation variant that needs a training of its own.
pub struct AblationMethod {
    variant: AblationVariant,
}

impl AblationMethod {
    /// Creates the variant runner.
    pub fn new(variant: AblationVariant) -> Self {
        Self { variant }
    }

    fn key(&self) -> &'static str {
        match self.variant {
            AblationVariant::MvRule => "mv-rule",
            AblationVariant::GladRule => "glad-rule",
            AblationVariant::OtherRules => "other-rules",
        }
    }

    /// The aggregation estimate `MV-Rule` / `GLAD-Rule` freeze `q_a` to —
    /// which is also their inferred truth posterior — or `None` for the
    /// other-rules variant, which keeps the iterative posterior.
    fn frozen_estimate(&self, dataset: &CrowdDataset) -> Option<TruthEstimate> {
        let view = dataset.annotation_view();
        match (self.variant, dataset.task) {
            (AblationVariant::MvRule, _) => Some(MajorityVote.infer(&view)),
            (AblationVariant::GladRule, TaskKind::Classification) => Some(Glad::default().infer(&view)),
            // GLAD is not applicable to NER; the paper substitutes the
            // AggNet estimate, which Dawid–Skene approximates here.
            (AblationVariant::GladRule, TaskKind::SequenceTagging) => Some(DawidSkene::default().infer(&view)),
            (AblationVariant::OtherRules, _) => None,
        }
    }
}

impl CrowdMethod for AblationMethod {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor::new(self.key(), self.variant.name(), Family::Ablation, TaskSupport::Both)
    }

    fn run(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Vec<MethodResult> {
        match self.frozen_estimate(dataset) {
            Some(estimate) => {
                let mut trainer = LogicLncl::builder(ctx.model(ctx.config.seed))
                    .rules(paper_rules(dataset))
                    .config(ctx.config.clone())
                    .fixed_posterior(estimate_to_targets(&estimate, dataset))
                    .build(dataset);
                let report = trainer.train(dataset);
                let prediction = trainer.evaluate(&dataset.test, dataset.task, PredictionMode::Student);
                vec![MethodResult::new(self.variant.name(), prediction, Some(report.inference))]
            }
            None => {
                let (trainer, report) = train_lncl(dataset, ctx, other_rules(dataset));
                let student = trainer.evaluate(&dataset.test, dataset.task, PredictionMode::Student);
                let teacher = trainer.evaluate(&dataset.test, dataset.task, PredictionMode::Teacher);
                vec![
                    MethodResult::new("our-other-rules-student", student, Some(report.inference)),
                    MethodResult::new("our-other-rules-teacher", teacher, Some(report.inference)),
                ]
            }
        }
    }

    fn infer_posteriors(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Option<Vec<Vec<f32>>> {
        match self.frozen_estimate(dataset) {
            Some(estimate) => Some(estimate.posteriors),
            None => Some(qf_rows(train_lncl(dataset, ctx, other_rules(dataset)).0.qf())),
        }
    }
}
