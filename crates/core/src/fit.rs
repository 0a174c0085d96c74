//! How every neural method runs its epochs: the mini-batch M-step pass
//! with the learning-rate step decay ([`MStep`]) and the development-split
//! model selection with early stopping ([`DevSelection`]).
//!
//! [`LogicLncl::train`](crate::trainer::LogicLncl::train),
//! [`train_supervised`](crate::baselines::train_supervised) and
//! [`CrowdLayerTrainer::train`](crate::baselines::CrowdLayerTrainer::train)
//! run both; the crowd layer passes its annotator layer to the M-step as a
//! second parameter group with its own optimiser.  All follow Table I:
//! patience on the dev metric, the best dev epoch's model kept, the
//! learning rate optionally decayed in steps.

use crate::config::TrainConfig;
use crate::distill::TaskRules;
use crate::predict::{evaluate_split, PredictionMode};
use crate::report::TrainReport;
use lncl_autograd::{Tape, Var};
use lncl_crowd::{CrowdDataset, Instance, TaskKind};
use lncl_nn::optim::{EarlyStopping, Optimizer, StepDecay, Verdict};
use lncl_nn::{Binding, InstanceClassifier, Module, Param, Workspace};
use lncl_tensor::TensorRng;

/// The pseudo-M-step's mini-batch pass over the training split.  Owns the
/// shuffling / dropout RNG, the optimiser and its optional step decay, and
/// the workspace every instance trains in (and the E-step evaluates in),
/// for the whole training.
pub(crate) struct MStep {
    rng: TensorRng,
    workspace: Workspace,
    optimizer: Box<dyn Optimizer>,
    decay: Option<StepDecay>,
    batch_size: usize,
    grad_clip: Option<f32>,
}

impl MStep {
    /// The M-step of `config`, seeded with `config.seed`.
    pub(crate) fn new(config: &TrainConfig) -> Self {
        let optimizer = config.optimizer.build();
        let decay = config.lr_decay.map(|(factor, every)| StepDecay::new(optimizer.learning_rate(), factor, every));
        Self {
            rng: TensorRng::seed_from_u64(config.seed),
            workspace: Workspace::new(),
            optimizer,
            decay,
            batch_size: config.batch_size,
            grad_clip: config.grad_clip,
        }
    }

    /// One epoch of mini-batch updates of `model` over `train` in a freshly
    /// shuffled order.  `loss(tape, binding, group, logits, i)` is training
    /// instance `i`'s loss, `None` when the instance adds nothing (see
    /// [`Workspace::instance`]).  `group` is a second parameter group the
    /// loss may bind, stepped by its own optimiser.  Each batch's gradients
    /// are averaged over the batch, the model's clipped, and both applied.
    /// Returns the mean of the per-batch mean losses.
    pub(crate) fn epoch<M: InstanceClassifier + Module>(
        &mut self,
        model: &mut M,
        train: &[Instance],
        epoch: usize,
        mut group: Option<(&mut [Param], &mut dyn Optimizer)>,
        mut loss: impl FnMut(&mut Tape, &mut Binding, &[Param], Var, usize) -> Option<Var>,
    ) -> f32 {
        if let Some(decay) = self.decay {
            self.optimizer.set_learning_rate(decay.learning_rate(epoch));
        }
        self.workspace.reserve_tokens(train.iter().map(|inst| inst.tokens.len()).max().unwrap_or(0));
        let mut order: Vec<usize> = (0..train.len()).collect();
        self.rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for batch in order.chunks(self.batch_size) {
            let params: &mut [Param] = match &mut group {
                Some((params, _)) => params,
                None => &mut [],
            };
            model.zero_grad();
            params.iter_mut().for_each(Param::zero_grad);
            self.workspace.begin_batch(model);
            let mut batch_loss = 0.0f32;
            for &i in batch {
                let tokens = &train[i].tokens;
                batch_loss +=
                    self.workspace.instance(model, params, tokens, &mut self.rng, |tape, binding, params, logits| {
                        loss(tape, binding, params, logits, i)
                    });
            }
            let scale = 1.0 / batch.len() as f32;
            model.scale_grads(scale);
            params.iter_mut().for_each(|p| p.grad.map_inplace(|g| g * scale));
            if let Some(clip) = self.grad_clip {
                model.clip_grad_norm(clip);
            }
            self.optimizer.step(&mut model.params_mut());
            if let Some((params, optimizer)) = &mut group {
                optimizer.step(&mut params.iter_mut().collect::<Vec<_>>());
            }
            epoch_loss += batch_loss / batch.len() as f32;
            batches += 1;
        }
        epoch_loss / batches.max(1) as f32
    }

    /// The training workspace; after an [`MStep::epoch`] its buffers fit
    /// the longest training sentence, so an evaluation pass over the
    /// training split reuses them.
    pub(crate) fn workspace(&mut self) -> &mut Workspace {
        &mut self.workspace
    }
}

/// Development-split model selection: scores the model after every epoch,
/// keeps a copy of the best one and decides when to stop.
pub(crate) struct DevSelection<M> {
    stopping: EarlyStopping,
    best: Option<M>,
    dev_history: Vec<f32>,
}

impl<M: InstanceClassifier + Clone> DevSelection<M> {
    /// Selection with `config`'s early-stopping patience.
    pub(crate) fn new(config: &TrainConfig) -> Self {
        Self { stopping: EarlyStopping::new(config.early_stopping_patience), best: None, dev_history: Vec::new() }
    }

    /// Scores `model` after `epoch` on the development split (the test
    /// split when there is none) in student mode — accuracy, or span F1 for
    /// tagging — snapshots it when the score is the best so far, and returns
    /// whether training should stop.
    pub(crate) fn stop_after(&mut self, model: &M, dataset: &CrowdDataset, epoch: usize) -> bool {
        let split = if dataset.dev.is_empty() { &dataset.test } else { &dataset.dev };
        // student mode never applies rules, so none are passed
        let metrics = evaluate_split(model, split, dataset.task, PredictionMode::Student, &TaskRules::None, 0.0);
        let score = metrics.headline(dataset.task == TaskKind::SequenceTagging);
        self.dev_history.push(score);
        match self.stopping.update(epoch, score) {
            Verdict::Improved => {
                self.best = Some(model.clone());
                false
            }
            Verdict::Stale => false,
            Verdict::Stop => true,
        }
    }

    /// Restores the best snapshot into `model` and reports the dev history
    /// (`loss_history` and `inference` are left for the caller).
    pub(crate) fn finish(self, model: &mut M) -> TrainReport {
        if let Some(best) = self.best {
            *model = best;
        }
        TrainReport {
            best_epoch: self.stopping.best_epoch(),
            epochs_run: self.dev_history.len(),
            dev_history: self.dev_history,
            ..TrainReport::default()
        }
    }
}
