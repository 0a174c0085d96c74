//! Training configuration mirroring Table I of the paper.

use lncl_nn::optim::{Adadelta, Adam, Optimizer, Sgd};

/// The imitation-strength schedule `k(t)` balancing the two learning targets
/// in the pseudo-M-step (Eq. 7/9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImitationSchedule {
    /// A fixed `k`.
    Constant(f32),
    /// `k(t) = min{cap, 1 − decay^t}` with `t` the (1-based) epoch — the
    /// schedule of Table I (`min{1, 1 − 0.94^t}` for sentiment,
    /// `min{0.8, 1 − 0.90^t}` for NER).
    Exponential {
        /// Upper bound on `k`.
        cap: f32,
        /// Base of the decay.
        decay: f32,
    },
}

impl ImitationSchedule {
    /// Imitation strength for a 0-based epoch index.
    pub fn strength(&self, epoch: usize) -> f32 {
        match *self {
            ImitationSchedule::Constant(k) => k.clamp(0.0, 1.0),
            ImitationSchedule::Exponential { cap, decay } => {
                let t = (epoch + 1) as i32;
                (1.0 - decay.powi(t)).min(cap).clamp(0.0, 1.0)
            }
        }
    }

    /// The paper's sentiment schedule `min{1, 1 − 0.94^t}`.
    pub fn sentiment_paper() -> Self {
        ImitationSchedule::Exponential { cap: 1.0, decay: 0.94 }
    }

    /// The paper's NER schedule `min{0.8, 1 − 0.90^t}`.
    pub fn ner_paper() -> Self {
        ImitationSchedule::Exponential { cap: 0.8, decay: 0.90 }
    }
}

/// Which M-step objective to use: Eq. 6 (plain expectation) or Eq. 5
/// (weighted by the number of annotations of each instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MStepObjective {
    /// Eq. 6 — every instance contributes equally.
    Unweighted,
    /// Eq. 5 — instances with more annotations weigh more.
    AnnotationWeighted,
}

/// Optimiser selection (the paper uses Adadelta for sentiment and Adam for
/// NER).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// SGD with momentum.
    Sgd { lr: f32, momentum: f32 },
    /// Adam.
    Adam { lr: f32 },
    /// Adadelta.
    Adadelta { lr: f32 },
}

impl OptimizerKind {
    /// A fresh optimiser of this kind.
    pub fn build(self) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Sgd { lr, momentum } => Box::new(Sgd::new(lr).with_momentum(momentum)),
            OptimizerKind::Adam { lr } => Box::new(Adam::new(lr)),
            OptimizerKind::Adadelta { lr } => Box::new(Adadelta::new(lr)),
        }
    }
}

/// Full training configuration of the Logic-LNCL trainer and of the EM /
/// crowd-layer baselines that share its loop.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum number of epochs (Table I: 30).
    pub epochs: usize,
    /// Mini-batch size (Table I: 50 / 64).
    pub batch_size: usize,
    /// Posterior-regularisation strength `C` (Table I: 5.0).
    pub regularization_c: f32,
    /// Imitation-strength schedule `k(t)`.
    pub imitation: ImitationSchedule,
    /// M-step objective (Eq. 5 vs Eq. 6).
    pub objective: MStepObjective,
    /// Early-stopping patience on the development metric (Table I: 5).
    pub early_stopping_patience: usize,
    /// Optimiser.
    pub optimizer: OptimizerKind,
    /// Optional learning-rate step decay `(factor, every_epochs)` — the
    /// paper halves the sentiment learning rate every 5 epochs.
    pub lr_decay: Option<(f32, usize)>,
    /// Optional global gradient-norm clip.
    pub grad_clip: Option<f32>,
    /// RNG seed for shuffling / dropout.
    pub seed: u64,
}

impl TrainConfig {
    /// Sentiment configuration following Table I (at reproduction scale the
    /// epoch count is configurable by the caller).
    pub fn sentiment_paper() -> Self {
        Self {
            epochs: 30,
            batch_size: 50,
            regularization_c: 5.0,
            imitation: ImitationSchedule::sentiment_paper(),
            objective: MStepObjective::Unweighted,
            early_stopping_patience: 5,
            optimizer: OptimizerKind::Adadelta { lr: 1.0 },
            lr_decay: Some((0.5, 5)),
            grad_clip: Some(5.0),
            seed: 1,
        }
    }

    /// NER configuration following Table I.
    pub fn ner_paper() -> Self {
        Self {
            epochs: 30,
            batch_size: 64,
            regularization_c: 5.0,
            imitation: ImitationSchedule::ner_paper(),
            objective: MStepObjective::AnnotationWeighted,
            early_stopping_patience: 5,
            optimizer: OptimizerKind::Adam { lr: 0.001 },
            lr_decay: None,
            grad_clip: Some(5.0),
            seed: 1,
        }
    }

    /// A fast configuration used by tests, the examples and the default
    /// bench harness: Adam with a larger learning rate and small batches so
    /// the (reduced-width) models converge in a handful of epochs on the
    /// simulator-scale corpora.  The `*_paper()` configurations remain the
    /// faithful Table-I settings.
    pub fn fast(epochs: usize) -> Self {
        Self {
            epochs,
            batch_size: 25,
            optimizer: OptimizerKind::Adam { lr: 0.01 },
            lr_decay: None,
            ..Self::sentiment_paper()
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style epoch override.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Starts a builder from the [`TrainConfig::fast`] defaults.
    ///
    /// ```
    /// use logic_lncl::config::{OptimizerKind, TrainConfig};
    ///
    /// let config = TrainConfig::builder()
    ///     .epochs(8)
    ///     .batch_size(32)
    ///     .optimizer(OptimizerKind::Adam { lr: 0.005 })
    ///     .seed(7)
    ///     .build();
    /// assert_eq!(config.epochs, 8);
    /// ```
    pub fn builder() -> TrainConfigBuilder {
        TrainConfigBuilder { config: TrainConfig::fast(12) }
    }

    /// Starts a builder from an existing configuration (e.g. the Table-I
    /// `sentiment_paper()` / `ner_paper()` presets).
    pub fn builder_from(config: TrainConfig) -> TrainConfigBuilder {
        TrainConfigBuilder { config }
    }
}

/// Builder for [`TrainConfig`]; see [`TrainConfig::builder`].
#[derive(Debug, Clone)]
pub struct TrainConfigBuilder {
    config: TrainConfig,
}

impl TrainConfigBuilder {
    /// Maximum number of epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.config.epochs = epochs;
        self
    }

    /// Mini-batch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size;
        self
    }

    /// Posterior-regularisation strength `C`.
    pub fn regularization_c(mut self, c: f32) -> Self {
        self.config.regularization_c = c;
        self
    }

    /// Imitation-strength schedule `k(t)`.
    pub fn imitation(mut self, schedule: ImitationSchedule) -> Self {
        self.config.imitation = schedule;
        self
    }

    /// M-step objective (Eq. 5 vs Eq. 6).
    pub fn objective(mut self, objective: MStepObjective) -> Self {
        self.config.objective = objective;
        self
    }

    /// Early-stopping patience on the development metric.
    pub fn early_stopping_patience(mut self, patience: usize) -> Self {
        self.config.early_stopping_patience = patience;
        self
    }

    /// Optimiser.
    pub fn optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.config.optimizer = optimizer;
        self
    }

    /// Learning-rate step decay `(factor, every_epochs)`; `None` disables.
    pub fn lr_decay(mut self, decay: Option<(f32, usize)>) -> Self {
        self.config.lr_decay = decay;
        self
    }

    /// Global gradient-norm clip; `None` disables.
    pub fn grad_clip(mut self, clip: Option<f32>) -> Self {
        self.config.grad_clip = clip;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> TrainConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_schedule_matches_paper_formula() {
        let s = ImitationSchedule::sentiment_paper();
        assert!((s.strength(0) - (1.0 - 0.94f32)).abs() < 1e-6);
        assert!((s.strength(9) - (1.0 - 0.94f32.powi(10))).abs() < 1e-6);
        // monotone non-decreasing and bounded by 1
        let mut prev = 0.0;
        for t in 0..60 {
            let k = s.strength(t);
            assert!(k >= prev && k <= 1.0);
            prev = k;
        }
    }

    #[test]
    fn ner_schedule_caps_at_point_eight() {
        let s = ImitationSchedule::ner_paper();
        assert!(s.strength(100) <= 0.8 + 1e-6);
        assert!((s.strength(100) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn constant_schedule_is_clamped() {
        assert_eq!(ImitationSchedule::Constant(2.0).strength(3), 1.0);
        assert_eq!(ImitationSchedule::Constant(0.4).strength(0), 0.4);
    }

    #[test]
    fn paper_configs_match_table_one() {
        let sent = TrainConfig::sentiment_paper();
        assert_eq!(sent.batch_size, 50);
        assert_eq!(sent.regularization_c, 5.0);
        assert_eq!(sent.early_stopping_patience, 5);
        assert!(matches!(sent.optimizer, OptimizerKind::Adadelta { lr } if (lr - 1.0).abs() < 1e-6));
        let ner = TrainConfig::ner_paper();
        assert_eq!(ner.batch_size, 64);
        assert!(matches!(ner.optimizer, OptimizerKind::Adam { lr } if (lr - 0.001).abs() < 1e-6));
        assert_eq!(ner.objective, MStepObjective::AnnotationWeighted);
    }

    #[test]
    fn builder_overrides() {
        let c = TrainConfig::fast(3).with_seed(99).with_epochs(7);
        assert_eq!(c.epochs, 7);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn full_builder_sets_every_field() {
        let c = TrainConfig::builder()
            .epochs(9)
            .batch_size(17)
            .regularization_c(3.0)
            .imitation(ImitationSchedule::Constant(0.5))
            .objective(MStepObjective::AnnotationWeighted)
            .early_stopping_patience(2)
            .optimizer(OptimizerKind::Sgd { lr: 0.1, momentum: 0.9 })
            .lr_decay(Some((0.5, 3)))
            .grad_clip(None)
            .seed(41)
            .build();
        assert_eq!(c.epochs, 9);
        assert_eq!(c.batch_size, 17);
        assert_eq!(c.regularization_c, 3.0);
        assert_eq!(c.imitation, ImitationSchedule::Constant(0.5));
        assert_eq!(c.objective, MStepObjective::AnnotationWeighted);
        assert_eq!(c.early_stopping_patience, 2);
        assert!(matches!(c.optimizer, OptimizerKind::Sgd { .. }));
        assert_eq!(c.lr_decay, Some((0.5, 3)));
        assert_eq!(c.grad_clip, None);
        assert_eq!(c.seed, 41);
    }

    #[test]
    fn builder_from_preserves_preset() {
        let c = TrainConfig::builder_from(TrainConfig::ner_paper()).seed(5).build();
        assert_eq!(c.batch_size, 64);
        assert_eq!(c.seed, 5);
    }
}
