//! # logic-lncl
//!
//! A from-scratch Rust implementation of **Logic-LNCL** — *"Learning from
//! Noisy Crowd Labels with Logics"* (Chen, Sun, He & Chen, ICDE 2023) — an
//! EM-alike iterative logic-knowledge-distillation framework that trains a
//! neural classifier from noisy crowd labels while injecting first-order
//! soft logic rules.
//!
//! The crate provides:
//!
//! * [`method`] — the **unified method API**: the [`CrowdMethod`] trait
//!   (`descriptor()` + `run(dataset, ctx)`), the string-keyed
//!   [`MethodRegistry`] enumerating every compared method of the paper, and
//!   the [`RunContext`] carrying the shared configuration and model factory;
//! * [`trainer::LogicLncl`] — Algorithm 1: the pseudo-E-step (truth posterior
//!   `q_a` of Eq. 13, rule projection `q_b` of Eq. 15, interpolation `q_f` of
//!   Eq. 9) and the pseudo-M-step (classifier update of Eq. 8/10/11 and the
//!   closed-form annotator update of Eq. 12);
//! * [`config`] — the Table-I hyper-parameters (imitation schedule `k(t)`,
//!   regularisation strength `C`, optimisers, early stopping), with
//!   [`TrainConfig::builder`] for fluent construction;
//! * [`predict`] — the student (`p(t|x)`) and teacher (rule-adapted) output
//!   modes;
//! * [`baselines`] — the trainers behind the two-stage, crowd-layer and
//!   DL-DN/WDN adapters (constructed via the registry);
//! * [`ablation`] — the Table-IV variants;
//! * [`report`] — result records shared with the `lncl-bench` experiment
//!   harness.
//!
//! (Where this sits in the workspace: `ARCHITECTURE.md` at the repository
//! root.)
//!
//! ## Training Logic-LNCL directly (builder API)
//!
//! ```no_run
//! use lncl_crowd::datasets::{generate_sentiment, SentimentDatasetConfig};
//! use lncl_nn::models::{SentimentCnn, SentimentCnnConfig};
//! use lncl_tensor::TensorRng;
//! use logic_lncl::ablation::paper_rules;
//! use logic_lncl::config::TrainConfig;
//! use logic_lncl::predict::PredictionMode;
//! use logic_lncl::trainer::LogicLncl;
//!
//! let dataset = generate_sentiment(&SentimentDatasetConfig::tiny());
//! let mut rng = TensorRng::seed_from_u64(0);
//! let model = SentimentCnn::new(
//!     SentimentCnnConfig { vocab_size: dataset.vocab_size(), ..Default::default() },
//!     &mut rng,
//! );
//! let mut trainer = LogicLncl::builder(model)
//!     .rules(paper_rules(&dataset))
//!     .config(TrainConfig::builder().epochs(5).build())
//!     .build(&dataset);
//! let report = trainer.train(&dataset);
//! let teacher = trainer.evaluate(&dataset.test, dataset.task, PredictionMode::Teacher);
//! println!("teacher accuracy = {:.3} (dev best epoch {})", teacher.accuracy, report.best_epoch);
//! ```
//!
//! ## Running any compared method (registry API)
//!
//! Every method of Tables II–IV — truth inference, two-stage classifiers,
//! crowd layers, DL-DN, AggNet, Gold, Logic-LNCL and the ablation variants —
//! sits behind the same trait, so benchmark tables, examples and future
//! frontends are data-driven loops:
//!
//! ```no_run
//! use lncl_crowd::datasets::{generate_sentiment, SentimentDatasetConfig};
//! use logic_lncl::method::{Family, MethodRegistry, RunContext};
//! use logic_lncl::TrainConfig;
//!
//! let dataset = generate_sentiment(&SentimentDatasetConfig::tiny());
//! let ctx = RunContext::for_dataset(&dataset, TrainConfig::builder().epochs(5).build());
//! let registry = MethodRegistry::standard();
//! for method in registry.family(Family::TwoStage) {
//!     if method.descriptor().supports(dataset.task) {
//!         for row in method.run(&dataset, &ctx) {
//!             println!("{:<20} {:.3}", row.method, row.prediction.accuracy);
//!         }
//!     }
//! }
//! ```

pub mod ablation;
pub mod annotators;
pub mod baselines;
pub mod config;
pub mod distill;
mod fit;
pub mod method;
pub mod posterior;
pub mod predict;
pub mod report;
pub mod trainer;

pub use ablation::{paper_rules, AblationVariant};
pub use annotators::AnnotatorModel;
pub use config::{ImitationSchedule, MStepObjective, OptimizerKind, TrainConfig, TrainConfigBuilder};
pub use distill::TaskRules;
pub use method::{CrowdMethod, Family, MethodDescriptor, MethodRegistry, RunContext, TaskSupport};
pub use predict::PredictionMode;
pub use report::{EvalMetrics, MethodResult, TrainReport};
pub use trainer::{LogicLncl, LogicLnclBuilder, PosteriorMode};
