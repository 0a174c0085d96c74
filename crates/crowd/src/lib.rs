//! # lncl-crowd
//!
//! The crowdsourcing substrate of the Logic-LNCL reproduction:
//!
//! * [`data`] — the dataset / instance / crowd-label model and the flattened
//!   [`AnnotationView`] consumed by aggregation methods;
//! * [`annotator`] — simulated annotators (confusion-matrix annotators for
//!   classification, error-model annotators for NER);
//! * [`sampling`] — the propensity-weighted selection primitives shared by
//!   scenario generation and `lncl-serve`'s task routing;
//! * [`datasets`] — synthetic stand-ins for the two MTurk corpora of the
//!   paper (see DESIGN.md §1);
//! * [`scenario`] — composable crowd-scenario simulation: annotator
//!   archetypes (spammers, adversaries, pair confusers, colluding cliques),
//!   propensity profiles, temporal drift schedules and instance-difficulty
//!   models, and scenario grids over redundancy / pool size / archetype
//!   mix / class imbalance / drift / difficulty (the module docs carry a
//!   doctested **scenario cookbook** covering every knob);
//! * [`truth`] — truth-inference baselines: MV, Dawid–Skene (pooled and
//!   stream-windowed), GLAD, IBCC, PM, CATD, HMM-Crowd and a simplified
//!   BSC-seq;
//! * [`metrics`] — accuracy, strict span-level P/R/F1, confusion-matrix and
//!   reliability metrics;
//! * [`stats`] — the per-annotator statistics behind Figure 4.
//!
//! (Where this sits in the workspace: `ARCHITECTURE.md` at the repository
//! root.)
//!
//! ```
//! use lncl_crowd::datasets::{generate_sentiment, SentimentDatasetConfig};
//! use lncl_crowd::truth::{DawidSkene, MajorityVote, TruthInference};
//!
//! let data = generate_sentiment(&SentimentDatasetConfig::tiny());
//! let view = data.annotation_view();
//! let mv = MajorityVote.infer(&view).accuracy(&view.gold);
//! let ds = DawidSkene::default().infer(&view).accuracy(&view.gold);
//! assert!(ds >= mv - 0.05);
//! ```

pub mod annotator;
pub mod data;
pub mod datasets;
pub mod metrics;
pub mod sampling;
pub mod scenario;
pub mod stats;
pub mod truth;

pub use data::{AnnotationView, CrowdDataset, CrowdLabel, Instance, TaskKind};
