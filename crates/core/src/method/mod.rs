//! The unified method API: one trait ([`CrowdMethod`]), a string-keyed
//! [`MethodRegistry`] enumerating every compared method of the paper, and the
//! [`RunContext`] that carries the shared training configuration and model
//! factory.
//!
//! Before this module existed, every compared method (Tables II–IV) was a
//! bespoke free function with hand-threaded generics in the bench harness;
//! adding a scenario meant editing the harness in N places.  Now the harness,
//! the examples and any future frontend program against a single polymorphic
//! surface:
//!
//! ```no_run
//! use lncl_crowd::datasets::{generate_sentiment, SentimentDatasetConfig};
//! use logic_lncl::method::{Family, MethodRegistry, RunContext};
//! use logic_lncl::TrainConfig;
//!
//! let dataset = generate_sentiment(&SentimentDatasetConfig::tiny());
//! let ctx = RunContext::for_dataset(&dataset, TrainConfig::fast(5));
//! let registry = MethodRegistry::standard();
//!
//! // look one method up by name …
//! let rows = registry.get("dawid-skene").unwrap().run(&dataset, &ctx);
//! println!("{}: {:?}", rows[0].method, rows[0].inference);
//!
//! // … or loop over a whole family, skipping methods the task does not support
//! for method in registry.family(Family::TruthInference) {
//!     if method.descriptor().supports(dataset.task) {
//!         for row in method.run(&dataset, &ctx) {
//!             println!("{row:?}");
//!         }
//!     }
//! }
//! ```

pub mod adapters;

use crate::config::TrainConfig;
use crate::report::MethodResult;
use lncl_crowd::{CrowdDataset, TaskKind};
use lncl_nn::models::{AnyModel, NerConvGru, NerConvGruConfig, SentimentCnn, SentimentCnnConfig};
use lncl_tensor::TensorRng;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

pub use adapters::{
    AblationMethod, AggNet, CrowdLayerMethod, DlDnMethod, GoldUpperBound, LogicLnclMethod, LogicLnclWindowedMethod,
    TruthOnly, TwoStage,
};

/// Method families mirroring the blocks of the paper's result tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    /// Label-aggregation-only methods (MV, DS, GLAD, …): the "Truth
    /// Inference" blocks of Tables II/III.
    TruthInference,
    /// Two-stage pipelines: aggregate, then train a classifier on the hard
    /// labels (MV-Classifier, GLAD-Classifier).
    TwoStage,
    /// One-stage neural EM without rules (AggNet; its inference column
    /// doubles as the Raykar row).
    NeuralEm,
    /// Crowd-layer variants of Rodrigues & Pereira (CL (MW) / (VW) / (VW-B)).
    CrowdLayer,
    /// Per-annotator network ensembles of Guan et al.: one entry, whose
    /// single trained ensemble emits both the DL-DN and DL-WDN rows.
    DlDn,
    /// The Gold upper bound (supervised training on the true labels).
    Gold,
    /// Logic-LNCL itself (student + teacher outputs).
    LogicLncl,
    /// The Table-IV ablation variants.
    Ablation,
}

impl Family {
    /// All families in table order.
    pub fn all() -> [Family; 8] {
        [
            Family::TruthInference,
            Family::TwoStage,
            Family::NeuralEm,
            Family::CrowdLayer,
            Family::DlDn,
            Family::Gold,
            Family::LogicLncl,
            Family::Ablation,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Family::TruthInference => "truth-inference",
            Family::TwoStage => "two-stage",
            Family::NeuralEm => "neural-em",
            Family::CrowdLayer => "crowd-layer",
            Family::DlDn => "dl-dn",
            Family::Gold => "gold",
            Family::LogicLncl => "logic-lncl",
            Family::Ablation => "ablation",
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which task kinds a method can run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskSupport {
    /// Sentence classification only (e.g. GLAD, PM, CATD).
    Classification,
    /// Sequence tagging only (e.g. HMM-Crowd, BSC-seq).
    SequenceTagging,
    /// Both tasks.
    Both,
}

impl TaskSupport {
    /// Whether a task kind is supported.
    pub fn supports(&self, task: TaskKind) -> bool {
        match self {
            TaskSupport::Both => true,
            TaskSupport::Classification => task == TaskKind::Classification,
            TaskSupport::SequenceTagging => task == TaskKind::SequenceTagging,
        }
    }
}

/// Static description of a method: its registry key, its display label for
/// the paper's tables, the family it belongs to and the tasks it supports.
#[derive(Debug, Clone)]
pub struct MethodDescriptor {
    /// Stable kebab-case registry key (`"dawid-skene"`, `"cl-mw"`, …).
    pub name: String,
    /// Display label matching the paper's tables (`"DS"`, `"CL (MW)"`, …).
    pub label: String,
    /// Table block the method belongs to.
    pub family: Family,
    /// Task support.
    pub tasks: TaskSupport,
}

impl MethodDescriptor {
    /// Creates a descriptor.
    pub fn new(name: impl Into<String>, label: impl Into<String>, family: Family, tasks: TaskSupport) -> Self {
        Self { name: name.into(), label: label.into(), family, tasks }
    }

    /// Whether the method can run on `task`.
    pub fn supports(&self, task: TaskKind) -> bool {
        self.tasks.supports(task)
    }
}

/// Type-erased model factory: builds a freshly initialised classifier for a
/// seed.  Shared (via [`Arc`]) so a context can be cloned across threads.
pub type ModelFactory = dyn Fn(u64) -> AnyModel + Send + Sync;

/// Everything a method needs besides the dataset: the training
/// configuration and a way to construct the dataset-appropriate classifier.
#[derive(Clone)]
pub struct RunContext {
    /// Shared training configuration (seed, epochs, optimiser, schedule …).
    pub config: TrainConfig,
    model_factory: Arc<ModelFactory>,
}

impl RunContext {
    /// Creates a context from a configuration and a model factory.
    pub fn new(config: TrainConfig, model_factory: impl Fn(u64) -> AnyModel + Send + Sync + 'static) -> Self {
        Self { config, model_factory: Arc::new(model_factory) }
    }

    /// A context with the default reduced-width architecture for the
    /// dataset's task (the widths used throughout the bench harness's
    /// `small` scale).  Frontends with custom architectures use
    /// [`RunContext::new`].
    pub fn for_dataset(dataset: &CrowdDataset, config: TrainConfig) -> Self {
        let task = dataset.task;
        let vocab_size = dataset.vocab_size();
        let num_classes = dataset.num_classes;
        Self::new(config, move |seed| {
            let mut rng = TensorRng::seed_from_u64(seed);
            match task {
                TaskKind::Classification => AnyModel::Sentiment(SentimentCnn::new(
                    SentimentCnnConfig {
                        vocab_size,
                        embedding_dim: 24,
                        windows: vec![3, 4, 5],
                        filters_per_window: 12,
                        dropout_keep: 0.7,
                        num_classes,
                    },
                    &mut rng,
                )),
                TaskKind::SequenceTagging => AnyModel::Ner(NerConvGru::new(
                    NerConvGruConfig {
                        vocab_size,
                        embedding_dim: 20,
                        conv_window: 5,
                        conv_features: 24,
                        gru_hidden: 20,
                        dropout_keep: 0.7,
                        num_classes,
                    },
                    &mut rng,
                )),
            }
        })
    }

    /// Builds a fresh model for `seed`.
    pub fn model(&self, seed: u64) -> AnyModel {
        (self.model_factory)(seed)
    }

    /// The same factory with a different training configuration.
    pub fn with_config(&self, config: TrainConfig) -> Self {
        Self { config, model_factory: Arc::clone(&self.model_factory) }
    }
}

/// One compared method of the paper behind a uniform, trait-object-safe
/// interface.  `run` trains / infers from scratch and returns the result
/// rows the method contributes to a table.
pub trait CrowdMethod: Send + Sync {
    /// Static description (registry key, display label, family, tasks).
    fn descriptor(&self) -> MethodDescriptor;

    /// Runs the method on a dataset and returns its table rows.  One entry
    /// is one training, and it emits every row read from that training:
    /// most methods emit one row, while Logic-LNCL (student, teacher),
    /// AggNet (`AggNet`, `w/o-Rule`), DL-DN (`DL-DN`, `DL-WDN`) and
    /// MV-Classifier (`MV-Classifier`, `MV-t`) emit two.
    fn run(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Vec<MethodResult>;

    /// Runs the method's truth-inference stage and returns its per-unit
    /// posterior over classes on the training split, one `K`-length row per
    /// unit in [`AnnotationView`](lncl_crowd::AnnotationView) order.
    ///
    /// Methods without an explicit truth-inference stage read out the best
    /// normalised proxy they have: the crowd-layer variants return the
    /// trained backbone's softmax on the training split, DL-DN the
    /// ensemble's uniform-average softmax.  Only the Gold upper bound
    /// returns `None` — it consumes the truth, so a "posterior" would be
    /// vacuous.  The robustness suite uses this hook to assert posterior
    /// invariants (rows normalised, entries in `[0, 1]`,
    /// annotator-permutation invariance) uniformly across the registry.
    fn infer_posteriors(&self, dataset: &CrowdDataset, ctx: &RunContext) -> Option<Vec<Vec<f32>>> {
        let _ = (dataset, ctx);
        None
    }
}

/// String-keyed registry of every compared method.
///
/// Keys are the kebab-case [`MethodDescriptor::name`]s; [`MethodRegistry::standard`]
/// pre-populates the 25 entries behind every row of the paper's tables
/// (compared methods, ablation variants and two windowed extensions), so
/// the table/figure binaries are data-driven loops over registry lookups.
#[derive(Default)]
pub struct MethodRegistry {
    methods: BTreeMap<String, Box<dyn CrowdMethod>>,
}

impl MethodRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The full registry, 25 entries: the 9 truth-inference baselines (the
    /// paper's 8 plus the stream-windowed DS), the two two-stage
    /// classifiers, AggNet, the six crowd-layer variants (with and without
    /// MV pre-training), DL-DN, the Gold upper bound, Logic-LNCL and its
    /// windowed variant, and the three Table-IV ablation variants that
    /// need a training of their own.
    pub fn standard() -> Self {
        use lncl_crowd::truth::{BscSeq, Catd, DawidSkene, DsWindowed, Glad, HmmCrowd, Ibcc, MajorityVote, Pm};

        let mut registry = Self::new();
        // truth inference only
        registry.register(TruthOnly::new("mv", MajorityVote, TaskSupport::Both));
        registry.register(TruthOnly::new("dawid-skene", DawidSkene::default(), TaskSupport::Both));
        registry.register(TruthOnly::new("ds-windowed", DsWindowed::default(), TaskSupport::Both));
        registry.register(TruthOnly::new("glad", Glad::default(), TaskSupport::Classification));
        registry.register(TruthOnly::new("ibcc", Ibcc::default(), TaskSupport::Both));
        registry.register(TruthOnly::new("pm", Pm::default(), TaskSupport::Classification));
        registry.register(TruthOnly::new("catd", Catd::default(), TaskSupport::Classification));
        registry.register(TruthOnly::new("hmm-crowd", HmmCrowd::default(), TaskSupport::SequenceTagging));
        registry.register(TruthOnly::new("bsc-seq", BscSeq::default(), TaskSupport::SequenceTagging));
        // two-stage classifiers
        registry.register(TwoStage::new(
            "mv-classifier",
            "MV-Classifier",
            Some("MV-t"),
            MajorityVote,
            TaskSupport::Both,
        ));
        registry.register(TwoStage::new(
            "glad-classifier",
            "GLAD-Classifier",
            None,
            Glad::default(),
            TaskSupport::Classification,
        ));
        // one-stage neural baselines
        registry.register(AggNet);
        registry.register(CrowdLayerMethod::new(crate::baselines::CrowdLayerKind::VectorWeight, 0));
        registry.register(CrowdLayerMethod::new(crate::baselines::CrowdLayerKind::VectorWeightBias, 0));
        registry.register(CrowdLayerMethod::new(crate::baselines::CrowdLayerKind::MatrixWeight, 0));
        registry.register(CrowdLayerMethod::new(crate::baselines::CrowdLayerKind::VectorWeight, 2));
        registry.register(CrowdLayerMethod::new(crate::baselines::CrowdLayerKind::VectorWeightBias, 2));
        registry.register(CrowdLayerMethod::new(crate::baselines::CrowdLayerKind::MatrixWeight, 2));
        registry.register(DlDnMethod);
        // bounds and the paper's model
        registry.register(GoldUpperBound);
        registry.register(LogicLnclMethod);
        registry.register(LogicLnclWindowedMethod);
        // Table-IV ablation variants with a training of their own; the
        // full model, `w/o-Rule` and `MV-t` are rows of the entries above
        for variant in crate::ablation::AblationVariant::all() {
            registry.register(AblationMethod::new(variant));
        }
        registry
    }

    /// Adds a method.  Panics if its descriptor name is already taken —
    /// registry keys must be unique.
    pub fn register(&mut self, method: impl CrowdMethod + 'static) {
        let name = method.descriptor().name;
        let previous = self.methods.insert(name.clone(), Box::new(method));
        assert!(previous.is_none(), "duplicate method registration: {name}");
    }

    /// Looks a method up by registry key.
    pub fn get(&self, name: &str) -> Option<&dyn CrowdMethod> {
        self.methods.get(name).map(|m| m.as_ref())
    }

    /// All methods of a family, in key order.
    pub fn family(&self, family: Family) -> Vec<&dyn CrowdMethod> {
        self.iter().filter(|m| m.descriptor().family == family).collect()
    }

    /// All methods supporting a task kind, in key order.
    pub fn supporting(&self, task: TaskKind) -> Vec<&dyn CrowdMethod> {
        self.iter().filter(|m| m.descriptor().supports(task)).collect()
    }

    /// Iterates over every method in key order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn CrowdMethod> {
        self.methods.values().map(|m| m.as_ref())
    }

    /// All registry keys, sorted.
    pub fn names(&self) -> Vec<String> {
        self.methods.keys().cloned().collect()
    }

    /// Number of registered methods.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// True when no methods are registered.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// Convenience: looks a method up and runs it.  Returns `None` for an
    /// unknown key.
    pub fn run(&self, name: &str, dataset: &CrowdDataset, ctx: &RunContext) -> Option<Vec<MethodResult>> {
        self.get(name).map(|m| m.run(dataset, ctx))
    }
}

impl fmt::Debug for MethodRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MethodRegistry").field("methods", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_crowd::datasets::{generate_ner, generate_sentiment, NerDatasetConfig, SentimentDatasetConfig};

    #[test]
    fn standard_registry_enumerates_all_compared_methods() {
        let registry = MethodRegistry::standard();
        assert!(registry.len() >= 15, "paper compares ~17 methods, registry has {}", registry.len());
        for key in [
            "mv",
            "dawid-skene",
            "ds-windowed",
            "glad",
            "ibcc",
            "pm",
            "catd",
            "hmm-crowd",
            "bsc-seq",
            "mv-classifier",
            "glad-classifier",
            "aggnet",
            "cl-mw",
            "cl-vw",
            "cl-vw-b",
            "dl-dn",
            "gold",
            "logic-lncl",
            "logic-lncl-windowed",
        ] {
            assert!(registry.get(key).is_some(), "missing standard method {key:?}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate method registration")]
    fn duplicate_registration_panics() {
        let mut registry = MethodRegistry::new();
        registry.register(adapters::GoldUpperBound);
        registry.register(adapters::GoldUpperBound);
    }

    #[test]
    fn task_support_filters() {
        assert!(TaskSupport::Both.supports(TaskKind::Classification));
        assert!(TaskSupport::Both.supports(TaskKind::SequenceTagging));
        assert!(TaskSupport::Classification.supports(TaskKind::Classification));
        assert!(!TaskSupport::Classification.supports(TaskKind::SequenceTagging));
        assert!(!TaskSupport::SequenceTagging.supports(TaskKind::Classification));

        let registry = MethodRegistry::standard();
        let ner_methods = registry.supporting(TaskKind::SequenceTagging);
        assert!(ner_methods.iter().all(|m| m.descriptor().supports(TaskKind::SequenceTagging)));
        assert!(ner_methods.iter().any(|m| m.descriptor().name == "hmm-crowd"));
        assert!(!ner_methods.iter().any(|m| m.descriptor().name == "glad"));
    }

    #[test]
    fn run_context_builds_task_appropriate_models() {
        let sentiment = generate_sentiment(&SentimentDatasetConfig::tiny());
        let ctx = RunContext::for_dataset(&sentiment, TrainConfig::fast(1));
        assert!(matches!(ctx.model(3), AnyModel::Sentiment(_)));

        let ner = generate_ner(&NerDatasetConfig::tiny());
        let ctx = RunContext::for_dataset(&ner, TrainConfig::fast(1));
        assert!(matches!(ctx.model(3), AnyModel::Ner(_)));
    }

    #[test]
    fn with_config_keeps_the_factory() {
        let sentiment = generate_sentiment(&SentimentDatasetConfig::tiny());
        let ctx = RunContext::for_dataset(&sentiment, TrainConfig::fast(1));
        let faster = ctx.with_config(TrainConfig::fast(1).with_epochs(2));
        assert_eq!(faster.config.epochs, 2);
        assert!(matches!(faster.model(0), AnyModel::Sentiment(_)));
    }

    #[test]
    fn family_display_names_are_stable() {
        assert_eq!(Family::TruthInference.to_string(), "truth-inference");
        assert_eq!(Family::all().len(), 8);
    }
}
