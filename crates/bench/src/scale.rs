//! Experiment scale selection and dataset / run-context builders shared by
//! every bench binary.

use lncl_crowd::datasets::{generate_ner, generate_sentiment, NerDatasetConfig, SentimentDatasetConfig};
use lncl_crowd::scenario::ScenarioConfig;
use lncl_crowd::{CrowdDataset, TaskKind};
use logic_lncl::config::TrainConfig;
use logic_lncl::method::RunContext;

/// How large the regenerated experiments are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sub-smoke experiments: seconds end-to-end.  The tier the
    /// scale-predictivity study compares against `Paper` to find out which
    /// cells of a cheap CI grid actually predict paper-scale rankings.
    Tiny,
    /// Fast smoke-scale experiments (default): minutes on a laptop.
    Small,
    /// Larger corpora and more epochs; closer to the paper's setting.
    Medium,
    /// The paper's corpus sizes (4,999 / 5,985 training sentences).  Slow.
    Paper,
    /// ≥10x the paper's instance counts — the production-scale tier.  Full
    /// corpora at this size should not be materialised: the streaming
    /// generation path (`ScenarioStream` + `stream_mv_init`, exercised by
    /// the `huge_stream` target) folds chunks straight into the flat
    /// posterior arena under a peak-RSS gate.
    Huge,
}

impl Scale {
    /// Every tier, smallest first.
    pub const ALL: [Scale; 5] = [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Paper, Scale::Huge];

    /// Parses a scale name (the inverse of [`Scale::name`]).
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.trim().to_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            "huge" => Some(Scale::Huge),
            _ => None,
        }
    }

    /// The stable lower-case name ([`Scale::parse`] round-trips it; used in
    /// report environment metadata).
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
            Scale::Huge => "huge",
        }
    }

    /// Reads the scale from the `LNCL_SCALE` environment variable.  Unset
    /// means the `Small` default; a set-but-unknown value warns on stderr
    /// and falls back to the default (the `LNCL_*` convention).
    pub fn from_env() -> Self {
        lncl_tensor::env::parse_env("LNCL_SCALE", |raw| {
            Scale::parse(raw).ok_or_else(|| "expected tiny|small|medium|paper|huge".to_string())
        })
        .unwrap_or(Scale::Small)
    }

    /// Number of repeated runs averaged per method (`LNCL_REPS` overrides;
    /// an invalid value warns on stderr and falls back to the per-scale
    /// default).
    pub fn repetitions(&self) -> usize {
        if let Some(n) = crate::timing::env_usize("LNCL_REPS") {
            return n.max(1);
        }
        match self {
            Scale::Tiny | Scale::Small => 1,
            Scale::Medium => 3,
            Scale::Paper => 5,
            Scale::Huge => 1,
        }
    }

    /// Number of training epochs (`LNCL_EPOCHS` overrides; an invalid value
    /// warns on stderr and falls back to the per-scale default).
    pub fn epochs(&self) -> usize {
        if let Some(n) = crate::timing::env_usize("LNCL_EPOCHS") {
            return n.max(1);
        }
        self.default_epochs()
    }

    /// The per-scale epoch default, ignoring the environment (what
    /// [`Scale::epochs`] falls back to when `LNCL_EPOCHS` is unset).
    pub fn default_epochs(&self) -> usize {
        match self {
            Scale::Tiny => 6,
            Scale::Small => 12,
            Scale::Medium => 20,
            Scale::Paper | Scale::Huge => 30,
        }
    }

    /// The sentiment corpus for this scale.
    pub fn sentiment_dataset(&self, seed: u64) -> CrowdDataset {
        let config = match self {
            Scale::Tiny => SentimentDatasetConfig {
                train_size: 200,
                dev_size: 60,
                test_size: 60,
                num_annotators: 16,
                seed,
                ..SentimentDatasetConfig::default()
            },
            Scale::Small => SentimentDatasetConfig {
                train_size: 800,
                dev_size: 250,
                test_size: 250,
                num_annotators: 40,
                seed,
                ..SentimentDatasetConfig::default()
            },
            Scale::Medium => SentimentDatasetConfig {
                train_size: 2000,
                dev_size: 600,
                test_size: 600,
                num_annotators: 80,
                seed,
                ..SentimentDatasetConfig::default()
            },
            Scale::Paper => SentimentDatasetConfig { seed, ..SentimentDatasetConfig::paper_scale() },
            // 10x the paper corpus; prefer the streaming scenario path over
            // materialising datasets of this size
            Scale::Huge => SentimentDatasetConfig {
                train_size: 50_000,
                dev_size: 1_500,
                test_size: 1_500,
                num_annotators: 200,
                seed,
                ..SentimentDatasetConfig::default()
            },
        };
        generate_sentiment(&config)
    }

    /// The NER corpus for this scale.
    pub fn ner_dataset(&self, seed: u64) -> CrowdDataset {
        let config = match self {
            Scale::Tiny => NerDatasetConfig {
                train_size: 100,
                dev_size: 30,
                test_size: 30,
                num_annotators: 10,
                min_labels_per_instance: 2,
                max_labels_per_instance: 4,
                seed,
            },
            Scale::Small => NerDatasetConfig {
                train_size: 400,
                dev_size: 120,
                test_size: 120,
                num_annotators: 25,
                // sparser redundancy than the sentiment corpus, so the gap
                // between aggregation strategies is visible (as in Table III)
                min_labels_per_instance: 2,
                max_labels_per_instance: 4,
                seed,
            },
            Scale::Medium => NerDatasetConfig {
                train_size: 1200,
                dev_size: 350,
                test_size: 350,
                num_annotators: 47,
                min_labels_per_instance: 2,
                max_labels_per_instance: 4,
                seed,
            },
            Scale::Paper => NerDatasetConfig { seed, ..NerDatasetConfig::paper_scale() },
            Scale::Huge => NerDatasetConfig {
                train_size: 60_000,
                dev_size: 2_000,
                test_size: 2_000,
                num_annotators: 150,
                min_labels_per_instance: 2,
                max_labels_per_instance: 4,
                seed,
            },
        };
        generate_ner(&config)
    }

    /// The base scenario configuration (sizes, pool, redundancy) the
    /// `scenario_sweep` binary sweeps at this scale; the mix / redundancy /
    /// imbalance axes are layered on top by
    /// [`crate::experiments::scenario_sweep_configs`].
    pub fn scenario_base(&self, task: TaskKind, seed: u64) -> ScenarioConfig {
        let base = match task {
            TaskKind::Classification => ScenarioConfig::classification("base"),
            TaskKind::SequenceTagging => ScenarioConfig::tagging("base"),
        };
        let base = match (self, task) {
            (Scale::Tiny, TaskKind::Classification) => base.with_sizes(60, 24, 24).with_annotators(8),
            (Scale::Tiny, TaskKind::SequenceTagging) => base.with_sizes(40, 16, 16).with_annotators(6),
            (Scale::Small, TaskKind::Classification) => base.with_sizes(150, 60, 60).with_annotators(12),
            (Scale::Small, TaskKind::SequenceTagging) => base.with_sizes(100, 40, 40).with_annotators(10),
            (Scale::Medium, TaskKind::Classification) => base.with_sizes(600, 200, 200).with_annotators(30),
            (Scale::Medium, TaskKind::SequenceTagging) => base.with_sizes(400, 120, 120).with_annotators(20),
            (Scale::Paper, TaskKind::Classification) => base.with_sizes(2000, 600, 600).with_annotators(60),
            (Scale::Paper, TaskKind::SequenceTagging) => base.with_sizes(1200, 350, 350).with_annotators(40),
            // ≥10x the paper tier's instance counts (25x / 10x) — sized for
            // the streaming generation path, not for full materialisation
            (Scale::Huge, TaskKind::Classification) => base.with_sizes(50_000, 1_000, 1_000).with_annotators(150),
            (Scale::Huge, TaskKind::SequenceTagging) => base.with_sizes(12_000, 500, 500).with_annotators(80),
        };
        base.with_seed(seed)
    }

    /// Training configuration used for sentiment experiments at this scale.
    pub fn sentiment_train_config(&self, seed: u64) -> TrainConfig {
        TrainConfig::fast(self.epochs()).with_seed(seed)
    }

    /// Training configuration used for NER experiments at this scale.
    pub fn ner_train_config(&self, seed: u64) -> TrainConfig {
        Self::ner_train_config_with_epochs(seed, self.epochs())
    }

    fn ner_train_config_with_epochs(seed: u64, epochs: usize) -> TrainConfig {
        TrainConfig::builder_from(TrainConfig::fast(epochs))
            .seed(seed)
            .imitation(logic_lncl::ImitationSchedule::ner_paper())
            .objective(logic_lncl::MStepObjective::AnnotationWeighted)
            .build()
    }

    /// The task-appropriate training configuration for a dataset.
    pub fn train_config(&self, task: TaskKind, seed: u64) -> TrainConfig {
        self.train_config_with_epochs(task, seed, self.epochs())
    }

    /// [`Scale::train_config`] with an explicit epoch count instead of the
    /// `LNCL_EPOCHS`-aware per-scale default.
    pub fn train_config_with_epochs(&self, task: TaskKind, seed: u64, epochs: usize) -> TrainConfig {
        match task {
            TaskKind::Classification => TrainConfig::fast(epochs).with_seed(seed),
            TaskKind::SequenceTagging => Self::ner_train_config_with_epochs(seed, epochs),
        }
    }

    /// The [`RunContext`] every registry method runs under at this scale:
    /// the task-appropriate training configuration plus the default
    /// reduced-width model factory for the dataset.
    pub fn run_context(&self, dataset: &CrowdDataset, seed: u64) -> RunContext {
        RunContext::for_dataset(dataset, self.train_config(dataset.task, seed))
    }
}
