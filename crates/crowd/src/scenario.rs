//! Composable crowd-scenario simulation.
//!
//! The paper evaluates on two fixed crowd conditions (AMT sentiment, AMT
//! NER).  Classic truth-inference work shows that method rankings flip under
//! spammers, adversaries, colluding cliques and sparse redundancy — regimes
//! the fixed generators in [`crate::datasets`] cannot express.  This module
//! opens that axis:
//!
//! * [`Archetype`] — composable annotator behaviours ([`Archetype::Reliable`],
//!   uniform [`Archetype::Spammer`], anti-diagonal [`Archetype::Adversarial`],
//!   class-swapping [`Archetype::PairConfuser`], clique-forming
//!   [`Archetype::Colluding`]) layered on the base
//!   [`ConfusionAnnotator`]/[`NerAnnotator`] simulators;
//! * [`PropensityProfile`] — uniform or long-tailed workload distributions;
//! * [`DriftSchedule`] — temporal drift of every annotator's error rate over
//!   their own label stream (linear fatigue, step change, learning curve),
//!   wrapping any archetype;
//! * [`DifficultyModel`] — GLAD-style instance difficulty making *all*
//!   annotators err more on the same hard instances (correlated,
//!   non-colluding mistakes);
//! * [`ScenarioConfig`] + [`generate_scenario`] — one knob set (task,
//!   redundancy, pool size, archetype mix, class imbalance, drift,
//!   difficulty, seed) emitting a valid [`CrowdDataset`] for either task;
//! * [`ScenarioGrid`] — cartesian sweeps over those knobs, feeding the
//!   `scenario_sweep` benchmark binary and the cross-method robustness suite.
//!
//! The workspace-level crate map lives in `ARCHITECTURE.md` at the
//! repository root.
//!
//! ```
//! use lncl_crowd::scenario::{generate_scenario, Archetype, ScenarioConfig};
//!
//! let config = ScenarioConfig::classification("spam-third")
//!     .with_sizes(120, 40, 40)
//!     .with_mix(vec![(Archetype::reliable(), 0.65), (Archetype::Spammer, 0.35)]);
//! let dataset = generate_scenario(&config);
//! assert!(dataset.validate().is_ok());
//! ```
//!
//! # Scenario cookbook
//!
//! Every knob of the simulator, each with a runnable recipe (all of these
//! are doctests, enforced by the CI doctest step).  Start from
//! [`ScenarioConfig::classification`] / [`ScenarioConfig::tagging`] (or
//! [`ScenarioConfig::tiny`] in tests) and layer `with_*` builders on top.
//!
//! ## Archetypes
//!
//! `with_mix` takes `(archetype, fraction)` pairs; fractions are normalised
//! and rounded to annotator counts by largest remainder.
//!
//! | archetype | behaviour |
//! |---|---|
//! | [`Archetype::Reliable`] | high-diagonal confusion (classification) / structured ignore-boundary-span-type errors (NER) |
//! | [`Archetype::Spammer`] | uniform rows — zero signal |
//! | [`Archetype::Adversarial`] | anti-diagonal — actively misleading |
//! | [`Archetype::PairConfuser`] | swaps one class pair (entity-type pair, span-wise, on NER) |
//! | [`Archetype::Colluding`] | one clique copying its leader's noisy stream verbatim |
//!
//! ```
//! use lncl_crowd::scenario::{generate_scenario, Archetype, ScenarioConfig};
//! use lncl_crowd::TaskKind;
//!
//! // a hostile pool: spammers, an adversary and a PER<->LOC confuser
//! let config = ScenarioConfig::tiny(TaskKind::SequenceTagging).named("hostile").with_mix(vec![
//!     (Archetype::Reliable { accuracy: 0.8 }, 0.5),
//!     (Archetype::Spammer, 0.2),
//!     (Archetype::adversarial(), 0.15),
//!     (Archetype::PairConfuser { class_a: 0, class_b: 1, swap_prob: 0.8 }, 0.15),
//! ]);
//! assert!(generate_scenario(&config).validate().is_ok());
//! ```
//!
//! ## Propensity profiles
//!
//! [`PropensityProfile::Uniform`] gives every annotator the same workload;
//! [`PropensityProfile::LongTail`] mirrors the Figure-4 statistics (a few
//! prolific annotators, many occasional ones).
//!
//! ```
//! use lncl_crowd::scenario::{generate_scenario, PropensityProfile, ScenarioConfig};
//! use lncl_crowd::TaskKind;
//!
//! let config = ScenarioConfig::tiny(TaskKind::Classification).with_propensity(PropensityProfile::Uniform);
//! let dataset = generate_scenario(&config);
//! let counts = dataset.annotation_view().labels_per_annotator();
//! assert!(counts.iter().all(|&c| c > 0), "uniform propensity reaches every annotator: {counts:?}");
//! ```
//!
//! ## Redundancy, pool size and class imbalance
//!
//! ```
//! use lncl_crowd::scenario::{generate_scenario, ScenarioConfig};
//! use lncl_crowd::TaskKind;
//!
//! let config = ScenarioConfig::tiny(TaskKind::Classification)
//!     .with_redundancy(1, 1) // single label per instance: aggregation is hardest
//!     .with_annotators(8)
//!     .with_majority_share(0.8); // 80% of gold labels are class 0
//! let dataset = generate_scenario(&config);
//! assert!(dataset.train.iter().all(|i| i.num_annotations() == 1));
//! ```
//!
//! ## Drifting annotators
//!
//! A [`DriftSchedule`] makes every annotator's error rate a function of the
//! position in *their own* label stream.  `LinearFatigue` degrades towards
//! the stream end, `StepChange` switches abruptly (the regime windowed
//! estimators such as `ds-windowed` track and static confusion matrices
//! cannot), `LearningCurve` starts noisy and improves.  Rate `0` (or
//! [`DriftSchedule::Static`]) reproduces the static generator **bitwise**.
//!
//! ```
//! use lncl_crowd::scenario::{generate_scenario, DriftSchedule, PropensityProfile, ScenarioConfig};
//! use lncl_crowd::TaskKind;
//!
//! let base = ScenarioConfig::tiny(TaskKind::Classification).with_propensity(PropensityProfile::Uniform);
//! let drifted = base.clone().with_drift(DriftSchedule::StepChange { at: 0.5, level: 0.9 });
//! let (clean, tired) = (generate_scenario(&base), generate_scenario(&drifted));
//! // same gold corpus, noisier late-stream labels
//! assert_eq!(clean.train[0].gold, tired.train[0].gold);
//! assert!(lncl_crowd::metrics::crowd_label_accuracy(&tired) < lncl_crowd::metrics::crowd_label_accuracy(&clean));
//! ```
//!
//! ## Difficulty-conditioned (correlated) error
//!
//! A [`DifficultyModel`] samples a per-instance hardness (GLAD's `1/beta`)
//! and corrupts *every* annotator's labels on hard instances — correlated
//! mistakes without collusion, violating the conditional-independence
//! assumption behind DS-family aggregation.  `strength == 0` is the
//! degenerate, bitwise-identical setting.
//!
//! ```
//! use lncl_crowd::scenario::{generate_scenario, DifficultyModel, ScenarioConfig};
//! use lncl_crowd::TaskKind;
//!
//! let config = ScenarioConfig::tiny(TaskKind::Classification)
//!     .with_difficulty(DifficultyModel { strength: 0.8, concentration: 0.5 });
//! let dataset = generate_scenario(&config);
//! assert!(dataset.validate().is_ok());
//! ```
//!
//! ## Grid sweeps
//!
//! [`ScenarioGrid`] materialises the cartesian product of every axis with
//! stable, descriptive names; temporal segments only appear in the names
//! when those axes are actually swept.
//!
//! ```
//! use lncl_crowd::scenario::{DriftSchedule, ScenarioConfig, ScenarioGrid};
//! use lncl_crowd::TaskKind;
//!
//! let grid = ScenarioGrid::new(ScenarioConfig::tiny(TaskKind::Classification))
//!     .with_standard_mixes()
//!     .with_drifts(vec![
//!         ("static".into(), DriftSchedule::Static),
//!         ("fatigue0.6".into(), DriftSchedule::LinearFatigue { rate: 0.6 }),
//!     ]);
//! let configs = grid.configs();
//! assert_eq!(configs.len(), 6 * 2);
//! assert!(configs.iter().any(|c| c.name.ends_with("/fatigue0.6")));
//! ```

use crate::annotator::{gold_spans, ConfusionAnnotator, NerAnnotator, NerErrorRates};
use crate::data::{CrowdDataset, CrowdLabel, Instance, TaskKind};
use crate::datasets::ner::{bio_class_names, NerTextModel, NUM_BIO_CLASSES, NUM_ENTITY_TYPES};
use crate::datasets::sentiment::SentimentTextModel;
use crate::sampling::select_weighted_distinct;
use lncl_tensor::{Matrix, TensorRng};
use std::collections::BTreeMap;

/// One annotator behaviour archetype.  For sequence tagging the
/// confusion-style archetypes act token-wise over the BIO classes, except
/// [`Archetype::PairConfuser`], whose classes name *entity types* and which
/// swaps whole spans (preserving BIO structure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Archetype {
    /// A competent annotator: high-diagonal confusion (classification,
    /// sampled around `accuracy` with Dirichlet off-diagonal noise) or the
    /// structured ignore/boundary/span-type error model at quality
    /// `accuracy` (tagging).
    Reliable {
        /// Target per-class accuracy / NER quality in `[0, 1]`.
        accuracy: f32,
    },
    /// A uniform spammer: every row of the confusion is `1/K` regardless of
    /// the true class, carrying zero signal.
    Spammer,
    /// An adversary answering on the anti-diagonal: true class `m` is
    /// reported as class `K-1-m` with probability `flip` (rest uniform) —
    /// worse than random, actively misleading accuracy-weighted aggregators.
    Adversarial {
        /// Probability mass on the anti-diagonal class.
        flip: f32,
    },
    /// Confuses exactly one pair of classes (classification) or entity
    /// types (tagging), reporting the other member of the pair with
    /// probability `swap_prob` and behaving near-perfectly elsewhere.
    PairConfuser {
        /// First class (classification) / entity type (tagging) of the pair.
        class_a: usize,
        /// Second class / entity type of the pair.
        class_b: usize,
        /// Probability of swapping the pair.
        swap_prob: f32,
    },
    /// A colluding clique: the first annotator of the clique (the *leader*)
    /// behaves like a mediocre [`Archetype::Reliable`] annotator and every
    /// other member copies the leader's noisy label stream verbatim, so the
    /// clique looks like independent corroboration but carries one
    /// annotator's worth of signal.
    Colluding,
}

impl Archetype {
    /// The default competent annotator (`accuracy = 0.85`).
    pub fn reliable() -> Self {
        Archetype::Reliable { accuracy: 0.85 }
    }

    /// The default adversary (`flip = 0.85`).
    pub fn adversarial() -> Self {
        Archetype::Adversarial { flip: 0.85 }
    }

    /// The default pair confuser over the first two classes / entity types.
    pub fn pair_confuser() -> Self {
        Archetype::PairConfuser { class_a: 0, class_b: 1, swap_prob: 0.8 }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Archetype::Reliable { .. } => "reliable",
            Archetype::Spammer => "spammer",
            Archetype::Adversarial { .. } => "adversarial",
            Archetype::PairConfuser { .. } => "pair-confuser",
            Archetype::Colluding => "colluding",
        }
    }

    /// The `K x K` unit-level confusion matrix of the archetype, for the
    /// archetypes that act through one (everything except tagging-mode
    /// [`Archetype::PairConfuser`] and [`Archetype::Colluding`] followers).
    pub fn confusion(&self, num_classes: usize) -> Matrix {
        let k = num_classes;
        match *self {
            Archetype::Reliable { accuracy } => {
                let off = (1.0 - accuracy) / (k - 1) as f32;
                Matrix::from_fn(k, k, |r, c| if r == c { accuracy } else { off })
            }
            Archetype::Spammer => Matrix::full(k, k, 1.0 / k as f32),
            Archetype::Adversarial { flip } => {
                let off = (1.0 - flip) / (k - 1) as f32;
                Matrix::from_fn(k, k, |r, c| if c == k - 1 - r { flip } else { off })
            }
            Archetype::PairConfuser { class_a, class_b, swap_prob } => {
                assert!(class_a < k && class_b < k && class_a != class_b, "pair classes out of range");
                let diag = 0.95f32;
                let off = (1.0 - diag) / (k - 1) as f32;
                Matrix::from_fn(k, k, |r, c| {
                    if r == class_a || r == class_b {
                        let partner = if r == class_a { class_b } else { class_a };
                        if c == partner {
                            swap_prob
                        } else if c == r {
                            1.0 - swap_prob
                        } else {
                            0.0
                        }
                    } else if r == c {
                        diag
                    } else {
                        off
                    }
                })
            }
            Archetype::Colluding => {
                // the clique leader's behaviour; followers copy its stream
                Archetype::Reliable { accuracy: COLLUSION_LEADER_ACCURACY }.confusion(k)
            }
        }
    }
}

/// Accuracy of a colluding clique's leader.
const COLLUSION_LEADER_ACCURACY: f32 = 0.7;

/// How an annotator's error rate evolves over *their own* label stream —
/// the temporal axis layered on top of any [`Archetype`].
///
/// The schedule yields an extra **corruption probability** as a function of
/// the annotator's progress through their expected workload: with
/// probability `corruption_at(progress)` each labelled unit is replaced by a
/// uniformly random class (spammer-style noise), on top of whatever the
/// base archetype already does.  Corruption draws come from a dedicated RNG
/// stream, so a schedule that never corrupts ([`DriftSchedule::Static`], or
/// any schedule at rate/level `0`) reproduces the static generator
/// **bitwise** (asserted by the metamorphic tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftSchedule {
    /// No drift: the archetype behaves identically over the whole stream.
    Static,
    /// Fatigue: corruption grows linearly from `0` (stream start) to `rate`
    /// (expected stream end), then stays there.
    LinearFatigue {
        /// Corruption probability reached at the end of the expected
        /// stream, in `[0, 1]`.
        rate: f32,
    },
    /// A step change: no corruption before fraction `at` of the stream,
    /// constant corruption `level` afterwards (the regime windowed
    /// estimators should track and static confusion matrices cannot).
    StepChange {
        /// Stream fraction in `[0, 1]` at which the change happens.
        at: f32,
        /// Corruption probability after the change, in `[0, 1]`.
        level: f32,
    },
    /// A learning curve: corruption starts at `rate` and decays linearly to
    /// `0` over the expected stream (novices improving with practice).
    LearningCurve {
        /// Corruption probability at the start of the stream, in `[0, 1]`.
        rate: f32,
    },
}

impl DriftSchedule {
    /// Extra corruption probability at `progress` (fraction of the
    /// annotator's expected stream already labelled, clamped to `[0, 1]`).
    pub fn corruption_at(&self, progress: f32) -> f32 {
        let progress = progress.clamp(0.0, 1.0);
        match *self {
            DriftSchedule::Static => 0.0,
            DriftSchedule::LinearFatigue { rate } => rate * progress,
            DriftSchedule::StepChange { at, level } => {
                if progress >= at {
                    level
                } else {
                    0.0
                }
            }
            DriftSchedule::LearningCurve { rate } => rate * (1.0 - progress),
        }
    }

    /// True when the schedule never corrupts (static, or any shape at
    /// rate/level `0`) — exactly the configurations that reproduce the
    /// static generator bitwise.
    pub fn is_static(&self) -> bool {
        match *self {
            DriftSchedule::Static => true,
            DriftSchedule::LinearFatigue { rate } | DriftSchedule::LearningCurve { rate } => rate == 0.0,
            DriftSchedule::StepChange { level, .. } => level == 0.0,
        }
    }

    /// Short display name (used in grid scenario names).
    pub fn name(&self) -> &'static str {
        match self {
            DriftSchedule::Static => "static",
            DriftSchedule::LinearFatigue { .. } => "fatigue",
            DriftSchedule::StepChange { .. } => "step",
            DriftSchedule::LearningCurve { .. } => "learning",
        }
    }

    /// Checks the parameters, returning a descriptive error for degenerate
    /// values (negative or >1 rates/levels, step fraction outside `[0, 1]`).
    pub fn validate(&self) -> Result<(), String> {
        let check = |what: &str, v: f32| {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                Err(format!("drift {what} must be a probability in [0, 1], got {v}"))
            } else {
                Ok(())
            }
        };
        match *self {
            DriftSchedule::Static => Ok(()),
            DriftSchedule::LinearFatigue { rate } | DriftSchedule::LearningCurve { rate } => check("rate", rate),
            DriftSchedule::StepChange { at, level } => {
                check("step fraction", at)?;
                check("step level", level)
            }
        }
    }
}

/// Instance-difficulty-conditioned error — the GLAD generative story
/// (Whitehill et al. 2009) on the generator side.
///
/// Each training instance draws a latent *hardness* in `[0, 1]` (the
/// `1/beta` of GLAD, normalised): `hardness = u^concentration` for uniform
/// `u`, so `concentration > 1` skews the corpus easy and `< 1` hard.  Every
/// annotator labelling the instance then suffers an extra corruption
/// probability `strength · hardness` — **all** annotators err more on the
/// same hard instances, producing correlated, non-colluding mistakes that
/// violate the conditional-independence assumption of DS-family models.
///
/// `strength == 0` is the degenerate model: no corruption is ever drawn and
/// the generated dataset is **bitwise identical** to the static one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DifficultyModel {
    /// Corruption probability on the hardest instances, in `[0, 1]`
    /// (`0` disables the model).
    pub strength: f32,
    /// Hardness-distribution shape: `hardness = u^concentration`; larger
    /// values concentrate mass near `0` (mostly easy instances).  Must be
    /// positive and finite.
    pub concentration: f32,
}

impl Default for DifficultyModel {
    fn default() -> Self {
        Self { strength: 0.0, concentration: 1.0 }
    }
}

impl DifficultyModel {
    /// A moderately hard corpus: up to `strength` corruption, hardness
    /// skewed easy (`concentration = 2`).
    pub fn with_strength(strength: f32) -> Self {
        Self { strength, concentration: 2.0 }
    }

    /// True when the model never corrupts (the bitwise-identical
    /// degenerate setting).
    pub fn is_degenerate(&self) -> bool {
        self.strength == 0.0
    }

    /// Samples one instance's hardness in `[0, 1]`.
    pub fn hardness(&self, rng: &mut TensorRng) -> f32 {
        rng.uniform().powf(self.concentration)
    }

    /// Checks the parameters, returning a descriptive error for degenerate
    /// values (strength outside `[0, 1]`, non-positive concentration).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.strength) || !self.strength.is_finite() {
            return Err(format!("difficulty strength must be a probability in [0, 1], got {}", self.strength));
        }
        if self.concentration <= 0.0 || !self.concentration.is_finite() {
            return Err(format!("difficulty concentration must be positive and finite, got {}", self.concentration));
        }
        Ok(())
    }
}

/// How annotator workload propensities are distributed across the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropensityProfile {
    /// Every annotator is equally likely to pick up a task.
    Uniform,
    /// Pareto-ish long tail mirroring the Figure-4 statistics: a few
    /// prolific annotators, many occasional ones.
    LongTail,
}

impl PropensityProfile {
    /// Samples the unnormalised per-annotator propensity weights.
    pub fn weights(&self, num_annotators: usize, rng: &mut TensorRng) -> Vec<f32> {
        match self {
            PropensityProfile::Uniform => vec![1.0; num_annotators],
            PropensityProfile::LongTail => {
                (0..num_annotators).map(|_| (1.0 / rng.uniform_range(0.02, 1.0)).min(60.0)).collect()
            }
        }
    }
}

/// Concrete per-annotator behaviour, compiled from an [`Archetype`].
#[derive(Debug, Clone)]
enum Behaviour {
    /// Unit-level confusion sampling (classification always; tagging for
    /// spammers/adversaries, applied token-wise).
    Unit(ConfusionAnnotator),
    /// Structured NER error model (reliable tagging annotators and clique
    /// leaders on tagging tasks).
    Seq(NerAnnotator),
    /// Span-level entity-type pair swapping (tagging pair confusers).
    PairSwapSeq { ty_a: usize, ty_b: usize, swap_prob: f32 },
    /// Copies the leader's noisy stream (colluding clique followers).
    Copy { leader: usize },
}

/// A pool of scenario annotators: compiled behaviours plus workload
/// propensities, with the archetype of every member kept for inspection.
#[derive(Debug, Clone)]
pub struct ScenarioPool {
    behaviours: Vec<Behaviour>,
    /// Archetype each annotator was compiled from, in index order.
    pub archetypes: Vec<Archetype>,
    /// Unnormalised workload propensity per annotator.
    pub propensity: Vec<f32>,
}

impl ScenarioPool {
    /// Compiles an archetype mix into `num_annotators` concrete annotators.
    /// `mix` holds `(archetype, fraction)` entries; fractions are
    /// normalised and rounded to counts by largest remainder, so every
    /// positive-fraction archetype with enough pool share gets at least its
    /// floor.  Each [`Archetype::Colluding`] entry forms **one** clique.
    pub fn generate(
        task: TaskKind,
        num_classes: usize,
        mix: &[(Archetype, f32)],
        num_annotators: usize,
        propensity: PropensityProfile,
        rng: &mut TensorRng,
    ) -> Self {
        assert!(num_annotators > 0, "need at least one annotator");
        assert!(!mix.is_empty(), "archetype mix must not be empty");
        assert!(mix.iter().all(|&(_, f)| f >= 0.0), "mix fractions must be non-negative");
        let counts = largest_remainder_counts(mix, num_annotators);

        let mut behaviours = Vec::with_capacity(num_annotators);
        let mut archetypes = Vec::with_capacity(num_annotators);
        for (&(archetype, _), &count) in mix.iter().zip(&counts) {
            let clique_leader = behaviours.len();
            for slot in 0..count {
                let behaviour = match archetype {
                    Archetype::Colluding if slot > 0 => Behaviour::Copy { leader: clique_leader },
                    Archetype::Colluding => leader_behaviour(task, num_classes, rng),
                    Archetype::Reliable { accuracy } => reliable_behaviour(task, num_classes, accuracy, rng),
                    Archetype::PairConfuser { class_a, class_b, swap_prob } if task == TaskKind::SequenceTagging => {
                        assert!(
                            class_a < NUM_ENTITY_TYPES && class_b < NUM_ENTITY_TYPES && class_a != class_b,
                            "pair-confuser entity types out of range"
                        );
                        Behaviour::PairSwapSeq { ty_a: class_a, ty_b: class_b, swap_prob }
                    }
                    other => Behaviour::Unit(ConfusionAnnotator::new(other.confusion(num_classes))),
                };
                behaviours.push(behaviour);
                archetypes.push(archetype);
            }
        }
        let propensity = propensity.weights(behaviours.len(), rng);
        Self { behaviours, archetypes, propensity }
    }

    /// Number of annotators.
    pub fn len(&self) -> usize {
        self.behaviours.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.behaviours.is_empty()
    }

    /// Selects `count` distinct annotators biased by propensity (uniform
    /// fallback over the remainder once positive weights run out).
    pub fn select(&self, count: usize, rng: &mut TensorRng) -> Vec<usize> {
        select_weighted_distinct(&self.propensity, count, rng)
    }

    /// Labels one instance: every selected annotator reports its noisy
    /// labels for the gold sequence.  Colluding followers reproduce their
    /// leader's stream for this instance exactly (the leader's labels are
    /// generated once per instance, whether or not the leader itself is
    /// selected).
    pub fn annotate_instance(&self, selected: &[usize], gold: &[usize], rng: &mut TensorRng) -> Vec<CrowdLabel> {
        let any_follower = selected.iter().any(|&a| matches!(self.behaviours[a], Behaviour::Copy { .. }));
        if !any_follower {
            // fast path (no colluding follower selected): no stream is read
            // twice, so nothing needs caching
            return selected
                .iter()
                .map(|&annotator| CrowdLabel { annotator, labels: self.base_labels(annotator, gold, rng) })
                .collect();
        }
        // a leader's stream may be read several times (its own selection
        // plus every selected follower); generate each stream once
        let mut cache: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        selected
            .iter()
            .map(|&annotator| {
                let source = match self.behaviours[annotator] {
                    Behaviour::Copy { leader } => leader,
                    _ => annotator,
                };
                if let std::collections::btree_map::Entry::Vacant(slot) = cache.entry(source) {
                    slot.insert(self.base_labels(source, gold, rng));
                }
                CrowdLabel { annotator, labels: cache[&source].clone() }
            })
            .collect()
    }

    fn base_labels(&self, annotator: usize, gold: &[usize], rng: &mut TensorRng) -> Vec<usize> {
        match &self.behaviours[annotator] {
            Behaviour::Unit(confusion) => confusion.annotate_sequence(gold, rng),
            Behaviour::Seq(ner) => ner.annotate(gold, rng),
            Behaviour::PairSwapSeq { ty_a, ty_b, swap_prob } => pair_swap_sequence(gold, *ty_a, *ty_b, *swap_prob, rng),
            Behaviour::Copy { .. } => unreachable!("collusion leaders are never Copy behaviours"),
        }
    }
}

fn reliable_behaviour(task: TaskKind, num_classes: usize, accuracy: f32, rng: &mut TensorRng) -> Behaviour {
    match task {
        // sampled (Dirichlet-perturbed) confusions so pools have realistic spread
        TaskKind::Classification => Behaviour::Unit(ConfusionAnnotator::sample(num_classes, accuracy, 1.0, rng)),
        TaskKind::SequenceTagging => {
            let quality = (accuracy + rng.uniform_range(-0.08, 0.08)).clamp(0.05, 0.95);
            Behaviour::Seq(NerAnnotator::new(NUM_ENTITY_TYPES, NerErrorRates::with_quality(quality)))
        }
    }
}

fn leader_behaviour(task: TaskKind, num_classes: usize, rng: &mut TensorRng) -> Behaviour {
    reliable_behaviour(task, num_classes, COLLUSION_LEADER_ACCURACY, rng)
}

/// Swaps entity types `ty_a <-> ty_b` span-wise with probability
/// `swap_prob`, preserving span boundaries and BIO structure.
fn pair_swap_sequence(gold: &[usize], ty_a: usize, ty_b: usize, swap_prob: f32, rng: &mut TensorRng) -> Vec<usize> {
    let mut out = gold.to_vec();
    for (start, end, ty) in gold_spans(gold) {
        let new_ty = if ty == ty_a {
            ty_b
        } else if ty == ty_b {
            ty_a
        } else {
            continue;
        };
        if rng.bernoulli(swap_prob) {
            out[start] = 1 + 2 * new_ty;
            for slot in out.iter_mut().take(end).skip(start + 1) {
                *slot = 2 + 2 * new_ty;
            }
        }
    }
    out
}

/// Rounds normalised mix fractions to integer counts summing to `total`
/// (largest-remainder method; ties keep mix order).
fn largest_remainder_counts(mix: &[(Archetype, f32)], total: usize) -> Vec<usize> {
    let sum: f32 = mix.iter().map(|&(_, f)| f).sum();
    assert!(sum > 0.0, "archetype mix fractions must not all be zero");
    let exact: Vec<f32> = mix.iter().map(|&(_, f)| f / sum * total as f32).collect();
    let mut counts: Vec<usize> = exact.iter().map(|&e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..mix.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = exact[a] - exact[a].floor();
        let rb = exact[b] - exact[b].floor();
        rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    // the deficit equals the integer sum of the fractional parts, which is
    // strictly below mix.len(), so one pass over `order` always drains it
    let deficit = total - counts.iter().sum::<usize>().min(total);
    for &i in order.iter().take(deficit) {
        counts[i] += 1;
    }
    debug_assert_eq!(counts.iter().sum::<usize>(), total);
    counts
}

/// Full description of one simulated crowd scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Human-readable scenario name (used in sweep reports).
    pub name: String,
    /// Task kind the scenario generates data for.
    pub task: TaskKind,
    /// Number of training instances.
    pub train_size: usize,
    /// Number of development instances.
    pub dev_size: usize,
    /// Number of test instances.
    pub test_size: usize,
    /// Number of annotators in the pool.
    pub num_annotators: usize,
    /// Minimum annotators per training instance (redundancy floor).
    pub min_labels_per_instance: usize,
    /// Maximum annotators per training instance (redundancy ceiling).
    pub max_labels_per_instance: usize,
    /// Archetype mix as `(archetype, fraction)` entries.
    pub mix: Vec<(Archetype, f32)>,
    /// Workload propensity profile.
    pub propensity: PropensityProfile,
    /// Class imbalance: for classification the prior probability of class
    /// `0`; for tagging the sampling weight of entity type `0` (the
    /// remaining types share the rest uniformly).  `0.5` / `0.25` are the
    /// balanced settings.
    pub majority_share: f32,
    /// Number of neutral filler words in the sentiment vocabulary
    /// (ignored for tagging).
    pub filler_vocab: usize,
    /// Temporal drift of every annotator's error rate over their own label
    /// stream ([`DriftSchedule::Static`] reproduces the static generator
    /// bitwise).
    pub drift: DriftSchedule,
    /// Instance-difficulty-conditioned correlated error (the degenerate
    /// `strength == 0` model reproduces the static generator bitwise).
    pub difficulty: DifficultyModel,
    /// RNG seed.
    pub seed: u64,
}

impl ScenarioConfig {
    /// A balanced classification scenario with a clean pool (override the
    /// knobs with the `with_*` builders).
    pub fn classification(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            task: TaskKind::Classification,
            train_size: 300,
            dev_size: 100,
            test_size: 100,
            num_annotators: 20,
            min_labels_per_instance: 3,
            max_labels_per_instance: 5,
            mix: vec![(Archetype::reliable(), 1.0)],
            propensity: PropensityProfile::LongTail,
            majority_share: 0.5,
            filler_vocab: 60,
            drift: DriftSchedule::Static,
            difficulty: DifficultyModel::default(),
            seed: 29,
        }
    }

    /// A balanced sequence-tagging scenario with a clean pool.
    pub fn tagging(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            task: TaskKind::SequenceTagging,
            train_size: 200,
            dev_size: 60,
            test_size: 60,
            num_annotators: 15,
            min_labels_per_instance: 2,
            max_labels_per_instance: 4,
            mix: vec![(Archetype::reliable(), 1.0)],
            propensity: PropensityProfile::LongTail,
            majority_share: 0.25,
            filler_vocab: 0,
            drift: DriftSchedule::Static,
            difficulty: DifficultyModel::default(),
            seed: 31,
        }
    }

    /// A very small configuration for unit/integration tests.
    pub fn tiny(task: TaskKind) -> Self {
        let base = match task {
            TaskKind::Classification => Self::classification("tiny"),
            TaskKind::SequenceTagging => Self::tagging("tiny"),
        };
        Self { train_size: 60, dev_size: 20, test_size: 20, num_annotators: 8, filler_vocab: 20, ..base }
    }

    /// Replaces the scenario name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the split sizes.
    pub fn with_sizes(mut self, train: usize, dev: usize, test: usize) -> Self {
        self.train_size = train;
        self.dev_size = dev;
        self.test_size = test;
        self
    }

    /// Sets the annotator pool size.
    pub fn with_annotators(mut self, num_annotators: usize) -> Self {
        self.num_annotators = num_annotators;
        self
    }

    /// Sets the per-instance redundancy range.
    pub fn with_redundancy(mut self, min: usize, max: usize) -> Self {
        self.min_labels_per_instance = min;
        self.max_labels_per_instance = max;
        self
    }

    /// Sets the archetype mix.
    pub fn with_mix(mut self, mix: Vec<(Archetype, f32)>) -> Self {
        self.mix = mix;
        self
    }

    /// Sets the propensity profile.
    pub fn with_propensity(mut self, propensity: PropensityProfile) -> Self {
        self.propensity = propensity;
        self
    }

    /// Sets the class-imbalance knob (see [`ScenarioConfig::majority_share`]).
    pub fn with_majority_share(mut self, share: f32) -> Self {
        self.majority_share = share;
        self
    }

    /// Sets the temporal drift schedule (see [`DriftSchedule`]).
    pub fn with_drift(mut self, drift: DriftSchedule) -> Self {
        self.drift = drift;
        self
    }

    /// Sets the instance-difficulty model (see [`DifficultyModel`]).
    pub fn with_difficulty(mut self, difficulty: DifficultyModel) -> Self {
        self.difficulty = difficulty;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of classes `K` of the generated dataset.
    pub fn num_classes(&self) -> usize {
        match self.task {
            TaskKind::Classification => 2,
            TaskKind::SequenceTagging => NUM_BIO_CLASSES,
        }
    }

    /// FNV-1a hash over every knob that influences [`generate_scenario`].
    /// The `name` is a display label and deliberately excluded, so two
    /// configurations that generate the same dataset under different names
    /// hash alike.
    pub fn content_hash(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix_in = |v: u64| {
            hash ^= v;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix_in(match self.task {
            TaskKind::Classification => 0,
            TaskKind::SequenceTagging => 1,
        });
        for size in [self.train_size, self.dev_size, self.test_size, self.num_annotators] {
            mix_in(size as u64);
        }
        mix_in(self.min_labels_per_instance as u64);
        mix_in(self.max_labels_per_instance as u64);
        for (archetype, fraction) in &self.mix {
            let (tag, params): (u64, [u32; 3]) = match *archetype {
                Archetype::Reliable { accuracy } => (0, [accuracy.to_bits(), 0, 0]),
                Archetype::Spammer => (1, [0, 0, 0]),
                Archetype::Adversarial { flip } => (2, [flip.to_bits(), 0, 0]),
                Archetype::PairConfuser { class_a, class_b, swap_prob } => {
                    (3, [class_a as u32, class_b as u32, swap_prob.to_bits()])
                }
                Archetype::Colluding => (4, [0, 0, 0]),
            };
            mix_in(tag);
            for p in params {
                mix_in(p as u64);
            }
            mix_in(fraction.to_bits() as u64);
        }
        mix_in(match self.propensity {
            PropensityProfile::Uniform => 0,
            PropensityProfile::LongTail => 1,
        });
        mix_in(self.majority_share.to_bits() as u64);
        mix_in(self.filler_vocab as u64);
        let (drift_tag, drift_params): (u64, [u32; 2]) = match self.drift {
            DriftSchedule::Static => (0, [0, 0]),
            DriftSchedule::LinearFatigue { rate } => (1, [rate.to_bits(), 0]),
            DriftSchedule::StepChange { at, level } => (2, [at.to_bits(), level.to_bits()]),
            DriftSchedule::LearningCurve { rate } => (3, [rate.to_bits(), 0]),
        };
        mix_in(drift_tag);
        for p in drift_params {
            mix_in(p as u64);
        }
        mix_in(self.difficulty.strength.to_bits() as u64);
        mix_in(self.difficulty.concentration.to_bits() as u64);
        // where an (always unset) collection plan used to hash; kept so
        // every existing hash stays put
        mix_in(0);
        mix_in(self.seed);
        hash
    }
}

/// Applies the temporal corruption layer (drift + instance difficulty) to
/// one instance's crowd labels, in label order.
///
/// Each annotator's corruption probability combines their drift schedule at
/// their *own* stream position (`stream_pos[annotator] / horizon`) with the
/// instance's difficulty-conditioned corruption; a corrupted unit is
/// replaced by a uniformly random class.  Colluding followers corrupt
/// independently of their leader — fatigue is personal even inside a
/// clique.  When no corruption can occur (static drift and degenerate
/// difficulty) the function returns without touching `rng`, which is what
/// keeps the degenerate configurations bitwise identical to the static
/// generator.
fn apply_temporal_noise(
    crowd_labels: &mut [CrowdLabel],
    drift: DriftSchedule,
    difficulty: DifficultyModel,
    stream_pos: &[usize],
    horizon: f32,
    num_classes: usize,
    rng: &mut TensorRng,
) {
    let difficulty_p = if difficulty.is_degenerate() { 0.0 } else { difficulty.strength * difficulty.hardness(rng) };
    if drift.is_static() && difficulty_p == 0.0 {
        return;
    }
    for cl in crowd_labels.iter_mut() {
        let progress = stream_pos[cl.annotator] as f32 / horizon;
        let drift_p = drift.corruption_at(progress);
        // independent corruption sources combine through their complements
        let p = 1.0 - (1.0 - drift_p) * (1.0 - difficulty_p);
        if p <= 0.0 {
            continue;
        }
        for label in cl.labels.iter_mut() {
            if rng.bernoulli(p) {
                *label = rng.usize_below(num_classes);
            }
        }
    }
}

/// The compiled annotator pool of a configuration — the same pool, drawn
/// from the same forked RNG stream, that [`generate_scenario`] labels with.
/// Lets tests and diagnostics inspect archetypes and
/// propensities without regenerating (or trusting) the dataset.
pub fn scenario_pool(config: &ScenarioConfig) -> ScenarioPool {
    let mut master = TensorRng::seed_from_u64(config.seed);
    let _text_rng = master.fork(); // gold-text stream, unused here
    let mut pool_rng = master.fork();
    ScenarioPool::generate(
        config.task,
        config.num_classes(),
        &config.mix,
        config.num_annotators,
        config.propensity,
        &mut pool_rng,
    )
}

/// Gold-text sampler per task.
enum TextModel {
    Sent { text: SentimentTextModel, zero_share: f32 },
    Ner(NerTextModel),
}

impl TextModel {
    fn sentence(&self, rng: &mut TensorRng) -> (Vec<usize>, Vec<usize>) {
        match self {
            TextModel::Sent { text, zero_share } => {
                let label = if rng.bernoulli(*zero_share) { 0 } else { 1 };
                (text.sentence(label, rng), vec![label])
            }
            TextModel::Ner(text) => text.sentence(rng),
        }
    }
}

/// Generates the dataset described by a [`ScenarioConfig`].
///
/// Four independent RNG streams are forked from the seed — gold text,
/// pool compilation, crowd assignment/annotation, and temporal corruption
/// (drift / difficulty) — so two configs sharing a seed, task, sizes and
/// imbalance draw the **same gold corpus** no matter how their pools,
/// mixes, redundancies or temporal knobs differ.  Cross-scenario
/// comparisons (the redundancy-monotonicity and spammer-dilution
/// properties, sweep rankings, static-vs-drifted ranking flips) therefore
/// vary only the crowd condition, never the underlying corpus.  Because the
/// temporal stream is separate, a config whose drift is
/// [`DriftSchedule::Static`] (or rate `0`) and whose difficulty is
/// degenerate reproduces the pre-temporal generator **bitwise**.
pub fn generate_scenario(config: &ScenarioConfig) -> CrowdDataset {
    assert!(config.num_annotators >= config.max_labels_per_instance, "annotator pool smaller than labels per instance");
    assert!(config.min_labels_per_instance >= 1 && config.min_labels_per_instance <= config.max_labels_per_instance);
    assert!((0.0..=1.0).contains(&config.majority_share), "majority_share must be in [0, 1]");
    if let Err(message) = config.drift.validate() {
        panic!("invalid drift schedule for scenario {:?}: {message}", config.name);
    }
    if let Err(message) = config.difficulty.validate() {
        panic!("invalid difficulty model for scenario {:?}: {message}", config.name);
    }
    let num_classes = config.num_classes();
    let mut master = TensorRng::seed_from_u64(config.seed);
    let mut text_rng = master.fork();
    let mut pool_rng = master.fork();
    let mut crowd_rng = master.fork();
    // temporal corruption (drift + difficulty) draws from its own stream,
    // so configurations that never corrupt — `DriftSchedule::Static` /
    // degenerate difficulty — reproduce the static generator bitwise
    let mut temporal_rng = master.fork();
    let pool = ScenarioPool::generate(
        config.task,
        num_classes,
        &config.mix,
        config.num_annotators,
        config.propensity,
        &mut pool_rng,
    );
    let text_model = match config.task {
        TaskKind::Classification => TextModel::Sent {
            text: SentimentTextModel::new(config.filler_vocab.max(1), 0.30, 0.10, 0.6),
            zero_share: config.majority_share,
        },
        TaskKind::SequenceTagging => {
            let w0 = config.majority_share;
            let rest = (1.0 - w0) / (NUM_ENTITY_TYPES - 1) as f32;
            let mut weights = [rest; NUM_ENTITY_TYPES];
            weights[0] = w0;
            TextModel::Ner(NerTextModel::with_type_weights(weights))
        }
    };
    // expected instances each annotator labels — the normaliser that turns
    // an annotator's absolute stream position into drift "progress"
    let avg_redundancy = (config.min_labels_per_instance + config.max_labels_per_instance) as f32 / 2.0;
    let drift_horizon = (config.train_size as f32 * avg_redundancy / config.num_annotators as f32).max(1.0);
    let mut stream_pos = vec![0usize; config.num_annotators];

    let mut train = Vec::with_capacity(config.train_size);
    for _ in 0..config.train_size {
        let (tokens, gold) = text_model.sentence(&mut text_rng);
        let span = config.max_labels_per_instance - config.min_labels_per_instance + 1;
        let count = config.min_labels_per_instance + crowd_rng.usize_below(span);
        let selected = pool.select(count, &mut crowd_rng);
        let mut crowd_labels = pool.annotate_instance(&selected, &gold, &mut crowd_rng);
        apply_temporal_noise(
            &mut crowd_labels,
            config.drift,
            config.difficulty,
            &stream_pos,
            drift_horizon,
            num_classes,
            &mut temporal_rng,
        );
        for cl in &crowd_labels {
            stream_pos[cl.annotator] += 1;
        }
        train.push(Instance { tokens, gold, crowd_labels });
    }

    let mut make_eval = |size: usize| -> Vec<Instance> {
        (0..size)
            .map(|_| {
                let (tokens, gold) = text_model.sentence(&mut text_rng);
                Instance { tokens, gold, crowd_labels: Vec::new() }
            })
            .collect()
    };
    let dev = make_eval(config.dev_size);
    let test = make_eval(config.test_size);

    let (vocab, class_names, but_token, however_token) = match &text_model {
        TextModel::Sent { text, .. } => (
            text.vocab().to_vec(),
            vec!["NEG".to_string(), "POS".to_string()],
            Some(text.but_token()),
            Some(text.however_token()),
        ),
        TextModel::Ner(text) => (text.vocab().to_vec(), bio_class_names(), None, None),
    };

    let dataset = CrowdDataset {
        task: config.task,
        num_classes,
        num_annotators: config.num_annotators,
        vocab,
        class_names,
        train,
        dev,
        test,
        but_token,
        however_token,
    };
    #[cfg(debug_assertions)]
    if let Err(message) = dataset.validate() {
        panic!("generate_scenario({:?}) produced an invalid dataset: {message}", config.name);
    }
    dataset
}

/// The named archetype mixes the `scenario_sweep` binary and the robustness
/// suite run: from a clean pool to a fully hostile one.
pub fn standard_mixes() -> Vec<(&'static str, Vec<(Archetype, f32)>)> {
    vec![
        ("clean", vec![(Archetype::reliable(), 1.0)]),
        ("spammer-third", vec![(Archetype::Reliable { accuracy: 0.8 }, 0.65), (Archetype::Spammer, 0.35)]),
        ("adversarial-quarter", vec![(Archetype::Reliable { accuracy: 0.8 }, 0.75), (Archetype::adversarial(), 0.25)]),
        ("pair-confusers", vec![(Archetype::reliable(), 0.6), (Archetype::pair_confuser(), 0.4)]),
        ("colluding-clique", vec![(Archetype::Reliable { accuracy: 0.8 }, 0.7), (Archetype::Colluding, 0.3)]),
        (
            "anarchy",
            vec![
                (Archetype::Reliable { accuracy: 0.75 }, 0.4),
                (Archetype::Spammer, 0.2),
                (Archetype::adversarial(), 0.2),
                (Archetype::pair_confuser(), 0.2),
            ],
        ),
    ]
}

/// A cartesian sweep over scenario knobs: every combination of mix,
/// redundancy range, pool size and imbalance applied to a base
/// configuration.
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    /// Base configuration supplying the task, sizes and seed.
    pub base: ScenarioConfig,
    /// Archetype mixes to sweep (name + mix).
    pub mixes: Vec<(String, Vec<(Archetype, f32)>)>,
    /// Redundancy ranges to sweep.
    pub redundancies: Vec<(usize, usize)>,
    /// Pool sizes to sweep.
    pub annotator_counts: Vec<usize>,
    /// Imbalance settings to sweep.
    pub majority_shares: Vec<f32>,
    /// Drift schedules to sweep (name + schedule).  Scenario names only
    /// grow a `/<name>` segment when the axis departs from the static
    /// default, so pre-temporal grids keep their historical names.
    pub drifts: Vec<(String, DriftSchedule)>,
    /// Difficulty models to sweep (name + model), same naming rule.
    pub difficulties: Vec<(String, DifficultyModel)>,
}

impl ScenarioGrid {
    /// A grid holding just the base configuration's axes.
    pub fn new(base: ScenarioConfig) -> Self {
        let mixes = vec![("base".to_string(), base.mix.clone())];
        let redundancies = vec![(base.min_labels_per_instance, base.max_labels_per_instance)];
        let annotator_counts = vec![base.num_annotators];
        let majority_shares = vec![base.majority_share];
        let drifts = vec![(base.drift.name().to_string(), base.drift)];
        let difficulties = vec![("flat".to_string(), base.difficulty)];
        Self { base, mixes, redundancies, annotator_counts, majority_shares, drifts, difficulties }
    }

    /// Sweeps the standard archetype mixes (see [`standard_mixes`]).
    pub fn with_standard_mixes(mut self) -> Self {
        self.mixes = standard_mixes().into_iter().map(|(n, m)| (n.to_string(), m)).collect();
        self
    }

    /// Sweeps the given redundancy ranges.
    pub fn with_redundancies(mut self, redundancies: Vec<(usize, usize)>) -> Self {
        self.redundancies = redundancies;
        self
    }

    /// Sweeps the given pool sizes.
    pub fn with_annotator_counts(mut self, counts: Vec<usize>) -> Self {
        self.annotator_counts = counts;
        self
    }

    /// Sweeps the given imbalance settings.
    pub fn with_majority_shares(mut self, shares: Vec<f32>) -> Self {
        self.majority_shares = shares;
        self
    }

    /// Sweeps the given drift schedules.
    pub fn with_drifts(mut self, drifts: Vec<(String, DriftSchedule)>) -> Self {
        self.drifts = drifts;
        self
    }

    /// Sweeps the given difficulty models.
    pub fn with_difficulties(mut self, difficulties: Vec<(String, DifficultyModel)>) -> Self {
        self.difficulties = difficulties;
        self
    }

    /// Materialises every configuration of the grid, with descriptive
    /// names like `sent/spammer-third/r3-5/j20/b0.50` (plus `/<drift>` /
    /// `/<difficulty>` segments when those axes are actually swept).
    pub fn configs(&self) -> Vec<ScenarioConfig> {
        let task_tag = match self.base.task {
            TaskKind::Classification => "sent",
            TaskKind::SequenceTagging => "ner",
        };
        // only name the temporal segments when the axis departs from the
        // static default, so pre-temporal grids keep their historical names
        let name_drift = self.drifts.len() > 1 || self.drifts.iter().any(|(_, d)| !d.is_static());
        let name_difficulty = self.difficulties.len() > 1 || self.difficulties.iter().any(|(_, d)| !d.is_degenerate());
        let mut out = Vec::new();
        for (mix_name, mix) in &self.mixes {
            for &(min_r, max_r) in &self.redundancies {
                for &count in &self.annotator_counts {
                    for &share in &self.majority_shares {
                        for (drift_name, drift) in &self.drifts {
                            for (difficulty_name, difficulty) in &self.difficulties {
                                let mut name = format!("{task_tag}/{mix_name}/r{min_r}-{max_r}/j{count}/b{share:.2}");
                                if name_drift {
                                    name.push_str(&format!("/{drift_name}"));
                                }
                                if name_difficulty {
                                    name.push_str(&format!("/{difficulty_name}"));
                                }
                                out.push(
                                    self.base
                                        .clone()
                                        .named(name)
                                        .with_mix(mix.clone())
                                        .with_redundancy(min_r, max_r)
                                        .with_annotators(count)
                                        .with_majority_share(share)
                                        .with_drift(*drift)
                                        .with_difficulty(*difficulty),
                                );
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::crowd_label_accuracy;

    fn label_accuracy_of(dataset: &CrowdDataset, annotator: usize) -> Option<f32> {
        crate::metrics::annotator_accuracy(&dataset.train, annotator)
    }

    #[test]
    fn scenario_datasets_are_valid_for_both_tasks() {
        for task in [TaskKind::Classification, TaskKind::SequenceTagging] {
            for (name, mix) in standard_mixes() {
                let config = ScenarioConfig::tiny(task).named(name).with_mix(mix);
                let dataset = generate_scenario(&config);
                assert!(dataset.validate().is_ok(), "{task:?}/{name} invalid: {:?}", dataset.validate());
                assert_eq!(dataset.task, task);
                assert_eq!(dataset.train.len(), config.train_size);
            }
        }
    }

    #[test]
    fn generation_is_reproducible_and_seed_sensitive() {
        let config = ScenarioConfig::tiny(TaskKind::Classification).with_mix(standard_mixes()[5].1.clone());
        let a = generate_scenario(&config);
        let b = generate_scenario(&config);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
        let c = generate_scenario(&config.clone().with_seed(999));
        assert_ne!(a.train, c.train);
    }

    #[test]
    fn spammers_carry_no_signal_and_reliables_do() {
        let config = ScenarioConfig::classification("half-spam")
            .with_mix(vec![(Archetype::Reliable { accuracy: 0.9 }, 0.5), (Archetype::Spammer, 0.5)])
            .with_redundancy(6, 8)
            .with_annotators(12)
            .with_propensity(PropensityProfile::Uniform);
        let dataset = generate_scenario(&config);
        let pool = scenario_pool_of(&config);
        let mut spammer_acc = Vec::new();
        let mut reliable_acc = Vec::new();
        for (a, archetype) in pool.archetypes.iter().enumerate() {
            if let Some(acc) = label_accuracy_of(&dataset, a) {
                match archetype {
                    Archetype::Spammer => spammer_acc.push(acc),
                    Archetype::Reliable { .. } => reliable_acc.push(acc),
                    _ => {}
                }
            }
        }
        assert!(!spammer_acc.is_empty() && !reliable_acc.is_empty());
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!((mean(&spammer_acc) - 0.5).abs() < 0.1, "spammers at chance, got {}", mean(&spammer_acc));
        assert!(mean(&reliable_acc) > 0.8, "reliables accurate, got {}", mean(&reliable_acc));
    }

    /// Rebuilds the pool a config would generate (same RNG position).
    fn scenario_pool_of(config: &ScenarioConfig) -> ScenarioPool {
        // the public accessor replays generate_scenario's fork discipline,
        // so the archetypes seen here are exactly the dataset's
        scenario_pool(config)
    }

    #[test]
    fn adversaries_are_anti_correlated() {
        let config = ScenarioConfig::classification("adv")
            .with_mix(vec![(Archetype::Adversarial { flip: 0.9 }, 1.0)])
            .with_redundancy(4, 4)
            .with_annotators(8)
            .with_propensity(PropensityProfile::Uniform);
        let dataset = generate_scenario(&config);
        let acc = crowd_label_accuracy(&dataset);
        assert!(acc < 0.2, "adversarial crowd should be mostly wrong, got {acc}");
    }

    #[test]
    fn pair_confuser_swaps_only_the_pair_on_tagging() {
        let config = ScenarioConfig::tagging("pair")
            .with_mix(vec![(Archetype::PairConfuser { class_a: 0, class_b: 1, swap_prob: 1.0 }, 1.0)])
            .with_redundancy(2, 2)
            .with_annotators(4)
            .with_sizes(40, 5, 5);
        let dataset = generate_scenario(&config);
        for inst in &dataset.train {
            let gold = gold_spans(&inst.gold);
            for cl in &inst.crowd_labels {
                let noisy = gold_spans(&cl.labels);
                assert_eq!(gold.len(), noisy.len(), "span structure preserved");
                for ((gs, ge, gt), (ns, ne, nt)) in gold.iter().zip(&noisy) {
                    assert_eq!((gs, ge), (ns, ne), "boundaries preserved");
                    let expected = match gt {
                        0 => 1,
                        1 => 0,
                        other => *other,
                    };
                    assert_eq!(*nt, expected, "PER<->LOC swapped, others untouched");
                }
            }
        }
    }

    #[test]
    fn colluding_followers_copy_the_leader_stream() {
        let config = ScenarioConfig::classification("collusion")
            .with_mix(vec![(Archetype::Colluding, 1.0)])
            .with_redundancy(6, 6)
            .with_annotators(6)
            .with_propensity(PropensityProfile::Uniform)
            .with_sizes(50, 5, 5);
        let dataset = generate_scenario(&config);
        for inst in &dataset.train {
            // redundancy == pool size: the whole clique labels every instance
            assert_eq!(inst.crowd_labels.len(), 6);
            let first = &inst.crowd_labels[0].labels;
            for cl in &inst.crowd_labels {
                assert_eq!(&cl.labels, first, "clique members must agree exactly");
            }
        }
    }

    #[test]
    fn long_tail_propensity_is_skewed_and_uniform_is_not() {
        let mut rng = TensorRng::seed_from_u64(3);
        let uniform = PropensityProfile::Uniform.weights(50, &mut rng);
        assert!(uniform.iter().all(|&w| (w - 1.0).abs() < 1e-6));
        let tail = PropensityProfile::LongTail.weights(200, &mut rng);
        let max = tail.iter().cloned().fold(0.0f32, f32::max);
        let mean = tail.iter().sum::<f32>() / tail.len() as f32;
        assert!(max > 4.0 * mean, "long tail should have dominant annotators: max {max}, mean {mean}");
    }

    #[test]
    fn class_imbalance_shifts_the_gold_prior() {
        let config = ScenarioConfig::classification("skew").with_majority_share(0.9).with_sizes(400, 50, 50);
        let dataset = generate_scenario(&config);
        let zeros = dataset.train.iter().filter(|i| i.gold[0] == 0).count();
        let share = zeros as f32 / dataset.train.len() as f32;
        assert!(share > 0.8, "majority share 0.9 should dominate, got {share}");

        let ner = ScenarioConfig::tagging("skew-ner").with_majority_share(0.85).with_sizes(200, 20, 20);
        let dataset = generate_scenario(&ner);
        let mut per_counts = 0usize;
        let mut total = 0usize;
        for inst in &dataset.train {
            for (_, _, ty) in gold_spans(&inst.gold) {
                total += 1;
                if ty == 0 {
                    per_counts += 1;
                }
            }
        }
        assert!(per_counts as f32 / total as f32 > 0.6, "type 0 should dominate: {per_counts}/{total}");
    }

    #[test]
    fn largest_remainder_counts_sum_to_total() {
        let mix = vec![(Archetype::reliable(), 0.5), (Archetype::Spammer, 0.3), (Archetype::adversarial(), 0.2)];
        for total in [1usize, 3, 7, 10, 23] {
            let counts = largest_remainder_counts(&mix, total);
            assert_eq!(counts.iter().sum::<usize>(), total, "total {total}: {counts:?}");
        }
        // a dominant fraction gets the floor share
        let counts = largest_remainder_counts(&mix, 10);
        assert_eq!(counts[0], 5);
    }

    #[test]
    fn grid_materialises_the_cartesian_product() {
        let grid = ScenarioGrid::new(ScenarioConfig::tiny(TaskKind::Classification))
            .with_standard_mixes()
            .with_redundancies(vec![(1, 1), (3, 5)])
            .with_majority_shares(vec![0.5, 0.8]);
        let configs = grid.configs();
        assert_eq!(configs.len(), 6 * 2 * 2);
        let names: std::collections::BTreeSet<_> = configs.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names.len(), configs.len(), "grid names must be unique");
        assert!(names.iter().all(|n| n.starts_with("sent/")));
    }

    #[test]
    fn content_hash_ignores_the_name_and_tracks_every_knob() {
        let base = ScenarioConfig::tiny(TaskKind::Classification);
        assert_eq!(base.content_hash(), base.clone().named("other-label").content_hash());
        let variants = [
            base.clone().with_seed(999),
            base.clone().with_annotators(9),
            base.clone().with_redundancy(1, 1),
            base.clone().with_majority_share(0.9),
            base.clone().with_propensity(PropensityProfile::Uniform),
            base.clone().with_mix(vec![(Archetype::Spammer, 1.0)]),
            base.clone().with_mix(vec![(Archetype::Reliable { accuracy: 0.7 }, 1.0)]),
            base.clone().with_sizes(61, 20, 20),
            ScenarioConfig::tiny(TaskKind::SequenceTagging).named("tiny"),
        ];
        for (i, variant) in variants.iter().enumerate() {
            assert_ne!(base.content_hash(), variant.content_hash(), "variant {i} should hash differently");
        }
    }

    #[test]
    fn degenerate_configs_generate_valid_datasets() {
        // single annotator, redundancy 1, tiny vocabulary
        let config =
            ScenarioConfig::classification("degenerate").with_annotators(1).with_redundancy(1, 1).with_sizes(10, 4, 4);
        let config = ScenarioConfig { filler_vocab: 1, ..config };
        let dataset = generate_scenario(&config);
        assert!(dataset.validate().is_ok());
        assert!(dataset.train.iter().all(|i| i.num_annotations() == 1));
    }

    // -- temporal axes -----------------------------------------------------

    #[test]
    fn drift_rate_zero_is_bitwise_identical_to_static() {
        for task in [TaskKind::Classification, TaskKind::SequenceTagging] {
            let base = ScenarioConfig::tiny(task).with_mix(standard_mixes()[1].1.clone());
            let reference = generate_scenario(&base);
            for drift in [
                DriftSchedule::Static,
                DriftSchedule::LinearFatigue { rate: 0.0 },
                DriftSchedule::StepChange { at: 0.3, level: 0.0 },
                DriftSchedule::LearningCurve { rate: 0.0 },
            ] {
                let drifted = generate_scenario(&base.clone().with_drift(drift));
                assert_eq!(reference.train, drifted.train, "{task:?}/{drift:?} must be bitwise static");
                assert_eq!(reference.dev, drifted.dev);
                assert_eq!(reference.test, drifted.test);
            }
        }
    }

    #[test]
    fn degenerate_difficulty_is_bitwise_identical_to_static() {
        for task in [TaskKind::Classification, TaskKind::SequenceTagging] {
            let base = ScenarioConfig::tiny(task);
            let reference = generate_scenario(&base);
            for concentration in [0.25, 1.0, 8.0] {
                let config = base.clone().with_difficulty(DifficultyModel { strength: 0.0, concentration });
                let degenerate = generate_scenario(&config);
                assert_eq!(reference.train, degenerate.train, "{task:?}/c{concentration} must be bitwise static");
            }
        }
    }

    /// Crowd-label accuracy over an instance-index range of the train split.
    fn range_accuracy(dataset: &CrowdDataset, range: std::ops::Range<usize>) -> f32 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for inst in &dataset.train[range] {
            for cl in &inst.crowd_labels {
                correct += cl.labels.iter().zip(&inst.gold).filter(|(a, b)| a == b).count();
                total += inst.gold.len();
            }
        }
        correct as f32 / total.max(1) as f32
    }

    #[test]
    fn fatigue_degrades_the_late_stream_and_learning_the_early_one() {
        let base = ScenarioConfig::classification("drift")
            .with_sizes(300, 10, 10)
            .with_propensity(PropensityProfile::Uniform)
            .with_redundancy(4, 4)
            .with_annotators(8);
        let half = 150;
        let fatigued = generate_scenario(&base.clone().with_drift(DriftSchedule::LinearFatigue { rate: 0.9 }));
        let early = range_accuracy(&fatigued, 0..half);
        let late = range_accuracy(&fatigued, half..300);
        assert!(early > late + 0.1, "fatigue must degrade the late stream: early {early}, late {late}");

        let learning = generate_scenario(&base.with_drift(DriftSchedule::LearningCurve { rate: 0.9 }));
        let early = range_accuracy(&learning, 0..half);
        let late = range_accuracy(&learning, half..300);
        assert!(late > early + 0.1, "a learning curve must improve the late stream: early {early}, late {late}");
    }

    #[test]
    fn step_change_switches_abruptly_at_the_breakpoint() {
        let config = ScenarioConfig::classification("step")
            .with_sizes(400, 10, 10)
            .with_propensity(PropensityProfile::Uniform)
            .with_redundancy(4, 4)
            .with_annotators(8)
            .with_drift(DriftSchedule::StepChange { at: 0.5, level: 0.95 });
        let dataset = generate_scenario(&config);
        let before = range_accuracy(&dataset, 0..160);
        let after = range_accuracy(&dataset, 240..400);
        assert!(before > 0.8, "pre-break stream is clean: {before}");
        assert!(after < 0.65, "post-break stream is near-spam: {after}");
    }

    #[test]
    fn difficulty_conditioning_correlates_errors_across_annotators() {
        // per-instance error counts: difficulty conditioning concentrates
        // the errors of ALL annotators on the same (hard) instances, so the
        // variance of the per-instance error count is far above the
        // independent-error (static) case
        let base = ScenarioConfig::classification("difficulty")
            .with_sizes(400, 10, 10)
            .with_propensity(PropensityProfile::Uniform)
            .with_redundancy(10, 10)
            .with_annotators(10);
        let errors_per_instance = |dataset: &CrowdDataset| -> Vec<f32> {
            dataset
                .train
                .iter()
                .map(|inst| inst.crowd_labels.iter().filter(|cl| cl.labels != inst.gold).count() as f32)
                .collect()
        };
        let variance = |v: &[f32]| {
            let mean = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / v.len() as f32
        };
        let static_errors = errors_per_instance(&generate_scenario(&base));
        let conditioned =
            generate_scenario(&base.with_difficulty(DifficultyModel { strength: 1.0, concentration: 1.0 }));
        let conditioned_errors = errors_per_instance(&conditioned);
        assert!(
            variance(&conditioned_errors) > 1.8 * variance(&static_errors),
            "difficulty conditioning must overdisperse per-instance errors: static {}, conditioned {}",
            variance(&static_errors),
            variance(&conditioned_errors)
        );
    }

    #[test]
    #[should_panic(expected = "drift rate must be a probability")]
    fn negative_drift_rate_is_rejected_with_a_real_message() {
        let config =
            ScenarioConfig::tiny(TaskKind::Classification).with_drift(DriftSchedule::LinearFatigue { rate: -0.5 });
        let _ = generate_scenario(&config);
    }

    #[test]
    #[should_panic(expected = "difficulty concentration must be positive")]
    fn zero_difficulty_concentration_is_rejected_with_a_real_message() {
        let config = ScenarioConfig::tiny(TaskKind::Classification)
            .with_difficulty(DifficultyModel { strength: 0.5, concentration: 0.0 });
        let _ = generate_scenario(&config);
    }

    #[test]
    fn content_hash_tracks_the_temporal_knobs() {
        let base = ScenarioConfig::tiny(TaskKind::Classification);
        let variants = [
            base.clone().with_drift(DriftSchedule::LinearFatigue { rate: 0.5 }),
            base.clone().with_drift(DriftSchedule::StepChange { at: 0.5, level: 0.5 }),
            base.clone().with_drift(DriftSchedule::LearningCurve { rate: 0.5 }),
            base.clone().with_difficulty(DifficultyModel { strength: 0.5, concentration: 1.0 }),
            base.clone().with_difficulty(DifficultyModel { strength: 0.0, concentration: 2.0 }),
        ];
        for (i, variant) in variants.iter().enumerate() {
            assert_ne!(base.content_hash(), variant.content_hash(), "temporal variant {i} should hash differently");
        }
    }

    #[test]
    fn grid_names_temporal_segments_only_when_swept() {
        let base = ScenarioConfig::tiny(TaskKind::Classification);
        let plain = ScenarioGrid::new(base.clone()).configs();
        assert!(plain.iter().all(|c| !c.name.contains("static")), "static-only grids keep historical names");
        let swept = ScenarioGrid::new(base)
            .with_drifts(vec![
                ("static".to_string(), DriftSchedule::Static),
                ("step0.7".to_string(), DriftSchedule::StepChange { at: 0.5, level: 0.7 }),
            ])
            .with_difficulties(vec![
                ("flat".to_string(), DifficultyModel::default()),
                ("hard0.6".to_string(), DifficultyModel::with_strength(0.6)),
            ])
            .configs();
        assert_eq!(swept.len(), 4);
        let names: std::collections::BTreeSet<_> = swept.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names.len(), 4, "temporal grid names must be unique: {names:?}");
        assert!(swept.iter().any(|c| c.name.ends_with("/step0.7/hard0.6")));
    }
}
