//! Cross-method robustness & property-test harness.
//!
//! Metamorphic / invariant properties checked for **every**
//! `MethodRegistry::standard()` descriptor, on scenario-generated datasets
//! for both tasks:
//!
//! * **Posterior normalisation** — every method exposing a truth posterior
//!   (`CrowdMethod::infer_posteriors`) returns one `K`-row per unit, entries
//!   in `[0, 1]`, rows summing to 1.
//! * **Annotator-ID permutation invariance** — renumbering annotators (the
//!   per-instance label order kept) leaves every method's metrics
//!   bit-for-bit unchanged: no method may key behaviour on annotator ids.
//! * **Class-relabeling equivariance** — permuting class identities
//!   everywhere leaves aggregation quality unchanged (exact up to argmax
//!   ties for aggregation-only methods, bounded drift for neural methods
//!   whose random initialisation is not class-symmetric).
//! * **Bitwise seed determinism** — running any method twice under the same
//!   `RunContext` seed reproduces identical metrics (the PR-2
//!   "ascending-k" reproducibility contract, end to end).
//! * **One row label, one entry** — no row label is emitted by two registry
//!   entries; rows read from one training (AggNet / `w/o-Rule`,
//!   MV-Classifier / `MV-t`) share its bits.
//! * **Redundancy monotonicity & spammer dilution** — MV/DS accuracy grows
//!   with redundancy on clean pools; Dawid–Skene degrades gracefully when a
//!   third of the pool are uniform spammers.
//!
//! Datasets are deliberately tiny (the suite trains every neural method
//! several times); the properties hold at any scale.

use lncl_crowd::scenario::{generate_scenario, Archetype, PropensityProfile, ScenarioConfig};
use lncl_crowd::{CrowdDataset, TaskKind};
use logic_lncl::method::{Family, MethodRegistry, RunContext};
use logic_lncl::{EvalMetrics, MethodResult, TrainConfig};
use std::sync::OnceLock;

const SEED: u64 = 9;

/// The tiny mixed-pool dataset each full-registry pass runs on.  A pinch of
/// every archetype so the properties are checked under heterogeneous noise,
/// uniform propensity and fixed redundancy 3 (odd, so binary majority votes
/// cannot tie and argmax order cannot leak into the relabeling check).
/// With 6 annotators the fractions round to 2 reliable / 1 spammer /
/// 1 pair-confuser / 2 colluders — the colluding share must map to at
/// least two members (a leader *and* a follower), or no duplicated stream
/// ever reaches the methods under test.
fn property_config(task: TaskKind) -> ScenarioConfig {
    let mix = vec![
        (Archetype::Reliable { accuracy: 0.85 }, 0.34),
        (Archetype::Spammer, 0.16),
        (Archetype::pair_confuser(), 0.16),
        (Archetype::Colluding, 0.34),
    ];
    let base = match task {
        TaskKind::Classification => ScenarioConfig::classification("props-sent").with_sizes(60, 16, 16),
        TaskKind::SequenceTagging => ScenarioConfig::tagging("props-ner").with_sizes(48, 12, 12),
    };
    base.with_annotators(6)
        .with_redundancy(3, 3)
        .with_mix(mix)
        .with_propensity(PropensityProfile::Uniform)
        .with_seed(SEED)
}

fn dataset_of(task: TaskKind) -> CrowdDataset {
    generate_scenario(&property_config(task))
}

fn context_of(dataset: &CrowdDataset) -> RunContext {
    RunContext::for_dataset(dataset, TrainConfig::fast(1).with_seed(SEED))
}

/// Baseline rows of every supporting registry method, computed once per
/// task and shared across the properties (each full pass trains 16 neural
/// entries on sentiment and 15 on NER, so recomputing per test would
/// dominate the suite's runtime).
fn baseline_rows(task: TaskKind) -> &'static Vec<(String, Vec<MethodResult>)> {
    static SENT: OnceLock<Vec<(String, Vec<MethodResult>)>> = OnceLock::new();
    static NER: OnceLock<Vec<(String, Vec<MethodResult>)>> = OnceLock::new();
    let cell = match task {
        TaskKind::Classification => &SENT,
        TaskKind::SequenceTagging => &NER,
    };
    cell.get_or_init(|| {
        let dataset = dataset_of(task);
        let ctx = context_of(&dataset);
        run_all(&MethodRegistry::standard(), &dataset, &ctx)
    })
}

/// Runs every method supporting the dataset's task, keyed by registry name.
fn run_all(registry: &MethodRegistry, dataset: &CrowdDataset, ctx: &RunContext) -> Vec<(String, Vec<MethodResult>)> {
    registry
        .supporting(dataset.task)
        .iter()
        .map(|method| (method.descriptor().name, method.run(dataset, ctx)))
        .collect()
}

fn metric_bits(m: &EvalMetrics) -> [u32; 4] {
    [m.accuracy.to_bits(), m.precision.to_bits(), m.recall.to_bits(), m.f1.to_bits()]
}

/// Flattens result rows into `(row label, metric bits)` for bitwise
/// comparison.
fn row_bits(rows: &[MethodResult]) -> Vec<(String, Vec<u32>)> {
    rows.iter()
        .map(|r| {
            let mut bits: Vec<u32> = metric_bits(&r.prediction).to_vec();
            match &r.inference {
                Some(m) => bits.extend(metric_bits(m)),
                None => bits.push(u32::MAX),
            }
            (r.method.clone(), bits)
        })
        .collect()
}

/// Maximum absolute metric drift between two row sets.  `all_metrics`
/// compares accuracy *and* the span P/R/F1 columns; with it off only the
/// (token) accuracy columns are compared — at the suite's micro scale a
/// one-epoch tagger predicts a handful of spans, making span P/R/F1 pure
/// noise while token accuracy stays stable.
fn max_metric_delta(a: &[MethodResult], b: &[MethodResult], all_metrics: bool) -> f32 {
    assert_eq!(a.len(), b.len(), "row count changed");
    let mut delta = 0.0f32;
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.method, rb.method, "row labels changed");
        let pairs = |x: &EvalMetrics, y: &EvalMetrics| {
            if all_metrics {
                vec![(x.accuracy, y.accuracy), (x.precision, y.precision), (x.recall, y.recall), (x.f1, y.f1)]
            } else {
                vec![(x.accuracy, y.accuracy)]
            }
        };
        for (x, y) in pairs(&ra.prediction, &rb.prediction) {
            delta = delta.max((x - y).abs());
        }
        match (&ra.inference, &rb.inference) {
            (Some(x), Some(y)) => {
                for (x, y) in pairs(x, y) {
                    delta = delta.max((x - y).abs());
                }
            }
            (None, None) => {}
            _ => panic!("inference column presence changed for {}", ra.method),
        }
    }
    delta
}

// ---------------------------------------------------------------------------
// posterior normalisation
// ---------------------------------------------------------------------------

fn check_posterior_normalisation(task: TaskKind) {
    let dataset = dataset_of(task);
    let ctx = context_of(&dataset);
    let view = dataset.annotation_view();
    let registry = MethodRegistry::standard();
    let mut with_posteriors = Vec::new();
    for method in registry.supporting(task) {
        let descriptor = method.descriptor();
        let Some(posteriors) = method.infer_posteriors(&dataset, &ctx) else {
            // only the Gold upper bound (which consumes the truth) may opt
            // out; the crowd-layer variants and DL-DN read out softmax
            // proxies, so a `None` from them is a silently lost invariant
            assert!(
                matches!(descriptor.family, Family::Gold),
                "{} ({:?}) must expose its truth posterior",
                descriptor.name,
                descriptor.family
            );
            continue;
        };
        assert_eq!(posteriors.len(), view.num_units(), "{}: one posterior row per unit", descriptor.name);
        for (u, row) in posteriors.iter().enumerate() {
            assert_eq!(row.len(), dataset.num_classes, "{}: row {u} has wrong arity", descriptor.name);
            for &p in row {
                assert!((-1e-6..=1.0 + 1e-6).contains(&p), "{}: entry {p} out of [0,1] in row {u}", descriptor.name);
            }
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "{}: row {u} sums to {sum}, expected 1", descriptor.name);
        }
        with_posteriors.push(descriptor.name);
    }
    assert!(with_posteriors.len() >= 15, "expected all but Gold to expose posteriors, got {with_posteriors:?}");
    assert!(
        with_posteriors.iter().any(|n| n.starts_with("cl-")) && with_posteriors.iter().any(|n| n.starts_with("dl-")),
        "crowd-layer and DL-DN posteriors must be covered, got {with_posteriors:?}"
    );
}

#[test]
fn posteriors_are_normalised_classification() {
    check_posterior_normalisation(TaskKind::Classification);
}

#[test]
fn posteriors_are_normalised_tagging() {
    check_posterior_normalisation(TaskKind::SequenceTagging);
}

// ---------------------------------------------------------------------------
// one row label, one registry entry
// ---------------------------------------------------------------------------

/// Every row label comes from exactly one registry entry, and the rows
/// that entries read from one training share its bits.
fn check_one_entry_per_row(task: TaskKind) {
    let baseline = baseline_rows(task);
    let mut owner = std::collections::BTreeMap::new();
    for (name, rows) in baseline {
        for row in rows {
            let first = owner.entry(row.method.as_str()).or_insert(name);
            assert_eq!(*first, name, "row {:?} is emitted by both {first} and {name}", row.method);
        }
    }
    let bits_of = |key: &str| row_bits(&baseline.iter().find(|(name, _)| name == key).expect("ran").1);
    // AggNet and w/o-Rule are one training without rules
    let aggnet = bits_of("aggnet");
    assert_eq!((aggnet[0].0.as_str(), aggnet[1].0.as_str()), ("AggNet", "w/o-Rule"));
    assert_eq!(aggnet[0].1, aggnet[1].1, "AggNet and w/o-Rule must be bitwise equal");
    // MV-t is the MV-Classifier model in teacher mode: the same inference
    // bits (the last four of each row)
    let mv = bits_of("mv-classifier");
    assert_eq!((mv[0].0.as_str(), mv[1].0.as_str()), ("MV-Classifier", "MV-t"));
    assert_eq!(mv[0].1[4..], mv[1].1[4..], "MV-t must share MV-Classifier's inference");
}

#[test]
fn one_registry_entry_per_row_label_classification() {
    check_one_entry_per_row(TaskKind::Classification);
}

#[test]
fn one_registry_entry_per_row_label_tagging() {
    check_one_entry_per_row(TaskKind::SequenceTagging);
}

// ---------------------------------------------------------------------------
// annotator-ID permutation invariance
// ---------------------------------------------------------------------------

fn check_annotator_permutation_invariance(task: TaskKind) {
    let dataset = dataset_of(task);
    let ctx = context_of(&dataset);
    // reversal: every annotator id changes
    let perm: Vec<usize> = (0..dataset.num_annotators).rev().collect();
    let permuted = dataset.with_permuted_annotators(&perm);
    let registry = MethodRegistry::standard();
    let baseline = baseline_rows(task);
    let permuted_rows = run_all(&registry, &permuted, &ctx);
    assert_eq!(baseline.len(), permuted_rows.len());
    for ((name, base), (pname, perm_rows)) in baseline.iter().zip(&permuted_rows) {
        assert_eq!(name, pname);
        assert_eq!(row_bits(base), row_bits(perm_rows), "{name}: metrics changed under annotator renumbering");
    }
    // aggregation posteriors are invariant too (checked for the cheap,
    // training-free families)
    for method in registry.family(Family::TruthInference) {
        if !method.descriptor().supports(task) {
            continue;
        }
        let a = method.infer_posteriors(&dataset, &ctx).expect("truth methods expose posteriors");
        let b = method.infer_posteriors(&permuted, &ctx).expect("truth methods expose posteriors");
        assert_eq!(a.len(), b.len());
        for (u, (ra, rb)) in a.iter().zip(&b).enumerate() {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{}: posterior row {u} changed under annotator renumbering",
                    method.descriptor().name
                );
            }
        }
    }
}

#[test]
fn annotator_permutation_invariance_classification() {
    check_annotator_permutation_invariance(TaskKind::Classification);
}

#[test]
fn annotator_permutation_invariance_tagging() {
    check_annotator_permutation_invariance(TaskKind::SequenceTagging);
}

// ---------------------------------------------------------------------------
// class-relabeling equivariance
// ---------------------------------------------------------------------------

/// Per-family tolerance on metric drift under class relabeling.
/// Aggregation-only methods treat classes symmetrically, so their metrics
/// move only through argmax tie-breaks and float re-association (tiny).
/// Methods that *train a network* are not exactly class-symmetric — the
/// random initialisation assigns different weights to each output unit —
/// so at this micro scale their metrics may drift; the bound still catches
/// any hard-coded class index, which shifts metrics massively.
fn relabel_tolerance(family: Family) -> f32 {
    match family {
        Family::TruthInference => 5e-2,
        _ => 0.35,
    }
}

fn check_class_relabeling_equivariance(task: TaskKind, perm: &[usize]) {
    let dataset = dataset_of(task);
    let ctx = context_of(&dataset);
    let relabeled = dataset.with_relabeled_classes(perm);
    assert!(relabeled.validate().is_ok());
    let registry = MethodRegistry::standard();
    let baseline = baseline_rows(task);
    let relabeled_rows = run_all(&registry, &relabeled, &ctx);
    for ((name, base), (rname, rows)) in baseline.iter().zip(&relabeled_rows) {
        assert_eq!(name, rname);
        let family = registry.get(name).expect("registered").descriptor().family;
        let delta = max_metric_delta(base, rows, family == Family::TruthInference);
        assert!(
            delta <= relabel_tolerance(family),
            "{name} ({family}): metrics drifted {delta} under class relabeling"
        );
    }
}

#[test]
fn class_relabeling_equivariance_classification() {
    // swap NEG <-> POS everywhere
    check_class_relabeling_equivariance(TaskKind::Classification, &[1, 0]);
}

#[test]
fn class_relabeling_equivariance_tagging() {
    // swap the PER and LOC entity types (B and I tags pairwise); O and the
    // other types stay put, so BIO structure is preserved
    check_class_relabeling_equivariance(TaskKind::SequenceTagging, &[0, 3, 4, 1, 2, 5, 6, 7, 8]);
}

// ---------------------------------------------------------------------------
// bitwise seed determinism
// ---------------------------------------------------------------------------

fn check_seed_determinism(task: TaskKind) {
    let dataset = dataset_of(task);
    let ctx = context_of(&dataset);
    let registry = MethodRegistry::standard();
    let baseline = baseline_rows(task);
    let rerun = run_all(&registry, &dataset, &ctx);
    for ((name, base), (rname, rows)) in baseline.iter().zip(&rerun) {
        assert_eq!(name, rname);
        assert_eq!(row_bits(base), row_bits(rows), "{name}: two runs under the same seed disagree");
    }
}

#[test]
fn seed_determinism_is_bitwise_classification() {
    check_seed_determinism(TaskKind::Classification);
}

#[test]
fn seed_determinism_is_bitwise_tagging() {
    check_seed_determinism(TaskKind::SequenceTagging);
}

// ---------------------------------------------------------------------------
// temporal scenarios: the permutation / relabeling / determinism invariants
// must survive drifting annotators and difficulty-conditioned error
// ---------------------------------------------------------------------------

/// Runs the three metamorphic invariants on one temporal scenario: bitwise
/// seed determinism, bitwise annotator-renumbering invariance and bounded
/// class-relabeling drift.  Temporal corruption is keyed by each
/// annotator's stream position and each instance's latent difficulty —
/// both of which renumbering and relabeling must leave untouched.
fn check_temporal_invariants(config: &ScenarioConfig, class_perm: &[usize]) {
    let dataset = generate_scenario(config);
    let ctx = context_of(&dataset);
    let registry = MethodRegistry::standard();
    let baseline = run_all(&registry, &dataset, &ctx);

    // bitwise seed determinism
    let rerun = run_all(&registry, &dataset, &ctx);
    for ((name, base), (rname, rows)) in baseline.iter().zip(&rerun) {
        assert_eq!(name, rname);
        assert_eq!(row_bits(base), row_bits(rows), "{}/{name}: two runs under the same seed disagree", config.name);
    }

    // bitwise annotator-renumbering invariance
    let perm: Vec<usize> = (0..dataset.num_annotators).rev().collect();
    let permuted_rows = run_all(&registry, &dataset.with_permuted_annotators(&perm), &ctx);
    for ((name, base), (pname, rows)) in baseline.iter().zip(&permuted_rows) {
        assert_eq!(name, pname);
        assert_eq!(
            row_bits(base),
            row_bits(rows),
            "{}/{name}: metrics changed under annotator renumbering",
            config.name
        );
    }

    // bounded class-relabeling drift (same per-family tolerances as the
    // static scenarios)
    let relabeled = dataset.with_relabeled_classes(class_perm);
    assert!(relabeled.validate().is_ok());
    let relabeled_rows = run_all(&registry, &relabeled, &ctx);
    for ((name, base), (rname, rows)) in baseline.iter().zip(&relabeled_rows) {
        assert_eq!(name, rname);
        let family = registry.get(name).expect("registered").descriptor().family;
        let delta = max_metric_delta(base, rows, family == Family::TruthInference);
        assert!(
            delta <= relabel_tolerance(family),
            "{}/{name} ({family}): metrics drifted {delta} under class relabeling",
            config.name
        );
    }
}

#[test]
fn invariants_hold_on_a_drifted_scenario() {
    use lncl_crowd::scenario::DriftSchedule;
    let config = property_config(TaskKind::Classification)
        .named("props-sent-drift")
        .with_drift(DriftSchedule::StepChange { at: 0.4, level: 0.8 });
    check_temporal_invariants(&config, &[1, 0]);
}

#[test]
fn invariants_hold_on_a_difficulty_conditioned_scenario() {
    use lncl_crowd::scenario::DifficultyModel;
    let config = property_config(TaskKind::SequenceTagging)
        .named("props-ner-difficulty")
        .with_difficulty(DifficultyModel { strength: 0.8, concentration: 1.0 });
    check_temporal_invariants(&config, &[0, 3, 4, 1, 2, 5, 6, 7, 8]);
}

// ---------------------------------------------------------------------------
// redundancy monotonicity and spammer dilution (aggregation quality)
// ---------------------------------------------------------------------------

fn inference_accuracy(registry: &MethodRegistry, name: &str, dataset: &CrowdDataset, ctx: &RunContext) -> f32 {
    let rows = registry.run(name, dataset, ctx).expect("registered method");
    rows[0].inference.expect("truth methods report inference metrics").accuracy
}

#[test]
fn mv_and_ds_accuracy_monotone_in_redundancy_on_clean_pools() {
    let registry = MethodRegistry::standard();
    let accuracies: Vec<(usize, f32, f32)> = [1usize, 3, 5, 7]
        .iter()
        .map(|&r| {
            let config = ScenarioConfig::classification("redundancy")
                .with_sizes(400, 10, 10)
                .with_annotators(10)
                .with_redundancy(r, r)
                .with_propensity(PropensityProfile::Uniform)
                .with_seed(SEED);
            let dataset = generate_scenario(&config);
            let ctx = context_of(&dataset);
            let mv = inference_accuracy(&registry, "mv", &dataset, &ctx);
            let ds = inference_accuracy(&registry, "dawid-skene", &dataset, &ctx);
            (r, mv, ds)
        })
        .collect();
    for window in accuracies.windows(2) {
        let (r0, mv0, ds0) = window[0];
        let (r1, mv1, ds1) = window[1];
        assert!(mv1 >= mv0 - 0.02, "MV accuracy not monotone in redundancy: r{r0}={mv0}, r{r1}={mv1}");
        assert!(ds1 >= ds0 - 0.02, "DS accuracy not monotone in redundancy: r{r0}={ds0}, r{r1}={ds1}");
    }
    let (_, mv_max, ds_max) = accuracies[accuracies.len() - 1];
    assert!(mv_max > 0.93, "heavy redundancy should nearly recover truth (MV {mv_max})");
    assert!(ds_max > 0.93, "heavy redundancy should nearly recover truth (DS {ds_max})");
}

#[test]
fn spammer_dilution_is_bounded_for_confusion_aware_methods() {
    let registry = MethodRegistry::standard();
    let base = ScenarioConfig::classification("dilution")
        .with_sizes(400, 10, 10)
        .with_annotators(12)
        .with_redundancy(4, 6)
        .with_propensity(PropensityProfile::Uniform)
        .with_seed(SEED);
    let clean = generate_scenario(&base.clone().with_mix(vec![(Archetype::Reliable { accuracy: 0.8 }, 1.0)]));
    let spammed = generate_scenario(
        &base.with_mix(vec![(Archetype::Reliable { accuracy: 0.8 }, 0.65), (Archetype::Spammer, 0.35)]),
    );
    let ctx = context_of(&clean);
    let ds_clean = inference_accuracy(&registry, "dawid-skene", &clean, &ctx);
    let ds_spam = inference_accuracy(&registry, "dawid-skene", &spammed, &ctx);
    let mv_spam = inference_accuracy(&registry, "mv", &spammed, &ctx);
    // a third of the pool spamming uniformly costs DS only a bounded slice
    // of accuracy: the confusion model learns to discount them …
    assert!(
        ds_spam >= ds_clean - 0.08,
        "spammer dilution should be bounded for DS: clean {ds_clean}, spammed {ds_spam}"
    );
    // … which majority voting cannot do
    assert!(ds_spam >= mv_spam - 0.01, "confusion-aware DS should not trail MV under spam: DS {ds_spam}, MV {mv_spam}");
}
