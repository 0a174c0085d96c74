//! Integration tests of the unified `CrowdMethod` API: registry round-trip
//! (every descriptor resolves, keys are unique, families partition) and a
//! trait-object smoke test running each truth-inference method end-to-end.

use lncl_crowd::datasets::{generate_sentiment, SentimentDatasetConfig};
use lncl_crowd::TaskKind;
use logic_lncl::method::{Family, MethodRegistry, RunContext};
use logic_lncl::TrainConfig;
use std::collections::BTreeSet;

#[test]
fn registry_round_trip_resolves_every_descriptor() {
    let registry = MethodRegistry::standard();
    assert!(registry.len() >= 15, "expected >= 15 compared methods, got {}", registry.len());

    let mut seen = BTreeSet::new();
    for method in registry.iter() {
        let descriptor = method.descriptor();
        // every descriptor name resolves back to a method with the same descriptor
        let resolved = registry
            .get(&descriptor.name)
            .unwrap_or_else(|| panic!("descriptor name {:?} does not resolve", descriptor.name));
        assert_eq!(resolved.descriptor().name, descriptor.name);
        assert_eq!(resolved.descriptor().label, descriptor.label);
        assert_eq!(resolved.descriptor().family, descriptor.family);
        // no duplicates
        assert!(seen.insert(descriptor.name.clone()), "duplicate registry key {:?}", descriptor.name);
    }
    assert_eq!(seen.len(), registry.len());
}

#[test]
fn families_partition_the_registry() {
    let registry = MethodRegistry::standard();
    let by_family: usize = Family::all().iter().map(|&f| registry.family(f).len()).sum();
    assert_eq!(by_family, registry.len(), "every method must belong to exactly one family");
    // the blocks the paper's tables rely on are all populated (the 8
    // paper baselines plus the stream-windowed DS variant)
    assert_eq!(registry.family(Family::TruthInference).len(), 9);
    assert!(registry.family(Family::TwoStage).len() >= 2);
    assert!(registry.family(Family::CrowdLayer).len() >= 3);
    assert!(!registry.family(Family::LogicLncl).is_empty());
    assert!(!registry.family(Family::Gold).is_empty());
    // one entry per training: w/o-Rule and MV-t are rows of aggnet and
    // mv-classifier, so the ablation family keeps only its own trainings
    assert_eq!(registry.family(Family::Ablation).len(), 3);
    assert_eq!(registry.len(), 25);
}

#[test]
fn unknown_keys_do_not_resolve() {
    let registry = MethodRegistry::standard();
    assert!(registry.get("no-such-method").is_none());
    let dataset = generate_sentiment(&SentimentDatasetConfig::tiny());
    let ctx = RunContext::for_dataset(&dataset, TrainConfig::fast(1));
    assert!(registry.run("no-such-method", &dataset, &ctx).is_none());
}

#[test]
fn truth_inference_methods_run_through_the_trait_object() {
    let dataset = generate_sentiment(&SentimentDatasetConfig::tiny());
    let ctx = RunContext::for_dataset(&dataset, TrainConfig::fast(1));
    let registry = MethodRegistry::standard();
    let mut ran = 0usize;
    for method in registry.family(Family::TruthInference) {
        let descriptor = method.descriptor();
        if !descriptor.supports(TaskKind::Classification) {
            continue;
        }
        let rows = method.run(&dataset, &ctx);
        assert_eq!(rows.len(), 1, "{}: truth-inference methods contribute one row", descriptor.name);
        let inference = rows[0].inference.expect("truth-inference methods report inference metrics");
        assert!(
            inference.accuracy > 0.6,
            "{}: inference accuracy {} suspiciously low",
            descriptor.name,
            inference.accuracy
        );
        ran += 1;
    }
    assert_eq!(ran, 7, "MV, DS, DS-W, GLAD, IBCC, PM and CATD all support classification");
}
