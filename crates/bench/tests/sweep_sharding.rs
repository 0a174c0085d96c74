//! Sweep determinism across worker threads: the scenario sweep must
//! produce a **bitwise identical** quality table whether it runs serially
//! or spread over worker threads.  Also covers the headline ranking
//! claim: the method ranking flips between the clean and the
//! spammer-heavy standard mixes on a real (aggregation-only) sweep.
//!
//! The method set is mostly the training-free truth-inference baselines,
//! plus one trained entry (`mv-classifier`) at tiny scale so jobs of very
//! different lengths share the pool; the test runs in seconds.  The
//! determinism property itself is method-agnostic (every registry method
//! is bitwise seed-deterministic, which the robustness suite asserts
//! separately).

use lncl_bench::quality::{record_scenario_outcome, HEADLINE_METRIC};
use lncl_bench::rank::{rank_scenarios, ranking_flips};
use lncl_bench::timing::{BenchReport, QualityCase};
use lncl_bench::{sweep_scenarios, Scale, ScenarioOutcome};
use lncl_crowd::scenario::{standard_mixes, Archetype, DriftSchedule, PropensityProfile, ScenarioConfig, ScenarioGrid};
use lncl_crowd::TaskKind;

const METHODS: &[&str] = &["mv", "dawid-skene", "ibcc"];

/// A small grid over both tasks and three archetype mixes.
fn test_grid() -> Vec<ScenarioConfig> {
    let mut configs = Vec::new();
    for task in [TaskKind::Classification, TaskKind::SequenceTagging] {
        let mut grid = ScenarioGrid::new(ScenarioConfig::tiny(task).with_seed(41));
        grid.mixes = standard_mixes()
            .into_iter()
            .filter(|(name, _)| matches!(*name, "clean" | "spammer-third" | "anarchy"))
            .map(|(n, m)| (n.to_string(), m))
            .collect();
        configs.extend(grid.configs());
    }
    configs
}

/// Builds the quality table a `scenario_sweep` run would write for a set
/// of outcomes (recorded, then canonically sorted).
fn quality_table(outcomes: &[ScenarioOutcome]) -> Vec<QualityCase> {
    let mut report = BenchReport::new("test");
    for outcome in outcomes {
        record_scenario_outcome(&mut report, outcome);
    }
    report.sort_quality();
    report.quality
}

/// Exact bit-level comparison of two quality tables.
fn assert_bitwise_equal(a: &[QualityCase], b: &[QualityCase], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row count differs");
    for (x, y) in a.iter().zip(b) {
        assert_eq!((&x.scenario, &x.method), (&y.scenario, &y.method), "{what}: row keys differ");
        assert_eq!(x.metrics.len(), y.metrics.len(), "{what}: {}/{} metric arity differs", x.scenario, x.method);
        for ((kx, vx), (ky, vy)) in x.metrics.iter().zip(&y.metrics) {
            assert_eq!(kx, ky, "{what}: metric keys differ in {}/{}", x.scenario, x.method);
            assert_eq!(
                vx.to_bits(),
                vy.to_bits(),
                "{what}: {}/{} metric {kx} differs: {vx} vs {vy}",
                x.scenario,
                x.method
            );
        }
    }
}

/// Sweeps `configs` on one thread and on `threads` threads and asserts
/// the two runs agree bit for bit, in quality table and in result rows.
fn assert_thread_count_invariant(configs: &[ScenarioConfig], scale: Scale, methods: &[&str], threads: usize) {
    let serial = sweep_scenarios(configs, scale, Some(methods), 1);
    let threaded = sweep_scenarios(configs, scale, Some(methods), threads);
    assert_eq!(serial.len(), configs.len());
    assert_bitwise_equal(&quality_table(&serial), &quality_table(&threaded), "threads vs serial");
    // the result rows themselves are identical too, not just the tables
    for (s, t) in serial.iter().zip(&threaded) {
        assert_eq!(s.name, t.name);
        assert_eq!(s.rows.len(), t.rows.len());
        for (rs, rt) in s.rows.iter().zip(&t.rows) {
            assert_eq!(rs.method, rt.method);
            assert_eq!(rs.prediction.accuracy.to_bits(), rt.prediction.accuracy.to_bits());
        }
        let keys = |o: &ScenarioOutcome| o.timings.iter().map(|(name, _)| name.clone()).collect::<Vec<_>>();
        assert_eq!(keys(s), keys(t), "{}: timing keys differ", s.name);
        assert_eq!(s.reliability_pearson.to_bits(), t.reliability_pearson.to_bits());
    }
}

#[test]
fn thread_sharded_sweep_is_bitwise_identical_to_serial() {
    let configs = test_grid();
    assert_thread_count_invariant(&configs, Scale::Small, METHODS, 4);
    // one trained entry among the training-free ones: its jobs run far
    // longer, so the pool's threads finish jobs out of index order
    assert_thread_count_invariant(&configs, Scale::Tiny, &["mv", "mv-classifier", "dawid-skene"], 3);
}

#[test]
fn ranking_flips_between_clean_and_spammer_heavy_mixes() {
    // a larger classification scenario so aggregation quality differences
    // are real, not sampling noise: clean pool vs the spammer-third
    // standard mix over the same gold corpus (same seed/sizes)
    let mixes = standard_mixes();
    let base = ScenarioConfig::classification("flips")
        .with_sizes(400, 20, 20)
        .with_annotators(12)
        .with_redundancy(3, 5)
        .with_seed(13);
    let clean = base.clone().named("sent/clean").with_mix(mixes.iter().find(|(n, _)| *n == "clean").unwrap().1.clone());
    let spam =
        base.named("sent/spammer-third").with_mix(mixes.iter().find(|(n, _)| *n == "spammer-third").unwrap().1.clone());
    let methods = ["mv", "dawid-skene", "glad", "ibcc", "pm", "catd"];
    let outcomes = sweep_scenarios(&[clean, spam], Scale::Small, Some(&methods), 2);
    let quality = quality_table(&outcomes);
    let rankings = rank_scenarios(&quality, HEADLINE_METRIC);
    assert_eq!(rankings.len(), 2);
    let clean_ranking = rankings.iter().find(|r| r.scenario == "sent/clean").unwrap();
    let spam_ranking = rankings.iter().find(|r| r.scenario == "sent/spammer-third").unwrap();
    assert_eq!(clean_ranking.entries.len(), methods.len());

    let flips = ranking_flips(clean_ranking, spam_ranking);
    assert!(
        !flips.is_empty(),
        "diluting a third of the pool with spammers must flip at least one method pair:\nclean: {:?}\nspam: {:?}",
        clean_ranking.entries,
        spam_ranking.entries
    );
    let labels: Vec<&str> = clean_ranking.entries.iter().map(|e| e.method.as_str()).collect();
    assert!(
        flips.iter().all(|f| labels.contains(&f.demoted.as_str()) && labels.contains(&f.promoted.as_str())),
        "flips must reference ranked methods: {flips:?}"
    );
    // majority voting has no way to discount spammers, so it can only lose
    // ground relative to the confusion-aware aggregators
    let mv_clean = clean_ranking.rank_of("MV").expect("MV ranked on the clean pool");
    let mv_spam = spam_ranking.rank_of("MV").expect("MV ranked under spam");
    assert!(mv_spam >= mv_clean, "MV must not gain rank under spam: clean #{mv_clean}, spam #{mv_spam}");
}

#[test]
fn drift_flips_the_ranking_towards_the_windowed_estimator() {
    // the same long-tailed crowd twice: once static, once with a
    // mid-stream step change to near-spam.  Static confusion matrices
    // (dawid-skene) average the two regimes away; the windowed estimator
    // (ds-windowed) tracks them.  The headline ranking must therefore flip
    // strictly between the two variants of the *same* scenario — the
    // drift-induced ranking flip the temporal axes exist to measure.
    // (Config chosen so the flip is robust: at accuracy 0.75 / 800
    // instances it holds on every probed seed, with DS-W paying a visible
    // variance tax on the static variant and gaining 1.5-4 accuracy points
    // on the drifted one.)
    let base = ScenarioConfig::classification("drift-flip")
        .with_sizes(800, 10, 10)
        .with_annotators(8)
        .with_redundancy(5, 5)
        .with_propensity(PropensityProfile::LongTail)
        .with_mix(vec![(Archetype::Reliable { accuracy: 0.75 }, 1.0)])
        .with_seed(17);
    let static_variant = base.clone().named("sent/clean/static");
    let drifted = base.named("sent/clean/step0.95").with_drift(DriftSchedule::StepChange { at: 0.5, level: 0.95 });
    let methods = ["mv", "dawid-skene", "ds-windowed", "ibcc"];
    let outcomes = sweep_scenarios(&[static_variant, drifted], Scale::Small, Some(&methods), 2);
    let quality = quality_table(&outcomes);
    let rankings = rank_scenarios(&quality, HEADLINE_METRIC);
    let static_ranking = rankings.iter().find(|r| r.scenario == "sent/clean/static").unwrap();
    let drift_ranking = rankings.iter().find(|r| r.scenario == "sent/clean/step0.95").unwrap();

    // on the static crowd the pooled estimator wins (the windowed one pays
    // a variance tax); under drift the order strictly inverts
    let ds_static = static_ranking.rank_of("DS").expect("DS ranked on the static variant");
    let dsw_static = static_ranking.rank_of("DS-W").expect("DS-W ranked on the static variant");
    let ds_drift = drift_ranking.rank_of("DS").expect("DS ranked on the drifted variant");
    let dsw_drift = drift_ranking.rank_of("DS-W").expect("DS-W ranked on the drifted variant");
    assert!(dsw_static > ds_static, "static: pooled DS must outrank DS-W (DS #{ds_static}, DS-W #{dsw_static})");
    assert!(dsw_drift < ds_drift, "drifted: DS-W must outrank pooled DS (DS #{ds_drift}, DS-W #{dsw_drift})");
    // and `bench_diff rank`'s flip detection reports exactly that inversion
    let flips = ranking_flips(static_ranking, drift_ranking);
    assert!(
        flips.iter().any(|f| f.promoted == "DS-W" && f.demoted == "DS"),
        "the DS/DS-W pair must appear as a strict flip: {flips:?}"
    );
}
