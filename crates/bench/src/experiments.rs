//! Experiment drivers: one function per paper table / figure.
//!
//! Every method is looked up in the [`MethodRegistry`] by key and run
//! through the polymorphic [`CrowdMethod`](logic_lncl::CrowdMethod) API —
//! the tables are data-driven loops over the key lists in
//! [`crate::methods`].  Independent methods are executed on separate scoped
//! threads; every run is seeded, so results are reproducible regardless of
//! the parallelism.

use crate::methods::{validate_methods, TABLE2_METHODS, TABLE3_METHODS, TABLE4_METHODS};
use crate::scale::Scale;
use crate::tables::average_repetitions;
use lncl_crowd::metrics::{
    empirical_confusion, overall_reliability, reliability_correlation, reliability_recovery_pearson,
};
use lncl_crowd::scenario::{ScenarioCache, ScenarioConfig, ScenarioGrid};
use lncl_crowd::stats::annotator_summary;
use lncl_crowd::{CrowdDataset, TaskKind};
use lncl_tensor::Matrix;
use logic_lncl::ablation::paper_rules;
use logic_lncl::method::{MethodRegistry, RunContext};
use logic_lncl::{EvalMetrics, LogicLncl, MethodResult};

/// Runs the named registry methods on a dataset, returning their rows
/// concatenated in list order plus each method's wall-clock runtime in
/// seconds (keyed by registry name, in list order).  Methods run on scoped
/// threads, at most [`lncl_tensor::par::max_threads`] training runs at a
/// time (`LNCL_THREADS` overrides) so large tables do not oversubscribe
/// small machines.
pub fn run_methods_timed(
    registry: &MethodRegistry,
    names: &[&str],
    dataset: &CrowdDataset,
    ctx: &RunContext,
) -> (Vec<MethodResult>, Vec<(String, f64)>) {
    run_methods_timed_capped(registry, names, dataset, ctx, lncl_tensor::par::max_threads())
}

/// [`run_methods_timed`] with an explicit cap on concurrent method
/// trainings.  The sweep passes its per-worker slice of the thread budget
/// here, so scenario workers × method threads never exceed `LNCL_THREADS`
/// overall.  The cap only affects scheduling: rows and timings keys are
/// produced in list order and every method run is seeded, so results are
/// bitwise identical at any cap.
pub fn run_methods_timed_capped(
    registry: &MethodRegistry,
    names: &[&str],
    dataset: &CrowdDataset,
    ctx: &RunContext,
    max_parallel: usize,
) -> (Vec<MethodResult>, Vec<(String, f64)>) {
    validate_methods(registry, names);
    let mut rows = Vec::new();
    let mut timings = Vec::with_capacity(names.len());
    for chunk in names.chunks(max_parallel.max(1)) {
        let chunk_rows: Vec<(Vec<MethodResult>, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = chunk
                .iter()
                .map(|&name| {
                    let method = registry.get(name).expect("validated above");
                    s.spawn(move || {
                        let start = std::time::Instant::now();
                        let result = method.run(dataset, ctx);
                        (result, start.elapsed().as_secs_f64())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("method thread panicked")).collect()
        });
        for (&name, (method_rows, secs)) in chunk.iter().zip(chunk_rows) {
            rows.extend(method_rows);
            timings.push((name.to_string(), secs));
        }
    }
    (rows, timings)
}

/// [`run_methods_timed`] without the timings.
pub fn run_methods(
    registry: &MethodRegistry,
    names: &[&str],
    dataset: &CrowdDataset,
    ctx: &RunContext,
) -> Vec<MethodResult> {
    run_methods_timed(registry, names, dataset, ctx).0
}

/// A table's averaged rows plus per-method runtime samples (one sample per
/// repetition, keyed by registry name) for the benchmark report.
pub struct TimedTable {
    /// Rows averaged over the repetitions.
    pub rows: Vec<MethodResult>,
    /// Per-method wall-clock samples in seconds, one per repetition.
    pub timings: Vec<(String, Vec<f64>)>,
}

fn merge_timings(into: &mut Vec<(String, Vec<f64>)>, rep: Vec<(String, f64)>) {
    for (name, secs) in rep {
        match into.iter_mut().find(|(n, _)| *n == name) {
            Some((_, samples)) => samples.push(secs),
            None => into.push((name, vec![secs])),
        }
    }
}

/// Runs all Table-II (sentiment) methods for one repetition.
pub fn table2_single_run(scale: Scale, seed: u64) -> Vec<MethodResult> {
    let dataset = scale.sentiment_dataset(seed);
    let ctx = scale.run_context(&dataset, seed);
    run_methods(&MethodRegistry::standard(), TABLE2_METHODS, &dataset, &ctx)
}

/// Table II averaged over the scale's repetitions, with per-method timings.
pub fn table2_timed(scale: Scale) -> TimedTable {
    let mut timings = Vec::new();
    let reps: Vec<Vec<MethodResult>> = (0..scale.repetitions())
        .map(|r| {
            let seed = 7 + r as u64;
            let dataset = scale.sentiment_dataset(seed);
            let ctx = scale.run_context(&dataset, seed);
            let (rows, rep_timings) = run_methods_timed(&MethodRegistry::standard(), TABLE2_METHODS, &dataset, &ctx);
            merge_timings(&mut timings, rep_timings);
            rows
        })
        .collect();
    TimedTable { rows: average_repetitions(&reps), timings }
}

/// Table II averaged over the scale's repetitions.
pub fn table2(scale: Scale) -> Vec<MethodResult> {
    table2_timed(scale).rows
}

/// Runs all Table-III (NER) methods for one repetition.
pub fn table3_single_run(scale: Scale, seed: u64) -> Vec<MethodResult> {
    let dataset = scale.ner_dataset(seed);
    let ctx = scale.run_context(&dataset, seed);
    run_methods(&MethodRegistry::standard(), TABLE3_METHODS, &dataset, &ctx)
}

/// Table III averaged over the scale's repetitions, with per-method timings.
pub fn table3_timed(scale: Scale) -> TimedTable {
    let mut timings = Vec::new();
    let reps: Vec<Vec<MethodResult>> = (0..scale.repetitions())
        .map(|r| {
            let seed = 11 + r as u64;
            let dataset = scale.ner_dataset(seed);
            let ctx = scale.run_context(&dataset, seed);
            let (rows, rep_timings) = run_methods_timed(&MethodRegistry::standard(), TABLE3_METHODS, &dataset, &ctx);
            merge_timings(&mut timings, rep_timings);
            rows
        })
        .collect();
    TimedTable { rows: average_repetitions(&reps), timings }
}

/// Table III averaged over the scale's repetitions.
pub fn table3(scale: Scale) -> Vec<MethodResult> {
    table3_timed(scale).rows
}

/// Runs the Table-IV ablation on one dataset, with per-method timings.
pub fn table4_for_timed(dataset: &CrowdDataset, scale: Scale, seed: u64) -> TimedTable {
    let ctx = scale.run_context(dataset, seed);
    let (rows, rep_timings) = run_methods_timed(&MethodRegistry::standard(), TABLE4_METHODS, dataset, &ctx);
    let mut timings = Vec::new();
    merge_timings(&mut timings, rep_timings);
    TimedTable { rows, timings }
}

/// Runs the Table-IV ablation on one dataset.
pub fn table4_for(dataset: &CrowdDataset, scale: Scale, seed: u64) -> Vec<MethodResult> {
    table4_for_timed(dataset, scale, seed).rows
}

/// The scenario grid the `scenario_sweep` binary covers at a given scale:
/// the six standard archetype mixes for **both** tasks, plus a redundancy
/// axis (single vs heavy redundancy), a class-imbalance axis, a larger
/// pool on the clean classification mix, and the **temporal axes** — a
/// drift-schedule axis (static vs step change) crossed with a
/// difficulty-concentration axis (flat vs GLAD-style hard instances) on
/// the clean pool of both tasks — every knob of [`ScenarioConfig`] is
/// exercised somewhere in the sweep.
pub fn scenario_sweep_configs(scale: Scale, seed: u64) -> Vec<ScenarioConfig> {
    use lncl_crowd::scenario::{DifficultyModel, DriftSchedule};
    let mut configs = Vec::new();
    // archetype-mix axis, both tasks
    for task in [TaskKind::Classification, TaskKind::SequenceTagging] {
        configs.extend(ScenarioGrid::new(scale.scenario_base(task, seed)).with_standard_mixes().configs());
    }
    // temporal axes, both tasks: drift schedules × difficulty conditioning
    // on the clean pool; `static/flat` is the in-sweep reference point the
    // ranking-flip analysis compares the drifted/conditioned variants to
    for task in [TaskKind::Classification, TaskKind::SequenceTagging] {
        let mut grid = ScenarioGrid::new(scale.scenario_base(task, seed))
            .with_drifts(vec![
                ("static".to_string(), DriftSchedule::Static),
                ("step0.9".to_string(), DriftSchedule::StepChange { at: 0.5, level: 0.9 }),
            ])
            .with_difficulties(vec![
                ("flat".to_string(), DifficultyModel::default()),
                ("hard0.8".to_string(), DifficultyModel::with_strength(0.8)),
            ]);
        grid.mixes = vec![("clean".to_string(), grid.base.mix.clone())];
        configs.extend(grid.configs());
    }
    let clean = |name: &str| scale.scenario_base(TaskKind::Classification, seed).named(name);
    // redundancy axis (clean pool): one label per instance vs heavy redundancy
    for (min_r, max_r) in [(1, 1), (6, 6)] {
        configs.push(clean("redundancy").with_redundancy(min_r, max_r).named(format!("sent/clean/r{min_r}-{max_r}")));
    }
    // class-imbalance axis (clean pool)
    configs.push(clean("sent/clean/b0.85").with_majority_share(0.85));
    // pool-size axis (spammer-heavy mix, bigger crowd)
    let spam = lncl_crowd::scenario::standard_mixes()
        .into_iter()
        .find(|(name, _)| *name == "spammer-third")
        .expect("spammer-third is a standard mix")
        .1;
    let base = scale.scenario_base(TaskKind::Classification, seed);
    let big_pool = base.num_annotators * 2;
    configs.push(base.named(format!("sent/spammer-third/j{big_pool}")).with_mix(spam).with_annotators(big_pool));
    configs
}

/// Everything one swept scenario produced: the per-method result rows (the
/// quality table), the per-method wall-clock timings and the scenario-level
/// reliability-recovery statistic.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name (the [`ScenarioConfig::name`]).
    pub name: String,
    /// Task the scenario generated data for.
    pub task: TaskKind,
    /// Result rows of every executed method, in method order.
    pub rows: Vec<MethodResult>,
    /// Per-method wall-clock timings in seconds, keyed by registry name.
    pub timings: Vec<(String, f64)>,
    /// Pearson correlation between consensus-estimated and true annotator
    /// reliability (see [`reliability_recovery_pearson`]).
    pub reliability_pearson: f32,
}

/// Runs one scenario: generates (or fetches from `cache`) its dataset,
/// executes the registry methods — all methods supporting the task, or the
/// intersection with `methods` when given, at most `method_parallelism`
/// trainings at a time — and computes the scenario-level reliability
/// statistic.  Fully deterministic for a fixed config and scale,
/// regardless of how method threads are scheduled.
pub fn run_scenario_outcome(
    config: &ScenarioConfig,
    scale: Scale,
    registry: &MethodRegistry,
    methods: Option<&[&str]>,
    cache: &ScenarioCache,
    method_parallelism: usize,
) -> ScenarioOutcome {
    let dataset = cache.get_or_generate(config);
    let ctx = scale.run_context(&dataset, config.seed);
    let supporting: Vec<String> = registry.supporting(dataset.task).iter().map(|m| m.descriptor().name).collect();
    let names: Vec<&str> = match methods {
        Some(filter) => filter.iter().copied().filter(|n| supporting.iter().any(|s| s == n)).collect(),
        None => supporting.iter().map(String::as_str).collect(),
    };
    let (rows, timings) = run_methods_timed_capped(registry, &names, &dataset, &ctx, method_parallelism.max(1));
    let reliability_pearson = reliability_recovery_pearson(&dataset, 5);
    ScenarioOutcome { name: config.name.clone(), task: config.task, rows, timings, reliability_pearson }
}

/// Runs a list of scenarios sharded across up to `workers` scoped threads
/// (assigned round-robin, so expensive and cheap scenarios spread evenly),
/// returning outcomes in **input order**.  Every scenario is independently
/// seeded and every method run is bitwise deterministic, so the outcome
/// rows are identical to the serial path (`workers == 1`) no matter how
/// many threads execute — only the wall-clock timings vary.  Workers share
/// one [`ScenarioCache`], so configs differing only by name generate their
/// corpus once.
///
/// The [`lncl_tensor::par::max_threads`] budget is *split* between the two
/// parallelism levels: each of the `workers` scenario workers trains at
/// most `max_threads / workers` methods concurrently, so the sweep never
/// oversubscribes the `LNCL_THREADS` cap the way nested full-width levels
/// would.
pub fn sweep_scenarios(
    configs: &[ScenarioConfig],
    scale: Scale,
    methods: Option<&[&str]>,
    workers: usize,
) -> Vec<ScenarioOutcome> {
    let registry = MethodRegistry::standard();
    let cache = ScenarioCache::new();
    let workers = workers.clamp(1, configs.len().max(1));
    let method_parallelism = (lncl_tensor::par::max_threads() / workers).max(1);
    if workers <= 1 {
        return configs
            .iter()
            .map(|c| run_scenario_outcome(c, scale, &registry, methods, &cache, method_parallelism))
            .collect();
    }
    let mut slots: Vec<Option<ScenarioOutcome>> = Vec::new();
    slots.resize_with(configs.len(), || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let registry = &registry;
                let cache = &cache;
                s.spawn(move || {
                    configs
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers)
                        .map(|(i, c)| (i, run_scenario_outcome(c, scale, registry, methods, cache, method_parallelism)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, outcome) in handle.join().expect("sweep worker panicked") {
                slots[i] = Some(outcome);
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every scenario is assigned to exactly one worker")).collect()
}

/// The scenario subset process shard `index` of `total` runs: grid indices
/// `index, index + total, index + 2·total, …` — strided, so every shard
/// receives a similar mix of cheap and expensive scenarios.  Recombining
/// all shards' quality tables (e.g. via `bench_diff merge`) reproduces the
/// unsharded sweep exactly.
pub fn shard_configs(configs: &[ScenarioConfig], index: usize, total: usize) -> Vec<ScenarioConfig> {
    assert!(total >= 1, "shard count must be at least 1");
    assert!(index < total, "shard index {index} out of range for {total} shard(s)");
    configs.iter().skip(index).step_by(total).cloned().collect()
}

/// Runs every standard-registry method supporting the scenario's task on
/// the generated dataset, returning the result rows and per-method
/// wall-clock timings (keyed by registry name).
pub fn run_scenario(config: &ScenarioConfig, scale: Scale) -> (Vec<MethodResult>, Vec<(String, f64)>) {
    let outcome = run_scenario_outcome(
        config,
        scale,
        &MethodRegistry::standard(),
        None,
        &ScenarioCache::new(),
        lncl_tensor::par::max_threads(),
    );
    (outcome.rows, outcome.timings)
}

/// Figure 6/7: trains Logic-LNCL and compares its estimated annotator
/// confusion matrices / reliabilities to the empirical ones.
pub struct ReliabilityStudy {
    /// Indices of the most prolific annotators (shown individually).
    pub top_annotators: Vec<usize>,
    /// Estimated confusion matrix per top annotator.
    pub estimated: Vec<Matrix>,
    /// Empirical ("real") confusion matrix per top annotator.
    pub real: Vec<Matrix>,
    /// Pearson correlation of estimated vs real overall reliability across
    /// the active annotator pool.
    pub pearson: f32,
    /// Class names (for rendering).
    pub class_names: Vec<String>,
}

/// Runs the reliability study on a dataset.  This is the one experiment
/// that needs more than [`MethodResult`] rows (the trained annotator
/// model), so it drives the [`LogicLncl`] trainer directly through the
/// builder API.
pub fn reliability_study(dataset: &CrowdDataset, scale: Scale, seed: u64, top_n: usize) -> ReliabilityStudy {
    let ctx = scale.run_context(dataset, seed);
    let mut trainer =
        LogicLncl::builder(ctx.model(seed)).rules(paper_rules(dataset)).config(ctx.config.clone()).build(dataset);
    trainer.train(dataset);
    let estimated_all = trainer.annotators.confusions();

    let summary = annotator_summary(dataset);
    let top_annotators = summary.top_annotators(top_n);
    let estimated: Vec<Matrix> = top_annotators.iter().map(|&a| estimated_all[a].clone()).collect();
    let real: Vec<Matrix> =
        top_annotators.iter().map(|&a| empirical_confusion(&dataset.train, a, dataset.num_classes)).collect();

    // reliability scatter over annotators with more than 5 labelled instances
    let active = summary.active_annotators(5);
    let est_rel: Vec<f32> = active.iter().map(|&a| overall_reliability(&estimated_all[a])).collect();
    let real_rel: Vec<f32> = active
        .iter()
        .map(|&a| overall_reliability(&empirical_confusion(&dataset.train, a, dataset.num_classes)))
        .collect();
    let pearson = reliability_correlation(&est_rel, &real_rel);

    ReliabilityStudy { top_annotators, estimated, real, pearson, class_names: dataset.class_names.clone() }
}

/// §VI-B sample-efficiency sweep: trains Logic-LNCL and the best baseline
/// (AggNet) on growing fractions of the training data and reports the test
/// metric for each fraction.
pub fn sample_efficiency(scale: Scale, fractions: &[f32], seed: u64) -> Vec<(f32, EvalMetrics, EvalMetrics)> {
    let registry = MethodRegistry::standard();
    let full = scale.sentiment_dataset(seed);
    fractions
        .iter()
        .map(|&fraction| {
            let take = ((full.train.len() as f32 * fraction).round() as usize).max(20);
            let mut dataset = full.clone();
            dataset.train.truncate(take);
            let ctx = scale.run_context(&dataset, seed);
            let logic = registry.run("logic-lncl", &dataset, &ctx).expect("logic-lncl registered");
            let teacher = logic.last().expect("student + teacher rows").prediction;
            let aggnet = registry.run("aggnet", &dataset, &ctx).expect("aggnet registered")[0].prediction;
            (fraction, teacher, aggnet)
        })
        .collect()
}

/// Figure-4 statistics for both datasets.
pub fn figure4(scale: Scale, seed: u64) -> (lncl_crowd::stats::AnnotatorSummary, lncl_crowd::stats::AnnotatorSummary) {
    let sentiment = scale.sentiment_dataset(seed);
    let ner = scale.ner_dataset(seed);
    (annotator_summary(&sentiment), annotator_summary(&ner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_crowd::scenario::generate_scenario;
    use std::collections::BTreeSet;

    #[test]
    fn scenario_sweep_grid_covers_every_axis() {
        let configs = scenario_sweep_configs(Scale::Small, 29);
        // >= 6 archetype mixes per task plus the redundancy / imbalance /
        // pool axes
        assert!(configs.len() >= 14, "sweep too small: {}", configs.len());
        let names: BTreeSet<_> = configs.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names.len(), configs.len(), "scenario names must be unique");
        let mixes: BTreeSet<&str> =
            names.iter().filter(|n| n.starts_with("sent/")).filter_map(|n| n.split('/').nth(1)).collect();
        assert!(mixes.len() >= 6, "expected >= 6 classification mixes, got {mixes:?}");
        assert!(configs.iter().any(|c| c.task == TaskKind::SequenceTagging), "tagging scenarios present");
        assert!(configs.iter().any(|c| c.min_labels_per_instance == 1), "redundancy-1 axis present");
        assert!(configs.iter().any(|c| (c.majority_share - 0.85).abs() < 1e-6), "imbalance axis present");
        // temporal axes: drifted and difficulty-conditioned variants plus
        // their in-sweep static reference, for both tasks
        for task_tag in ["sent", "ner"] {
            assert!(
                names.iter().any(|n| n.starts_with(task_tag) && n.ends_with("/static/flat")),
                "{task_tag}: static temporal reference present"
            );
            assert!(
                names.iter().any(|n| n.starts_with(task_tag) && n.contains("/step0.9/")),
                "{task_tag}: drift axis present"
            );
            assert!(
                names.iter().any(|n| n.starts_with(task_tag) && n.ends_with("/hard0.8")),
                "{task_tag}: difficulty axis present"
            );
        }
        assert!(configs.iter().any(|c| !c.drift.is_static()), "a drifted config is present");
        assert!(configs.iter().any(|c| !c.difficulty.is_degenerate()), "a difficulty-conditioned config is present");
        // every config generates a valid dataset at a shrunken size
        for config in configs.iter().take(3) {
            let dataset = generate_scenario(&config.clone().with_sizes(20, 8, 8));
            assert!(dataset.validate().is_ok(), "{}: invalid dataset", config.name);
        }
    }
}
