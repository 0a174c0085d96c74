//! Experiment drivers: one function per paper table / figure.
//!
//! Every method is looked up in the [`MethodRegistry`] by key and run
//! through the polymorphic [`CrowdMethod`] API — the tables are
//! data-driven loops over the key lists in [`crate::methods`].  The tables
//! and the scenario sweep run their method trainings as the jobs of one
//! pool on scoped threads; every run is seeded, so results are
//! reproducible regardless of the thread count.

use crate::methods::validate_methods;
use crate::scale::Scale;
use crate::tables::average_repetitions;
use lncl_crowd::metrics::{
    empirical_confusion, overall_reliability, reliability_correlation, reliability_recovery_pearson,
};
use lncl_crowd::scenario::{generate_scenario, ScenarioConfig, ScenarioGrid};
use lncl_crowd::stats::annotator_summary;
use lncl_crowd::{CrowdDataset, TaskKind};
use lncl_tensor::Matrix;
use logic_lncl::ablation::paper_rules;
use logic_lncl::method::{CrowdMethod, MethodRegistry};
use logic_lncl::{EvalMetrics, LogicLncl, MethodResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Runs `job(0)`, …, `job(count - 1)` on up to `threads` scoped threads and
/// returns every result with its wall-clock seconds, in index order.  Each
/// thread claims the next unclaimed index, so long and short jobs pack
/// without a fixed assignment.
fn run_jobs<T: Send>(count: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<(T, f64)> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T, f64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1).min(count))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // the counter only hands out indices; results come
                        // back through `join`, so no ordering is needed
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break mine;
                        }
                        let start = Instant::now();
                        let result = job(i);
                        mine.push((i, result, start.elapsed().as_secs_f64()));
                    }
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("job thread panicked")).collect()
    });
    done.sort_by_key(|d| d.0);
    done.into_iter().map(|(_, result, secs)| (result, secs)).collect()
}

/// A table's averaged rows plus per-method runtime samples (one sample per
/// repetition, keyed by registry name) for the benchmark report.
pub struct TimedTable {
    /// Rows averaged over the repetitions.
    pub rows: Vec<MethodResult>,
    /// Per-method wall-clock samples in seconds, one per repetition.
    pub timings: Vec<(String, Vec<f64>)>,
}

/// Runs a paper table: the registry `methods` over `reps` freshly
/// generated datasets (`dataset(scale, seed)` for seeds `first_seed`,
/// `first_seed + 1`, …), with rows averaged over the repetitions and one
/// timing sample per method and repetition.  Every (repetition, method)
/// training is one job of a pool on [`lncl_tensor::par::max_threads`]
/// threads (`LNCL_THREADS` overrides).  Tables II and III pass seeds 7 and
/// 11; Table IV calls it once per dataset with the same first seeds.
pub fn table_timed(
    scale: Scale,
    reps: usize,
    methods: &[&str],
    dataset: fn(&Scale, u64) -> CrowdDataset,
    first_seed: u64,
) -> TimedTable {
    let registry = MethodRegistry::standard();
    validate_methods(&registry, methods);
    let data: Vec<_> = (first_seed..first_seed + reps.max(1) as u64)
        .map(|seed| {
            let data = dataset(&scale, seed);
            let ctx = scale.run_context(&data, seed);
            (data, ctx)
        })
        .collect();
    let per_rep = methods.len();
    let runs = run_jobs(data.len() * per_rep, lncl_tensor::par::max_threads(), |i| {
        let (data, ctx) = &data[i / per_rep];
        registry.get(methods[i % per_rep]).expect("validated above").run(data, ctx)
    });
    let timings = methods
        .iter()
        .enumerate()
        .map(|(m, &name)| (name.to_string(), runs.iter().skip(m).step_by(per_rep).map(|(_, secs)| *secs).collect()))
        .collect();
    let mut runs = runs.into_iter();
    let rows: Vec<Vec<MethodResult>> =
        data.iter().map(|_| runs.by_ref().take(per_rep).flat_map(|(rows, _)| rows).collect()).collect();
    TimedTable { rows: average_repetitions(&rows), timings }
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

/// Runs a list of scenarios, returning outcomes in **input order**.  Every
/// scenario's dataset is generated once, up front; then every (scenario,
/// method) training — all registry methods supporting the scenario's task,
/// or the supporting ones among `methods` (in filter order) when given —
/// is one job of a pool on `threads` scoped threads.  Every scenario is
/// independently seeded and every method run is bitwise deterministic, so
/// the outcome rows are identical at any thread count; only the
/// wall-clock timings vary.
///
/// # Panics
///
/// If `methods` names a key that is not in the registry, so a typo fails
/// fast instead of silently dropping rows.
pub fn sweep_scenarios(
    configs: &[ScenarioConfig],
    scale: Scale,
    methods: Option<&[&str]>,
    threads: usize,
) -> Vec<ScenarioOutcome> {
    let registry = MethodRegistry::standard();
    let chosen: Vec<&dyn CrowdMethod> = match methods {
        Some(filter) => {
            validate_methods(&registry, filter);
            filter.iter().map(|&name| registry.get(name).expect("validated above")).collect()
        }
        None => registry.iter().collect(),
    };
    let datasets: Vec<CrowdDataset> = configs.iter().map(generate_scenario).collect();
    let contexts: Vec<_> = configs.iter().zip(&datasets).map(|(c, d)| scale.run_context(d, c.seed)).collect();
    let jobs: Vec<(usize, &dyn CrowdMethod)> = configs
        .iter()
        .enumerate()
        .flat_map(|(s, config)| chosen.iter().filter(|m| m.descriptor().supports(config.task)).map(move |&m| (s, m)))
        .collect();
    let runs = run_jobs(jobs.len(), threads, |i| {
        let (s, method) = jobs[i];
        method.run(&datasets[s], &contexts[s])
    });
    let mut runs = jobs.iter().zip(runs).peekable();
    configs
        .iter()
        .zip(&datasets)
        .enumerate()
        .map(|(s, (config, dataset))| {
            let (mut rows, mut timings) = (Vec::new(), Vec::new());
            while let Some((&(_, method), (method_rows, secs))) = runs.next_if(|((job_s, _), _)| *job_s == s) {
                rows.extend(method_rows);
                timings.push((method.descriptor().name, secs));
            }
            let reliability_pearson = reliability_recovery_pearson(dataset, 5);
            ScenarioOutcome { name: config.name.clone(), task: config.task, rows, timings, reliability_pearson }
        })
        .collect()
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
    use std::collections::BTreeSet;

    /// Row keys and metric bits, for exact comparison of result tables.
    fn row_bits(rows: &[MethodResult]) -> Vec<(String, [u32; 4], Option<[u32; 4]>)> {
        let bits = |m: &EvalMetrics| [m.accuracy, m.precision, m.recall, m.f1].map(f32::to_bits);
        rows.iter().map(|r| (r.method.clone(), bits(&r.prediction), r.inference.as_ref().map(bits))).collect()
    }

    #[test]
    fn table_runner_averages_repetitions_and_keeps_one_sample_each() {
        const METHODS: &[&str] = &["mv", "dawid-skene"];
        let scale = Scale::Tiny;
        let timed = table_timed(scale, 2, METHODS, Scale::sentiment_dataset, 7);
        let names: Vec<&str> = timed.timings.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, METHODS);
        assert!(timed.timings.iter().all(|(_, samples)| samples.len() == 2), "one sample per repetition");
        // the averaged rows are exactly the mean of the two seeded runs
        let reps: Vec<Vec<MethodResult>> = [7, 8]
            .into_iter()
            .map(|seed| {
                let dataset = scale.sentiment_dataset(seed);
                let ctx = scale.run_context(&dataset, seed);
                let registry = MethodRegistry::standard();
                METHODS.iter().flat_map(|&name| registry.run(name, &dataset, &ctx).expect("registered")).collect()
            })
            .collect();
        assert_ne!(row_bits(&reps[0]), row_bits(&reps[1]), "the two repetitions must see different data");
        assert_eq!(row_bits(&timed.rows), row_bits(&average_repetitions(&reps)));
        // one repetition is the first seed's run itself, bit for bit
        let single = table_timed(scale, 1, METHODS, Scale::sentiment_dataset, 7);
        assert_eq!(row_bits(&single.rows), row_bits(&reps[0]));
    }

    #[test]
    fn job_pool_returns_results_in_index_order() {
        // uneven jobs: job 0 is claimed first but waits until every other
        // job is done, so it finishes last
        let finished = AtomicUsize::new(0);
        let uneven: Vec<usize> = run_jobs(6, 3, |i| {
            if i == 0 {
                while finished.load(Ordering::SeqCst) < 5 {
                    std::thread::yield_now();
                }
            } else {
                finished.fetch_add(1, Ordering::SeqCst);
            }
            i * 10
        })
        .into_iter()
        .map(|(r, _)| r)
        .collect();
        assert_eq!(uneven, [0, 10, 20, 30, 40, 50]);
        // more threads than jobs
        let few: Vec<usize> = run_jobs(2, 8, |i| i + 1).into_iter().map(|(r, _)| r).collect();
        assert_eq!(few, [1, 2]);
        // no jobs at all
        assert!(run_jobs(0, 4, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn sweep_rejects_an_unknown_method_name() {
        let config = ScenarioConfig::tiny(TaskKind::Classification);
        sweep_scenarios(&[config], Scale::Tiny, Some(&["mv", "dawid_skene"]), 1);
    }

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
