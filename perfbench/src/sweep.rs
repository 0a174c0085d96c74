//! `sweep`: the CI-setting scenario sweep — `sweep_scenarios` over
//! `scenario_sweep_configs(Small, 29)`, the full registry, 3 epochs and at
//! most `nproc` threads, dispatched in grid order as CI runs it.  The grid
//! seed is fixed, so the sweep does not depend on `--seed`.  Its operation
//! is one whole sweep; `latency_ms` is the median sweep.  Every quality
//! row must lie within the CI gate of `quality_baseline.json`.
//!
//! The traced mode runs the same sweep once and derives the per-family busy
//! time, idle share and duplicate rows from its per-method timings and rows.

use crate::report::{secs, summarize, Digest, Outcome};
use crate::Args;
use lncl_bench::quality::scenario_quality_rows;
use lncl_bench::timing::{BenchReport, QualityCase};
use lncl_bench::{scenario_sweep_configs, sweep_scenarios, Scale, ScenarioOutcome};
use lncl_crowd::scenario::{generate_scenario, ScenarioConfig};
use logic_lncl::{Family, MethodRegistry, MethodResult};
use std::collections::BTreeMap;
use std::time::Instant;

/// The CI quality gate: largest absolute deviation from the baseline.
const GATE: f64 = 0.05;
const BASELINE: &str = "quality_baseline.json";
/// Set-up passes per window; a window comes before the first sweep and
/// after each sweep.
const SETUP_PER_WINDOW: usize = 7;

fn scale(tiny: bool) -> Scale {
    if tiny {
        Scale::Tiny
    } else {
        Scale::Small
    }
}

fn epochs(tiny: bool) -> usize {
    if tiny {
        1
    } else {
        3
    }
}

/// The sweep grid in grid order (`--tiny`: every sixth scenario at Tiny
/// scale).
fn configs(args: &Args) -> Vec<ScenarioConfig> {
    let configs = scenario_sweep_configs(scale(args.tiny), 29);
    if args.tiny {
        configs.into_iter().step_by(6).collect()
    } else {
        configs
    }
}

pub fn digest(args: &Args) -> u64 {
    let mut digest = Digest::new();
    for config in configs(args) {
        digest.bytes(config.name.as_bytes());
        digest.word(config.content_hash());
        digest.dataset(&generate_scenario(&config));
    }
    digest.finish()
}

/// Generates every scenario of the grid; returns the seconds it took.
fn setup_once(args: &Args) -> f64 {
    let t = Instant::now();
    let datasets: Vec<_> = configs(args).iter().map(generate_scenario).collect();
    let elapsed = secs(t);
    drop(datasets);
    elapsed
}

/// One window of set-up passes.
fn setup_window(args: &Args) -> Vec<f64> {
    (0..SETUP_PER_WINDOW).map(|_| setup_once(args)).collect()
}

pub fn run(args: &Args) -> Outcome {
    // the sweep reads its epoch count from the environment, as in CI
    std::env::set_var("LNCL_EPOCHS", epochs(args.tiny).to_string());
    if args.trace {
        let setup = setup_window(args);
        let mut out = traced(args);
        out.timing("sweep.crowd.scenario_gen_s", &setup, "s");
        return out;
    }
    let mut out = end_to_end(args);
    out.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
    out
}

/// Checks one sweep's quality rows against the checked-in baseline (full
/// size only) and against the first sweep of this run.
fn check_rows(out: &mut Outcome, args: &Args, rows: &[QualityCase], first: &mut Option<Vec<QualityCase>>) {
    let key = |r: &QualityCase| (r.scenario.clone(), r.method.clone());
    let mut by_key: BTreeMap<(String, String), &QualityCase> = BTreeMap::new();
    for row in rows {
        out.check(by_key.insert(key(row), row).is_none(), || format!("duplicate row {}/{}", row.scenario, row.method));
    }
    if !args.tiny {
        match BenchReport::load(std::path::Path::new(BASELINE)) {
            Err(e) => out.check(false, || format!("cannot load {BASELINE}: {e}")),
            Ok(baseline) => {
                for base in &baseline.quality {
                    let current = by_key.get(&key(base));
                    let worst = current.map(|c| {
                        base.metrics
                            .iter()
                            .map(|(name, v)| c.metric(name).map_or(f64::INFINITY, |cur| (cur - v).abs()))
                            .fold(0.0, f64::max)
                    });
                    out.check(worst.is_some_and(|w| w <= GATE), || {
                        format!("{}/{}: deviation {worst:?} from the baseline", base.scenario, base.method)
                    });
                }
                out.check(rows.len() == baseline.quality.len(), || {
                    format!("{} rows against {} baseline rows", rows.len(), baseline.quality.len())
                });
            }
        }
    }
    match first {
        None => *first = Some(rows.to_vec()),
        Some(first) => {
            let same = first.len() == rows.len()
                && first.iter().zip(rows).all(|(a, b)| {
                    key(a) == key(b)
                        && a.metrics.len() == b.metrics.len()
                        && a.metrics.iter().zip(&b.metrics).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
                });
            out.check(same, || "a repeated sweep produced different rows".to_string());
        }
    }
}

fn sorted_rows(outcomes: &[ScenarioOutcome]) -> Vec<QualityCase> {
    let mut rows: Vec<QualityCase> = outcomes.iter().flat_map(scenario_quality_rows).collect();
    rows.sort_by(|a, b| (&a.scenario, &a.method).cmp(&(&b.scenario, &b.method)));
    rows
}

fn end_to_end(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let configs = configs(args);
    let mut walls = Vec::new();
    let mut first = None;
    let mut setup = vec![setup_window(args)];
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let outcomes = sweep_scenarios(&configs, scale(args.tiny), None, lncl_tensor::par::max_threads());
        walls.push(secs(t));
        check_rows(&mut out, args, &sorted_rows(&outcomes), &mut first);
        setup.push(setup_window(args));
        if secs(start) + walls.last().unwrap() > args.seconds {
            break;
        }
    }
    summarize("sweep_s", &walls, "s");
    out.timing("latency_ms", &walls.iter().map(|s| s * 1e3).collect::<Vec<_>>(), "ms");
    out.setup(&setup);
    out
}

/// Rows bitwise-identical (prediction and inference) to a row of another
/// method in the same scenario: training whose result another method
/// already produced.
fn duplicate_rows(rows: &[MethodResult]) -> u64 {
    let fingerprint = |r: &MethodResult| {
        let m = |e: &logic_lncl::EvalMetrics| [e.accuracy, e.precision, e.recall, e.f1].map(f32::to_bits);
        (m(&r.prediction), r.inference.as_ref().map(m))
    };
    rows.iter().filter(|row| rows.iter().any(|o| o.method != row.method && fingerprint(o) == fingerprint(row))).count()
        as u64
}

fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let configs = configs(args);
    let registry = MethodRegistry::standard();
    let threads = lncl_tensor::par::max_threads();
    let start = Instant::now();
    let outcomes = sweep_scenarios(&configs, scale(args.tiny), None, threads);
    let wall = secs(start);
    check_rows(&mut out, args, &sorted_rows(&outcomes), &mut None);

    let mut family_s: BTreeMap<&'static str, f64> = Family::all().iter().map(|f| (f.name(), 0.0)).collect();
    let (mut runs, mut failed, mut duplicates) = (0, 0, 0);
    for outcome in &outcomes {
        for (name, seconds) in &outcome.timings {
            let method = registry.get(name).expect("timings are keyed by registry name");
            *family_s.entry(method.descriptor().family.name()).or_default() += seconds;
        }
        runs += outcome.timings.len();
        failed += registry.supporting(outcome.task).len().saturating_sub(outcome.timings.len());
        duplicates += duplicate_rows(&outcome.rows);
    }
    let busy: f64 = family_s.values().sum();
    for (family, seconds) in &family_s {
        out.metric(format!("sweep.family.{family}_s"), *seconds, "s");
    }
    out.metric("sweep.idle_share", 1.0 - busy / (wall * threads as f64), "ratio");
    out.metric("sweep.duplicate_rows", duplicates as f64, "count");
    out.metric("sweep.method_runs", runs as f64, "count");
    out.metric("sweep.failed_runs", failed as f64, "count");
    out.check(failed == 0, || format!("{failed} registry methods did not run"));
    println!("sweep.traced_wall_s: {wall:.6} s over {threads} thread(s)");
    out
}
