//! Cross-scenario robustness sweep: runs every standard-registry method
//! over the crowd-scenario grid (archetype mixes, redundancy, class
//! imbalance, pool size — see `lncl_crowd::scenario`) for both tasks and
//! prints one results table per scenario.  Per-method wall-clock times
//! *and* per-method quality tables land in the benchmark report (cases /
//! quality rows keyed by scenario and method), which the CI
//! `scenario-smoke` step merges across shards, ranks with `bench_diff
//! rank` and archives.
//!
//! Scenarios are sharded two ways, both bitwise identical to the serial
//! path:
//!
//! * **threads** — the grid is spread round-robin across up to
//!   `LNCL_THREADS` scoped worker threads in this process (the budget is
//!   split with per-scenario method parallelism, so `LNCL_THREADS` stays
//!   the overall cap);
//! * **processes** — `LNCL_SHARD=i/N` restricts this process to grid
//!   indices `i, i+N, …` and writes `BENCH_scenario_sweep_shard<i>of<N>.json`;
//!   recombine the shards with `bench_diff merge` (quality rows are
//!   name-sorted on both paths, so the merged report's quality table
//!   equals the serial one).
//!
//! Scale knobs: `LNCL_SCALE` (tiny / small / medium / paper / huge),
//! `LNCL_EPOCHS`, `LNCL_THREADS`, `LNCL_SHARD` — the smoke setting used in
//! CI is `LNCL_EPOCHS=3` in two shards.  Two more knobs serve the
//! scale-predictivity workflow:
//!
//! * `LNCL_SWEEP_METHODS` — comma-separated registry names restricting the
//!   sweep (unknown names warn; per task the filter intersects with the
//!   supporting methods as usual);
//! * `LNCL_SWEEP_QUALITY_ONLY=1` — write the **canonical quality-only**
//!   report (`lncl_bench::quality::quality_only_report`: sorted quality
//!   rows, fixed environment block, no wall-clock cases) instead of the
//!   timed report.  This file is deterministic for a fixed scale/seed, so
//!   a regenerated sweep can be compared against the checked-in
//!   `predictivity_sweep_*.json` with a literal `cmp` (CI does, at tiny
//!   scale).

use lncl_bench::quality::{quality_only_report, record_scenario_outcome, scenario_quality_rows};
use lncl_bench::timing::{env_shard, BenchReport};
use lncl_bench::{
    render_classification_table, render_sequence_table, scenario_sweep_configs, shard_configs, sweep_scenarios, Scale,
};
use lncl_crowd::TaskKind;

/// Parses `LNCL_SWEEP_METHODS` (comma-separated registry names); unset or
/// empty means no filter.
fn env_sweep_methods() -> Option<Vec<String>> {
    let raw = std::env::var("LNCL_SWEEP_METHODS").ok()?;
    let names: Vec<String> = raw.split(',').map(str::trim).filter(|n| !n.is_empty()).map(String::from).collect();
    if names.is_empty() {
        None
    } else {
        Some(names)
    }
}

fn main() {
    let scale = Scale::from_env();
    let quality_only = std::env::var("LNCL_SWEEP_QUALITY_ONLY").is_ok_and(|v| v == "1");
    let method_filter = env_sweep_methods();
    let methods: Option<Vec<&str>> = method_filter.as_ref().map(|names| names.iter().map(String::as_str).collect());
    let grid = scenario_sweep_configs(scale, 29);
    let (configs, target) = match env_shard() {
        Some((index, total)) => (shard_configs(&grid, index, total), format!("scenario_sweep_shard{index}of{total}")),
        None => (grid, "scenario_sweep".to_string()),
    };
    println!(
        "Scenario sweep — {} scenarios (scale {}, {} epochs per training run, target {target})",
        configs.len(),
        scale.name(),
        scale.epochs()
    );
    if let Some(names) = &method_filter {
        println!("method filter (LNCL_SWEEP_METHODS): {}", names.join(", "));
    }
    let outcomes = sweep_scenarios(&configs, scale, methods.as_deref(), lncl_tensor::par::max_threads());
    let mut report = BenchReport::new(&target);
    for (config, outcome) in configs.iter().zip(&outcomes) {
        println!(
            "\n=== {} ({:?}, {} train / {} annotators, redundancy {}-{}, majority share {:.2}) ===",
            config.name,
            config.task,
            config.train_size,
            config.num_annotators,
            config.min_labels_per_instance,
            config.max_labels_per_instance,
            config.majority_share,
        );
        let table = match config.task {
            TaskKind::Classification => render_classification_table(&config.name, &outcome.rows),
            TaskKind::SequenceTagging => render_sequence_table(&config.name, &outcome.rows),
        };
        println!("{table}");
        println!("reliability recovery (consensus vs gold, Pearson): {:.3}", outcome.reliability_pearson);
        for (method, secs) in &outcome.timings {
            report.record(&format!("{}/{method}", config.name), 1, &[*secs]);
        }
        record_scenario_outcome(&mut report, outcome);
    }
    if quality_only {
        // deterministic: sorted rows under a fixed environment block
        let rows = outcomes.iter().flat_map(scenario_quality_rows).collect();
        report = quality_only_report(&target, scale, rows);
    } else {
        // canonical order: a sorted serial report and merged sorted shard
        // reports carry bitwise-identical quality tables
        report.sort_quality();
    }
    let path = report.write().expect("write benchmark report");
    println!("\nwrote {}", path.display());
}
