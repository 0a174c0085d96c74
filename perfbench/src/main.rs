//! The repository benchmark: three workloads (`train`, `sweep`, `serve`)
//! driven from outside the program through each crate's public API.
//!
//! ```text
//! perfbench --workload <train|sweep|serve> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! perfbench --digest --workload <name> --seed <n> [--tiny]
//! perfbench --record-quality > perfbench/expected_quality.txt
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! metrics.  `layers.json` names the workload that measures each metric,
//! its unit and the end-to-end metrics it should move; every run prints
//! every metric of its section, and those of layers the workload does not
//! exercise read 0.  Every workload checks its own outputs and
//! counts each violation as a failed operation.  The last line of standard
//! output is one JSON object `{"correct", "attempted", "failed", "metrics"}`;
//! the lines before it give every timing as a median plus its highest
//! well-supported percentile and sample count.  `--tiny` shrinks every
//! workload for the self-test; `--digest` prints a hash of the generated
//! inputs instead of running.

mod report;
mod serve;
mod sweep;
mod train;

use lncl_bench::json::Json;
use report::Outcome;

/// Which workload measures each metric, with its unit and what it moves.
const LAYERS: &str = include_str!("../layers.json");

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--record-quality") {
        train::record_quality();
        std::process::exit(0);
    }
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, tiny: false, digest: false };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--tiny" => args.tiny = true,
            "--digest" => args.digest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.digest {
        let digest = match args.workload.as_str() {
            "train" => train::digest(&args),
            "sweep" => sweep::digest(&args),
            "serve" => serve::digest(&args),
            other => {
                eprintln!("perfbench: unknown workload {other:?}");
                std::process::exit(2);
            }
        };
        println!("{digest:016x}");
        return;
    }
    let mut outcome: Outcome = match args.workload.as_str() {
        "train" => train::run(&args),
        "sweep" => sweep::run(&args),
        "serve" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (expected train, sweep or serve)");
            std::process::exit(2);
        }
    };
    add_unexercised(&mut outcome, &args);
    outcome.print();
}

/// Adds, as 0, every metric of the run's section that `layers.json` assigns
/// to another workload: this workload does not exercise that layer.
fn add_unexercised(outcome: &mut Outcome, args: &Args) {
    let section = if args.trace { "per_layer" } else { "end_to_end" };
    let layers = Json::parse(LAYERS).expect("layers.json parses");
    let Some(Json::Obj(metrics)) = layers.get(section) else {
        panic!("layers.json has no {section} object");
    };
    for (name, entry) in metrics {
        let workloads = entry.get("workloads").and_then(Json::as_array).expect("a workloads list");
        if workloads.iter().any(|w| w.as_str() == Some(args.workload.as_str())) {
            continue;
        }
        outcome.metric(name.clone(), 0.0, entry.get("unit").and_then(Json::as_str).expect("a unit"));
    }
}
