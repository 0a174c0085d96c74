//! Benchmark self-test at a tiny size: every workload emits every metric
//! `BENCHMARK.json` names in its section, with its unit, and nothing else;
//! `layers.json` lists the same metrics and units; and two runs with one
//! seed generate byte-identical inputs.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use lncl_bench::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repository").to_path_buf()
}

fn load(path: PathBuf) -> Json {
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn perfbench(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("perfbench starts");
    assert!(output.status.success(), "perfbench {args:?} failed: {}", String::from_utf8_lossy(&output.stderr));
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

/// Runs one tiny workload and returns its result line.
fn run(workload: &str, trace: &str) -> Json {
    let stdout = perfbench(&["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"]);
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last:?}: {e}"));
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload} --trace {trace}: {last}");
    result
}

fn name_list(section: &Json) -> Vec<(String, String)> {
    section
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let bench = load(repo_root().join("BENCHMARK.json"));
    let layers = load(repo_root().join("perfbench/layers.json"));
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let named = name_list(bench.get(section).expect(section));
        let Some(Json::Obj(listed)) = layers.get(section) else { panic!("layers.json lacks {section}") };
        let listed: Vec<(String, String)> = listed
            .iter()
            .map(|(name, entry)| (name.clone(), entry.get("unit").and_then(Json::as_str).unwrap_or("").to_string()))
            .collect();
        assert_eq!(listed, named, "layers.json and BENCHMARK.json list different {section} metrics or units");
        for workload in &workloads {
            let result = run(workload, trace);
            let Some(Json::Obj(emitted)) = result.get("metrics") else { panic!("{workload}: no metrics object") };
            let emitted: Vec<(String, String)> = emitted
                .iter()
                .map(|(name, metric)| {
                    assert!(metric.get("value").and_then(Json::as_f64).is_some(), "{workload}: {name} has no value");
                    (name.clone(), metric.get("unit").and_then(Json::as_str).unwrap_or("").to_string())
                })
                .collect();
            let mut sorted_emitted = emitted.clone();
            sorted_emitted.sort();
            let mut sorted_named = named.clone();
            sorted_named.sort();
            assert_eq!(sorted_emitted, sorted_named, "{workload} --trace {trace} emits other metrics than named");
        }
    }
}

#[test]
fn one_seed_generates_identical_inputs() {
    for workload in ["train", "sweep", "serve"] {
        let digest = |seed: &str| perfbench(&["--digest", "--workload", workload, "--seed", seed, "--tiny"]);
        assert_eq!(digest("5"), digest("5"), "{workload}: two runs with one seed generated different inputs");
        if workload != "sweep" {
            assert_ne!(digest("5"), digest("6"), "{workload}: the seed does not reach the inputs");
        }
    }
}
