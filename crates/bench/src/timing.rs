//! A dependency-free micro-benchmark harness used by the `benches/` targets
//! (the container has no crates.io access, so criterion is not available).
//!
//! Each bench target is a plain `harness = false` binary that builds a
//! [`BenchReport`], times its cases through [`BenchReport::bench`] (printing
//! one human-readable line per case, as before) and finally writes the
//! machine-readable `BENCH_<target>.json` via [`BenchReport::write`].  The
//! JSON files are what the CI `bench-smoke` job archives and gates on (see
//! the crate README and `bench_diff`).

use crate::json::Json;
use std::path::PathBuf;
use std::time::Instant;

/// Number of timed iterations (`LNCL_BENCH_ITERS` overrides, default 20;
/// an invalid value warns on stderr and falls back to the default).
pub fn bench_iters() -> usize {
    lncl_tensor::env::env_usize("LNCL_BENCH_ITERS").unwrap_or(20).max(1)
}

/// Statistics of one benchmark case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStats {
    /// Case name (unique within a report).
    pub name: String,
    /// Total number of timed iterations.
    pub iters: usize,
    /// Mean seconds per iteration.
    pub mean_s: f64,
    /// Fastest sample, seconds per iteration.
    pub min_s: f64,
    /// Population standard deviation across samples, seconds per iteration.
    pub stddev_s: f64,
}

impl CaseStats {
    /// Computes the statistics from per-iteration samples (seconds each).
    pub fn from_samples(name: impl Into<String>, iters: usize, samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "CaseStats::from_samples: no samples");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        Self { name: name.into(), iters, mean_s: mean, min_s: min, stddev_s: var.sqrt() }
    }
}

/// One row of a quality table: the evaluation metrics one method achieved
/// on one scenario (or table dataset).  Unlike [`CaseStats`] the values are
/// deterministic given the seed, so `bench_diff rank` can compare and rank
/// them exactly across scenarios and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityCase {
    /// Scenario (or dataset) the row belongs to, e.g.
    /// `sent/clean/r3-5/j12/b0.50` or `table2/sentiment`.
    pub scenario: String,
    /// Method row label within the scenario (`MV`, `Logic-LNCL-teacher`, …);
    /// the sentinel [`SCENARIO_CASE`] marks scenario-level metrics that
    /// belong to no single method.
    pub method: String,
    /// Ordered metric key/value pairs (`headline`, `pred_accuracy`, …).
    pub metrics: Vec<(String, f64)>,
}

/// The [`QualityCase::method`] sentinel for scenario-level metrics
/// (e.g. `reliability_pearson`); ranking tools skip these rows.
pub const SCENARIO_CASE: &str = "__scenario__";

impl QualityCase {
    /// Looks a metric up by key.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// A machine-readable benchmark report: environment metadata plus per-case
/// mean/min/stddev and optional per-method quality tables, serialised as
/// `BENCH_<target>.json` (schema documented in the crate README).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The bench target name (`nn_forward`, `table2_sentiment`, …).
    pub target: String,
    /// Environment metadata as ordered key/value pairs.
    pub environment: Vec<(String, String)>,
    /// Timed cases in execution order.
    pub cases: Vec<CaseStats>,
    /// Quality-table rows (empty for pure micro-benchmark targets; the
    /// field is omitted from the JSON when empty, so pre-quality reports
    /// still parse).
    pub quality: Vec<QualityCase>,
}

impl BenchReport {
    /// Creates a report for `target` and captures the environment metadata
    /// (OS, architecture, iteration count, thread cap, scale, package
    /// version).
    pub fn new(target: impl Into<String>) -> Self {
        let scale = std::env::var("LNCL_SCALE").unwrap_or_else(|_| "small".to_string());
        let environment = vec![
            ("os".to_string(), std::env::consts::OS.to_string()),
            ("arch".to_string(), std::env::consts::ARCH.to_string()),
            ("iters".to_string(), bench_iters().to_string()),
            ("threads".to_string(), lncl_tensor::par::max_threads().to_string()),
            ("scale".to_string(), scale),
            ("package_version".to_string(), env!("CARGO_PKG_VERSION").to_string()),
        ];
        Self { target: target.into(), environment, cases: Vec::new(), quality: Vec::new() }
    }

    /// Records one quality-table row.
    pub fn record_quality(&mut self, scenario: &str, method: &str, metrics: Vec<(String, f64)>) {
        for (key, value) in &metrics {
            assert!(value.is_finite(), "record_quality({scenario}/{method}): non-finite metric {key}={value}");
        }
        self.quality.push(QualityCase { scenario: scenario.to_string(), method: method.to_string(), metrics });
    }

    /// Sorts the quality rows by `(scenario, method)` — the canonical order
    /// every written quality table uses, so two reports of the same sweep
    /// compare row by row however their rows were recorded.
    pub fn sort_quality(&mut self) {
        self.quality.sort_by(|a, b| (&a.scenario, &a.method).cmp(&(&b.scenario, &b.method)));
    }

    /// Times `f` over [`bench_iters`] iterations (after one warm-up call),
    /// prints the usual `name: <mean per iter>` line, records the case and
    /// returns the mean seconds per iteration.
    ///
    /// Iterations are grouped into up to 10 samples so the min/stddev
    /// columns are meaningful without paying a clock read per iteration.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> f64 {
        let iters = bench_iters();
        let num_samples = iters.min(10);
        let per_sample = iters.div_ceil(num_samples);
        std::hint::black_box(f());
        let mut samples = Vec::with_capacity(num_samples);
        let mut done = 0usize;
        while done < iters {
            let batch = per_sample.min(iters - done);
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            samples.push(start.elapsed().as_secs_f64() / batch as f64);
            done += batch;
        }
        self.record(name, iters, &samples)
    }

    /// Records a case from externally collected per-iteration samples
    /// (seconds each), printing the usual one-line summary.  Returns the
    /// mean.
    pub fn record(&mut self, name: &str, iters: usize, samples: &[f64]) -> f64 {
        let stats = CaseStats::from_samples(name, iters, samples);
        println!("{name:<44} {}", format_duration(stats.mean_s));
        let mean = stats.mean_s;
        self.cases.push(stats);
        mean
    }

    /// The file this report writes to: `BENCH_<target>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.target)
    }

    /// Serialises to the JSON schema documented in the crate README.
    pub fn to_json(&self) -> String {
        let environment = Json::Obj(self.environment.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect());
        let cases = Json::Arr(
            self.cases
                .iter()
                .map(|c| {
                    Json::Obj(vec![
                        ("name".to_string(), Json::Str(c.name.clone())),
                        ("iters".to_string(), Json::Num(c.iters as f64)),
                        ("mean_s".to_string(), Json::Num(c.mean_s)),
                        ("min_s".to_string(), Json::Num(c.min_s)),
                        ("stddev_s".to_string(), Json::Num(c.stddev_s)),
                    ])
                })
                .collect(),
        );
        let mut members = vec![
            ("schema_version".to_string(), Json::Num(1.0)),
            ("target".to_string(), Json::Str(self.target.clone())),
            ("environment".to_string(), environment),
            ("cases".to_string(), cases),
        ];
        if !self.quality.is_empty() {
            let quality = Json::Arr(
                self.quality
                    .iter()
                    .map(|q| {
                        Json::Obj(vec![
                            ("scenario".to_string(), Json::Str(q.scenario.clone())),
                            ("method".to_string(), Json::Str(q.method.clone())),
                            (
                                "metrics".to_string(),
                                Json::Obj(q.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect()),
                            ),
                        ])
                    })
                    .collect(),
            );
            members.push(("quality".to_string(), quality));
        }
        Json::Obj(members).render()
    }

    /// Parses a report back from its JSON form.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let target = doc.get("target").and_then(Json::as_str).ok_or("missing \"target\"")?.to_string();
        let environment = match doc.get("environment") {
            Some(Json::Obj(members)) => members
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_str().ok_or("non-string environment value")?.to_string())))
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing \"environment\" object".to_string()),
        };
        let cases = doc
            .get("cases")
            .and_then(Json::as_array)
            .ok_or("missing \"cases\" array")?
            .iter()
            .map(|c| {
                let field = |key: &str| c.get(key).and_then(Json::as_f64).ok_or(format!("case missing {key:?}"));
                Ok(CaseStats {
                    name: c.get("name").and_then(Json::as_str).ok_or("case missing \"name\"")?.to_string(),
                    iters: field("iters")? as usize,
                    mean_s: field("mean_s")?,
                    min_s: field("min_s")?,
                    stddev_s: field("stddev_s")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        // absent in pre-quality reports (e.g. an old bench_baseline.json)
        let quality = match doc.get("quality") {
            None => Vec::new(),
            Some(node) => node
                .as_array()
                .ok_or("\"quality\" is not an array")?
                .iter()
                .map(|q| {
                    let text = |key: &str| {
                        q.get(key)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("quality row missing {key:?}"))
                    };
                    let metrics = match q.get("metrics") {
                        Some(Json::Obj(members)) => members
                            .iter()
                            .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or("non-numeric quality metric")?)))
                            .collect::<Result<Vec<_>, String>>()?,
                        _ => return Err("quality row missing \"metrics\" object".to_string()),
                    };
                    Ok(QualityCase { scenario: text("scenario")?, method: text("method")?, metrics })
                })
                .collect::<Result<Vec<_>, String>>()?,
        };
        Ok(Self { target, environment, cases, quality })
    }

    /// Writes `BENCH_<target>.json` and returns the path.  The directory
    /// is `LNCL_BENCH_DIR` when set; otherwise the nearest ancestor of the
    /// current directory containing a `Cargo.lock` (the workspace root —
    /// cargo runs bench binaries from the package directory), falling back
    /// to the current directory.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = match std::env::var("LNCL_BENCH_DIR") {
            Ok(dir) => PathBuf::from(dir),
            Err(_) => {
                let cwd = std::env::current_dir()?;
                cwd.ancestors().find(|a| a.join("Cargo.lock").is_file()).unwrap_or(&cwd).to_path_buf()
            }
        };
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Reads a report from a JSON file.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text)
    }
}

/// Times `f` over [`bench_iters`] iterations (after one warm-up call) and
/// prints `name: <mean per iter>`.  Returns the mean duration in seconds.
///
/// Thin wrapper kept for ad-hoc timing; bench targets should go through
/// [`BenchReport`] so the case lands in the JSON report.
pub fn bench<R>(name: &str, f: impl FnMut() -> R) -> f64 {
    BenchReport::new("adhoc").bench(name, f)
}

fn format_duration(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:>10.3} s/iter")
    } else if secs >= 1e-3 {
        format!("{:>10.3} ms/iter", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:>10.3} µs/iter", secs * 1e6)
    } else {
        format!("{:>10.1} ns/iter", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_times() {
        let secs = bench("noop", || 1 + 1);
        assert!(secs >= 0.0);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert!(format_duration(2.0).contains("s/iter"));
        assert!(format_duration(2e-3).contains("ms/iter"));
        assert!(format_duration(2e-6).contains("µs/iter"));
        assert!(format_duration(2e-9).contains("ns/iter"));
    }

    #[test]
    fn case_stats_from_samples() {
        let stats = CaseStats::from_samples("c", 30, &[1.0, 2.0, 3.0]);
        assert_eq!(stats.iters, 30);
        assert!((stats.mean_s - 2.0).abs() < 1e-12);
        assert_eq!(stats.min_s, 1.0);
        assert!((stats.stddev_s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn report_collects_cases() {
        let mut report = BenchReport::new("unit_test");
        report.bench("fast_case", || 40 + 2);
        assert_eq!(report.cases.len(), 1);
        assert_eq!(report.cases[0].name, "fast_case");
        assert!(report.cases[0].min_s <= report.cases[0].mean_s);
        assert!(report.environment.iter().any(|(k, _)| k == "os"));
        assert_eq!(report.file_name(), "BENCH_unit_test.json");
    }

    #[test]
    fn json_round_trip_preserves_report_exactly() {
        let mut report = BenchReport::new("roundtrip");
        report.record("case/a", 20, &[1.5e-6, 2.5e-6, 2.0e-6]);
        report.record("case/b", 20, &[4.2e-3]);
        let back = BenchReport::from_json(&report.to_json()).expect("parse");
        assert_eq!(back, report);
    }

    #[test]
    fn from_json_rejects_malformed_reports() {
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("{\"target\": \"x\"}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
    }

    #[test]
    fn quality_rows_round_trip_exactly() {
        let mut report = BenchReport::new("quality_roundtrip");
        report.record("mv", 1, &[0.25]);
        report.record_quality(
            "sent/clean/r3-5",
            "MV",
            vec![("headline".to_string(), 0.9375f32 as f64), ("inf_accuracy".to_string(), 0.91_f32 as f64)],
        );
        report.record_quality("sent/clean/r3-5", SCENARIO_CASE, vec![("reliability_pearson".to_string(), -0.25)]);
        let back = BenchReport::from_json(&report.to_json()).expect("parse");
        assert_eq!(back, report);
        assert_eq!(back.quality[0].metric("headline"), Some(0.9375f32 as f64));
        assert_eq!(back.quality[0].metric("missing"), None);
    }

    #[test]
    fn reports_without_quality_still_parse() {
        // the pre-quality schema had no "quality" member at all
        let report = BenchReport::new("legacy");
        assert!(!report.to_json().contains("quality"));
        let back = BenchReport::from_json(&report.to_json()).expect("parse");
        assert!(back.quality.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-finite metric")]
    fn non_finite_quality_metrics_are_rejected() {
        let mut report = BenchReport::new("nan");
        report.record_quality("s", "m", vec![("headline".to_string(), f64::NAN)]);
    }

    #[test]
    fn sort_quality_orders_by_scenario_then_method() {
        let mut report = BenchReport::new("sorting");
        report.record_quality("b", "x", vec![]);
        report.record_quality("a", "y", vec![]);
        report.record_quality("a", "x", vec![]);
        report.sort_quality();
        let keys: Vec<(&str, &str)> = report.quality.iter().map(|q| (q.scenario.as_str(), q.method.as_str())).collect();
        assert_eq!(keys, vec![("a", "x"), ("a", "y"), ("b", "x")]);
    }
}
