//! Collision-checked merging of timed [`BenchReport`]s — the library behind
//! `bench_diff merge`, which combines the micro-bench reports into
//! `bench_baseline.json`, and behind `bench_diff compare`'s case keys.
//!
//! Timed cases are renamed to `target/case`, so cases of different targets
//! never clash.  The merge refuses two things instead of silently picking
//! one: the same qualified case in two inputs (a report merged twice), and
//! any input that carries quality rows — quality tables come from one
//! `scenario_sweep` run and are never merged.

use crate::timing::{BenchReport, CaseStats};
use std::collections::BTreeSet;

/// Why two reports cannot be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// Two inputs carry the same target-qualified timed case.
    DuplicateCase {
        /// The qualified case name.
        name: String,
    },
    /// An input carries quality rows, which a timed-case merge would drop.
    QualityRows {
        /// Target of the offending report.
        target: String,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::DuplicateCase { name } => {
                write!(f, "colliding timed case {name:?}: the input reports overlap")
            }
            MergeError::QualityRows { target } => {
                write!(f, "report {target:?} carries quality rows: merge only combines timed cases")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// A report's timed cases with names qualified as `target/case` (unless
/// already qualified, or the report is itself a merge product).
pub fn qualified_cases(report: &BenchReport) -> Vec<CaseStats> {
    report
        .cases
        .iter()
        .map(|c| {
            // merged reports already carry target-qualified names
            let name = if c.name.starts_with(&format!("{}/", report.target)) || report.target == "merged" {
                c.name.clone()
            } else {
                format!("{}/{}", report.target, c.name)
            };
            CaseStats { name, ..c.clone() }
        })
        .collect()
}

/// Merges timed reports into one `merged`-target report with
/// target-qualified case names.  Errors on a colliding qualified case name
/// and on any input that carries quality rows.
pub fn merge_reports(reports: &[BenchReport]) -> Result<BenchReport, MergeError> {
    let mut merged = BenchReport::new("merged");
    let mut seen_cases: BTreeSet<String> = BTreeSet::new();
    for report in reports {
        if !report.quality.is_empty() {
            return Err(MergeError::QualityRows { target: report.target.clone() });
        }
        for case in qualified_cases(report) {
            if !seen_cases.insert(case.name.clone()) {
                return Err(MergeError::DuplicateCase { name: case.name });
            }
            merged.cases.push(case);
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(target: &str, cases: &[&str]) -> BenchReport {
        let mut r = BenchReport::new(target);
        for name in cases {
            r.cases.push(CaseStats::from_samples(*name, 1, &[1.0]));
        }
        r
    }

    #[test]
    fn cases_merge_target_qualified_in_input_order() {
        let a = report("nn_forward", &["t0", "nn_forward/t1"]);
        let b = report("em_steps", &["t0"]);
        let merged = merge_reports(&[a, b]).unwrap();
        let names: Vec<&str> = merged.cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["nn_forward/t0", "nn_forward/t1", "em_steps/t0"]);
        assert!(merged.quality.is_empty());
    }

    #[test]
    fn colliding_cases_are_an_error_even_across_targets() {
        // two "merged" inputs can carry identically-qualified cases
        let a = report("merged", &["x/t"]);
        let b = report("merged", &["x/t"]);
        assert_eq!(merge_reports(&[a, b]), Err(MergeError::DuplicateCase { name: "x/t".to_string() }));
    }

    #[test]
    fn inputs_with_quality_rows_are_an_error() {
        let a = report("nn_forward", &["t0"]);
        let mut b = report("scenario_sweep", &["s/mv"]);
        b.record_quality("s", "MV", vec![("headline".to_string(), 0.5)]);
        assert_eq!(merge_reports(&[a, b]), Err(MergeError::QualityRows { target: "scenario_sweep".to_string() }));
    }
}
