//! Collision-checked merging of [`BenchReport`]s — the library behind
//! `bench_diff merge`, which recombines `LNCL_SHARD` sweep shards.
//!
//! The original merge assumed disjoint inputs: timed cases were renamed to
//! `target/case` and quality rows simply concatenated and name-sorted.
//! That silently interleaves *colliding* `(scenario, method)` quality rows
//! from overlapping shards — the sort puts the duplicates side by side and
//! every downstream consumer ([`crate::rank::rank_scenarios`], the
//! quality-baseline gate) quietly keeps whichever sorted first.  This
//! module makes the overlap an **error**: a merge either reproduces the
//! serial report exactly or refuses.

use crate::timing::{BenchReport, CaseStats};
use std::collections::BTreeSet;

/// Why two reports cannot be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// Two inputs carry a quality row for the same `(scenario, method)`.
    DuplicateQuality {
        /// Scenario of the colliding rows.
        scenario: String,
        /// Method of the colliding rows.
        method: String,
    },
    /// Two inputs carry the same target-qualified timed case.
    DuplicateCase {
        /// The qualified case name.
        name: String,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::DuplicateQuality { scenario, method } => {
                write!(f, "colliding quality row {scenario}/{method}: the input shards overlap")
            }
            MergeError::DuplicateCase { name } => {
                write!(f, "colliding timed case {name:?}: the input reports overlap")
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

/// Merges reports into one `merged`-target report: timed cases
/// target-qualified, quality rows concatenated and sorted by
/// `(scenario, method)` — bitwise the serial sweep's quality table when the
/// inputs are a sharded sweep.  Errors on any colliding quality row or
/// qualified case name instead of silently interleaving overlap.
pub fn merge_reports(reports: &[BenchReport]) -> Result<BenchReport, MergeError> {
    let mut merged = BenchReport::new("merged");
    let mut seen_cases: BTreeSet<String> = BTreeSet::new();
    let mut seen_quality: BTreeSet<(String, String)> = BTreeSet::new();
    for report in reports {
        for case in qualified_cases(report) {
            if !seen_cases.insert(case.name.clone()) {
                return Err(MergeError::DuplicateCase { name: case.name });
            }
            merged.cases.push(case);
        }
        for row in &report.quality {
            if !seen_quality.insert((row.scenario.clone(), row.method.clone())) {
                return Err(MergeError::DuplicateQuality {
                    scenario: row.scenario.clone(),
                    method: row.method.clone(),
                });
            }
            merged.quality.push(row.clone());
        }
    }
    // quality rows carry their scenario, so they are not target-qualified;
    // the sorted order makes a shard merge reproduce the serial report
    merged.sort_quality();
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(target: &str, cases: &[&str], quality: &[(&str, &str)]) -> BenchReport {
        let mut r = BenchReport::new(target);
        for name in cases {
            r.cases.push(CaseStats::from_samples(*name, 1, &[1.0]));
        }
        for (scenario, method) in quality {
            r.record_quality(scenario, method, vec![("headline".to_string(), 0.5)]);
        }
        r
    }

    #[test]
    fn disjoint_shards_merge_sorted() {
        let a = report("shard0", &["t0"], &[("s/b", "mv"), ("s/a", "mv")]);
        let b = report("shard1", &["t1"], &[("s/a", "ds")]);
        let merged = merge_reports(&[a, b]).unwrap();
        assert_eq!(merged.cases.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(), vec!["shard0/t0", "shard1/t1"]);
        let keys: Vec<(&str, &str)> = merged.quality.iter().map(|q| (q.scenario.as_str(), q.method.as_str())).collect();
        assert_eq!(keys, vec![("s/a", "ds"), ("s/a", "mv"), ("s/b", "mv")]);
    }

    #[test]
    fn colliding_quality_rows_are_an_error() {
        let a = report("shard0", &[], &[("s/a", "mv")]);
        let b = report("shard1", &[], &[("s/a", "mv")]);
        assert_eq!(
            merge_reports(&[a, b]),
            Err(MergeError::DuplicateQuality { scenario: "s/a".to_string(), method: "mv".to_string() })
        );
    }

    #[test]
    fn colliding_cases_are_an_error_even_across_targets() {
        // two "merged" inputs can carry identically-qualified cases
        let a = report("merged", &["x/t"], &[]);
        let b = report("merged", &["x/t"], &[]);
        assert_eq!(merge_reports(&[a, b]), Err(MergeError::DuplicateCase { name: "x/t".to_string() }));
    }

    #[test]
    fn same_method_on_different_scenarios_is_not_a_collision() {
        let a = report("shard0", &[], &[("s/a", "mv")]);
        let b = report("shard1", &[], &[("s/b", "mv")]);
        assert_eq!(merge_reports(&[a, b]).unwrap().quality.len(), 2);
    }
}
