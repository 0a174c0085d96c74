//! Method-ranking analysis over the quality tables of `BENCH_*.json`
//! reports — the machinery behind `bench_diff rank`.
//!
//! The paper's central empirical claim is a *ranking* of methods, and the
//! interesting question across crowd scenarios is where that ranking
//! flips.  This module turns [`QualityCase`] rows into per-scenario
//! rankings ([`rank_scenarios`]), detects strict pairwise order reversals
//! between two rankings ([`ranking_flips`]) and finds the rows one report
//! does not hold bitwise ([`unmatched_rows`], what `bench_diff rank
//! --gate` fails on, the quality counterpart of the `bench_diff compare
//! --gate` perf gate).

use crate::timing::{QualityCase, SCENARIO_CASE};
use std::collections::BTreeMap;

/// One method's position in a scenario ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct RankEntry {
    /// Method row label.
    pub method: String,
    /// The ranked metric's value.
    pub value: f64,
    /// 1-based competition rank: `1 + #methods with strictly greater
    /// value`, so tied methods share a rank.
    pub rank: usize,
}

/// All methods of one scenario ordered best-first.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRanking {
    /// Scenario the ranking belongs to.
    pub scenario: String,
    /// Entries ordered by descending value, ties alphabetically.
    pub entries: Vec<RankEntry>,
}

impl ScenarioRanking {
    /// The rank of a method, if ranked.
    pub fn rank_of(&self, method: &str) -> Option<usize> {
        self.entries.iter().find(|e| e.method == method).map(|e| e.rank)
    }
}

/// Groups quality rows by scenario and ranks each scenario's methods by
/// `metric`, descending.  Scenario-level rows ([`SCENARIO_CASE`]) and rows
/// lacking the metric are skipped; duplicate `(scenario, method)` rows
/// (e.g. merged overlapping reports) keep their first occurrence.
/// Scenarios are returned in name order.
pub fn rank_scenarios(cases: &[QualityCase], metric: &str) -> Vec<ScenarioRanking> {
    let mut by_scenario: BTreeMap<&str, BTreeMap<&str, f64>> = BTreeMap::new();
    for case in cases {
        if case.method == SCENARIO_CASE {
            continue;
        }
        let Some(value) = case.metric(metric) else { continue };
        by_scenario.entry(&case.scenario).or_default().entry(&case.method).or_insert(value);
    }
    by_scenario
        .into_iter()
        .filter(|(_, methods)| !methods.is_empty())
        .map(|(scenario, methods)| {
            let mut ordered: Vec<(&str, f64)> = methods.into_iter().collect();
            ordered.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
            let entries = ordered
                .iter()
                .map(|&(method, value)| RankEntry {
                    method: method.to_string(),
                    value,
                    rank: 1 + ordered.iter().filter(|&&(_, other)| other > value).count(),
                })
                .collect();
            ScenarioRanking { scenario: scenario.to_string(), entries }
        })
        .collect()
}

/// One strict pairwise order reversal between two rankings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankingFlip {
    /// Method strictly ahead of `promoted` in the first ranking, strictly
    /// behind it in the second.
    pub demoted: String,
    /// Method overtaking `demoted` in the second ranking.
    pub promoted: String,
}

/// Strict pairwise order reversals from ranking `a` to ranking `b`: every
/// method pair where one strictly outranks the other in `a` and strictly
/// trails it in `b`.  Ties on either side are not flips, and methods
/// ranked in only one of the two rankings are skipped.  Each reversal is
/// reported once, oriented `(demoted, promoted)`, sorted by that pair.
pub fn ranking_flips(a: &ScenarioRanking, b: &ScenarioRanking) -> Vec<RankingFlip> {
    let shared: Vec<&str> = a.entries.iter().map(|e| e.method.as_str()).filter(|m| b.rank_of(m).is_some()).collect();
    let mut flips = Vec::new();
    for &x in &shared {
        for &y in &shared {
            let (ax, ay) = (a.rank_of(x).expect("shared"), a.rank_of(y).expect("shared"));
            let (bx, by) = (b.rank_of(x).expect("shared"), b.rank_of(y).expect("shared"));
            if ax < ay && bx > by {
                flips.push(RankingFlip { demoted: x.to_string(), promoted: y.to_string() });
            }
        }
    }
    flips.sort_by(|p, q| (&p.demoted, &p.promoted).cmp(&(&q.demoted, &q.promoted)));
    flips
}

/// The rows of `rows` that `other` does not hold bitwise: the same
/// scenario, method and metric keys in the same order, each value equal to
/// the bit.  Row order does not matter, and a row listed `n` times needs
/// `n` copies in `other`.  Quality values are deterministic given the
/// seeds, so in both directions this is the quality gate: any moved bit
/// fails it.
pub fn unmatched_rows<'a>(rows: &'a [QualityCase], other: &[QualityCase]) -> Vec<&'a QualityCase> {
    let bits = |q: &QualityCase| {
        let metrics: Vec<(String, u64)> = q.metrics.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect();
        (q.scenario.clone(), q.method.clone(), metrics)
    };
    let mut left: BTreeMap<_, usize> = BTreeMap::new();
    for q in other {
        *left.entry(bits(q)).or_default() += 1;
    }
    rows.iter()
        .filter(|q| match left.get_mut(&bits(q)) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(scenario: &str, method: &str, headline: f64) -> QualityCase {
        QualityCase {
            scenario: scenario.to_string(),
            method: method.to_string(),
            metrics: vec![("headline".to_string(), headline)],
        }
    }

    #[test]
    fn ranks_descending_with_shared_ranks_for_ties() {
        let cases =
            vec![case("s", "low", 0.5), case("s", "tie-b", 0.8), case("s", "tie-a", 0.8), case("s", "top", 0.9)];
        let rankings = rank_scenarios(&cases, "headline");
        assert_eq!(rankings.len(), 1);
        let methods: Vec<&str> = rankings[0].entries.iter().map(|e| e.method.as_str()).collect();
        assert_eq!(methods, vec!["top", "tie-a", "tie-b", "low"]);
        let ranks: Vec<usize> = rankings[0].entries.iter().map(|e| e.rank).collect();
        assert_eq!(ranks, vec![1, 2, 2, 4], "competition ranking: ties share, next rank skips");
    }

    #[test]
    fn scenario_sentinel_and_missing_metrics_are_skipped() {
        let mut cases = vec![case("s", "m", 0.5), case("s", SCENARIO_CASE, 0.9)];
        cases.push(QualityCase {
            scenario: "s".to_string(),
            method: "other-metric".to_string(),
            metrics: vec![("pred_f1".to_string(), 1.0)],
        });
        let rankings = rank_scenarios(&cases, "headline");
        assert_eq!(rankings[0].entries.len(), 1);
        assert_eq!(rankings[0].entries[0].method, "m");
    }

    #[test]
    fn duplicate_rows_keep_the_first_occurrence() {
        let cases = vec![case("s", "m", 0.5), case("s", "m", 0.9)];
        let rankings = rank_scenarios(&cases, "headline");
        assert_eq!(rankings[0].entries.len(), 1);
        assert_eq!(rankings[0].entries[0].value, 0.5);
    }

    #[test]
    fn flips_are_strict_reversals_only() {
        let a = rank_scenarios(&[case("a", "x", 0.9), case("a", "y", 0.5), case("a", "z", 0.7)], "headline");
        let b = rank_scenarios(&[case("b", "x", 0.4), case("b", "y", 0.8), case("b", "z", 0.4)], "headline");
        let flips = ranking_flips(&a[0], &b[0]);
        // x>y -> x<y and z>y -> z<y flip; x>z -> x==z (tie) is NOT a flip
        assert_eq!(
            flips,
            vec![
                RankingFlip { demoted: "x".to_string(), promoted: "y".to_string() },
                RankingFlip { demoted: "z".to_string(), promoted: "y".to_string() },
            ]
        );
        assert!(ranking_flips(&a[0], &a[0]).is_empty(), "a ranking never flips against itself");
    }

    #[test]
    fn flips_ignore_methods_missing_from_one_side() {
        let a = rank_scenarios(&[case("a", "x", 0.9), case("a", "y", 0.5)], "headline");
        let b = rank_scenarios(&[case("b", "y", 0.8)], "headline");
        assert!(ranking_flips(&a[0], &b[0]).is_empty());
    }

    #[test]
    fn unmatched_rows_catch_any_moved_bit_and_missing_or_new_rows() {
        let baseline = vec![case("s", "a", 0.8), case("s", "b", 0.5), case("s", "gone", 0.1), case("t", "a", 0.0)];
        assert!(unmatched_rows(&baseline, &baseline).is_empty());
        // row order does not matter, but every copy of a row needs a match
        let reversed: Vec<QualityCase> = baseline.iter().rev().cloned().collect();
        assert!(unmatched_rows(&baseline, &reversed).is_empty());
        let doubled = [&baseline[..], &baseline[..1]].concat();
        assert_eq!(unmatched_rows(&doubled, &baseline), vec![&baseline[0]]);

        // one ulp, a vanished row, a new row and the sign of a zero
        let mut current = baseline.clone();
        current[0].metrics[0].1 = f64::from_bits(0.8f64.to_bits() + 1);
        current[2] = case("s", "new", 0.1);
        current[3].metrics[0].1 = -0.0;
        let lost: Vec<&str> = unmatched_rows(&baseline, &current).iter().map(|q| q.method.as_str()).collect();
        assert_eq!(lost, vec!["a", "gone", "a"]);
        assert_eq!(unmatched_rows(&current, &baseline), vec![&current[0], &current[2], &current[3]]);

        // a renamed or an extra metric is a mismatch too
        let mut renamed = baseline.clone();
        renamed[1].metrics[0].0 = "pred_f1".to_string();
        renamed[0].metrics.push(("inf_f1".to_string(), 0.3));
        assert_eq!(unmatched_rows(&renamed, &baseline).len(), 2);
    }
}
