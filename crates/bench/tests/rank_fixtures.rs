//! Golden-fixture tests for the `bench_diff rank` machinery: two
//! checked-in `BENCH_*.json` reports (the exact schema `scenario_sweep`
//! writes) exercised through parsing, ranking, tie handling, flip
//! detection and multi-report ranking (`bench_diff rank a.json b.json`).

use lncl_bench::rank::{rank_scenarios, ranking_flips, unmatched_rows, RankingFlip};
use lncl_bench::timing::{BenchReport, QualityCase, SCENARIO_CASE};

const REPORT_A: &str = include_str!("fixtures/rank_report_a.json");
const REPORT_B: &str = include_str!("fixtures/rank_report_b.json");

fn load_fixtures() -> (BenchReport, BenchReport) {
    let a = BenchReport::from_json(REPORT_A).expect("report A fixture parses");
    let b = BenchReport::from_json(REPORT_B).expect("report B fixture parses");
    (a, b)
}

/// Both reports' quality rows in the canonical `(scenario, method)` order
/// every written quality table uses.
fn sorted_quality(reports: &[&BenchReport]) -> Vec<QualityCase> {
    let mut rows: Vec<QualityCase> = reports.iter().flat_map(|r| r.quality.iter().cloned()).collect();
    rows.sort_by(|x, y| (&x.scenario, &x.method).cmp(&(&y.scenario, &y.method)));
    rows
}

#[test]
fn fixtures_parse_with_quality_tables() {
    let (a, b) = load_fixtures();
    assert_eq!(a.quality.len(), 7);
    assert_eq!(b.quality.len(), 5);
    assert!(a.quality.iter().any(|q| q.method == SCENARIO_CASE && q.metric("reliability_pearson") == Some(0.91)));
}

#[test]
fn ranking_orders_methods_and_shares_tied_ranks() {
    let (a, _) = load_fixtures();
    let rankings = rank_scenarios(&a.quality, "headline");
    // scenarios in name order; the __scenario__ sentinel never ranks
    assert_eq!(rankings.len(), 2);
    assert_eq!(rankings[0].scenario, "ner/clean");
    assert_eq!(rankings[1].scenario, "sent/clean");
    let sent = &rankings[1];
    let order: Vec<(&str, usize)> = sent.entries.iter().map(|e| (e.method.as_str(), e.rank)).collect();
    // DS and MV tie at 0.97 -> both rank 1 (alphabetical display order),
    // IBCC takes rank 3 (competition ranking), CATD rank 4
    assert_eq!(order, vec![("DS", 1), ("MV", 1), ("IBCC", 3), ("CATD", 4)]);
}

#[test]
fn flips_between_clean_and_spam_scenarios() {
    let (a, b) = load_fixtures();
    let rows = sorted_quality(&[&a, &b]);
    let rankings = rank_scenarios(&rows, "headline");
    let clean = rankings.iter().find(|r| r.scenario == "sent/clean").expect("clean ranked");
    let spam = rankings.iter().find(|r| r.scenario == "sent/spam").expect("spam ranked");
    let flips = ranking_flips(clean, spam);
    // IBCC overtakes both DS and MV under spam; the DS/MV pair is tied on
    // the clean pool, so it is not a flip
    assert_eq!(
        flips,
        vec![
            RankingFlip { demoted: "DS".to_string(), promoted: "IBCC".to_string() },
            RankingFlip { demoted: "MV".to_string(), promoted: "IBCC".to_string() },
        ]
    );
}

#[test]
fn rank_over_sorted_rows_equals_rank_over_individual_reports() {
    let (a, b) = load_fixtures();
    // one report holding both fixtures' rows in canonical order, written
    // and reparsed, then ranked
    let mut combined_report = BenchReport::new("combined");
    combined_report.quality = sorted_quality(&[&a, &b]);
    let reparsed = BenchReport::from_json(&combined_report.to_json()).expect("combined report round-trips");
    let combined_rankings = rank_scenarios(&reparsed.quality, "headline");
    // ranking the concatenated per-report quality rows directly (what
    // `bench_diff rank a.json b.json` does) must agree
    let concatenated: Vec<QualityCase> = a.quality.iter().chain(&b.quality).cloned().collect();
    let direct_rankings = rank_scenarios(&concatenated, "headline");
    assert_eq!(combined_rankings, direct_rankings);
    assert_eq!(combined_rankings.len(), 3);
}

#[test]
fn quality_gate_flags_drops_against_a_baseline_fixture() {
    let (a, _) = load_fixtures();
    let mut current = a.quality.clone();
    // degrade DS on sent/clean and drop CATD entirely
    for case in &mut current {
        if case.scenario == "sent/clean" && case.method == "DS" {
            case.metrics = vec![("headline".to_string(), 0.80)];
        }
    }
    current.retain(|c| !(c.scenario == "sent/clean" && c.method == "CATD"));
    let mut lost: Vec<(&str, &str)> =
        unmatched_rows(&a.quality, &current).iter().map(|r| (r.scenario.as_str(), r.method.as_str())).collect();
    lost.sort();
    assert_eq!(lost, vec![("sent/clean", "CATD"), ("sent/clean", "DS")]);
    let new: Vec<&str> = unmatched_rows(&current, &a.quality).iter().map(|r| r.method.as_str()).collect();
    assert_eq!(new, vec!["DS"]);
    // the baseline against itself: nothing fires
    assert!(unmatched_rows(&a.quality, &a.quality).is_empty());
}
