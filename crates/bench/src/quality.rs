//! Quality-table emission: converts [`MethodResult`] rows into the
//! [`QualityCase`] records of a
//! [`BenchReport`], the machine-readable counterpart of the rendered
//! tables.  Unlike the wall-clock cases these values are deterministic for
//! a fixed seed, which is what lets `bench_diff rank` compare rankings
//! across scenarios and reports exactly.

use crate::experiments::ScenarioOutcome;
use crate::scale::Scale;
use crate::timing::{BenchReport, QualityCase, SCENARIO_CASE};
use lncl_crowd::TaskKind;
use logic_lncl::MethodResult;

/// The metric key ranking tools order methods by: the paper's headline
/// number (accuracy for classification, strict span F1 for tagging) of the
/// prediction columns, falling back to the inference columns for
/// aggregation-only methods that report no prediction.
pub const HEADLINE_METRIC: &str = "headline";

/// The ordered metric entries of one result row.  Prediction metrics are
/// always present (`pred_*`); inference metrics (`inf_*`) only when the
/// method reports them; [`HEADLINE_METRIC`] first, so rankings have a
/// task-appropriate default.
pub fn quality_metrics(row: &MethodResult, sequence_task: bool) -> Vec<(String, f64)> {
    // aggregation-only rows carry the all-zero default prediction (the
    // TruthOnly convention) — only those fall back to inference.  A
    // *trained* method whose span F1 is genuinely 0.0 still has non-zero
    // token accuracy, keeps its (bad) prediction headline and ranks last,
    // instead of being silently re-scored by its inference column.
    let aggregation_only = row.prediction == logic_lncl::EvalMetrics::default();
    let headline = if aggregation_only {
        row.inference.map(|m| m.headline(sequence_task)).unwrap_or(0.0)
    } else {
        row.prediction.headline(sequence_task)
    };
    let mut metrics: Vec<(String, f64)> = vec![
        (HEADLINE_METRIC.to_string(), headline as f64),
        ("pred_accuracy".to_string(), row.prediction.accuracy as f64),
        ("pred_precision".to_string(), row.prediction.precision as f64),
        ("pred_recall".to_string(), row.prediction.recall as f64),
        ("pred_f1".to_string(), row.prediction.f1 as f64),
    ];
    if let Some(inference) = row.inference {
        metrics.push(("inf_accuracy".to_string(), inference.accuracy as f64));
        metrics.push(("inf_precision".to_string(), inference.precision as f64));
        metrics.push(("inf_recall".to_string(), inference.recall as f64));
        metrics.push(("inf_f1".to_string(), inference.f1 as f64));
    }
    metrics
}

/// Records one quality row per result row under a scenario (or dataset)
/// label.
pub fn record_quality_rows(report: &mut BenchReport, scenario: &str, rows: &[MethodResult], sequence_task: bool) {
    for row in rows {
        report.record_quality(scenario, &row.method, quality_metrics(row, sequence_task));
    }
}

/// Records a swept scenario's full quality table: one row per method result
/// plus the scenario-level reliability-recovery statistic under the
/// [`SCENARIO_CASE`] sentinel.
pub fn record_scenario_outcome(report: &mut BenchReport, outcome: &ScenarioOutcome) {
    for row in scenario_quality_rows(outcome) {
        report.record_quality(&row.scenario, &row.method, row.metrics);
    }
}

/// The quality rows one swept scenario contributes to a report — exactly
/// what [`record_scenario_outcome`] records, as plain values.
pub fn scenario_quality_rows(outcome: &ScenarioOutcome) -> Vec<QualityCase> {
    let sequence_task = outcome.task == TaskKind::SequenceTagging;
    let mut rows: Vec<QualityCase> = outcome
        .rows
        .iter()
        .map(|row| QualityCase {
            scenario: outcome.name.clone(),
            method: row.method.clone(),
            metrics: quality_metrics(row, sequence_task),
        })
        .collect();
    rows.push(QualityCase {
        scenario: outcome.name.clone(),
        method: SCENARIO_CASE.to_string(),
        metrics: vec![("reliability_pearson".to_string(), outcome.reliability_pearson as f64)],
    });
    rows
}

/// A **canonical quality-only** report: sorted quality rows under a fixed,
/// deterministic environment block (os / arch / scale / package version —
/// no iteration count, thread cap or wall-clock cases, which vary run to
/// run).  The `scenario_sweep` quality-only mode emits its report through
/// this constructor, so a regenerated sweep is byte-comparable (`cmp`) to
/// the checked-in file.
pub fn quality_only_report(target: &str, scale: Scale, quality: Vec<QualityCase>) -> BenchReport {
    let environment = vec![
        ("os".to_string(), std::env::consts::OS.to_string()),
        ("arch".to_string(), std::env::consts::ARCH.to_string()),
        ("scale".to_string(), scale.name().to_string()),
        ("package_version".to_string(), env!("CARGO_PKG_VERSION").to_string()),
    ];
    let mut report = BenchReport { target: target.to_string(), environment, cases: Vec::new(), quality: Vec::new() };
    for row in quality {
        // route through record_quality so the non-finite-metric guard
        // holds for caller-supplied rows too
        report.record_quality(&row.scenario, &row.method, row.metrics);
    }
    report.sort_quality();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic_lncl::EvalMetrics;

    fn row(pred: f32, inf: Option<f32>) -> MethodResult {
        MethodResult::new("m", EvalMetrics::from_accuracy(pred), inf.map(EvalMetrics::from_accuracy))
    }

    #[test]
    fn headline_prefers_prediction_and_falls_back_to_inference() {
        let with_pred = quality_metrics(&row(0.8, Some(0.9)), false);
        assert_eq!(with_pred[0], (HEADLINE_METRIC.to_string(), 0.8f32 as f64));
        // aggregation-only rows report no prediction (all-zero metrics)
        let inference_only = quality_metrics(&row(0.0, Some(0.9)), false);
        assert_eq!(inference_only[0].1, 0.9f32 as f64);
        assert_eq!(quality_metrics(&row(0.0, None), false)[0].1, 0.0);
    }

    #[test]
    fn failing_trained_method_keeps_its_zero_headline() {
        // an undertrained tagger: token accuracy exists (so this is NOT an
        // aggregation-only row) but span F1 is 0 — the headline must stay 0
        // rather than borrowing the inference column
        let mut r = row(0.0, Some(0.4));
        r.prediction = EvalMetrics { accuracy: 0.6, precision: 0.0, recall: 0.0, f1: 0.0 };
        assert_eq!(quality_metrics(&r, true)[0].1, 0.0);
    }

    #[test]
    fn sequence_headline_uses_span_f1() {
        let mut r = row(0.0, None);
        r.prediction = EvalMetrics { accuracy: 0.9, precision: 0.5, recall: 0.5, f1: 0.5 };
        let metrics = quality_metrics(&r, true);
        assert_eq!(metrics[0].1, 0.5f32 as f64);
        assert!(metrics.iter().all(|(k, _)| !k.starts_with("inf_")), "no inference block without inference metrics");
    }

    #[test]
    fn rows_are_recorded_under_the_scenario() {
        let mut report = BenchReport::new("unit");
        record_quality_rows(&mut report, "sent/clean", &[row(0.7, Some(0.8))], false);
        assert_eq!(report.quality.len(), 1);
        assert_eq!(report.quality[0].scenario, "sent/clean");
        assert_eq!(report.quality[0].method, "m");
        assert_eq!(report.quality[0].metric("inf_f1"), Some(0.8f32 as f64));
    }
}
