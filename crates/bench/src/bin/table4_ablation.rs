//! Regenerates Table IV: the ablation study on both datasets, averaged over
//! `LNCL_REPS` repetitions like Tables II and III.  The rows are
//! a data-driven loop over `MethodRegistry` lookups (`TABLE4_METHODS`); the
//! per-method wall-clock times and the quality tables land in
//! `BENCH_table4_ablation.json`.
use lncl_bench::quality::record_quality_rows;
use lncl_bench::timing::BenchReport;
use lncl_bench::{render_classification_table, render_sequence_table, table_timed, Scale, TABLE4_METHODS};

fn main() {
    let scale = Scale::from_env();
    println!(
        "Table IV — ablation study (scale {scale:?}, {} repetition(s), {} epochs)",
        scale.repetitions(),
        scale.epochs()
    );
    println!("registry methods: {}", TABLE4_METHODS.join(", "));
    let mut report = BenchReport::new("table4_ablation");

    let timed = table_timed(scale, scale.repetitions(), TABLE4_METHODS, Scale::sentiment_dataset, 7);
    println!("{}", render_classification_table("Ablation on the sentiment dataset (accuracy, %)", &timed.rows));
    for (method, samples) in &timed.timings {
        report.record(&format!("sentiment/{method}"), samples.len(), samples);
    }
    record_quality_rows(&mut report, "table4/sentiment", &timed.rows, false);

    let timed = table_timed(scale, scale.repetitions(), TABLE4_METHODS, Scale::ner_dataset, 11);
    println!("{}", render_sequence_table("Ablation on the NER dataset (strict span metrics, %)", &timed.rows));
    for (method, samples) in &timed.timings {
        report.record(&format!("ner/{method}"), samples.len(), samples);
    }
    record_quality_rows(&mut report, "table4/ner", &timed.rows, true);

    let path = report.write().expect("write benchmark report");
    println!("wrote {}", path.display());
}
