//! Regenerates Table II: prediction + inference accuracy of every compared
//! method on the (synthetic) Sentiment Polarity dataset.  The rows are a
//! data-driven loop over `MethodRegistry` lookups (`TABLE2_METHODS`); the
//! per-method wall-clock times and the quality table land in
//! `BENCH_table2_sentiment.json`.
use lncl_bench::quality::record_quality_rows;
use lncl_bench::timing::BenchReport;
use lncl_bench::{render_classification_table, table_timed, Scale, TABLE2_METHODS};

fn main() {
    let scale = Scale::from_env();
    println!(
        "Table II — Sentiment Polarity (scale {scale:?}, {} repetition(s), {} epochs)",
        scale.repetitions(),
        scale.epochs()
    );
    println!("registry methods: {}", TABLE2_METHODS.join(", "));
    let timed = table_timed(scale, scale.repetitions(), TABLE2_METHODS, Scale::sentiment_dataset, 7);
    println!(
        "{}",
        render_classification_table(
            "Performance (accuracy, %) on the synthetic Sentiment Polarity dataset",
            &timed.rows
        )
    );
    let mut report = BenchReport::new("table2_sentiment");
    for (method, samples) in &timed.timings {
        report.record(method, samples.len(), samples);
    }
    record_quality_rows(&mut report, "table2/sentiment", &timed.rows, false);
    let path = report.write().expect("write benchmark report");
    println!("wrote {}", path.display());
}
