//! Regenerates Table III: prediction + inference P/R/F1 of every compared
//! method on the (synthetic) CoNLL-2003 NER dataset.  The rows are a
//! data-driven loop over `MethodRegistry` lookups (`TABLE3_METHODS`); the
//! per-method wall-clock times and the quality table land in
//! `BENCH_table3_ner.json`.
use lncl_bench::quality::record_quality_rows;
use lncl_bench::timing::BenchReport;
use lncl_bench::{render_sequence_table, table_timed, Scale, TABLE3_METHODS};

fn main() {
    let scale = Scale::from_env();
    println!(
        "Table III — CoNLL-2003 NER (scale {scale:?}, {} repetition(s), {} epochs)",
        scale.repetitions(),
        scale.epochs()
    );
    println!("registry methods: {}", TABLE3_METHODS.join(", "));
    let timed = table_timed(scale, scale.repetitions(), TABLE3_METHODS, Scale::ner_dataset, 11);
    println!(
        "{}",
        render_sequence_table(
            "Performance (%) on the synthetic CoNLL-2003 NER dataset (strict span metrics)",
            &timed.rows
        )
    );
    let mut report = BenchReport::new("table3_ner");
    for (method, samples) in &timed.timings {
        report.record(method, samples.len(), samples);
    }
    record_quality_rows(&mut report, "table3/ner", &timed.rows, true);
    let path = report.write().expect("write benchmark report");
    println!("wrote {}", path.display());
}
