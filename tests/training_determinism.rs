//! Pins Logic-LNCL training bit for bit: a 2-epoch `logic-lncl` run on a
//! `Scale::Tiny` sentiment dataset and on a `Scale::Tiny` NER dataset must
//! reproduce the per-epoch training loss and the teacher test metric
//! recorded below (`f32::to_bits`).  Any reordered floating-point reduction
//! in the tensor kernels, the autograd backward rules or the trainer shows
//! up here as a changed bit pattern.

use lncl_bench::Scale;
use lncl_crowd::{CrowdDataset, TaskKind};
use logic_lncl::predict::PredictionMode;
use logic_lncl::{paper_rules, LogicLncl, RunContext};

const EPOCHS: usize = 2;
const SEED: u64 = 1;

/// `(loss_history, teacher test metric, teacher test accuracy, inference
/// metric of the final q_f)` of the registry's `logic-lncl` construction,
/// as raw `f32` bits.
fn run(dataset: &CrowdDataset) -> (Vec<u32>, [u32; 3]) {
    let config = Scale::Tiny.train_config_with_epochs(dataset.task, SEED, EPOCHS);
    let ctx = RunContext::for_dataset(dataset, config);
    let mut trainer = LogicLncl::builder(ctx.model(ctx.config.seed))
        .rules(paper_rules(dataset))
        .config(ctx.config.clone())
        .build(dataset);
    let report = trainer.train(dataset);
    let teacher = trainer.evaluate(&dataset.test, dataset.task, PredictionMode::Teacher);
    let sequence = dataset.task == TaskKind::SequenceTagging;
    let metrics = [teacher.headline(sequence), teacher.accuracy, report.inference.headline(sequence)];
    (report.loss_history.iter().map(|l| l.to_bits()).collect(), metrics.map(f32::to_bits))
}

#[test]
fn tiny_sentiment_training_is_bitwise_pinned() {
    let (losses, metrics) = run(&Scale::Tiny.sentiment_dataset(SEED));
    assert_eq!(losses, [0x3f35_3ddc, 0x3f13_6d31], "sentiment loss_history bits moved");
    assert_eq!(metrics, [0x3f2a_aaab, 0x3f2a_aaab, 0x3f77_0a3d], "sentiment teacher/inference metric bits moved");
}

#[test]
fn tiny_ner_training_is_bitwise_pinned() {
    let (losses, metrics) = run(&Scale::Tiny.ner_dataset(SEED));
    assert_eq!(losses, [0x40c1_b228, 0x407d_33ab], "NER loss_history bits moved");
    // the tagger still predicts all-O after 2 epochs, so span F1 is 0; the
    // token accuracy and the q_f inference F1 carry the signal
    assert_eq!(metrics, [0x0000_0000, 0x3f34_e81b, 0x3f30_5b06], "NER teacher/inference metric bits moved");
}
