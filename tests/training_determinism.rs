//! Pins every neural training loop bit for bit on the `Scale::Tiny`
//! sentiment and NER datasets, 2 epochs each:
//!
//! * a `logic-lncl` run must reproduce the per-epoch training loss and the
//!   teacher test metric recorded below;
//! * the registry's `mv-classifier` (supervised training, both its rows)
//!   and `cl-mw+pre2` (MV pre-training, then the crowd-layer loop) must
//!   reproduce every row's prediction and inference metrics.  The NER
//!   taggers still predict all-O after 2 epochs, so each pin also checks
//!   one continuous value: the supervised loss history of the Gold
//!   training and the summed non-`O` / positive-class posterior mass of
//!   the trained crowd-layer backbone.
//!
//! Values are raw `f32::to_bits`.  Any reordered floating-point reduction
//! in the tensor kernels, the autograd backward rules or a training loop
//! shows up here as a changed bit pattern.

use lncl_bench::Scale;
use lncl_crowd::{CrowdDataset, TaskKind};
use logic_lncl::baselines::train_supervised;
use logic_lncl::baselines::two_stage::gold_targets;
use logic_lncl::predict::PredictionMode;
use logic_lncl::{paper_rules, LogicLncl, MethodRegistry, RunContext, TrainConfig};

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

/// `[prediction headline, prediction accuracy, inference headline]` bits of
/// every row a registry entry emits under `config`.
fn registry_rows(key: &str, dataset: &CrowdDataset, config: &TrainConfig) -> Vec<[u32; 3]> {
    let ctx = RunContext::for_dataset(dataset, config.clone());
    let rows = MethodRegistry::standard().run(key, dataset, &ctx).expect("registry key resolves");
    let sequence = dataset.task == TaskKind::SequenceTagging;
    rows.iter()
        .map(|row| {
            let inference = row.inference.expect("trained rows report inference");
            [row.prediction.headline(sequence), row.prediction.accuracy, inference.headline(sequence)].map(f32::to_bits)
        })
        .collect()
}

/// Loss-history bits of supervised training on the gold labels (the `gold`
/// entry's construction).
fn supervised_losses(dataset: &CrowdDataset, config: &TrainConfig) -> Vec<u32> {
    let ctx = RunContext::for_dataset(dataset, config.clone());
    let mut model = ctx.model(ctx.config.seed);
    let report = train_supervised(&mut model, dataset, &gold_targets(dataset), &ctx.config);
    report.loss_history.iter().map(|l| l.to_bits()).collect()
}

/// Bits of the posterior mass outside class 0, summed in `f64` over every
/// training unit, of a registry entry's `infer_posteriors`.
fn posterior_mass(key: &str, dataset: &CrowdDataset, config: &TrainConfig) -> u64 {
    let ctx = RunContext::for_dataset(dataset, config.clone());
    let registry = MethodRegistry::standard();
    let method = registry.get(key).expect("registry key resolves");
    let posteriors = method.infer_posteriors(dataset, &ctx).expect("the entry exposes posteriors");
    posteriors.iter().flat_map(|row| &row[1..]).map(|&p| f64::from(p)).sum::<f64>().to_bits()
}

fn tiny_config(task: TaskKind) -> TrainConfig {
    Scale::Tiny.train_config_with_epochs(task, SEED, EPOCHS)
}

#[test]
fn tiny_sentiment_supervised_training_is_bitwise_pinned() {
    // no sweep or table run sets `lr_decay`; halving every epoch exercises
    // the step-decay path
    let dataset = Scale::Tiny.sentiment_dataset(SEED);
    let config = TrainConfig { lr_decay: Some((0.5, 1)), ..tiny_config(dataset.task) };
    let rows = registry_rows("mv-classifier", &dataset, &config);
    let losses = supervised_losses(&dataset, &config);
    let mv_classifier = [0x3f0c_cccd, 0x3f0c_cccd, 0x3f73_3333];
    let mv_teacher = [0x3f19_999a, 0x3f19_999a, 0x3f73_3333];
    assert_eq!(rows, [mv_classifier, mv_teacher], "sentiment MV-Classifier / MV-t bits moved");
    assert_eq!(losses, [0x3f37_1527, 0x3f0e_ef53], "sentiment supervised loss_history bits moved");
}

#[test]
fn tiny_ner_supervised_training_is_bitwise_pinned() {
    let dataset = Scale::Tiny.ner_dataset(SEED);
    let config = tiny_config(dataset.task);
    let rows = registry_rows("mv-classifier", &dataset, &config);
    let losses = supervised_losses(&dataset, &config);
    assert_eq!(rows, [[0x0000_0000, 0x3f34_e81b, 0x3f2d_38b7]; 2], "NER MV-Classifier / MV-t bits moved");
    assert_eq!(losses, [0x4003_9835, 0x3fbe_9812], "NER supervised loss_history bits moved");
}

#[test]
fn tiny_sentiment_crowd_layer_training_is_bitwise_pinned() {
    let dataset = Scale::Tiny.sentiment_dataset(SEED);
    let config = tiny_config(dataset.task);
    let rows = registry_rows("cl-mw+pre2", &dataset, &config);
    let mass = posterior_mass("cl-mw+pre2", &dataset, &config);
    assert_eq!(rows, [[0x3f26_6666, 0x3f26_6666, 0x3f6f_5c29]], "sentiment CL (MW) [2 pretrain] bits moved");
    assert_eq!(mass, 0x4057_08da_78fc_0000, "sentiment CL (MW) [2 pretrain] posterior bits moved");
}

#[test]
fn tiny_ner_crowd_layer_training_is_bitwise_pinned() {
    let dataset = Scale::Tiny.ner_dataset(SEED);
    let config = tiny_config(dataset.task);
    let rows = registry_rows("cl-mw+pre2", &dataset, &config);
    let mass = posterior_mass("cl-mw+pre2", &dataset, &config);
    assert_eq!(rows, [[0x0000_0000, 0x3f34_e81b, 0x0000_0000]], "NER CL (MW) [2 pretrain] bits moved");
    assert_eq!(mass, 0x406a_cac4_e83d_f800, "NER CL (MW) [2 pretrain] posterior bits moved");
}
