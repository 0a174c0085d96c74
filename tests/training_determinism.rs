//! Pins every neural training loop bit for bit on the `Scale::Tiny`
//! sentiment and NER datasets, 2 epochs each:
//!
//! * a `logic-lncl` run must reproduce the per-epoch training loss and the
//!   teacher test metric recorded below;
//! * the registry's `mv-classifier` (supervised training, both its rows),
//!   `cl-mw+pre2` (MV pre-training, then the crowd layer's annotator
//!   matrices trained as `MStep`'s second parameter group), `cl-vw-b`
//!   (sentiment only: per-annotator scaling vectors and biases, no
//!   pre-training) and `logic-lncl-windowed` (the stream-windowed E-step)
//!   must reproduce every row's prediction and inference metrics.  The NER
//!   taggers still predict all-O after 2 epochs, so each pin also checks
//!   one continuous value: the supervised loss history of the Gold
//!   training and the summed non-`O` / positive-class posterior mass of
//!   the trained crowd-layer backbone and of the windowed `q_f`.
//!
//! Values are raw `f32::to_bits`.  Any reordered floating-point reduction
//! in the tensor kernels, the autograd backward rules or a training loop
//! shows up here as a changed bit pattern.

use lncl_bench::Scale;
use lncl_crowd::{CrowdDataset, TaskKind};
use logic_lncl::baselines::train_supervised;
use logic_lncl::baselines::two_stage::gold_targets;
use logic_lncl::method::LogicLnclWindowedMethod;
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

#[test]
fn tiny_sentiment_crowd_layer_vw_b_training_is_bitwise_pinned() {
    let dataset = Scale::Tiny.sentiment_dataset(SEED);
    let config = tiny_config(dataset.task);
    let rows = registry_rows("cl-vw-b", &dataset, &config);
    let mass = posterior_mass("cl-vw-b", &dataset, &config);
    assert_eq!(rows, [[0x3f11_1111, 0x3f11_1111, 0x3f68_f5c3]], "sentiment CL (VW-B) bits moved");
    assert_eq!(mass, 0x4059_0ab1_1f40_0000, "sentiment CL (VW-B) posterior bits moved");
}

/// Asserts that some annotator's label stream (one position per labelled
/// training instance, the windowed E-step's clock) spans at least two
/// windows, so a windowed pin judges labels by more than one window.
fn assert_some_stream_spans_two_windows(dataset: &CrowdDataset) {
    let mut stream = vec![0usize; dataset.num_annotators];
    for cl in dataset.train.iter().flat_map(|inst| &inst.crowd_labels) {
        stream[cl.annotator] += 1;
    }
    let longest = stream.into_iter().max().unwrap_or(0);
    let window = LogicLnclWindowedMethod::WINDOW;
    assert!(
        longest > window,
        "the longest annotator stream ({longest} instances) fits in one {window}-instance window"
    );
}

#[test]
fn tiny_sentiment_windowed_training_is_bitwise_pinned() {
    let dataset = Scale::Tiny.sentiment_dataset(SEED);
    assert_some_stream_spans_two_windows(&dataset);
    let config = tiny_config(dataset.task);
    let rows = registry_rows("logic-lncl-windowed", &dataset, &config);
    let mass = posterior_mass("logic-lncl-windowed", &dataset, &config);
    assert_eq!(rows, [[0x3f22_2222, 0x3f22_2222, 0x3f75_c28f]], "sentiment Logic-LNCL-W bits moved");
    assert_eq!(mass, 0x4057_5809_4d0f_9ab0, "sentiment Logic-LNCL-W posterior bits moved");
}

#[test]
fn tiny_ner_windowed_training_is_bitwise_pinned() {
    let dataset = Scale::Tiny.ner_dataset(SEED);
    assert_some_stream_spans_two_windows(&dataset);
    let config = tiny_config(dataset.task);
    let rows = registry_rows("logic-lncl-windowed", &dataset, &config);
    let mass = posterior_mass("logic-lncl-windowed", &dataset, &config);
    assert_eq!(rows, [[0x0000_0000, 0x3f34_e81b, 0x3f33_3333]], "NER Logic-LNCL-W bits moved");
    assert_eq!(mass, 0x406b_4f98_2de2_4d96, "NER Logic-LNCL-W posterior bits moved");
}
