//! Micro-benchmarks of the two classifier architectures
//! (forward pass and forward+backward, and one training mini-batch at the
//! trainer's shapes); writes `BENCH_nn_forward.json`.  The forward cases
//! time one eval-mode sentence through a reused [`Workspace::eval`]
//! evaluator, the path of every evaluation pass in training.
use lncl_autograd::Tape;
use lncl_bench::timing::BenchReport;
use lncl_bench::Scale;
use lncl_crowd::CrowdDataset;
use lncl_nn::models::{InstanceClassifier, NerConvGru, NerConvGruConfig, SentimentCnn, SentimentCnnConfig};
use lncl_nn::{Binding, Module, Workspace};
use lncl_tensor::{Matrix, TensorRng};
use logic_lncl::baselines::two_stage::gold_targets;
use logic_lncl::RunContext;

/// Instances in the mini-batch of the `*_small_batch` cases.
const BATCH: usize = 25;

fn main() {
    println!("nn_forward");
    let mut report = BenchReport::new("nn_forward");
    let mut rng = TensorRng::seed_from_u64(0);
    let cnn = SentimentCnn::new(SentimentCnnConfig { vocab_size: 500, ..Default::default() }, &mut rng);
    let tokens: Vec<usize> = (1..18).collect();
    let mut workspace = Workspace::new();
    let mut evaluator = workspace.eval(&cnn);
    report.bench("sentiment_cnn_forward", || evaluator.proba(&tokens));
    let mut model = cnn.clone();
    report.bench("sentiment_cnn_forward_backward", || {
        forward_backward(&mut model, &tokens, Matrix::row_vector(&[0.3, 0.7]))
    });

    let ner = NerConvGru::new(NerConvGruConfig { vocab_size: 500, ..Default::default() }, &mut rng);
    let sentence: Vec<usize> = (1..15).collect();
    let mut workspace = Workspace::new();
    let mut evaluator = workspace.eval(&ner);
    report.bench("ner_conv_gru_forward", || evaluator.proba(&sentence));
    let mut model = ner.clone();
    let classes = model.num_classes();
    let targets = Matrix::from_fn(sentence.len(), classes, |r, c| if c == r % classes { 1.0 } else { 0.0 });
    report.bench("ner_conv_gru_forward_backward", || forward_backward(&mut model, &sentence, targets.clone()));

    for (name, dataset) in
        [("sentiment_cnn", Scale::Small.sentiment_dataset(0)), ("ner_conv_gru", Scale::Small.ner_dataset(0))]
    {
        report.bench(&format!("{name}_small_batch{BATCH}"), train_batch(&dataset));
    }

    let path = report.write().expect("write benchmark report");
    println!("wrote {}", path.display());
}

/// One training-mode forward + backward + gradient accumulation, the
/// per-instance work of the M-step.  The model is built once outside the
/// timed closure; only its gradient accumulators are reset here.
fn forward_backward<M: InstanceClassifier + Module>(model: &mut M, tokens: &[usize], targets: Matrix) -> f32 {
    model.zero_grad();
    let mut tape = Tape::new();
    let mut binding = Binding::new();
    let mut drng = TensorRng::seed_from_u64(1);
    let logits = model.forward_logits(&mut tape, &mut binding, tokens, true, &mut drng);
    let loss = tape.softmax_cross_entropy(logits, targets);
    tape.backward(loss);
    binding.accumulate(&tape, model.params_mut());
    model.grad_norm()
}

/// One mini-batch of the M-step on `dataset`'s first [`BATCH`] training
/// sentences, gold labels as targets, with the model
/// `RunContext::for_dataset` builds, through [`Workspace::instance`] as
/// `MStep::epoch` runs it.  Returns the batch's summed loss.
fn train_batch(dataset: &CrowdDataset) -> impl FnMut() -> f32 + '_ {
    let config = Scale::Small.train_config_with_epochs(dataset.task, 0, 1);
    let mut model = RunContext::for_dataset(dataset, config).model(0);
    let targets = gold_targets(dataset);
    let mut workspace = Workspace::new();
    workspace.reserve_tokens(dataset.train.iter().map(|inst| inst.tokens.len()).max().unwrap_or(0));
    let mut drng = TensorRng::seed_from_u64(1);
    move || {
        model.zero_grad();
        workspace.begin_batch(&model);
        let mut loss = 0.0;
        for (inst, target) in dataset.train.iter().zip(&targets).take(BATCH) {
            loss += workspace.instance(&mut model, &inst.tokens, &mut drng, |tape, logits| {
                tape.softmax_cross_entropy(logits, target.clone())
            });
        }
        loss
    }
}
