//! Micro-benchmarks of the two classifier architectures (forward pass and
//! forward+backward, and one training mini-batch at the trainer's shapes);
//! writes `BENCH_nn_forward.json`.  Every case runs the model
//! `RunContext::for_dataset` builds for a `Scale::Small` dataset on that
//! dataset's training sentences, through the path training takes: the
//! forward cases time one eval-mode sentence through a reused
//! [`Workspace::eval`] evaluator (every evaluation pass in training), the
//! forward+backward cases one training instance through
//! [`Workspace::instance`] (the M-step's per-instance work).  The
//! single-sentence cases cycle over the first [`SENTENCES`] sentences, so
//! no branch predictor learns one sentence.
use lncl_bench::timing::BenchReport;
use lncl_bench::Scale;
use lncl_crowd::CrowdDataset;
use lncl_nn::{Module, Workspace};
use lncl_tensor::TensorRng;
use logic_lncl::baselines::two_stage::gold_targets;
use logic_lncl::RunContext;

/// Distinct training sentences the single-sentence cases cycle over.
const SENTENCES: usize = 48;
/// Instances in the mini-batch of the `*_small_batch` cases.
const BATCH: usize = 25;

fn main() {
    println!("nn_forward");
    let mut report = BenchReport::new("nn_forward");
    for (name, dataset) in
        [("sentiment_cnn", Scale::Small.sentiment_dataset(0)), ("ner_conv_gru", Scale::Small.ner_dataset(0))]
    {
        bench_model(&mut report, name, &dataset);
    }
    let path = report.write().expect("write benchmark report");
    println!("wrote {}", path.display());
}

/// The `{name}_forward`, `{name}_forward_backward` and
/// `{name}_small_batch{BATCH}` cases of `dataset`'s model, with the gold
/// labels as targets.  One workspace serves all three, as `MStep` shares
/// its workspace between the M-step and the E-step's evaluation.
fn bench_model(report: &mut BenchReport, name: &str, dataset: &CrowdDataset) {
    let config = Scale::Small.train_config_with_epochs(dataset.task, 0, 1);
    let mut model = RunContext::for_dataset(dataset, config).model(0);
    let targets = gold_targets(dataset);
    let sentences = (0..SENTENCES.min(dataset.train.len())).cycle();
    let mut workspace = Workspace::new();
    workspace.reserve_tokens(dataset.train.iter().map(|inst| inst.tokens.len()).max().unwrap_or(0));

    let mut evaluator = workspace.eval(&model);
    let mut next = sentences.clone();
    report.bench(&format!("{name}_forward"), || evaluator.proba(&dataset.train[next.next().expect("cycles")].tokens));

    let mut drng = TensorRng::seed_from_u64(1);
    let mut instance = |model: &mut _, workspace: &mut Workspace, i: usize| {
        workspace.instance(model, &mut [], &dataset.train[i].tokens, &mut drng, |tape, _, _, logits| {
            Some(tape.softmax_cross_entropy(logits, targets[i].clone()))
        })
    };
    // the parameters do not change between calls, so one binding serves
    // every instance, as within an M-step mini-batch
    workspace.begin_batch(&model);
    let mut next = sentences;
    report.bench(&format!("{name}_forward_backward"), || {
        instance(&mut model, &mut workspace, next.next().expect("cycles"))
    });
    report.bench(&format!("{name}_small_batch{BATCH}"), || {
        model.zero_grad();
        workspace.begin_batch(&model);
        (0..BATCH).map(|i| instance(&mut model, &mut workspace, i)).sum::<f32>()
    });
}
