//! Micro-benchmarks of the two classifier architectures
//! (forward pass and forward+backward); writes `BENCH_nn_forward.json`.
use lncl_autograd::Tape;
use lncl_bench::timing::BenchReport;
use lncl_nn::models::{InstanceClassifier, NerConvGru, NerConvGruConfig, SentimentCnn, SentimentCnnConfig};
use lncl_nn::{Binding, Module};
use lncl_tensor::{Matrix, TensorRng};

fn main() {
    println!("nn_forward");
    let mut report = BenchReport::new("nn_forward");
    let mut rng = TensorRng::seed_from_u64(0);
    let cnn = SentimentCnn::new(SentimentCnnConfig { vocab_size: 500, ..Default::default() }, &mut rng);
    let tokens: Vec<usize> = (1..18).collect();
    report.bench("sentiment_cnn_forward", || cnn.predict_proba(&tokens));
    let mut model = cnn.clone();
    report.bench("sentiment_cnn_forward_backward", || {
        forward_backward(&mut model, &tokens, Matrix::row_vector(&[0.3, 0.7]))
    });

    let ner = NerConvGru::new(NerConvGruConfig { vocab_size: 500, ..Default::default() }, &mut rng);
    let sentence: Vec<usize> = (1..15).collect();
    report.bench("ner_conv_gru_forward", || ner.predict_proba(&sentence));
    let mut model = ner.clone();
    let classes = model.num_classes();
    let targets = Matrix::from_fn(sentence.len(), classes, |r, c| if c == r % classes { 1.0 } else { 0.0 });
    report.bench("ner_conv_gru_forward_backward", || forward_backward(&mut model, &sentence, targets.clone()));

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
