//! Student / teacher prediction (the paper's `Logic-LNCL-student` and
//! `Logic-LNCL-teacher` output variants) and split-level evaluation.

use crate::distill::TaskRules;
use crate::report::EvalMetrics;
use lncl_crowd::{metrics, Instance, TaskKind};
use lncl_logic::{project_distribution, project_sequence};
use lncl_nn::{Evaluator, InstanceClassifier, Workspace};
use lncl_tensor::stats;
use std::cell::RefCell;

/// Which output to use at test time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionMode {
    /// The trained network `p(t | x; Θ_NN)`.
    Student,
    /// The network prediction adapted with the logic rules through Eq. 15
    /// (replacing `q_a` by `p(t|x)`), as described in "Implementation
    /// details: employ q_b(t) at test phase".
    Teacher,
}

/// Predicts the per-unit class probabilities for one instance under the
/// chosen mode, through an evaluator of the model (see
/// [`Workspace::eval`]); the teacher's clause predictions run through it
/// too.
pub fn predict_proba<M: InstanceClassifier>(
    evaluator: &RefCell<Evaluator<'_, M>>,
    tokens: &[usize],
    mode: PredictionMode,
    rules: &TaskRules,
    regularization_c: f32,
) -> Vec<Vec<f32>> {
    let probs = evaluator.borrow_mut().proba(tokens);
    let student: Vec<Vec<f32>> = (0..probs.rows()).map(|r| probs.row(r).to_vec()).collect();
    match (mode, rules) {
        (PredictionMode::Student, _) | (_, TaskRules::None) => student,
        (PredictionMode::Teacher, TaskRules::Classification(rules)) => {
            let clause = |clause_tokens: &[usize]| evaluator.borrow_mut().proba(clause_tokens).row(0).to_vec();
            let penalties = lncl_logic::grounded_penalties(rules, tokens, &clause, student[0].len());
            vec![project_distribution(&student[0], &penalties, regularization_c)]
        }
        (PredictionMode::Teacher, TaskRules::Sequence(set)) => project_sequence(&student, set, regularization_c),
    }
}

/// Evaluates a model on a dataset split (dev or test), producing accuracy
/// for classification tasks and strict span P/R/F1 (plus token accuracy) for
/// sequence tasks.  One evaluator serves the whole split.
pub fn evaluate_split<M: InstanceClassifier>(
    model: &M,
    split: &[Instance],
    task: TaskKind,
    mode: PredictionMode,
    rules: &TaskRules,
    regularization_c: f32,
) -> EvalMetrics {
    let mut workspace = Workspace::new();
    let evaluator = RefCell::new(workspace.eval(model));
    let predictions: Vec<Vec<usize>> = split
        .iter()
        .map(|inst| {
            let probs = predict_proba(&evaluator, &inst.tokens, mode, rules, regularization_c);
            probs.iter().map(|p| stats::argmax(p)).collect()
        })
        .collect();
    evaluate_predictions(&predictions, split, task)
}

/// Evaluates already-computed hard predictions against a split's gold labels.
pub fn evaluate_predictions(predictions: &[Vec<usize>], split: &[Instance], task: TaskKind) -> EvalMetrics {
    let gold: Vec<Vec<usize>> = split.iter().map(|i| i.gold.clone()).collect();
    match task {
        TaskKind::Classification => {
            let flat_pred: Vec<usize> = predictions.iter().map(|p| p[0]).collect();
            let flat_gold: Vec<usize> = gold.iter().map(|g| g[0]).collect();
            EvalMetrics::from_accuracy(metrics::accuracy(&flat_pred, &flat_gold))
        }
        TaskKind::SequenceTagging => {
            let prf = metrics::span_f1(predictions, &gold);
            let token_acc = metrics::token_accuracy(predictions, &gold);
            EvalMetrics { accuracy: token_acc, precision: prf.precision, recall: prf.recall, f1: prf.f1 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_logic::rules::sentiment_but::SentimentContrastRule;
    use lncl_nn::models::{SentimentCnn, SentimentCnnConfig};
    use lncl_tensor::TensorRng;

    fn tiny_model() -> SentimentCnn {
        let mut rng = TensorRng::seed_from_u64(3);
        SentimentCnn::new(
            SentimentCnnConfig {
                vocab_size: 20,
                embedding_dim: 6,
                windows: vec![2],
                filters_per_window: 4,
                ..Default::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn student_equals_model_probabilities() {
        let model = tiny_model();
        let mut workspace = Workspace::new();
        let evaluator = RefCell::new(workspace.eval(&model));
        let p = predict_proba(&evaluator, &[1, 2, 3], PredictionMode::Student, &TaskRules::None, 5.0);
        let direct = model.predict_proba(&[1, 2, 3]);
        assert_eq!(p[0], direct.row(0));
    }

    #[test]
    fn teacher_without_rules_falls_back_to_student() {
        let model = tiny_model();
        let mut workspace = Workspace::new();
        let evaluator = RefCell::new(workspace.eval(&model));
        let s = predict_proba(&evaluator, &[1, 2, 3], PredictionMode::Student, &TaskRules::None, 5.0);
        let t = predict_proba(&evaluator, &[1, 2, 3], PredictionMode::Teacher, &TaskRules::None, 5.0);
        assert_eq!(s, t);
    }

    #[test]
    fn teacher_differs_on_but_sentences() {
        let model = tiny_model();
        let but = 9usize;
        let rules = TaskRules::Classification(vec![Box::new(SentimentContrastRule::but_rule(but))]);
        let tokens = vec![1, 2, but, 3, 4, 5];
        let mut workspace = Workspace::new();
        let evaluator = RefCell::new(workspace.eval(&model));
        let s = predict_proba(&evaluator, &tokens, PredictionMode::Student, &rules, 5.0);
        let t = predict_proba(&evaluator, &tokens, PredictionMode::Teacher, &rules, 5.0);
        // the teacher projects the prediction towards the clause-B prediction,
        // so unless they already agree exactly the distributions differ.
        let moved = (s[0][0] - t[0][0]).abs() > 1e-6 || (s[0][1] - t[0][1]).abs() > 1e-6;
        let clause_probs = model.predict_proba(&[3, 4, 5]);
        let already_aligned = (clause_probs[(0, 0)] - s[0][0]).abs() < 1e-4;
        assert!(moved || already_aligned);
        // and still a distribution
        assert!((t[0].iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn evaluate_predictions_classification_accuracy() {
        use lncl_crowd::Instance;
        let split = vec![
            Instance { tokens: vec![1], gold: vec![1], crowd_labels: vec![] },
            Instance { tokens: vec![2], gold: vec![0], crowd_labels: vec![] },
        ];
        let metrics = evaluate_predictions(&[vec![1], vec![1]], &split, TaskKind::Classification);
        assert!((metrics.accuracy - 0.5).abs() < 1e-6);
    }

    #[test]
    fn evaluate_predictions_sequence_f1() {
        use lncl_crowd::Instance;
        let split = vec![Instance { tokens: vec![1, 2, 3], gold: vec![0, 1, 2], crowd_labels: vec![] }];
        let perfect = evaluate_predictions(&[vec![0, 1, 2]], &split, TaskKind::SequenceTagging);
        assert_eq!(perfect.f1, 1.0);
        let miss = evaluate_predictions(&[vec![0, 0, 0]], &split, TaskKind::SequenceTagging);
        assert_eq!(miss.f1, 0.0);
    }
}
