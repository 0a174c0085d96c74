//! Sequence version of the posterior-regularisation projection.
//!
//! For sequence labelling the rule-regularised distribution
//! `q_b(t_1..t_T) ∝ Π_t q_a(t_t) · Π_t exp{−C · penalty(t_{t−1}, t_t)}`
//! is a chain-structured Markov random field: unary potentials are the
//! per-token posteriors `q_a`, pairwise potentials encode the transition
//! rules (Eq. 18/19).  The per-token marginals of `q_b` — which is what the
//! pseudo-M-step trains against — are computed exactly with the
//! forward–backward algorithm, as the paper notes ("we can use dynamic
//! programming for efficient computation in Equation 15").

use crate::rule::SequenceRuleSet;
use lncl_tensor::{stats, Matrix};

/// Projects per-token posteriors `qa` (one distribution per token) onto the
/// subspace regularised by the transition `rules`, returning the per-token
/// marginals of `q_b`.
///
/// Generic over the per-token storage so callers can pass `&[Vec<f32>]` or
/// a vector of matrix-row slices without copying.
pub fn project_sequence<S: AsRef<[f32]>>(qa: &[S], rules: &SequenceRuleSet, regularization: f32) -> Vec<Vec<f32>> {
    if qa.is_empty() {
        return Vec::new();
    }
    let k = qa[0].as_ref().len();
    assert_eq!(rules.num_classes(), k, "rule set covers {} classes, posteriors have {k}", rules.num_classes());
    assert!(regularization >= 0.0, "regularization strength must be non-negative");
    if qa.len() == 1 || regularization == 0.0 {
        // no pairwise terms: q_b == q_a (renormalised)
        return qa.iter().map(|p| stats::normalized(p.as_ref())).collect();
    }

    let t_len = qa.len();
    // log unary and pairwise potentials, one row per token / previous class
    let mut log_unary = vec![0.0f32; t_len * k];
    for (row, p) in log_unary.chunks_exact_mut(k).zip(qa) {
        for (u, &v) in row.iter_mut().zip(p.as_ref()) {
            *u = v.max(1e-12).ln();
        }
    }
    let log_pair = Matrix::from_fn(k, k, |prev, cur| -regularization * rules.penalty_for(prev, cur));
    // columns (rows) of `log_pair` equal bit for bit give every forward
    // (backward) log-sum-exp the same inputs, so each is computed once per
    // distinct one: in the NER rules the O and B-* columns are all -0
    let first_equal = |same: &dyn Fn(usize, usize) -> bool| -> Vec<usize> {
        (0..k).map(|a| (0..=a).find(|&b| same(a, b)).expect("a equals itself")).collect()
    };
    let bits = |prev: usize, cur: usize| log_pair[(prev, cur)].to_bits();
    let col_of = first_equal(&|a, b| (0..k).all(|prev| bits(prev, a) == bits(prev, b)));
    let row_of = first_equal(&|a, b| (0..k).all(|cur| bits(a, cur) == bits(b, cur)));
    let (mut scores, mut lse) = (vec![0.0f32; k], vec![0.0f32; k]);

    // forward
    let mut alpha = vec![0.0f32; t_len * k];
    alpha[..k].copy_from_slice(&log_unary[..k]);
    for t in 1..t_len {
        for cur in 0..k {
            if col_of[cur] == cur {
                for (prev, score) in scores.iter_mut().enumerate() {
                    *score = alpha[(t - 1) * k + prev] + log_pair[(prev, cur)];
                }
                lse[cur] = stats::log_sum_exp(&scores);
            }
            alpha[t * k + cur] = lse[col_of[cur]] + log_unary[t * k + cur];
        }
    }
    // backward
    let mut beta = vec![0.0f32; t_len * k];
    for t in (0..t_len - 1).rev() {
        for prev in 0..k {
            if row_of[prev] == prev {
                for (cur, score) in scores.iter_mut().enumerate() {
                    *score = log_pair[(prev, cur)] + log_unary[(t + 1) * k + cur] + beta[(t + 1) * k + cur];
                }
                lse[prev] = stats::log_sum_exp(&scores);
            }
            beta[t * k + prev] = lse[row_of[prev]];
        }
    }
    // marginals
    (0..t_len)
        .map(|t| {
            for (m, joint) in scores.iter_mut().enumerate() {
                *joint = alpha[t * k + m] + beta[t * k + m];
            }
            stats::softmax(&scores)
        })
        .collect()
}

/// Brute-force reference: enumerates all `K^T` label sequences and computes
/// the exact marginals of `q_b`.  Only feasible for tiny inputs; used to
/// validate [`project_sequence`] in tests.
pub fn project_sequence_bruteforce(qa: &[Vec<f32>], rules: &SequenceRuleSet, regularization: f32) -> Vec<Vec<f32>> {
    let t_len = qa.len();
    if t_len == 0 {
        return Vec::new();
    }
    let k = qa[0].len();
    let mut marginals = vec![vec![0.0f32; k]; t_len];
    let total_sequences = k.pow(t_len as u32);
    let mut normaliser = 0.0f64;
    let mut weights = Vec::with_capacity(total_sequences);
    for code in 0..total_sequences {
        // decode the label sequence
        let mut labels = Vec::with_capacity(t_len);
        let mut rest = code;
        for _ in 0..t_len {
            labels.push(rest % k);
            rest /= k;
        }
        let mut log_w = 0.0f32;
        for (t, &l) in labels.iter().enumerate() {
            log_w += qa[t][l].max(1e-12).ln();
            if t > 0 {
                log_w -= regularization * rules.penalty_for(labels[t - 1], l);
            }
        }
        let w = log_w.exp() as f64;
        normaliser += w;
        weights.push((labels, w));
    }
    for (labels, w) in weights {
        for (t, &l) in labels.iter().enumerate() {
            marginals[t][l] += (w / normaliser) as f32;
        }
    }
    marginals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::ner_transition::{ner_bad_rules, ner_transition_rules};
    use lncl_tensor::TensorRng;

    /// The forward–backward pass with one log-sum-exp per `(t, class)` and
    /// a `Vec` per step, as first written: the bitwise oracle of
    /// [`project_sequence`] for `T >= 2` and `C > 0`.
    fn project_sequence_reference(qa: &[Vec<f32>], rules: &SequenceRuleSet, regularization: f32) -> Vec<Vec<f32>> {
        let (t_len, k) = (qa.len(), qa[0].len());
        let log_unary: Vec<Vec<f32>> = qa.iter().map(|p| p.iter().map(|&v| v.max(1e-12).ln()).collect()).collect();
        let log_pair = Matrix::from_fn(k, k, |prev, cur| -regularization * rules.penalty_for(prev, cur));
        let mut alpha = vec![vec![0.0f32; k]; t_len];
        alpha[0].clone_from(&log_unary[0]);
        for t in 1..t_len {
            for cur in 0..k {
                let scores: Vec<f32> = (0..k).map(|prev| alpha[t - 1][prev] + log_pair[(prev, cur)]).collect();
                alpha[t][cur] = stats::log_sum_exp(&scores) + log_unary[t][cur];
            }
        }
        let mut beta = vec![vec![0.0f32; k]; t_len];
        for t in (0..t_len - 1).rev() {
            for prev in 0..k {
                let scores: Vec<f32> =
                    (0..k).map(|cur| log_pair[(prev, cur)] + log_unary[t + 1][cur] + beta[t + 1][cur]).collect();
                beta[t][prev] = stats::log_sum_exp(&scores);
            }
        }
        (0..t_len)
            .map(|t| {
                let joint: Vec<f32> = (0..k).map(|m| alpha[t][m] + beta[t][m]).collect();
                stats::softmax(&joint)
            })
            .collect()
    }

    #[test]
    fn shared_log_sum_exps_are_bitwise_the_reference() {
        let mut rng = TensorRng::seed_from_u64(15);
        let rule_sets = [ner_transition_rules(0.8, 0.2), ner_transition_rules(0.5, 0.5), ner_bad_rules(), toy_rules()];
        let mut chains = 0;
        for rules in &rule_sets {
            let k = rules.num_classes();
            for t_len in (2..=30).step_by(2) {
                for c in [0.5f32, 5.0] {
                    for _ in 0..10 {
                        // random distributions, some entries exactly zero
                        let qa: Vec<Vec<f32>> = (0..t_len)
                            .map(|_| {
                                let mut p: Vec<f32> =
                                    (0..k).map(|_| if rng.uniform() < 0.2 { 0.0 } else { rng.uniform() }).collect();
                                p[rng.usize_below(k)] += 0.1;
                                stats::normalized(&p)
                            })
                            .collect();
                        let bits = |m: Vec<Vec<f32>>| -> Vec<u32> { m.iter().flatten().map(|v| v.to_bits()).collect() };
                        assert_eq!(
                            bits(project_sequence(&qa, rules, c)),
                            bits(project_sequence_reference(&qa, rules, c)),
                            "{} rules, T = {t_len}, C = {c}",
                            rules.name
                        );
                        chains += 1;
                    }
                }
            }
        }
        assert_eq!(chains, 1200);
    }

    fn toy_rules() -> SequenceRuleSet {
        // class 1 must not follow class 0 (penalty 1), everything else free.
        let mut penalty = Matrix::zeros(3, 3);
        penalty[(0, 1)] = 1.0;
        SequenceRuleSet::new("toy", penalty)
    }

    #[test]
    fn empty_and_single_token_sequences() {
        let rules = toy_rules();
        assert!(project_sequence::<Vec<f32>>(&[], &rules, 5.0).is_empty());
        let single = project_sequence(&[vec![0.2, 0.3, 0.5]], &rules, 5.0);
        assert_eq!(single.len(), 1);
        assert!((single[0][2] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn zero_regularisation_returns_qa() {
        let qa = vec![vec![0.7, 0.2, 0.1], vec![0.1, 0.8, 0.1]];
        let out = project_sequence(&qa, &toy_rules(), 0.0);
        for (o, q) in out.iter().zip(&qa) {
            for (a, b) in o.iter().zip(q) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn forbidden_transition_is_suppressed() {
        // token 0 is almost surely class 0; token 1 slightly prefers class 1,
        // but the 0 -> 1 transition is penalised, so mass should move away.
        let qa = vec![vec![0.95, 0.04, 0.01], vec![0.30, 0.45, 0.25]];
        let out = project_sequence(&qa, &toy_rules(), 5.0);
        assert!(out[1][1] < 0.15, "penalised class should lose mass: {:?}", out[1]);
        assert!((out[1][0] + out[1][2]) > 0.85);
    }

    #[test]
    fn matches_bruteforce_on_small_chains() {
        let qa = vec![vec![0.5, 0.3, 0.2], vec![0.2, 0.5, 0.3], vec![0.1, 0.2, 0.7], vec![0.4, 0.4, 0.2]];
        let rules = toy_rules();
        for c in [0.5f32, 2.0, 5.0] {
            let dp = project_sequence(&qa, &rules, c);
            let brute = project_sequence_bruteforce(&qa, &rules, c);
            for (d, b) in dp.iter().zip(&brute) {
                for (x, y) in d.iter().zip(b) {
                    assert!((x - y).abs() < 1e-4, "C={c}: dp {dp:?} vs brute {brute:?}");
                }
            }
        }
    }

    #[test]
    fn marginals_are_distributions() {
        let qa = vec![vec![0.6, 0.3, 0.1]; 6];
        let out = project_sequence(&qa, &toy_rules(), 3.0);
        for p in out {
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn ner_rules_clean_invalid_bio_sequences() {
        // 9-class BIO. qa says token 1 is I-PER (class 2) but token 0 is O —
        // the transition rules should push token 1 away from the orphan I-PER.
        let rules = ner_transition_rules(0.8, 0.2);
        let mut qa = vec![vec![0.0f32; 9], vec![0.0f32; 9]];
        qa[0][0] = 0.9;
        // the remaining 0.1 mass spread evenly over the 8 entity classes
        for q in qa[0].iter_mut().skip(1) {
            *q = 0.1 / 8.0;
        }
        qa[1][2] = 0.55; // orphan I-PER
        qa[1][0] = 0.35;
        for c in [1, 3, 4, 5, 6, 7, 8] {
            qa[1][c] = 0.10 / 7.0;
        }
        let out = project_sequence(&qa, &rules, 5.0);
        assert!(out[1][2] < qa[1][2], "orphan I-PER should be discouraged: {:?}", out[1]);
        assert!(out[1][0] > qa[1][0], "O should gain mass: {:?}", out[1]);
    }
}
