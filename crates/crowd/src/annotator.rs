//! Simulated crowd annotators.
//!
//! The original datasets were annotated on Amazon Mechanical Turk; those
//! labels are not redistributable here, so the generators in
//! [`crate::datasets`] use the simulators in this module instead (DESIGN.md
//! §1).  Two kinds of annotators are provided:
//!
//! * [`ConfusionAnnotator`] — the classic per-annotator confusion-matrix
//!   model (exactly the generative assumption behind Dawid–Skene, Raykar,
//!   AggNet and Logic-LNCL itself), used for sentence classification.
//! * [`NerAnnotator`] — a sequence annotator that commits the three error
//!   types the paper describes for the NER corpus: *ignore* errors (an
//!   entity is left unannotated), *boundary* errors (right type, wrong
//!   span) and *span-type* errors (right span, wrong type).

use lncl_tensor::{Matrix, TensorRng};

// The weighted-without-replacement draw used to be defined here; it now
// lives in [`crate::sampling`] so scenario generation and the service's
// routing policies provably share one implementation.  Re-exported because
// callers think of it as the annotator-pool selection primitive.
pub use crate::sampling::select_weighted_distinct;

/// An annotator whose behaviour is a `K x K` confusion matrix: row `m` is
/// the distribution over reported labels when the true class is `m`.
#[derive(Debug, Clone)]
pub struct ConfusionAnnotator {
    confusion: Matrix,
}

impl ConfusionAnnotator {
    /// Creates an annotator from an explicit confusion matrix (rows must be
    /// probability distributions).
    pub fn new(confusion: Matrix) -> Self {
        assert_eq!(confusion.rows(), confusion.cols(), "confusion matrix must be square");
        for r in 0..confusion.rows() {
            let sum: f32 = confusion.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "confusion row {r} sums to {sum}, expected 1");
            assert!(confusion.row(r).iter().all(|&p| p >= 0.0), "negative probability in row {r}");
        }
        Self { confusion }
    }

    /// Creates an annotator with the given per-class accuracy: the diagonal
    /// is `accuracy` and the remaining mass is spread uniformly over the
    /// other classes.
    pub fn with_accuracy(num_classes: usize, accuracy: f32) -> Self {
        assert!(num_classes >= 2, "need at least 2 classes");
        assert!((0.0..=1.0).contains(&accuracy), "accuracy must be in [0,1]");
        let off = (1.0 - accuracy) / (num_classes - 1) as f32;
        let confusion = Matrix::from_fn(num_classes, num_classes, |r, c| if r == c { accuracy } else { off });
        Self::new(confusion)
    }

    /// Creates an annotator by perturbing a target accuracy with Dirichlet
    /// noise, which yields asymmetric, realistic confusion matrices.
    pub fn sample(num_classes: usize, accuracy: f32, concentration: f32, rng: &mut TensorRng) -> Self {
        assert!(num_classes >= 2, "need at least 2 classes");
        let mut confusion = Matrix::zeros(num_classes, num_classes);
        for r in 0..num_classes {
            // Dirichlet over the off-diagonal mass, diagonal pinned near `accuracy`.
            let diag = (accuracy + rng.normal_with(0.0, 0.05)).clamp(0.02, 0.98);
            let off = rng.dirichlet(num_classes - 1, concentration);
            let mut c_idx = 0;
            for c in 0..num_classes {
                if c == r {
                    confusion[(r, c)] = diag;
                } else {
                    confusion[(r, c)] = (1.0 - diag) * off[c_idx];
                    c_idx += 1;
                }
            }
        }
        Self { confusion }
    }

    /// The underlying confusion matrix.
    pub fn confusion(&self) -> &Matrix {
        &self.confusion
    }

    /// Overall reliability: mean of the diagonal (the statistic plotted in
    /// Figures 6b/7b of the paper).
    pub fn reliability(&self) -> f32 {
        let k = self.confusion.rows();
        (0..k).map(|i| self.confusion[(i, i)]).sum::<f32>() / k as f32
    }

    /// Samples a reported label for a unit whose true class is `truth`.
    pub fn annotate(&self, truth: usize, rng: &mut TensorRng) -> usize {
        rng.categorical(self.confusion.row(truth))
    }

    /// Annotates a whole sequence independently per unit.
    pub fn annotate_sequence(&self, truth: &[usize], rng: &mut TensorRng) -> Vec<usize> {
        truth.iter().map(|&t| self.annotate(t, rng)).collect()
    }
}

/// Pool of confusion-matrix annotators with a long-tailed workload
/// distribution, mirroring the statistics reported in Figure 4 of the paper
/// (a few prolific annotators, many occasional ones, abilities ranging from
/// near-random to expert).
#[derive(Debug, Clone)]
pub struct AnnotatorPool {
    /// The annotators.
    pub annotators: Vec<ConfusionAnnotator>,
    /// Relative propensity of each annotator to pick up a task (unnormalised).
    pub propensity: Vec<f32>,
}

impl AnnotatorPool {
    /// Generates `num_annotators` annotators whose accuracies are drawn from
    /// a mixture: `spammer_fraction` of them are near-random (accuracy ≈ 1/K
    /// … 0.6) and the rest are competent (accuracy ≈ 0.6 … 0.95).
    pub fn generate(num_annotators: usize, num_classes: usize, spammer_fraction: f32, rng: &mut TensorRng) -> Self {
        assert!(num_annotators > 0, "need at least one annotator");
        let mut annotators = Vec::with_capacity(num_annotators);
        let mut propensity = Vec::with_capacity(num_annotators);
        let chance = 1.0 / num_classes as f32;
        for _ in 0..num_annotators {
            let accuracy = if rng.bernoulli(spammer_fraction) {
                rng.uniform_range(chance.min(0.45), 0.6)
            } else {
                rng.uniform_range(0.6, 0.95)
            };
            annotators.push(ConfusionAnnotator::sample(num_classes, accuracy, 1.0, rng));
            // long-tailed workload: Pareto-ish propensity
            propensity.push((1.0 / rng.uniform_range(0.02, 1.0)).min(60.0));
        }
        Self { annotators, propensity }
    }

    /// Number of annotators.
    pub fn len(&self) -> usize {
        self.annotators.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.annotators.is_empty()
    }

    /// Selects `count` distinct annotators for one instance, biased by
    /// propensity.  When `count` exceeds the number of annotators with
    /// non-zero propensity, the remaining slots are filled uniformly over
    /// the not-yet-chosen annotators (see [`select_weighted_distinct`]).
    pub fn select(&self, count: usize, rng: &mut TensorRng) -> Vec<usize> {
        select_weighted_distinct(&self.propensity, count, rng)
    }

    /// True confusion matrices (used to evaluate the estimates in Figures
    /// 6/7).
    pub fn true_confusions(&self) -> Vec<Matrix> {
        self.annotators.iter().map(|a| a.confusion().clone()).collect()
    }
}

/// Configuration of the NER sequence annotator error model.
#[derive(Debug, Clone, Copy)]
pub struct NerErrorRates {
    /// Probability that an entity is ignored entirely (all tokens -> O).
    pub ignore: f32,
    /// Probability that an entity's span is shifted/shrunk (boundary error).
    pub boundary: f32,
    /// Probability that an entity's type is replaced by another type.
    pub span_type: f32,
    /// Per-token probability of spuriously tagging an O token as B-`<type>`.
    pub spurious: f32,
}

impl NerErrorRates {
    /// A competent annotator.
    pub fn good() -> Self {
        Self { ignore: 0.08, boundary: 0.06, span_type: 0.05, spurious: 0.005 }
    }

    /// A sloppy annotator.
    pub fn poor() -> Self {
        Self { ignore: 0.45, boundary: 0.25, span_type: 0.25, spurious: 0.03 }
    }

    /// Linear interpolation between [`NerErrorRates::good`] (q=1) and
    /// [`NerErrorRates::poor`] (q=0).
    pub fn with_quality(quality: f32) -> Self {
        let q = quality.clamp(0.0, 1.0);
        let good = Self::good();
        let poor = Self::poor();
        let mix = |g: f32, p: f32| p + (g - p) * q;
        Self {
            ignore: mix(good.ignore, poor.ignore),
            boundary: mix(good.boundary, poor.boundary),
            span_type: mix(good.span_type, poor.span_type),
            spurious: mix(good.spurious, poor.spurious),
        }
    }
}

/// A simulated NER annotator operating on BIO label sequences.
///
/// Label encoding convention (shared with [`crate::datasets::ner`]):
/// class `0` is `O`; classes `1 + 2*t` and `2 + 2*t` are `B-<type t>` and
/// `I-<type t>` for entity types `t = 0..num_types`.
#[derive(Debug, Clone)]
pub struct NerAnnotator {
    rates: NerErrorRates,
    num_types: usize,
}

impl NerAnnotator {
    /// Creates an annotator over `num_types` entity types with the given
    /// error rates.
    pub fn new(num_types: usize, rates: NerErrorRates) -> Self {
        assert!(num_types >= 1, "need at least one entity type");
        Self { rates, num_types }
    }

    /// Number of BIO classes (`1 + 2 * num_types`).
    pub fn num_classes(&self) -> usize {
        1 + 2 * self.num_types
    }

    /// The error-rate configuration.
    pub fn rates(&self) -> &NerErrorRates {
        &self.rates
    }

    /// Produces a noisy BIO sequence for a sentence with gold labels `gold`.
    pub fn annotate(&self, gold: &[usize], rng: &mut TensorRng) -> Vec<usize> {
        let mut out = vec![0usize; gold.len()];
        let spans = gold_spans(gold);
        for (start, end, ty) in &spans {
            let (start, end, ty) = (*start, *end, *ty);
            if rng.bernoulli(self.rates.ignore) {
                continue; // ignore error: leave as O
            }
            let ty = if rng.bernoulli(self.rates.span_type) {
                // span-type error: pick a different type
                let mut new_ty = rng.usize_below(self.num_types);
                if self.num_types > 1 {
                    while new_ty == ty {
                        new_ty = rng.usize_below(self.num_types);
                    }
                }
                new_ty
            } else {
                ty
            };
            let (mut s, mut e) = (start, end);
            if rng.bernoulli(self.rates.boundary) {
                // boundary error: shift the start right or the end left (or extend by one)
                match rng.usize_below(3) {
                    0 if e - s > 1 => s += 1,
                    1 if e - s > 1 => e -= 1,
                    _ => e = (e + 1).min(gold.len()),
                }
            }
            if s < e {
                out[s] = 1 + 2 * ty;
                for slot in out.iter_mut().take(e).skip(s + 1) {
                    *slot = 2 + 2 * ty;
                }
            }
        }
        // spurious entities on O tokens
        for (i, slot) in out.iter_mut().enumerate() {
            if gold[i] == 0 && *slot == 0 && rng.bernoulli(self.rates.spurious) {
                *slot = 1 + 2 * rng.usize_below(self.num_types);
            }
        }
        out
    }
}

/// Extracts `(start, end_exclusive, type)` spans from a BIO sequence using
/// the encoding described on [`NerAnnotator`].
pub fn gold_spans(labels: &[usize]) -> Vec<(usize, usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < labels.len() {
        let l = labels[i];
        if l != 0 && (l - 1).is_multiple_of(2) {
            // B-`<type>`
            let ty = (l - 1) / 2;
            let mut j = i + 1;
            while j < labels.len() && labels[j] == l + 1 {
                j += 1;
            }
            spans.push((i, j, ty));
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_accuracy_builds_valid_confusion() {
        let a = ConfusionAnnotator::with_accuracy(3, 0.7);
        let c = a.confusion();
        assert!((c[(0, 0)] - 0.7).abs() < 1e-6);
        assert!((c[(0, 1)] - 0.15).abs() < 1e-6);
        assert!((a.reliability() - 0.7).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn new_rejects_non_stochastic_matrix() {
        let _ = ConfusionAnnotator::new(Matrix::from_rows(&[&[0.9, 0.3], &[0.5, 0.5]]));
    }

    #[test]
    fn sampled_confusions_are_row_stochastic() {
        let mut rng = TensorRng::seed_from_u64(0);
        for _ in 0..20 {
            let a = ConfusionAnnotator::sample(4, 0.8, 1.0, &mut rng);
            for r in 0..4 {
                let sum: f32 = a.confusion().row(r).iter().sum();
                assert!((sum - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn accurate_annotator_mostly_correct() {
        let mut rng = TensorRng::seed_from_u64(1);
        let a = ConfusionAnnotator::with_accuracy(2, 0.9);
        let correct = (0..2000).filter(|_| a.annotate(1, &mut rng) == 1).count();
        let rate = correct as f32 / 2000.0;
        assert!((rate - 0.9).abs() < 0.03, "empirical accuracy {rate}");
    }

    #[test]
    fn pool_selects_distinct_annotators() {
        let mut rng = TensorRng::seed_from_u64(2);
        let pool = AnnotatorPool::generate(20, 2, 0.2, &mut rng);
        let chosen = pool.select(6, &mut rng);
        let mut dedup = chosen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 6);
        assert!(chosen.iter().all(|&i| i < 20));
    }

    #[test]
    fn select_caps_count_at_pool_size() {
        let mut rng = TensorRng::seed_from_u64(42);
        let pool =
            AnnotatorPool { annotators: vec![ConfusionAnnotator::with_accuracy(2, 0.9); 3], propensity: vec![0.0; 3] };
        let chosen = pool.select(10, &mut rng);
        let mut dedup = chosen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "capped at pool size, all distinct: {chosen:?}");
    }

    #[test]
    fn pool_spammer_fraction_affects_mean_accuracy() {
        let mut rng = TensorRng::seed_from_u64(3);
        let clean = AnnotatorPool::generate(60, 2, 0.0, &mut rng);
        let noisy = AnnotatorPool::generate(60, 2, 0.9, &mut rng);
        let mean = |p: &AnnotatorPool| p.annotators.iter().map(|a| a.reliability()).sum::<f32>() / p.len() as f32;
        assert!(mean(&clean) > mean(&noisy) + 0.1);
    }

    #[test]
    fn gold_spans_roundtrip() {
        // O B-PER I-PER O B-LOC
        let labels = vec![0, 1, 2, 0, 3];
        assert_eq!(gold_spans(&labels), vec![(1, 3, 0), (4, 5, 1)]);
        assert!(gold_spans(&[0, 0, 0]).is_empty());
    }

    #[test]
    fn perfect_ner_annotator_reproduces_gold() {
        let mut rng = TensorRng::seed_from_u64(4);
        let a = NerAnnotator::new(4, NerErrorRates { ignore: 0.0, boundary: 0.0, span_type: 0.0, spurious: 0.0 });
        let gold = vec![0, 1, 2, 0, 7, 8, 8, 0];
        assert_eq!(a.annotate(&gold, &mut rng), gold);
    }

    #[test]
    fn ignore_only_annotator_never_invents_entities() {
        let mut rng = TensorRng::seed_from_u64(5);
        let a = NerAnnotator::new(4, NerErrorRates { ignore: 1.0, boundary: 0.0, span_type: 0.0, spurious: 0.0 });
        let gold = vec![0, 1, 2, 0, 3, 4];
        assert_eq!(a.annotate(&gold, &mut rng), vec![0; 6]);
    }

    #[test]
    fn poor_annotator_makes_more_mistakes_than_good() {
        let mut rng = TensorRng::seed_from_u64(6);
        let gold = vec![0, 1, 2, 0, 3, 0, 5, 6, 6, 0, 0, 7, 0, 1, 2, 2];
        let good = NerAnnotator::new(4, NerErrorRates::good());
        let poor = NerAnnotator::new(4, NerErrorRates::poor());
        let acc = |ann: &NerAnnotator, rng: &mut TensorRng| {
            let mut correct = 0;
            let mut total = 0;
            for _ in 0..300 {
                let noisy = ann.annotate(&gold, rng);
                correct += noisy.iter().zip(&gold).filter(|(a, b)| a == b).count();
                total += gold.len();
            }
            correct as f32 / total as f32
        };
        assert!(acc(&good, &mut rng) > acc(&poor, &mut rng) + 0.05);
    }

    #[test]
    fn quality_interpolation_is_monotone() {
        let hi = NerErrorRates::with_quality(1.0);
        let lo = NerErrorRates::with_quality(0.0);
        let mid = NerErrorRates::with_quality(0.5);
        assert!(hi.ignore < mid.ignore && mid.ignore < lo.ignore);
    }

    #[test]
    fn ner_annotator_output_always_valid_bio_start() {
        // outputs should never start a span with an I- tag right after O
        let mut rng = TensorRng::seed_from_u64(7);
        let a = NerAnnotator::new(4, NerErrorRates::poor());
        let gold = vec![0, 1, 2, 2, 0, 5, 6, 0, 3, 4, 4, 0];
        for _ in 0..200 {
            let noisy = a.annotate(&gold, &mut rng);
            for i in 0..noisy.len() {
                let l = noisy[i];
                if l != 0 && l.is_multiple_of(2) {
                    // I- tag: previous must be the matching B- or I-
                    let prev = if i == 0 { 0 } else { noisy[i - 1] };
                    assert!(prev == l || prev == l - 1, "invalid BIO transition at {i}: {:?}", noisy);
                }
            }
        }
    }
}
