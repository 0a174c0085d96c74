//! The pseudo-E-step posterior `q_a(t)` (Eq. 13 of the paper), plus the
//! flat per-split storage ([`FlatPosteriors`]) the trainer keeps its
//! `q_a`/`q_f` distributions in: one `total_units x K` matrix for the whole
//! training split instead of one heap allocation per instance.

use crate::annotators::AnnotatorModel;
use lncl_crowd::Instance;
use lncl_tensor::{simd, stats, Matrix};

/// Per-unit distributions for a whole split, stored flat: a
/// `total_units x K` matrix plus per-instance unit offsets.  This is the
/// allocation-free backbone of the pseudo-E-step — computing a fresh set of
/// posteriors for the entire training split costs exactly one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatPosteriors {
    data: Matrix,
    /// `offsets[i]..offsets[i + 1]` are the unit rows of instance `i`.
    offsets: Vec<usize>,
}

impl FlatPosteriors {
    /// Zero-filled storage sized for `instances` with `k` classes.
    pub fn zeros(instances: &[Instance], k: usize) -> Self {
        let mut offsets = Vec::with_capacity(instances.len() + 1);
        offsets.push(0);
        for inst in instances {
            offsets.push(offsets.last().unwrap() + inst.num_units());
        }
        Self { data: Matrix::zeros(*offsets.last().unwrap(), k), offsets }
    }

    /// Builds flat storage from one `units x K` matrix per instance.
    pub fn from_matrices(matrices: &[Matrix], k: usize) -> Self {
        let mut offsets = Vec::with_capacity(matrices.len() + 1);
        offsets.push(0);
        for m in matrices {
            assert_eq!(m.cols(), k, "from_matrices: instance matrix has {} classes, expected {k}", m.cols());
            offsets.push(offsets.last().unwrap() + m.rows());
        }
        let mut data = Matrix::zeros(*offsets.last().unwrap(), k);
        for (i, m) in matrices.iter().enumerate() {
            data.as_mut_slice()[offsets[i] * k..offsets[i + 1] * k].copy_from_slice(m.as_slice());
        }
        Self { data, offsets }
    }

    /// Number of instances covered.
    pub fn num_instances(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of classes `K`.
    pub fn num_classes(&self) -> usize {
        self.data.cols()
    }

    /// Total units across all instances.
    pub fn total_units(&self) -> usize {
        self.data.rows()
    }

    /// Units of instance `i`.
    pub fn units_of(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// The backing `total_units x K` matrix.
    pub fn data(&self) -> &Matrix {
        &self.data
    }

    /// Flat `units * K` slice of instance `i`.
    #[inline]
    pub fn instance_slice(&self, i: usize) -> &[f32] {
        let k = self.data.cols();
        &self.data.as_slice()[self.offsets[i] * k..self.offsets[i + 1] * k]
    }

    /// Mutable flat `units * K` slice of instance `i`.
    #[inline]
    pub fn instance_slice_mut(&mut self, i: usize) -> &mut [f32] {
        let k = self.data.cols();
        &mut self.data.as_mut_slice()[self.offsets[i] * k..self.offsets[i + 1] * k]
    }

    /// Materialises instance `i` as its own `units x K` matrix.
    pub fn instance_matrix(&self, i: usize) -> Matrix {
        Matrix::from_vec(self.units_of(i), self.data.cols(), self.instance_slice(i).to_vec())
    }

    /// Row-wise argmax of instance `i` (hard per-unit labels).
    pub fn instance_argmax(&self, i: usize) -> Vec<usize> {
        self.instance_slice(i).chunks_exact(self.data.cols()).map(stats::argmax).collect()
    }
}

/// Computes the truth posterior `q_a` for one instance — a `units x K`
/// matrix, one row per unit — by Bayes' rule:
///
/// ```text
/// q_a(t_u = k) ∝ p(t_u = k | x; Θ_NN) · Π_{j ∈ J(i)} π^{(j)}_{k, y_uj}
/// ```
///
/// `predictions` holds the classifier's class probabilities, one row per
/// unit.  Units without crowd labels fall back to the classifier prediction.
/// The whole computation runs in the single output allocation: the log
/// posterior accumulates in place over the annotator model's cached
/// log-likelihood rows and is soft-maxed in place.
pub fn infer_qa(instance: &Instance, predictions: &Matrix, annotators: &AnnotatorModel) -> Matrix {
    let units = instance.num_units();
    let k = annotators.num_classes();
    let mut out = Matrix::zeros(units, k);
    infer_qa_into(instance, predictions, annotators, out.as_mut_slice());
    out
}

/// Zero-allocation core of [`infer_qa`]: writes the per-unit posterior rows
/// into `out` (a flat `units * K` buffer, e.g. an instance slice of a
/// [`FlatPosteriors`]).
pub fn infer_qa_into(instance: &Instance, predictions: &Matrix, annotators: &AnnotatorModel, out: &mut [f32]) {
    eq13_into(instance, predictions, annotators.num_classes(), out, |_, _, j, observed| {
        annotators.log_likelihoods_for(j, observed)
    });
}

/// The Eq. 13 body shared by the pooled and the stream-windowed E-step:
/// `log_likelihoods(u, slot, annotator, observed)` is the contiguous row
/// `ln π_{m, observed}` over truth classes `m` of the confusion that judges
/// crowd label `slot` at unit `u` — no `ln` and no strided confusion walk
/// in this loop.
#[inline]
pub(crate) fn eq13_into<'a>(
    instance: &Instance,
    predictions: &Matrix,
    k: usize,
    out: &mut [f32],
    log_likelihoods: impl Fn(usize, usize, usize, usize) -> &'a [f32],
) {
    let units = instance.num_units();
    assert_eq!(predictions.rows(), units, "prediction rows must match instance units");
    assert_eq!(predictions.cols(), k, "prediction columns must match class count");
    assert_eq!(out.len(), units * k, "output buffer must hold units * K entries");

    let tier = simd::detected_tier();
    for (u, log_post) in out.chunks_exact_mut(k).enumerate() {
        for (lp, &p) in log_post.iter_mut().zip(predictions.row(u)) {
            *lp = p.max(1e-12).ln();
        }
        for (slot, cl) in instance.crowd_labels.iter().enumerate() {
            simd::add_assign(tier, log_post, log_likelihoods(u, slot, cl.annotator, cl.labels[u]));
        }
        stats::softmax_in_place(log_post);
    }
}

/// Eq. 13 for a whole split in one allocation: the posteriors of every
/// instance land in a single [`FlatPosteriors`], which is what the
/// trainer's pseudo-E-step keeps.
pub fn infer_qa_split(instances: &[Instance], predictions: &[Matrix], annotators: &AnnotatorModel) -> FlatPosteriors {
    assert_eq!(instances.len(), predictions.len(), "one prediction matrix per instance required");
    let mut out = FlatPosteriors::zeros(instances, annotators.num_classes());
    for (i, (inst, pred)) in instances.iter().zip(predictions).enumerate() {
        infer_qa_into(inst, pred, annotators, out.instance_slice_mut(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_crowd::CrowdLabel;

    fn instance_with_labels(gold: Vec<usize>, labels: Vec<(usize, Vec<usize>)>) -> Instance {
        Instance {
            tokens: vec![1; gold.len()],
            gold,
            crowd_labels: labels.into_iter().map(|(annotator, labels)| CrowdLabel { annotator, labels }).collect(),
        }
    }

    #[test]
    fn without_crowd_labels_qa_equals_classifier() {
        let annotators = AnnotatorModel::new(2, 2, 0.8);
        let inst = instance_with_labels(vec![1], vec![]);
        let pred = Matrix::row_vector(&[0.3, 0.7]);
        let qa = infer_qa(&inst, &pred, &annotators);
        assert!((qa[(0, 0)] - 0.3).abs() < 1e-5);
        assert!((qa[(0, 1)] - 0.7).abs() < 1e-5);
    }

    #[test]
    fn reliable_annotators_sharpen_the_posterior() {
        let annotators = AnnotatorModel::new(3, 2, 0.9);
        let inst = instance_with_labels(vec![1], vec![(0, vec![1]), (1, vec![1]), (2, vec![1])]);
        let pred = Matrix::row_vector(&[0.5, 0.5]);
        let qa = infer_qa(&inst, &pred, &annotators);
        assert!(qa[(0, 1)] > 0.97, "three agreeing reliable annotators should dominate: {qa:?}");
    }

    #[test]
    fn classifier_and_annotators_combine_multiplicatively() {
        let annotators = AnnotatorModel::new(1, 2, 0.8);
        let inst = instance_with_labels(vec![0], vec![(0, vec![0])]);
        let pred = Matrix::row_vector(&[0.2, 0.8]);
        let qa = infer_qa(&inst, &pred, &annotators);
        // manual Bayes: [0.2*0.8, 0.8*0.2] normalised = [0.5, 0.5]
        assert!((qa[(0, 0)] - 0.5).abs() < 1e-4, "{qa:?}");
    }

    #[test]
    fn sequence_units_are_treated_independently_given_predictions() {
        let annotators = AnnotatorModel::new(1, 3, 0.7);
        let inst = instance_with_labels(vec![0, 2], vec![(0, vec![0, 2])]);
        let pred = Matrix::from_rows(&[&[0.6, 0.2, 0.2], &[0.2, 0.2, 0.6]]);
        let qa = infer_qa(&inst, &pred, &annotators);
        assert_eq!(qa.rows(), 2);
        assert!(qa[(0, 0)] > 0.8);
        assert!(qa[(1, 2)] > 0.8);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_is_rejected() {
        let annotators = AnnotatorModel::new(1, 2, 0.8);
        let inst = instance_with_labels(vec![0, 1], vec![]);
        let pred = Matrix::row_vector(&[0.5, 0.5]); // only one row for two units
        let _ = infer_qa(&inst, &pred, &annotators);
    }
}
