//! The annotator-reliability model: per-annotator confusion matrices Π and
//! their closed-form M-step update (Eq. 12 of the paper).

use crate::posterior::FlatPosteriors;
use lncl_crowd::CrowdDataset;
use lncl_tensor::{simd, Matrix};

/// Eq. 12 count accumulation with a compile-time class count, which lets
/// the compiler unroll the per-label `row += q_f` update completely (the
/// paper's tasks have K = 2 and K = 9).
fn accumulate_counts<const K: usize>(counts: &mut [f32], dataset: &CrowdDataset, qf: &FlatPosteriors) {
    let tier = simd::detected_tier();
    for (i, inst) in dataset.train.iter().enumerate() {
        let q_inst = qf.instance_slice(i);
        assert_eq!(q_inst.len(), inst.num_units() * K, "qf unit count mismatch");
        for cl in &inst.crowd_labels {
            let annotator_base = cl.annotator * K * K;
            for (&observed, src) in cl.labels.iter().zip(q_inst.chunks_exact(K)) {
                debug_assert!(observed < K, "observed label {observed} out of range for {K} classes");
                let dst = &mut counts[annotator_base + observed * K..][..K];
                simd::add_assign(tier, dst, src);
            }
        }
    }
}

/// Runtime-`k` fallback of [`accumulate_counts`] for class counts outside
/// the specialised set.
fn accumulate_counts_dyn(counts: &mut [f32], dataset: &CrowdDataset, qf: &FlatPosteriors, k: usize) {
    let tier = simd::detected_tier();
    for (i, inst) in dataset.train.iter().enumerate() {
        let q_inst = qf.instance_slice(i);
        assert_eq!(q_inst.len(), inst.num_units() * k, "qf unit count mismatch");
        for cl in &inst.crowd_labels {
            let annotator_base = cl.annotator * k * k;
            for (&observed, src) in cl.labels.iter().zip(q_inst.chunks_exact(k)) {
                debug_assert!(observed < k, "observed label {observed} out of range for {k} classes");
                let dst = &mut counts[annotator_base + observed * k..][..k];
                simd::add_assign(tier, dst, src);
            }
        }
    }
}

/// Per-annotator confusion matrices `Π^{(j)}`, where row `m`, column `n` is
/// the probability that annotator `j` reports class `n` when the truth is
/// class `m`.
///
/// The matrices of all annotators live in one flat `(J * K) x K` matrix
/// (row `j * K + m` is annotator `j`'s truth-`m` row), so constructing and
/// updating the model costs O(1) allocations regardless of the crowd size.
/// Alongside the probabilities the model lazily caches the
/// *log*-likelihoods in observed-major layout (row `j * K + observed`,
/// column = truth class), which is what the per-unit posterior of Eq. 13
/// consumes: one contiguous row lookup per crowd label instead of a strided
/// column walk with a `ln` per entry.  The cache is built on first use and
/// invalidated by [`AnnotatorModel::update_from_qf`], so workloads that
/// never read likelihoods (e.g. the pure Eq. 12 update) do not pay for it.
#[derive(Debug)]
pub struct AnnotatorModel {
    /// Flat truth-major blocks: row `j * K + m`, column `n` is `π^{(j)}_{m n}`.
    confusions: Matrix,
    /// Flat observed-major blocks: row `j * K + n`, column `m` is
    /// `ln(max(π^{(j)}_{m n}, 1e-12))`.
    log_by_observed: std::sync::OnceLock<Matrix>,
    num_annotators: usize,
    num_classes: usize,
}

impl Clone for AnnotatorModel {
    fn clone(&self) -> Self {
        let log_by_observed = std::sync::OnceLock::new();
        if let Some(cache) = self.log_by_observed.get() {
            let _ = log_by_observed.set(cache.clone());
        }
        Self {
            confusions: self.confusions.clone(),
            log_by_observed,
            num_annotators: self.num_annotators,
            num_classes: self.num_classes,
        }
    }
}

impl AnnotatorModel {
    /// Initialises every annotator with a diagonally-dominant confusion
    /// matrix (`diag` on the diagonal, the rest uniform), the usual neutral
    /// starting point for EM.
    pub fn new(num_annotators: usize, num_classes: usize, diag: f32) -> Self {
        assert!(num_classes >= 2);
        assert!((0.0..=1.0).contains(&diag));
        let off = (1.0 - diag) / (num_classes - 1) as f32;
        let confusions =
            Matrix::from_fn(
                num_annotators * num_classes,
                num_classes,
                |r, c| {
                    if r % num_classes == c {
                        diag
                    } else {
                        off
                    }
                },
            );
        Self { confusions, log_by_observed: std::sync::OnceLock::new(), num_annotators, num_classes }
    }

    /// The cached log-likelihoods `ln π^{(j)}_{m, observed}` over all truth
    /// classes `m`, as one contiguous slice (clamped at `ln 1e-12`).
    #[inline]
    pub fn log_likelihoods_for(&self, j: usize, observed: usize) -> &[f32] {
        let k = self.num_classes;
        debug_assert!(observed < k, "observed label {observed} out of range for {k} classes");
        let cache = self.log_by_observed.get_or_init(|| {
            Matrix::from_fn(self.num_annotators * k, k, |r, m| {
                let (j, n) = (r / k, r % k);
                self.confusions[(j * k + m, n)].max(1e-12).ln()
            })
        });
        cache.row(j * k + observed)
    }

    /// Number of annotators.
    pub fn num_annotators(&self) -> usize {
        self.num_annotators
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Confusion matrix of annotator `j`, copied out of the flat storage.
    pub fn confusion(&self, j: usize) -> Matrix {
        let k = self.num_classes;
        Matrix::from_fn(k, k, |m, n| self.confusions[(j * k + m, n)])
    }

    /// All confusion matrices, copied out of the flat storage.
    pub fn confusions(&self) -> Vec<Matrix> {
        (0..self.num_annotators).map(|j| self.confusion(j)).collect()
    }

    /// The likelihood `π^{(j)}_{m, n}` of annotator `j` reporting `observed`
    /// when the truth is `truth`.
    pub fn likelihood(&self, j: usize, truth: usize, observed: usize) -> f32 {
        self.confusions[(j * self.num_classes + truth, observed)]
    }

    /// Overall reliability (mean diagonal) per annotator — the scalar
    /// compared against the empirical one in Figures 6b/7b.
    pub fn reliabilities(&self) -> Vec<f32> {
        let k = self.num_classes;
        (0..self.num_annotators)
            .map(|j| (0..k).map(|m| self.confusions[(j * k + m, m)]).sum::<f32>() / k as f32)
            .collect()
    }

    /// Closed-form update of Eq. 12:
    ///
    /// ```text
    /// π^{(j)}_{mn} = Σ_i q_f(t_i = m)·1[y_ij = n]  /  Σ_i q_f(t_i = m)·1[y_ij ≠ 0]
    /// ```
    ///
    /// `qf` holds one distribution per *unit* in the order produced by
    /// [`lncl_crowd::AnnotationView`]; here we work directly on the dataset
    /// so the caller supplies `qf` per instance (outer index) and per unit
    /// (inner index).  `smoothing` is added to every count to keep rows
    /// well-defined for rarely observed truth classes.
    pub fn update_from_qf(&mut self, dataset: &CrowdDataset, qf: &FlatPosteriors, smoothing: f32) {
        assert_eq!(qf.num_instances(), dataset.train.len(), "qf must cover every training instance");
        assert_eq!(qf.num_classes(), self.num_classes, "qf class count mismatch");
        let k = self.num_classes;
        // accumulate into one flat observed-major buffer
        // (annotator-major, then observed label, then truth class) so the
        // inner update is a single contiguous row += q_f row; the inner
        // kernel is monomorphised for the paper's two class counts.
        let mut counts = vec![smoothing; self.num_annotators * k * k];
        match k {
            2 => accumulate_counts::<2>(&mut counts, dataset, qf),
            9 => accumulate_counts::<9>(&mut counts, dataset, qf),
            _ => accumulate_counts_dyn(&mut counts, dataset, qf, k),
        }
        // flip each observed-major block to the truth-major confusion
        // layout in place, then normalise every truth row — no per-annotator
        // allocations anywhere in the update
        for block in counts.chunks_exact_mut(k * k) {
            for m in 0..k {
                for n in 0..m {
                    block.swap(m * k + n, n * k + m);
                }
            }
        }
        let mut confusions = Matrix::from_vec(self.num_annotators * k, k, counts);
        lncl_crowd::metrics::normalize_confusion_rows(&mut confusions);
        self.confusions = confusions;
        self.log_by_observed = std::sync::OnceLock::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_crowd::{CrowdLabel, Instance, TaskKind};

    fn dataset_with_known_annotator() -> CrowdDataset {
        // annotator 0 always reports the gold label; annotator 1 always
        // reports class 0.
        let mut train = Vec::new();
        for i in 0..20 {
            let gold = i % 2;
            train.push(Instance {
                tokens: vec![1],
                gold: vec![gold],
                crowd_labels: vec![
                    CrowdLabel { annotator: 0, labels: vec![gold] },
                    CrowdLabel { annotator: 1, labels: vec![0] },
                ],
            });
        }
        CrowdDataset {
            task: TaskKind::Classification,
            num_classes: 2,
            num_annotators: 2,
            vocab: vec!["<pad>".into(), "w".into()],
            class_names: vec!["0".into(), "1".into()],
            train,
            dev: vec![],
            test: vec![],
            but_token: None,
            however_token: None,
        }
    }

    #[test]
    fn initialisation_is_diagonally_dominant() {
        let model = AnnotatorModel::new(3, 4, 0.7);
        assert_eq!(model.num_annotators(), 3);
        for j in 0..3 {
            let c = model.confusion(j);
            for r in 0..4 {
                assert!((c.row(r).iter().sum::<f32>() - 1.0).abs() < 1e-5);
                assert!(c[(r, r)] > c[(r, (r + 1) % 4)]);
            }
        }
        assert!((model.likelihood(0, 1, 1) - 0.7).abs() < 1e-6);
    }

    #[test]
    fn eq12_update_recovers_annotator_behaviour() {
        let dataset = dataset_with_known_annotator();
        // q_f equal to the gold posterior
        let qf: Vec<Matrix> = dataset
            .train
            .iter()
            .map(|inst| Matrix::from_fn(inst.gold.len(), 2, |u, c| if inst.gold[u] == c { 1.0 } else { 0.0 }))
            .collect();
        let mut model = AnnotatorModel::new(2, 2, 0.5);
        model.update_from_qf(&dataset, &FlatPosteriors::from_matrices(&qf, 2), 0.01);
        // annotator 0: near-identity
        assert!(model.likelihood(0, 0, 0) > 0.95);
        assert!(model.likelihood(0, 1, 1) > 0.95);
        // annotator 1: always answers 0 regardless of truth
        assert!(model.likelihood(1, 0, 0) > 0.95);
        assert!(model.likelihood(1, 1, 0) > 0.95);
        let rel = model.reliabilities();
        assert!(rel[0] > rel[1]);
    }

    #[test]
    fn soft_qf_interpolates_counts() {
        let dataset = dataset_with_known_annotator();
        // completely uninformative q_f: confusion rows should be close to the
        // annotator's marginal label distribution for both truth classes.
        let qf: Vec<Matrix> = dataset.train.iter().map(|inst| Matrix::full(inst.num_units(), 2, 0.5)).collect();
        let mut model = AnnotatorModel::new(2, 2, 0.5);
        model.update_from_qf(&dataset, &FlatPosteriors::from_matrices(&qf, 2), 0.01);
        // annotator 0 labels half 0 and half 1 overall
        assert!((model.likelihood(0, 0, 0) - 0.5).abs() < 0.05);
        assert!((model.likelihood(0, 1, 0) - 0.5).abs() < 0.05);
    }

    #[test]
    #[should_panic]
    fn update_rejects_wrong_instance_count() {
        let dataset = dataset_with_known_annotator();
        let mut model = AnnotatorModel::new(2, 2, 0.5);
        model.update_from_qf(&dataset, &FlatPosteriors::from_matrices(&[], 2), 0.01);
    }
}
