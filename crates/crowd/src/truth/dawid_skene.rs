//! Dawid–Skene EM aggregation (Dawid & Skene, 1979).

use super::ds_windowed::Windows;
use super::{class_prior, estimate_confusions, TruthEstimate, TruthInference};
use crate::data::AnnotationView;
use crate::truth::MajorityVote;
use lncl_tensor::{stats, Matrix};

/// The classic Dawid–Skene model: a latent true class per unit, a class
/// prior, and one confusion matrix per annotator, fitted with EM.
#[derive(Debug, Clone, Copy)]
pub struct DawidSkene {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the mean absolute posterior change.
    pub tol: f32,
    /// Additive smoothing used when estimating confusion matrices.
    pub smoothing: f32,
}

impl Default for DawidSkene {
    fn default() -> Self {
        Self { max_iters: 50, tol: 1e-4, smoothing: 0.01 }
    }
}

impl DawidSkene {
    /// The crate's one Dawid–Skene EM, run by [`DawidSkene`],
    /// [`DsWindowed`](super::DsWindowed) and streaming finalization.
    /// `None` fits classic DS; `Some(windows)` fits DS-W, judging each
    /// label by its stream window's confusion unless that window's column
    /// is too weakly supported (see [`Windows`]).  Returns the posteriors,
    /// the final pooled per-annotator confusions and the iterations run.
    pub(crate) fn fit(&self, view: &AnnotationView, windows: Option<&Windows>) -> (Vec<Vec<f32>>, Vec<Matrix>, usize) {
        let k = view.num_classes;
        // initialise with majority voting
        let mut posteriors = MajorityVote.infer(view).posteriors;
        // M-step: under DS-W both confusion families track the evolving
        // posteriors, so the backoff always compares like with like
        let m_step = |posteriors: &[Vec<f32>]| {
            let windowed = windows.map(|w| w.confusions(view, posteriors, self.smoothing));
            (estimate_confusions(view, posteriors, self.smoothing), windowed)
        };
        let (mut pooled, mut windowed) = m_step(&posteriors);
        let mut prior = class_prior(&posteriors, k);
        let mut iterations = 0;
        while iterations < self.max_iters {
            iterations += 1;
            // E-step: p(t=m | labels) ∝ prior_m * Π_j pi^{(j)}_{m, y_j}
            let mut max_delta = 0.0f32;
            for (u, annotations) in view.annotations.iter().enumerate() {
                let mut log_post: Vec<f32> = (0..k).map(|m| prior[m].max(1e-12).ln()).collect();
                for (slot, &(annotator, class)) in annotations.iter().enumerate() {
                    let window = windows.and_then(|w| w.judging_window(u, slot, annotator, class));
                    let confusion = match (window, &windowed) {
                        (Some(w), Some(windowed)) => &windowed[annotator][w],
                        _ => &pooled[annotator],
                    };
                    for (m, lp) in log_post.iter_mut().enumerate() {
                        *lp += confusion[(m, class)].max(1e-12).ln();
                    }
                }
                let new_post = stats::softmax(&log_post);
                let delta: f32 =
                    new_post.iter().zip(&posteriors[u]).map(|(a, b)| (a - b).abs()).sum::<f32>() / k as f32;
                max_delta = max_delta.max(delta);
                posteriors[u] = new_post;
            }
            (pooled, windowed) = m_step(&posteriors);
            prior = class_prior(&posteriors, k);
            if max_delta < self.tol {
                break;
            }
        }
        (posteriors, pooled, iterations)
    }
}

impl TruthInference for DawidSkene {
    fn name(&self) -> &'static str {
        "DS"
    }

    fn infer(&self, view: &AnnotationView) -> TruthEstimate {
        let (posteriors, confusions, _) = self.fit(view, None);
        TruthEstimate::from_posteriors(posteriors).with_confusions(confusions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::overall_reliability;
    use crate::truth::testutil::planted_view;
    use crate::truth::TruthInference;

    #[test]
    fn recovers_truth_better_than_mv_with_spammers() {
        // one strong annotator among near-random ones: DS should learn to
        // trust the expert and beat majority voting.
        let view = planted_view(600, 2, &[0.95, 0.93, 0.55, 0.5, 0.5, 0.5], 5, 7);
        let mv = MajorityVote.infer(&view).accuracy(&view.gold);
        let ds = DawidSkene::default().infer(&view).accuracy(&view.gold);
        assert!(ds > mv + 0.02, "DS {ds} should beat MV {mv}");
        assert!(ds > 0.85, "DS accuracy {ds}");
    }

    #[test]
    fn estimates_annotator_reliability_ordering() {
        let view = planted_view(500, 3, &[0.9, 0.7, 0.4], 3, 9);
        let est = DawidSkene::default().infer(&view);
        let confusions = est.confusions.expect("DS estimates confusions");
        let r: Vec<f32> = confusions.iter().map(overall_reliability).collect();
        assert!(r[0] > r[1] && r[1] > r[2], "reliability ordering {r:?}");
    }

    #[test]
    fn posteriors_are_distributions() {
        let view = planted_view(100, 4, &[0.8, 0.7, 0.6, 0.5], 3, 11);
        let est = DawidSkene::default().infer(&view);
        for p in &est.posteriors {
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn converges_quickly_on_clean_data() {
        let view = planted_view(200, 2, &[0.99, 0.99, 0.99], 3, 13);
        let fast = DawidSkene { max_iters: 3, ..Default::default() }.infer(&view);
        assert!(fast.accuracy(&view.gold) > 0.97);
    }
}
