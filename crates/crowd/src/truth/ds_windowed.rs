//! Windowed Dawid–Skene: confusion matrices estimated per *stream window*
//! so drifting annotators (fatigue, learning, step changes) are tracked
//! instead of averaged away.

use super::{DawidSkene, TruthEstimate, TruthInference};
use crate::data::AnnotationView;
use crate::metrics::normalize_confusion_rows;
use lncl_tensor::Matrix;

/// Dawid–Skene with **windowed, exponentially-decayed sufficient
/// statistics**: each annotator's label stream (their labels in unit order,
/// a proxy for time) is cut into windows of at most `window` labels, one
/// confusion matrix is estimated per window, and the per-window counts are
/// smoothed across neighbouring windows with weight `decay^distance`.
///
/// * `decay == 1.0` pools every window — the estimator degenerates to
///   classic [`DawidSkene`] (all windows share the
///   global counts);
/// * `decay → 0` trusts each window alone — maximal drift tracking,
///   maximal variance.
///
/// On statically generated crowds the windowed estimator pays a small
/// variance tax against classic DS; on drifting crowds (see
/// [`DriftSchedule`](crate::scenario::DriftSchedule)) it is the one
/// DS-family method whose E-step can discount an annotator's late-stream
/// garbage while still trusting their early-stream labels — the seeded
/// step-change test below asserts exactly that separation.
///
/// A windowed confusion column is only trustworthy when the window
/// actually saw labels of that observed class: every label self-supports
/// its own window's column (its posterior mass lands there in the very
/// M-step that shapes the column), so a column resting on one or two
/// labels is circular — under heavy drift it collapses window-unseen
/// tokens to the majority class (`O` in NER), which wins token accuracy
/// but loses strict span F1 to static DS.  The estimator therefore backs
/// off to the **pooled** (static) confusion matrix for any label whose
/// window column has less blended label-count support than
/// `backoff_min_support` (see [`DsWindowed::DEFAULT_BACKOFF_MIN_SUPPORT`]).
///
/// Degenerate parameters (`window == 0`, `decay` outside `(0, 1]`) are
/// rejected with a descriptive panic instead of silently misbehaving.
#[derive(Debug, Clone, Copy)]
pub struct DsWindowed {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the mean absolute posterior change.
    pub tol: f32,
    /// Additive smoothing added to every (blended) count.
    pub smoothing: f32,
    /// Maximum labels per estimation window in each annotator's stream.
    pub window: usize,
    /// Cross-window count decay in `(0, 1]` (`1.0` = classic DS pooling).
    pub decay: f32,
    /// Minimum blended label-count support of a window's observed-class
    /// column before the E-step trusts it; below this the label is judged
    /// by the annotator's pooled confusion matrix instead.  `0.0` disables
    /// the backoff (the pre-fix behaviour).
    pub backoff_min_support: f32,
}

impl Default for DsWindowed {
    fn default() -> Self {
        Self {
            max_iters: 50,
            tol: 1e-4,
            smoothing: 0.01,
            window: Self::DEFAULT_WINDOW,
            decay: Self::DEFAULT_DECAY,
            backoff_min_support: Self::DEFAULT_BACKOFF_MIN_SUPPORT,
        }
    }
}

impl DsWindowed {
    /// Default stream positions per estimation window — the single source
    /// both windowed registry methods (`ds-windowed`,
    /// `logic-lncl-windowed`) configure themselves from.  The two clock
    /// their streams differently: DS-W (and the streaming estimator)
    /// advances one position per unit label, Logic-LNCL-W one per labelled
    /// instance.  On sentiment (one unit per instance) the windows
    /// coincide; on NER `48` means 48 token labels for DS-W but 48
    /// sentences for Logic-LNCL-W.
    pub const DEFAULT_WINDOW: usize = 48;
    /// Default cross-window count decay, shared like
    /// [`DsWindowed::DEFAULT_WINDOW`].
    pub const DEFAULT_DECAY: f32 = 0.35;
    /// Default minimum blended label-count support before a windowed
    /// confusion column is trusted over the pooled one.  A column needs a
    /// handful of labels beyond its own circular self-support (one count
    /// plus decayed neighbour spill-over) before its per-window estimate
    /// carries real signal; below that the pooled estimate is strictly
    /// better.  On the documented step-change drift scenario `6.0` is the
    /// knee: it restores the strict span-F1 win over static DS while
    /// *raising* the token-accuracy margin, and the curve is flat for a
    /// couple of counts either side before degrading at the extremes
    /// (`0` = never back off, reproducing the collapse; very large values
    /// reproduce static DS exactly).
    pub const DEFAULT_BACKOFF_MIN_SUPPORT: f32 = 6.0;

    /// Panics with a descriptive message on degenerate parameters.
    fn validate(&self) {
        assert!(self.window >= 1, "DS-W window must hold at least one label, got {}", self.window);
        assert!(
            self.decay > 0.0 && self.decay <= 1.0 && self.decay.is_finite(),
            "DS-W decay must be in (0, 1], got {}",
            self.decay
        );
        assert!(self.smoothing >= 0.0, "DS-W smoothing must be non-negative, got {}", self.smoothing);
        assert!(
            self.backoff_min_support >= 0.0 && self.backoff_min_support.is_finite(),
            "DS-W backoff_min_support must be finite and non-negative, got {}",
            self.backoff_min_support
        );
    }
}

/// The stream-window layout of a view's labels, the one windowed
/// confusion model of the workspace: the window each label was produced
/// in, each window column's label-count support for the weak-column
/// backoff, and the windowed M-step over any soft posteriors.  It turns
/// the crate's Dawid–Skene EM into DS-W (and streaming finalize), and
/// Logic-LNCL-W judges its Eq. 13 crowd labels by it.
pub struct Windows {
    /// Parallel to `view.annotations`: per label, its window index in its
    /// annotator's stream.
    window: Vec<Vec<usize>>,
    /// Windows per annotator (at least 1 each).
    count: Vec<usize>,
    /// Per annotator, entry `window * k + class`: the decay-blended number
    /// of labels of observed class `class` in `window` — the evidence mass
    /// a windowed confusion column rests on.  Posterior-independent, so it
    /// is computed once per fit.
    support: Vec<Vec<f32>>,
    num_classes: usize,
    decay: f32,
    backoff_min_support: f32,
}

impl Windows {
    /// Cuts each annotator's stream into windows of `size` positions.
    /// `positions` is parallel to `view.annotations`: each label's position
    /// in its annotator's stream (`0..len` per annotator; labels sharing a
    /// position share a window).  `backoff_min_support = 0.0` judges every
    /// label by its own window.
    ///
    /// Panics with a descriptive message when `size == 0` or `decay` lies
    /// outside `(0, 1]`.
    pub fn new(
        view: &AnnotationView,
        positions: &[Vec<usize>],
        size: usize,
        decay: f32,
        backoff_min_support: f32,
    ) -> Self {
        assert!(size >= 1, "stream window must hold at least one label, got {size}");
        assert!(decay > 0.0 && decay <= 1.0 && decay.is_finite(), "stream window decay must be in (0, 1], got {decay}");
        let k = view.num_classes;
        let window: Vec<Vec<usize>> = positions.iter().map(|unit| unit.iter().map(|&p| p / size).collect()).collect();
        let mut count = vec![1; view.num_annotators];
        for (annotations, windows) in view.annotations.iter().zip(&window) {
            for (&(annotator, _), &w) in annotations.iter().zip(windows) {
                count[annotator] = count[annotator].max(w + 1);
            }
        }
        let mut raw: Vec<Vec<f32>> = count.iter().map(|&w| vec![0.0; w * k]).collect();
        for (annotations, windows) in view.annotations.iter().zip(&window) {
            for (&(annotator, class), &w) in annotations.iter().zip(windows) {
                raw[annotator][w * k + class] += 1.0;
            }
        }
        let support = raw.into_iter().map(|counts| decay_blend_flat(&counts, k, decay)).collect();
        Self { window, count, support, num_classes: k, decay, backoff_min_support }
    }

    /// Per-annotator, per-window confusion matrices from soft posteriors
    /// (one row per unit of `view`): raw window counts, decay blending,
    /// smoothing, row normalisation.
    pub fn confusions(
        &self,
        view: &AnnotationView,
        posteriors: &[impl AsRef<[f32]>],
        smoothing: f32,
    ) -> Vec<Vec<Matrix>> {
        let k = view.num_classes;
        let mut raw: Vec<Vec<Matrix>> = self.count.iter().map(|&w| vec![Matrix::zeros(k, k); w]).collect();
        for (u, annotations) in view.annotations.iter().enumerate() {
            let posterior = posteriors[u].as_ref();
            for (&(annotator, class), &w) in annotations.iter().zip(&self.window[u]) {
                for m in 0..k {
                    raw[annotator][w][(m, class)] += posterior[m];
                }
            }
        }
        raw.into_iter()
            .map(|windows| {
                let mut blended = decay_blend(&windows, self.decay);
                for c in &mut blended {
                    for v in c.as_mut_slice() {
                        *v += smoothing;
                    }
                    normalize_confusion_rows(c);
                }
                blended
            })
            .collect()
    }

    /// The window whose confusion judges label `slot` of unit `u`
    /// (`annotator` reporting `class`), or `None` when that window's
    /// observed-class column has less support than `backoff_min_support` —
    /// then it is little more than the label's own circular self-evidence,
    /// and the annotator's pooled confusion judges it instead.
    #[inline]
    pub fn judging_window(&self, u: usize, slot: usize, annotator: usize, class: usize) -> Option<usize> {
        let w = self.window[u][slot];
        (self.support[annotator][w * self.num_classes + class] >= self.backoff_min_support).then_some(w)
    }
}

/// Blends per-window count blocks (flat `block`-sized chunks, one chunk per
/// window) with `decay^distance` weights in two linear passes (forward +
/// backward geometric prefixes), so the smoothing is O(windows · block)
/// instead of O(windows² · block).  Window `w`'s blended counts are
/// `Σ_i decay^|w - i| · raw_i`; `decay == 1.0` pools every window to the
/// global counts.
///
/// Every stream-windowed estimate — DS-W, streaming finalize and the
/// Logic-LNCL-W E-step, all through [`Windows`] or [`decay_blend`] — blends
/// here, so they always apply the same smoothing scheme.
fn decay_blend_flat(raw: &[f32], block: usize, decay: f32) -> Vec<f32> {
    // the chunked passes below walk whole blocks, so a ragged tail would be
    // passed through unblended — catch the caller's sizing bug loudly
    assert!(block >= 1, "decay_blend_flat: block size must be at least 1");
    assert!(
        raw.len().is_multiple_of(block),
        "decay_blend_flat: {} count(s) do not divide into blocks of {block} — the {} trailing element(s) would be \
         silently dropped from the blend",
        raw.len(),
        raw.len() % block
    );
    let windows = raw.len() / block;
    if windows <= 1 {
        return raw.to_vec();
    }
    let mut forward = raw.to_vec();
    for w in 1..windows {
        let (done, rest) = forward.split_at_mut(w * block);
        let prev = &done[(w - 1) * block..];
        for (dst, &src) in rest[..block].iter_mut().zip(prev) {
            *dst += decay * src;
        }
    }
    let mut backward = raw.to_vec();
    for w in (0..windows - 1).rev() {
        let (head, tail) = backward.split_at_mut((w + 1) * block);
        let next = &tail[..block];
        for (dst, &src) in head[w * block..].iter_mut().zip(next) {
            *dst += decay * src;
        }
    }
    forward.iter().zip(&backward).zip(raw).map(|((&f, &b), &r)| f + b - r).collect()
}

/// [`decay_blend_flat`] over per-window matrices (one `K x K` count matrix
/// per window of one annotator's stream).  Shared with the incremental
/// estimator in [`crate::truth::streaming`].
pub(crate) fn decay_blend(raw: &[Matrix], decay: f32) -> Vec<Matrix> {
    let Some(first) = raw.first() else { return Vec::new() };
    let (rows, cols) = first.shape();
    let block = rows * cols;
    let mut flat = Vec::with_capacity(raw.len() * block);
    for m in raw {
        flat.extend_from_slice(m.as_slice());
    }
    decay_blend_flat(&flat, block, decay)
        .chunks_exact(block)
        .map(|chunk| Matrix::from_vec(rows, cols, chunk.to_vec()))
        .collect()
}

/// Each label's position in its annotator's stream when the stream is the
/// annotator's labels in unit order (parallel to `view.annotations`).
fn unit_order_positions(view: &AnnotationView) -> Vec<Vec<usize>> {
    let mut next = vec![0usize; view.num_annotators];
    view.annotations
        .iter()
        .map(|annotations| {
            annotations
                .iter()
                .map(|&(annotator, _)| {
                    next[annotator] += 1;
                    next[annotator] - 1
                })
                .collect()
        })
        .collect()
}

impl TruthInference for DsWindowed {
    fn name(&self) -> &'static str {
        "DS-W"
    }

    fn infer(&self, view: &AnnotationView) -> TruthEstimate {
        self.validate();
        let positions = unit_order_positions(view);
        let windows = Windows::new(view, &positions, self.window, self.decay, self.backoff_min_support);
        let ds = DawidSkene { max_iters: self.max_iters, tol: self.tol, smoothing: self.smoothing };
        // report the *pooled* per-annotator confusions for compatibility
        // with consumers that expect one matrix per annotator
        let (posteriors, pooled, _) = ds.fit(view, Some(&windows));
        TruthEstimate::from_posteriors(posteriors).with_confusions(pooled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{generate_scenario, Archetype, DriftSchedule, PropensityProfile, ScenarioConfig};
    use crate::truth::testutil::planted_view;
    use crate::truth::{DawidSkene, TruthInference};

    #[test]
    fn comparable_to_static_ds_on_static_crowds() {
        let view = planted_view(500, 2, &[0.95, 0.9, 0.6, 0.55, 0.5], 5, 7);
        let ds = DawidSkene::default().infer(&view).accuracy(&view.gold);
        let dsw = DsWindowed::default().infer(&view).accuracy(&view.gold);
        assert!((ds - dsw).abs() < 0.04, "DS-W {dsw} should track DS {ds} on static data");
        assert!(dsw > 0.85, "DS-W accuracy {dsw}");
    }

    #[test]
    fn decay_one_pools_all_windows_like_static_ds() {
        let view = planted_view(300, 3, &[0.9, 0.7, 0.5, 0.45], 4, 11);
        let ds = DawidSkene::default().infer(&view);
        let pooled = DsWindowed { decay: 1.0, window: 20, ..Default::default() }.infer(&view);
        let agree = ds.hard.iter().zip(&pooled.hard).filter(|(a, b)| a == b).count();
        let rate = agree as f32 / ds.hard.len() as f32;
        assert!(rate > 0.98, "decay 1.0 must reproduce static DS labels, agreement {rate}");
    }

    /// The drift scenario the windowed estimator exists for: a long-tailed
    /// pool of decent NER annotators whose labels turn near-spam after a
    /// step change halfway through their stream.  The long tail matters:
    /// prolific annotators cross the break early while light annotators
    /// never reach it, so at any point in the corpus *some* streams are
    /// still clean — exactly the structure a static confusion matrix
    /// averages away and a windowed one preserves.
    fn step_change_config() -> ScenarioConfig {
        ScenarioConfig::tagging("step-drift")
            .with_sizes(500, 10, 10)
            .with_annotators(8)
            .with_redundancy(5, 5)
            .with_propensity(PropensityProfile::LongTail)
            .with_mix(vec![(Archetype::Reliable { accuracy: 0.9 }, 1.0)])
            .with_drift(DriftSchedule::StepChange { at: 0.5, level: 0.9 })
            .with_seed(17)
    }

    #[test]
    fn beats_static_ds_on_a_step_change_drift_scenario() {
        let view = generate_scenario(&step_change_config()).annotation_view();
        let ds = DawidSkene::default().infer(&view).accuracy(&view.gold);
        let dsw = DsWindowed::default().infer(&view).accuracy(&view.gold);
        // measured margin is ~0.25 (DS ~0.43, DS-W ~0.68), stable across
        // seeds and drift levels; 0.1 leaves generous slack
        assert!(dsw > ds + 0.1, "windowed DS must beat static DS under a step-change drift: DS {ds}, DS-W {dsw}");
    }

    #[test]
    fn span_f1_matches_or_beats_static_ds_under_step_drift() {
        // the formerly documented failure mode: window-unseen tokens used
        // to collapse to the majority class (O), winning token accuracy but
        // losing strict span F1 to static DS.  The pooled-confusion backoff
        // for weakly-supported window columns closes exactly that gap.
        let dataset = generate_scenario(&step_change_config());
        let view = dataset.annotation_view();
        let gold: Vec<Vec<usize>> = dataset.train.iter().map(|i| i.gold.clone()).collect();
        let ds = DawidSkene::default().infer(&view);
        let dsw = DsWindowed::default().infer(&view);
        let ds_f1 = crate::metrics::span_f1(&ds.hard_by_instance(&view), &gold).f1;
        let dsw_f1 = crate::metrics::span_f1(&dsw.hard_by_instance(&view), &gold).f1;
        assert!(
            dsw_f1 >= ds_f1,
            "windowed DS span F1 must not lose to static DS under drift: DS {ds_f1}, DS-W {dsw_f1}"
        );
    }

    #[test]
    fn posteriors_are_distributions() {
        let view = generate_scenario(&step_change_config()).annotation_view();
        let est = DsWindowed::default().infer(&view);
        for p in &est.posteriors {
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        assert_eq!(est.confusions.as_ref().map(Vec::len), Some(view.num_annotators));
    }

    #[test]
    #[should_panic(expected = "DS-W window must hold at least one label")]
    fn zero_window_is_rejected_with_a_real_message() {
        let view = planted_view(10, 2, &[0.9, 0.9], 2, 3);
        let _ = DsWindowed { window: 0, ..Default::default() }.infer(&view);
    }

    #[test]
    #[should_panic(expected = "DS-W decay must be in (0, 1]")]
    fn out_of_range_decay_is_rejected_with_a_real_message() {
        let view = planted_view(10, 2, &[0.9, 0.9], 2, 3);
        let _ = DsWindowed { decay: 1.5, ..Default::default() }.infer(&view);
    }

    #[test]
    fn decay_one_windows_pool_to_the_static_m_step() {
        // every annotator labels all 300 units, so windows of 40 cut each
        // stream into 8 windows; decay 1.0 blends each to the global counts
        let view = planted_view(300, 3, &[0.9, 0.7, 0.5, 0.45], 4, 11);
        let posteriors = crate::truth::MajorityVote.infer(&view).posteriors;
        let windows = Windows::new(&view, &unit_order_positions(&view), 40, 1.0, 0.0);
        let windowed = windows.confusions(&view, &posteriors, 0.01);
        let pooled = crate::truth::estimate_confusions(&view, &posteriors, 0.01);
        for (annotator, (per_window, pooled)) in windowed.iter().zip(&pooled).enumerate() {
            assert_eq!(per_window.len(), 8, "annotator {annotator} window count");
            for (w, confusion) in per_window.iter().enumerate() {
                assert!(
                    confusion.approx_eq(pooled, 1e-4),
                    "decay 1.0 must pool annotator {annotator}'s window {w} to the static counts: {confusion:?} vs \
                     {pooled:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not divide into blocks")]
    fn ragged_flat_counts_are_rejected() {
        // 7 counts over blocks of 4: the trailing 3 would silently vanish
        let _ = decay_blend_flat(&[1.0; 7], 4, 0.5);
    }

    #[test]
    fn decay_blend_is_symmetric_and_mass_preserving_at_decay_one() {
        let raw = vec![
            lncl_tensor::Matrix::full(2, 2, 1.0),
            lncl_tensor::Matrix::full(2, 2, 2.0),
            lncl_tensor::Matrix::full(2, 2, 4.0),
        ];
        let blended = decay_blend(&raw, 1.0);
        // decay 1.0: every window sees the global sum (7.0 per cell)
        for b in &blended {
            for &v in b.as_slice() {
                assert!((v - 7.0).abs() < 1e-5, "pooled value {v}");
            }
        }
        let half = decay_blend(&raw, 0.5);
        // window 1 sees 1*0.5 + 2 + 4*0.5 = 4.5
        assert!((half[1][(0, 0)] - 4.5).abs() < 1e-5, "got {}", half[1][(0, 0)]);
        // window 0 sees 1 + 2*0.5 + 4*0.25 = 3.0
        assert!((half[0][(0, 0)] - 3.0).abs() < 1e-5, "got {}", half[0][(0, 0)]);
    }
}
