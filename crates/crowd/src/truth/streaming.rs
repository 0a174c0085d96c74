//! Incremental truth inference for streaming crowd labels.
//!
//! The batch estimators in this module's siblings assume the whole dataset
//! exists up front: every EM iteration sweeps every unit.  A long-lived
//! serving process (the `lncl_serve` crate) cannot afford that — labels
//! arrive one at a time and consensus queries must be answered between
//! arrivals.  [`StreamingTruth`] keeps the Dawid–Skene sufficient
//! statistics *running*:
//!
//! * **Ingest** appends a label, credits the annotator's (windowed)
//!   confusion counts with the instance's current posterior mass, and marks
//!   the instance *dirty*.
//! * A **bounded refresh pass** (at most `REFRESH_BUDGET` = 8 instances per
//!   ingest) re-runs the E-step on dirty instances only, propagating the
//!   posterior delta into the touched annotators' counts.  When an
//!   instance's posterior moves by more than `PROPAGATION_TOL` = 0.02 (mean
//!   absolute change), every instance sharing one of its annotators is
//!   re-dirtied — the dirty-set propagation that lets a newly unmasked
//!   spammer's past labels be re-judged without a global sweep.
//! * [`StreamingTruth::finalize`] runs the batch estimators' own fit — the
//!   one Dawid–Skene EM behind [`DawidSkene`] and [`DsWindowed`], not a
//!   copy of it — over the accumulated labels and resets the running
//!   statistics to the converged state.
//!
//! # The replay-equivalence contract
//!
//! After ingesting a dataset label-by-label **in unit order** and calling
//! [`finalize`](StreamingTruth::finalize) once, the posteriors equal the
//! batch estimator's on the same data: bitwise when each unit's labels
//! arrive in canonical (annotator-sorted) order, and within a tight
//! tolerance otherwise, since `finalize` canonicalises each unit's labels
//! by `(annotator, class, arrival)` before fitting and a different per-unit
//! order changes the float summation order.  The canonical sort makes the
//! converged state *independent of arrival interleaving* in pooled mode
//! (asserted by `crates/crowd/tests/streaming_equivalence.rs`).  In
//! windowed mode the arrival order **is** the stream clock (each label is
//! judged by the confusion matrix of the window it arrived in), so
//! interleavings that reorder one annotator's stream legitimately change
//! the estimate, exactly as reordering units changes [`DsWindowed`]'s
//! unit-order stream positions.

use super::ds_windowed::{decay_blend, DsWindowed, Windows};
use super::{DawidSkene, TruthEstimate};
use crate::data::AnnotationView;
use crate::metrics::{normalize_confusion_rows, overall_reliability};
use lncl_tensor::{stats, Matrix};
use std::collections::VecDeque;

/// Diagonal pseudo-count added to the *online* confusion estimates — an
/// "annotators are better than chance" prior (IBCC-style) that breaks the
/// cold-start symmetry batch EM breaks with its majority-vote
/// initialisation.  Washes out as real counts accumulate; finalization
/// never uses it.
const DIAG_PRIOR: f32 = 1.0;
/// Dirty instances re-estimated per ingest (the bounded refresh pass).
const REFRESH_BUDGET: usize = 8;
/// Mean-absolute posterior change above which a refreshed instance
/// re-dirties its annotators' other instances.
const PROPAGATION_TOL: f32 = 0.02;

/// Stream-window parameters for the windowed (DS-W) mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamWindow {
    /// Maximum labels per estimation window in each annotator's stream.
    pub size: usize,
    /// Cross-window count decay in `(0, 1]` (`1.0` pools every window).
    pub decay: f32,
}

/// Configuration of a [`StreamingTruth`] estimator.  Everything else —
/// smoothing and EM settings, the windowed backoff threshold, the online
/// refresh knobs — comes from the batch estimators' defaults
/// ([`DawidSkene::default`], [`DsWindowed::DEFAULT_BACKOFF_MIN_SUPPORT`])
/// or this module's constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingConfig {
    /// Number of classes `K`.
    pub num_classes: usize,
    /// `None` = pooled Dawid–Skene statistics; `Some` = per-stream-window
    /// statistics with `decay^distance` blending (DS-W semantics).
    pub window: Option<StreamWindow>,
}

impl StreamingConfig {
    /// Pooled (classic Dawid–Skene) statistics over `num_classes` classes.
    pub fn pooled(num_classes: usize) -> Self {
        Self { num_classes, window: None }
    }

    /// Stream-windowed (DS-W) statistics with windows of `size` labels and
    /// cross-window decay `decay` (validated by [`StreamingTruth::new`]).
    pub fn windowed(num_classes: usize, size: usize, decay: f32) -> Self {
        Self { num_classes, window: Some(StreamWindow { size, decay }) }
    }

    /// The default windowed configuration (window
    /// [`DsWindowed::DEFAULT_WINDOW`], decay [`DsWindowed::DEFAULT_DECAY`]).
    pub fn windowed_default(num_classes: usize) -> Self {
        Self::windowed(num_classes, DsWindowed::DEFAULT_WINDOW, DsWindowed::DEFAULT_DECAY)
    }

    /// Panics with a descriptive message on degenerate parameters.
    fn validate(&self) {
        assert!(self.num_classes >= 2, "streaming truth needs at least 2 classes, got {}", self.num_classes);
        if let Some(w) = self.window {
            assert!(w.size >= 1, "stream window must hold at least one label, got {}", w.size);
            assert!(
                w.decay > 0.0 && w.decay <= 1.0 && w.decay.is_finite(),
                "stream window decay must be in (0, 1], got {}",
                w.decay
            );
        }
    }

    #[inline]
    fn window_of(&self, position: usize) -> usize {
        match self.window {
            None => 0,
            Some(w) => position / w.size,
        }
    }

    fn blend_decay(&self) -> f32 {
        self.window.map(|w| w.decay).unwrap_or(1.0)
    }
}

/// One ingested label: who said what, and where in the annotator's own
/// stream it arrived (the windowed mode's clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamLabel {
    annotator: usize,
    class: usize,
    position: usize,
}

/// The current consensus on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Consensus {
    /// Posterior distribution over classes.
    pub posterior: Vec<f32>,
    /// Hard label (argmax of the posterior).
    pub hard: usize,
    /// Posterior entropy in nats (0 = certain, `ln K` = uniform).
    pub entropy: f32,
    /// Number of crowd labels received for the instance.
    pub labels: usize,
}

/// The current estimate of one annotator.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatorStat {
    /// Pooled, smoothed, row-normalised confusion estimate.
    pub confusion: Matrix,
    /// Mean of the confusion diagonal (the Figure 6b/7b scalar).
    pub reliability: f32,
    /// Number of labels the annotator has contributed.
    pub labels: usize,
}

/// An incrementally maintained Dawid–Skene (optionally stream-windowed)
/// truth estimator — see the module docs for the update scheme and the
/// replay-equivalence contract.
#[derive(Debug, Clone)]
pub struct StreamingTruth {
    config: StreamingConfig,
    /// Per instance: the labels received so far.
    labels: Vec<Vec<StreamLabel>>,
    /// Per instance: current posterior over classes.
    posteriors: Vec<Vec<f32>>,
    /// Per annotator: instances they touched (one entry per label).
    by_annotator: Vec<Vec<usize>>,
    /// Per annotator: labels contributed so far (stream length).
    stream_len: Vec<usize>,
    /// Per annotator, per window: raw posterior-mass confusion counts
    /// (smoothing is added lazily when normalising).
    counts: Vec<Vec<Matrix>>,
    /// Per annotator: cached blended + smoothed + row-normalised
    /// confusions, invalidated whenever the raw counts move.
    normalized: Vec<Option<Vec<Matrix>>>,
    /// Per class: running sum of posterior mass (the prior statistic).
    prior_counts: Vec<f32>,
    dirty: VecDeque<usize>,
    in_dirty: Vec<bool>,
    ingested: u64,
    refreshed: u64,
}

impl StreamingTruth {
    /// Creates an empty estimator.  Panics on degenerate configuration.
    pub fn new(config: StreamingConfig) -> Self {
        config.validate();
        Self {
            config,
            labels: Vec::new(),
            posteriors: Vec::new(),
            by_annotator: Vec::new(),
            stream_len: Vec::new(),
            counts: Vec::new(),
            normalized: Vec::new(),
            prior_counts: vec![0.0; config.num_classes],
            dirty: VecDeque::new(),
            in_dirty: Vec::new(),
            ingested: 0,
            refreshed: 0,
        }
    }

    /// The configuration the estimator was built with.
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }

    /// Number of distinct instances seen so far.
    pub fn num_instances(&self) -> usize {
        self.labels.len()
    }

    /// Number of distinct annotators seen so far.
    pub fn num_annotators(&self) -> usize {
        self.stream_len.len()
    }

    /// Total labels ingested.
    pub fn total_labels(&self) -> u64 {
        self.ingested
    }

    /// Instances currently queued for re-estimation.
    pub fn dirty_backlog(&self) -> usize {
        self.dirty.len()
    }

    /// Instances re-estimated so far (across all refresh passes).
    pub fn refreshed_instances(&self) -> u64 {
        self.refreshed
    }

    /// Ingests one crowd label and runs a bounded refresh pass.  Instance
    /// and annotator ids are dense indices — the estimator grows to cover
    /// them (callers with external string ids intern them first, as the
    /// serving layer does).  Returns an error (no state change) when the
    /// class is out of range.
    pub fn ingest(&mut self, instance: usize, annotator: usize, class: usize) -> Result<(), String> {
        let k = self.config.num_classes;
        if class >= k {
            return Err(format!("class {class} out of range for {k} classes"));
        }
        self.grow_instances(instance + 1);
        self.grow_annotators(annotator + 1);

        let position = self.stream_len[annotator];
        self.stream_len[annotator] += 1;
        let window = self.config.window_of(position);
        while self.counts[annotator].len() <= window {
            self.counts[annotator].push(Matrix::zeros(k, k));
        }
        // credit the annotator's window with the instance's current mass
        for m in 0..k {
            self.counts[annotator][window][(m, class)] += self.posteriors[instance][m];
        }
        self.normalized[annotator] = None;
        self.labels[instance].push(StreamLabel { annotator, class, position });
        self.by_annotator[annotator].push(instance);
        self.ingested += 1;
        self.mark_dirty(instance);
        self.refresh(REFRESH_BUDGET);
        Ok(())
    }

    /// Replays every unit of a batch [`AnnotationView`] in unit order —
    /// the replay the equivalence contract is stated over.
    pub fn ingest_view(&mut self, view: &AnnotationView) {
        assert_eq!(view.num_classes, self.config.num_classes, "class-count mismatch");
        for (u, annotations) in view.annotations.iter().enumerate() {
            for &(annotator, class) in annotations {
                self.ingest(u, annotator, class).expect("valid view label");
            }
        }
    }

    /// Re-estimates up to `budget` dirty instances (the bounded refresh
    /// pass); returns how many were refreshed.
    pub fn refresh(&mut self, budget: usize) -> usize {
        let mut done = 0;
        while done < budget {
            let Some(u) = self.dirty.pop_front() else { break };
            self.in_dirty[u] = false;
            let new_post = self.e_step(u);
            let k = self.config.num_classes;
            let delta: f32 =
                new_post.iter().zip(&self.posteriors[u]).map(|(a, b)| (a - b).abs()).sum::<f32>() / k as f32;
            self.apply_posterior(u, new_post);
            self.refreshed += 1;
            done += 1;
            if delta > PROPAGATION_TOL {
                // the instance moved: everything its annotators touched is
                // now judged by stale confusions — re-dirty the neighbourhood
                for slot in 0..self.labels[u].len() {
                    let annotator = self.labels[u][slot].annotator;
                    for i in 0..self.by_annotator[annotator].len() {
                        let v = self.by_annotator[annotator][i];
                        self.mark_dirty(v);
                    }
                }
            }
        }
        done
    }

    /// Drains the dirty set completely (no budget).  Cheaper than a
    /// finalization pass — posteriors settle against the *current* running
    /// counts, but no global EM is run.
    pub fn drain_dirty(&mut self) -> usize {
        let mut total = 0;
        loop {
            let done = self.refresh(usize::MAX);
            total += done;
            if done == 0 {
                break;
            }
        }
        total
    }

    /// The current consensus on an instance (`None` for unseen ids).
    pub fn consensus(&self, instance: usize) -> Option<Consensus> {
        let posterior = self.posteriors.get(instance)?.clone();
        Some(Consensus {
            hard: stats::argmax(&posterior),
            entropy: stats::entropy(&posterior),
            labels: self.labels[instance].len(),
            posterior,
        })
    }

    /// The current estimate of an annotator (`None` for unseen ids):
    /// pooled confusion matrix (windows summed), smoothed and normalised,
    /// plus the diagonal-mean reliability.
    pub fn annotator(&self, annotator: usize) -> Option<AnnotatorStat> {
        let windows = self.counts.get(annotator)?;
        let k = self.config.num_classes;
        let mut pooled = Matrix::full(k, k, DawidSkene::default().smoothing);
        for window in windows {
            for (dst, &src) in pooled.as_mut_slice().iter_mut().zip(window.as_slice()) {
                *dst += src;
            }
        }
        normalize_confusion_rows(&mut pooled);
        Some(AnnotatorStat {
            reliability: overall_reliability(&pooled),
            labels: self.stream_len[annotator],
            confusion: pooled,
        })
    }

    /// Snapshot of the current posteriors as a [`TruthEstimate`] (pooled
    /// per-annotator confusions attached), e.g. for accuracy evaluation.
    pub fn estimate(&self) -> TruthEstimate {
        let confusions = (0..self.num_annotators()).map(|a| self.annotator(a).expect("dense ids").confusion).collect();
        TruthEstimate::from_posteriors(self.posteriors.clone()).with_confusions(confusions)
    }

    /// Runs the batch estimators' own fit ([`DawidSkene`] pooled,
    /// [`DsWindowed`] windowed) over the accumulated labels and resets the
    /// running statistics to the converged state.  Returns the number of
    /// EM iterations run.
    ///
    /// Each instance's label list is first canonicalised by
    /// `(annotator, class, arrival)`, so the pooled state is independent of
    /// the arrival interleaving; windowed mode judges each label by the
    /// window of its recorded stream position (the arrival order is the
    /// windowed clock).
    pub fn finalize(&mut self) -> usize {
        for labels in &mut self.labels {
            labels.sort_by_key(|l| (l.annotator, l.class, l.position));
        }
        // the fit reads only the labels, never gold or the instance layout
        let mut view = AnnotationView {
            num_classes: self.config.num_classes,
            num_annotators: self.num_annotators(),
            annotations: Vec::with_capacity(self.labels.len()),
            gold: Vec::new(),
            unit_instance: Vec::new(),
            unit_position: Vec::new(),
            instance_len: Vec::new(),
        };
        let mut positions: Vec<Vec<usize>> = Vec::with_capacity(self.labels.len());
        for labels in &self.labels {
            let (annotations, arrivals) = labels.iter().map(|l| ((l.annotator, l.class), l.position)).unzip();
            view.annotations.push(annotations);
            positions.push(arrivals);
        }
        let windows = self
            .config
            .window
            .map(|w| Windows::new(&view, &positions, w.size, w.decay, DsWindowed::DEFAULT_BACKOFF_MIN_SUPPORT));
        let (posteriors, _, iterations) = DawidSkene::default().fit(&view, windows.as_ref());
        self.posteriors = posteriors;
        self.rebuild_running_state();
        iterations
    }

    /// Recomputes the running raw counts and prior from the current
    /// posteriors (after a finalization pass) and clears the dirty set.
    fn rebuild_running_state(&mut self) {
        let k = self.config.num_classes;
        for counts in &mut self.counts {
            for c in counts.iter_mut() {
                c.as_mut_slice().fill(0.0);
            }
        }
        for (u, labels) in self.labels.iter().enumerate() {
            for l in labels {
                let counts = &mut self.counts[l.annotator][self.config.window_of(l.position)];
                for m in 0..k {
                    counts[(m, l.class)] += self.posteriors[u][m];
                }
            }
        }
        self.prior_counts = vec![0.0; k];
        for p in &self.posteriors {
            for (m, &v) in p.iter().enumerate() {
                self.prior_counts[m] += v;
            }
        }
        self.normalized = vec![None; self.num_annotators()];
        self.dirty.clear();
        self.in_dirty.iter_mut().for_each(|d| *d = false);
    }

    /// One online E-step for instance `u` against the current (cached)
    /// confusions and prior.
    fn e_step(&mut self, u: usize) -> Vec<f32> {
        let k = self.config.num_classes;
        for slot in 0..self.labels[u].len() {
            let annotator = self.labels[u][slot].annotator;
            self.ensure_normalized(annotator);
        }
        let prior = self.prior();
        let mut log_post: Vec<f32> = prior.iter().map(|p| p.max(1e-12).ln()).collect();
        for l in &self.labels[u] {
            let windows = self.normalized[l.annotator].as_ref().expect("cache ensured above");
            let confusion = &windows[self.config.window_of(l.position)];
            for (m, lp) in log_post.iter_mut().enumerate().take(k) {
                *lp += confusion[(m, l.class)].max(1e-12).ln();
            }
        }
        stats::softmax(&log_post)
    }

    /// Replaces instance `u`'s posterior, pushing the delta into the prior
    /// statistic and every touched annotator's window counts.
    fn apply_posterior(&mut self, u: usize, new_post: Vec<f32>) {
        let old = std::mem::replace(&mut self.posteriors[u], new_post);
        let k = self.config.num_classes;
        for slot in 0..self.labels[u].len() {
            let l = self.labels[u][slot];
            let counts = &mut self.counts[l.annotator][self.config.window_of(l.position)];
            for m in 0..k {
                counts[(m, l.class)] += self.posteriors[u][m] - old[m];
            }
            self.normalized[l.annotator] = None;
        }
        for (m, &old_m) in old.iter().enumerate().take(k) {
            self.prior_counts[m] += self.posteriors[u][m] - old_m;
        }
    }

    /// Smoothed, normalised class prior from the running posterior sums.
    fn prior(&self) -> Vec<f32> {
        let mut prior: Vec<f32> = self.prior_counts.iter().map(|&c| 1e-6 + c.max(0.0)).collect();
        stats::normalize_in_place(&mut prior);
        prior
    }

    fn ensure_normalized(&mut self, annotator: usize) {
        if self.normalized[annotator].is_some() {
            return;
        }
        let mut blended = decay_blend(&self.counts[annotator], self.config.blend_decay());
        let k = self.config.num_classes;
        let smoothing = DawidSkene::default().smoothing;
        for c in &mut blended {
            for v in c.as_mut_slice() {
                // running counts are maintained by float deltas; tiny
                // negative drift must not survive into a probability
                *v = v.max(0.0) + smoothing;
            }
            for m in 0..k {
                c[(m, m)] += DIAG_PRIOR;
            }
            normalize_confusion_rows(c);
        }
        self.normalized[annotator] = Some(blended);
    }

    fn mark_dirty(&mut self, instance: usize) {
        if !self.in_dirty[instance] {
            self.in_dirty[instance] = true;
            self.dirty.push_back(instance);
        }
    }

    fn grow_instances(&mut self, len: usize) {
        while self.labels.len() < len {
            self.labels.push(Vec::new());
            self.posteriors.push(vec![1.0 / self.config.num_classes as f32; self.config.num_classes]);
            self.in_dirty.push(false);
            let m = self.posteriors.last().expect("just pushed");
            for (c, &v) in m.iter().enumerate() {
                self.prior_counts[c] += v;
            }
        }
    }

    fn grow_annotators(&mut self, len: usize) {
        while self.stream_len.len() < len {
            self.stream_len.push(0);
            self.counts.push(Vec::new());
            self.normalized.push(None);
            self.by_annotator.push(Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::testutil::planted_view;
    use crate::truth::{DawidSkene, MajorityVote, TruthInference};

    fn max_posterior_diff(a: &[Vec<f32>], b: &[Vec<f32>]) -> f32 {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q).abs())).fold(0.0f32, f32::max)
    }

    #[test]
    fn replay_and_finalize_matches_batch_ds_tightly() {
        let view = planted_view(300, 2, &[0.95, 0.9, 0.6, 0.55, 0.5], 4, 7);
        let mut stream = StreamingTruth::new(StreamingConfig::pooled(2));
        stream.ingest_view(&view);
        stream.finalize();
        let batch = DawidSkene::default().infer(&view);
        let diff = max_posterior_diff(&stream.estimate().posteriors, &batch.posteriors);
        assert!(diff < 1e-4, "finalized stream must match batch DS, max diff {diff}");
    }

    #[test]
    fn online_posteriors_track_batch_ds_before_finalize() {
        let view = planted_view(300, 2, &[0.95, 0.9, 0.6, 0.55, 0.5], 4, 7);
        let mut stream = StreamingTruth::new(StreamingConfig::pooled(2));
        stream.ingest_view(&view);
        stream.drain_dirty();
        let online = stream.estimate().accuracy(&view.gold);
        let batch = DawidSkene::default().infer(&view).accuracy(&view.gold);
        let mv = MajorityVote.infer(&view).accuracy(&view.gold);
        assert!(online >= mv - 0.02, "online estimate {online} must not fall below MV {mv}");
        assert!((online - batch).abs() < 0.05, "online {online} should track batch DS {batch}");
    }

    #[test]
    fn ingest_grows_state_and_counts() {
        let mut stream = StreamingTruth::new(StreamingConfig::pooled(3));
        stream.ingest(0, 0, 1).unwrap();
        stream.ingest(4, 2, 2).unwrap();
        assert_eq!(stream.num_instances(), 5);
        assert_eq!(stream.num_annotators(), 3);
        assert_eq!(stream.total_labels(), 2);
        assert_eq!(stream.consensus(1).unwrap().labels, 0);
        assert_eq!(stream.consensus(4).unwrap().labels, 1);
        assert!(stream.consensus(9).is_none());
        assert!(stream.annotator(7).is_none());
    }

    #[test]
    fn out_of_range_class_is_rejected_without_state_change() {
        let mut stream = StreamingTruth::new(StreamingConfig::pooled(2));
        stream.ingest(0, 0, 1).unwrap();
        let before = stream.estimate().posteriors;
        assert!(stream.ingest(0, 0, 2).is_err());
        assert_eq!(stream.total_labels(), 1);
        assert_eq!(stream.estimate().posteriors, before);
    }

    #[test]
    fn consensus_entropy_drops_as_agreeing_labels_arrive() {
        let mut stream = StreamingTruth::new(StreamingConfig::pooled(2));
        stream.ingest(0, 0, 1).unwrap();
        let early = stream.consensus(0).unwrap().entropy;
        for a in 1..6 {
            stream.ingest(0, a, 1).unwrap();
        }
        stream.drain_dirty();
        let late = stream.consensus(0).unwrap();
        assert!(late.entropy < early, "unanimous labels must reduce entropy: {early} -> {}", late.entropy);
        assert_eq!(late.hard, 1);
    }

    #[test]
    fn annotator_stat_separates_expert_from_spammer() {
        let view = planted_view(400, 2, &[0.95, 0.9, 0.5], 3, 11);
        let mut stream = StreamingTruth::new(StreamingConfig::pooled(2));
        stream.ingest_view(&view);
        stream.finalize();
        let expert = stream.annotator(0).unwrap();
        let spammer = stream.annotator(2).unwrap();
        assert!(
            expert.reliability > spammer.reliability + 0.2,
            "expert {} vs spammer {}",
            expert.reliability,
            spammer.reliability
        );
        let middle = stream.annotator(1).unwrap();
        assert_eq!(
            expert.labels + middle.labels + spammer.labels,
            view.annotations.iter().map(Vec::len).sum::<usize>()
        );
    }

    #[test]
    fn dirty_propagation_eventually_rejudges_old_instances() {
        // first labels land with an uninformative pool; once an annotator's
        // later stream reveals their quality, earlier instances move too
        let mut stream = StreamingTruth::new(StreamingConfig::pooled(2));
        stream.ingest(0, 0, 1).unwrap();
        let backlog_before = stream.refreshed_instances();
        for u in 1..40 {
            stream.ingest(u, 0, (u % 2 == 0) as usize).unwrap();
            stream.ingest(u, 1, (u % 2 == 0) as usize).unwrap();
        }
        stream.drain_dirty();
        assert!(stream.refreshed_instances() > backlog_before + 39, "propagation must re-refresh instances");
        assert_eq!(stream.dirty_backlog(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 2 classes")]
    fn one_class_config_is_rejected() {
        let _ = StreamingTruth::new(StreamingConfig::pooled(1));
    }

    #[test]
    #[should_panic(expected = "stream window decay must be in (0, 1]")]
    fn bad_decay_is_rejected() {
        let _ = StreamingTruth::new(StreamingConfig::windowed(2, 10, 1.5));
    }
}
