//! The replay-equivalence contract of the incremental estimator
//! ([`lncl_crowd::truth::streaming`]).  Finalization runs the batch
//! estimators' own fit, so ingesting a dataset label-by-label and
//! finalizing once must reproduce `DawidSkene` / `DsWindowed` — bitwise
//! when each unit's labels arrive in canonical (annotator-sorted) order,
//! within a tight tolerance otherwise, on a seeded grid over both tasks
//! and clean / mixed / drifted scenarios.  Pooled-mode convergence must
//! additionally be independent of the arrival interleaving, and
//! shuffled-arrival finalization, which has no batch reference, is pinned
//! to recorded bits.

use lncl_crowd::data::AnnotationView;
use lncl_crowd::scenario::{generate_scenario, Archetype, DriftSchedule, ScenarioConfig};
use lncl_crowd::truth::streaming::{StreamingConfig, StreamingTruth};
use lncl_crowd::truth::{DawidSkene, DsWindowed, TruthEstimate, TruthInference};
use lncl_crowd::TaskKind;
use lncl_tensor::TensorRng;

/// The scenario axis of the grid: a clean pool, an adversarial mix and a
/// mid-stream step drift, for one task.
fn grid_views(task: TaskKind) -> Vec<(String, AnnotationView)> {
    let base = ScenarioConfig::tiny(task);
    let task_name = match task {
        TaskKind::Classification => "cls",
        TaskKind::SequenceTagging => "tag",
    };
    let variants = vec![
        ("clean", base.clone()),
        (
            "mixed",
            base.clone().with_mix(vec![
                (Archetype::reliable(), 0.5),
                (Archetype::adversarial(), 0.25),
                (Archetype::pair_confuser(), 0.25),
            ]),
        ),
        ("drifted", base.with_drift(DriftSchedule::StepChange { at: 0.5, level: 0.6 })),
    ];
    variants
        .into_iter()
        .flat_map(|(name, config)| {
            [3u64, 17].into_iter().map(move |seed| {
                let config = config.clone().named(format!("{task_name}/{name}/s{seed}")).with_seed(seed);
                (config.name.clone(), generate_scenario(&config).annotation_view())
            })
        })
        .collect()
}

fn max_posterior_diff(a: &[Vec<f32>], b: &[Vec<f32>]) -> f32 {
    assert_eq!(a.len(), b.len(), "unit-count mismatch");
    a.iter().zip(b).flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q).abs())).fold(0.0f32, f32::max)
}

/// A copy of the view with each unit's labels in canonical
/// (annotator, class) order — the order `finalize` sorts into, so the
/// batch estimator's float-summation order matches the stream's exactly.
fn canonical(view: &AnnotationView) -> AnnotationView {
    let mut sorted = view.clone();
    for annotations in &mut sorted.annotations {
        annotations.sort();
    }
    sorted
}

#[test]
fn replayed_stream_matches_batch_ds_across_grid() {
    for task in [TaskKind::Classification, TaskKind::SequenceTagging] {
        for (name, view) in grid_views(task) {
            let mut stream = StreamingTruth::new(StreamingConfig::pooled(view.num_classes));
            stream.ingest_view(&view);
            stream.finalize();
            let batch = DawidSkene::default().infer(&view);
            let diff = max_posterior_diff(&stream.estimate().posteriors, &batch.posteriors);
            assert!(diff < 5e-4, "{name}: stream+finalize vs batch DS diff {diff}");
        }
    }
}

#[test]
fn replayed_stream_matches_batch_ds_windowed_across_grid() {
    for task in [TaskKind::Classification, TaskKind::SequenceTagging] {
        for (name, view) in grid_views(task) {
            let mut stream = StreamingTruth::new(StreamingConfig::windowed_default(view.num_classes));
            stream.ingest_view(&view);
            stream.finalize();
            let batch = DsWindowed::default().infer(&view);
            let diff = max_posterior_diff(&stream.estimate().posteriors, &batch.posteriors);
            assert!(diff < 5e-4, "{name}: stream+finalize vs batch DS-W diff {diff}");
        }
    }
}

#[test]
fn canonical_order_replay_is_bitwise_identical_to_batch() {
    for task in [TaskKind::Classification, TaskKind::SequenceTagging] {
        let view = canonical(&generate_scenario(&ScenarioConfig::tiny(task).with_seed(5)).annotation_view());
        let k = view.num_classes;
        let pairs: [(StreamingConfig, &dyn TruthInference); 2] = [
            (StreamingConfig::pooled(k), &DawidSkene::default()),
            (StreamingConfig::windowed_default(k), &DsWindowed::default()),
        ];
        for (config, batch) in pairs {
            let mut stream = StreamingTruth::new(config);
            stream.ingest_view(&view);
            stream.finalize();
            assert_eq!(
                stream.estimate().posteriors,
                batch.infer(&view).posteriors,
                "{task:?}: canonical-order replay must be bitwise identical to batch {}",
                batch.name()
            );
        }
    }
}

/// The view's labels as `(unit, annotator, class)` in a seeded
/// Fisher–Yates arrival order.
fn shuffled_arrivals(view: &AnnotationView, seed: u64) -> Vec<(usize, usize, usize)> {
    let mut labels: Vec<(usize, usize, usize)> =
        view.annotations.iter().enumerate().flat_map(|(u, anns)| anns.iter().map(move |&(a, c)| (u, a, c))).collect();
    let mut rng = TensorRng::seed_from_u64(seed);
    for i in (1..labels.len()).rev() {
        labels.swap(i, rng.usize_below(i + 1));
    }
    labels
}

/// Ingests `arrivals` in order and finalizes once; returns the iteration
/// count and the converged estimate.
fn finalize_arrivals(config: StreamingConfig, arrivals: &[(usize, usize, usize)]) -> (usize, TruthEstimate) {
    let mut stream = StreamingTruth::new(config);
    for &(u, a, c) in arrivals {
        stream.ingest(u, a, c).expect("valid label");
    }
    let iterations = stream.finalize();
    (iterations, stream.estimate())
}

#[test]
fn pooled_convergence_is_independent_of_arrival_interleaving() {
    let view = generate_scenario(&ScenarioConfig::tiny(TaskKind::Classification).with_seed(9)).annotation_view();
    let mut reference: Option<Vec<Vec<f32>>> = None;
    for seed in [1u64, 2, 3] {
        let arrivals = shuffled_arrivals(&view, seed);
        let posteriors = finalize_arrivals(StreamingConfig::pooled(view.num_classes), &arrivals).1.posteriors;
        match &reference {
            None => reference = Some(posteriors),
            Some(reference) => {
                assert_eq!(reference, &posteriors, "interleaving seed {seed} changed the converged pooled state")
            }
        }
    }
}

#[test]
fn online_stream_stays_usable_between_finalizations() {
    // finalize mid-stream, keep ingesting, finalize again: the second
    // finalization must still match a batch run over everything
    let view = generate_scenario(&ScenarioConfig::tiny(TaskKind::Classification).with_seed(21)).annotation_view();
    let mut stream = StreamingTruth::new(StreamingConfig::pooled(view.num_classes));
    let half = view.annotations.len() / 2;
    for (u, annotations) in view.annotations.iter().enumerate().take(half) {
        for &(a, c) in annotations {
            stream.ingest(u, a, c).expect("valid label");
        }
    }
    stream.finalize();
    for (u, annotations) in view.annotations.iter().enumerate().skip(half) {
        for &(a, c) in annotations {
            stream.ingest(u, a, c).expect("valid label");
        }
    }
    stream.finalize();
    let batch = DawidSkene::default().infer(&view);
    let diff = max_posterior_diff(&stream.estimate().posteriors, &batch.posteriors);
    assert!(diff < 5e-4, "mid-stream finalization must not poison the final state, diff {diff}");
}

/// FNV-1a over the bits of an estimate's posteriors and annotator
/// confusions: one number that moves when any of them moves by one ulp.
fn estimate_digest(estimate: &TruthEstimate) -> u64 {
    let confusions = estimate.confusions.iter().flatten().flat_map(|c| c.as_slice());
    estimate.posteriors.iter().flatten().chain(confusions).fold(0xcbf2_9ce4_8422_2325, |hash, value| {
        value.to_bits().to_le_bytes().iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Finalization under shuffled arrival is the one path where the stream
/// positions differ from the view's unit order, so no batch run can serve
/// as its reference.  Pinned instead: iteration counts and estimate
/// digests, pooled and stream-windowed, on a drifting tagging crowd.
#[test]
fn shuffled_arrival_finalize_is_pinned() {
    let config = ScenarioConfig::tiny(TaskKind::SequenceTagging)
        .with_drift(DriftSchedule::StepChange { at: 0.5, level: 0.6 })
        .with_seed(13);
    let view = generate_scenario(&config).annotation_view();
    let arrivals = shuffled_arrivals(&view, 7);
    let k = view.num_classes;
    let (pooled_iters, pooled) = finalize_arrivals(StreamingConfig::pooled(k), &arrivals);
    let (windowed_iters, windowed) = finalize_arrivals(StreamingConfig::windowed(k, 16, 0.5), &arrivals);
    assert_ne!(pooled.posteriors, windowed.posteriors, "the stream windows must change the windowed estimate");
    assert_eq!((pooled_iters, estimate_digest(&pooled)), (50, 0x455e_7908_b0f5_568d), "pooled finalize moved");
    assert_eq!((windowed_iters, estimate_digest(&windowed)), (50, 0x5a04_2d93_9a81_f88e), "windowed finalize moved");
}
