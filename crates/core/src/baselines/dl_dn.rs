//! DL-DN / DL-WDN (Guan et al., 2018): train one copy of the network per
//! annotator on that annotator's labels, then average the predictions —
//! uniformly (DN) or weighted by how many instances each annotator labelled
//! (WDN).  Both averages read the same trained ensemble.

use crate::baselines::two_stage::{one_hot_targets, train_supervised};
use crate::config::TrainConfig;
use crate::predict::evaluate_predictions;
use crate::report::EvalMetrics;
use lncl_crowd::{CrowdDataset, Instance};
use lncl_nn::{InstanceClassifier, Module, Workspace};
use lncl_tensor::stats;

/// Configuration of the DL-DN baseline.
#[derive(Debug, Clone)]
pub struct DlDnConfig {
    /// Per-annotator training configuration (kept short — each annotator has
    /// only a small slice of the data).
    pub train: TrainConfig,
    /// Annotators with fewer labelled instances than this are skipped (they
    /// cannot train a useful network and only add noise).
    pub min_instances: usize,
    /// Cap on the number of annotator networks (the most prolific are kept);
    /// bounds the cost when the pool is large.
    pub max_annotators: usize,
}

impl Default for DlDnConfig {
    fn default() -> Self {
        Self { train: TrainConfig::fast(4), min_instances: 20, max_annotators: 12 }
    }
}

/// Trains the per-annotator ensemble once and evaluates both of its
/// averages on the test split.  `model_factory` builds a fresh (randomly
/// initialised) network for each annotator.  Returns the `(DL-DN,
/// DL-WDN)` test metrics: the uniform and the count-weighted average.
pub fn train_dl_dn<M, F>(dataset: &CrowdDataset, config: &DlDnConfig, model_factory: F) -> (EvalMetrics, EvalMetrics)
where
    M: InstanceClassifier + Module + Clone,
    F: FnMut(u64) -> M,
{
    let ensemble = train_ensemble(dataset, config, model_factory);
    let evaluate = |weight: fn(usize) -> f32| {
        let predictions: Vec<Vec<usize>> = ensemble_proba(&ensemble, weight, &dataset.test, dataset.num_classes)
            .iter()
            .map(|rows| rows.iter().map(|row| stats::argmax(row)).collect())
            .collect();
        evaluate_predictions(&predictions, &dataset.test, dataset.task)
    };
    (evaluate(|_| 1.0), evaluate(|count| count as f32))
}

/// Trains the per-annotator ensemble and reads out its uniform-average
/// softmax posterior over the true class for every unit of the **training
/// split**, in [`AnnotationView`](lncl_crowd::AnnotationView) order.  An
/// average of per-model distributions is itself a distribution, so every
/// row sums to 1 — the posterior-normalisation invariant the robustness
/// suite checks.
pub fn train_dl_dn_posteriors<M, F>(dataset: &CrowdDataset, config: &DlDnConfig, model_factory: F) -> Vec<Vec<f32>>
where
    M: InstanceClassifier + Module + Clone,
    F: FnMut(u64) -> M,
{
    let ensemble = train_ensemble(dataset, config, model_factory);
    ensemble_proba(&ensemble, |_| 1.0, &dataset.train, dataset.num_classes).into_iter().flatten().collect()
}

/// Trains one network per qualifying annotator on that annotator's labels,
/// returning the `(model, labelled-instance count)` ensemble.
fn train_ensemble<M, F>(dataset: &CrowdDataset, config: &DlDnConfig, mut model_factory: F) -> Vec<(M, usize)>
where
    M: InstanceClassifier + Module + Clone,
    F: FnMut(u64) -> M,
{
    // pick the annotators with enough data; count ties are broken by a
    // fingerprint of each annotator's label stream (not by annotator id),
    // so renumbering the annotators cannot change which network/seed a
    // given label stream is trained with — the annotator-permutation
    // invariance the robustness suite checks
    let mut counts: Vec<(usize, usize)> = (0..dataset.num_annotators)
        .map(|a| (a, dataset.train.iter().filter(|i| i.labels_by(a).is_some()).count()))
        .collect();
    counts.sort_by_cached_key(|&(a, count)| (std::cmp::Reverse(count), stream_fingerprint(dataset, a)));
    let selected: Vec<(usize, usize)> =
        counts.into_iter().filter(|&(_, n)| n >= config.min_instances).take(config.max_annotators).collect();
    assert!(!selected.is_empty(), "DL-DN: no annotator has enough labels (min_instances too high?)");

    let mut ensemble: Vec<(M, usize)> = Vec::with_capacity(selected.len());
    for (idx, &(annotator, count)) in selected.iter().enumerate() {
        // restrict the dataset to this annotator's labels
        let train: Vec<Instance> = dataset
            .train
            .iter()
            .filter_map(|inst| {
                inst.labels_by(annotator).map(|labels| Instance {
                    tokens: inst.tokens.clone(),
                    gold: labels.to_vec(), // train on the annotator's labels as if they were gold
                    crowd_labels: Vec::new(),
                })
            })
            .collect();
        let sub_dataset = CrowdDataset { train, ..dataset.clone() };
        let targets = one_hot_targets(sub_dataset.train.iter().map(|i| &i.gold), dataset.num_classes);
        let mut model = model_factory(idx as u64);
        let sub_config = TrainConfig { seed: config.train.seed.wrapping_add(idx as u64), ..config.train.clone() };
        train_supervised(&mut model, &sub_dataset, &targets, &sub_config);
        ensemble.push((model, count));
    }
    ensemble
}

/// FNV-1a hash of an annotator's `(instance index, labels)` stream.  Two
/// annotators get the same fingerprint only when they labelled the same
/// instances identically (e.g. colluding copies), in which case their
/// relative order is immaterial.
fn stream_fingerprint(dataset: &CrowdDataset, annotator: usize) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (i, inst) in dataset.train.iter().enumerate() {
        if let Some(labels) = inst.labels_by(annotator) {
            mix(i as u64);
            for &l in labels {
                mix(l as u64);
            }
        }
    }
    hash
}

/// Weighted-average class distribution of the ensemble for every instance
/// of `split`, one row per unit; `weight` maps each network's
/// labelled-instance count to its weight.  Each network evaluates the whole
/// split in turn, so every unit sums the networks in ensemble order.
fn ensemble_proba<M: InstanceClassifier>(
    ensemble: &[(M, usize)],
    weight: fn(usize) -> f32,
    split: &[Instance],
    num_classes: usize,
) -> Vec<Vec<Vec<f32>>> {
    let mut totals: Vec<Vec<Vec<f32>>> = vec![Vec::new(); split.len()];
    let mut weight_sum = 0.0f32;
    let mut workspace = Workspace::new();
    for (model, count) in ensemble {
        let w = weight(*count);
        let mut evaluator = workspace.eval(model);
        for (inst, total) in split.iter().zip(&mut totals) {
            let probs = evaluator.proba(&inst.tokens);
            if total.is_empty() {
                *total = vec![vec![0.0; num_classes]; probs.rows()];
            }
            for (r, acc) in total.iter_mut().enumerate() {
                for (c, a) in acc.iter_mut().enumerate() {
                    *a += w * probs[(r, c)];
                }
            }
        }
        weight_sum += w;
    }
    for v in totals.iter_mut().flatten().flatten() {
        *v /= weight_sum.max(1e-6);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_crowd::datasets::{generate_sentiment, SentimentDatasetConfig};
    use lncl_nn::models::{SentimentCnn, SentimentCnnConfig};
    use lncl_tensor::TensorRng;

    fn factory(dataset: &CrowdDataset) -> impl FnMut(u64) -> SentimentCnn + '_ {
        move |seed| {
            let mut rng = TensorRng::seed_from_u64(seed + 100);
            SentimentCnn::new(
                SentimentCnnConfig {
                    vocab_size: dataset.vocab_size(),
                    embedding_dim: 16,
                    windows: vec![2, 3],
                    filters_per_window: 8,
                    dropout_keep: 0.7,
                    num_classes: 2,
                },
                &mut rng,
            )
        }
    }

    #[test]
    fn ensemble_beats_chance_on_sentiment() {
        // a small pool of prolific annotators so every per-annotator network
        // has enough data to learn from
        let dataset = generate_sentiment(&SentimentDatasetConfig {
            train_size: 400,
            dev_size: 100,
            test_size: 120,
            num_annotators: 6,
            min_labels_per_instance: 4,
            max_labels_per_instance: 6,
            spammer_fraction: 0.1,
            filler_vocab: 30,
            ..SentimentDatasetConfig::tiny()
        });
        let config = DlDnConfig { train: TrainConfig::fast(10), min_instances: 50, max_annotators: 6 };
        let (_, weighted) = train_dl_dn(&dataset, &config, factory(&dataset));
        assert!(weighted.accuracy > 0.55, "DL-WDN accuracy {}", weighted.accuracy);
    }

    #[test]
    #[should_panic]
    fn panics_when_no_annotator_qualifies() {
        let dataset = generate_sentiment(&SentimentDatasetConfig::tiny());
        let config = DlDnConfig { min_instances: 10_000, ..Default::default() };
        let _ = train_dl_dn(&dataset, &config, factory(&dataset));
    }
}
