//! Propensity-weighted sampling — the selection primitives shared by
//! scenario **generation** and the **task routing** of `lncl-serve`'s
//! `POST /assign`.
//!
//! The batch generator ([`crate::scenario::generate_scenario`]) and the
//! service's assignment policies draw annotators through the same
//! machinery: one weighted-without-replacement draw.  This module is that
//! single implementation; [`crate::annotator`] and the scenario pools
//! re-export / delegate to it.
//!
//! Semantics: weights are unnormalised and non-negative; draws are without
//! replacement; once every remaining candidate has zero weight the
//! remaining picks fall back to a **uniform** draw over the not-yet-chosen
//! indices, so a request never produces duplicates and never comes up
//! short while candidates remain.
//!
//! ```
//! use lncl_crowd::sampling::select_weighted_distinct;
//! use lncl_tensor::TensorRng;
//!
//! let mut rng = TensorRng::seed_from_u64(7);
//! let picked = select_weighted_distinct(&[5.0, 0.1, 0.1, 0.1], 2, &mut rng);
//! assert_eq!(picked.len(), 2);
//! assert_ne!(picked[0], picked[1]);
//! ```

use lncl_tensor::TensorRng;

/// Selects `count` **distinct** indices from `0..weights.len()`, biased by
/// the (unnormalised, non-negative) `weights`.  Once every remaining
/// candidate has zero weight the remaining picks fall back to a uniform
/// draw over the not-yet-chosen indices, so the result always holds exactly
/// `min(count, weights.len())` distinct indices — a `count` larger than the
/// number of positive-weight candidates never produces duplicates.
///
/// This is the selection primitive behind
/// [`AnnotatorPool::select`](crate::annotator::AnnotatorPool::select), the
/// scenario pools in [`crate::scenario`] and the NER generator's workload
/// sampling.
pub fn select_weighted_distinct(weights: &[f32], count: usize, rng: &mut TensorRng) -> Vec<usize> {
    let count = count.min(weights.len());
    let mut remaining = weights.to_vec();
    let mut chosen = Vec::with_capacity(count);
    let uniform_over_open = |chosen: &[usize], rng: &mut TensorRng| {
        let open: Vec<usize> = (0..weights.len()).filter(|i| !chosen.contains(i)).collect();
        open[rng.usize_below(open.len())]
    };
    for _ in 0..count {
        let total: f32 = remaining.iter().sum();
        let idx = if total > 0.0 && total.is_finite() {
            let idx = rng.categorical(&remaining);
            // `categorical` can land on a zero-weight (already chosen) index
            // only in the measure-zero `uniform() == 0` edge case; re-draw
            // uniformly over the open indices so distinctness always holds.
            if remaining[idx] > 0.0 {
                idx
            } else {
                uniform_over_open(&chosen, rng)
            }
        } else {
            uniform_over_open(&chosen, rng)
        };
        chosen.push(idx);
        remaining[idx] = 0.0;
    }
    chosen
}

/// Draws **one** index biased by `weights` (uniform fallback when all
/// weights are zero); `None` only when `weights` is empty.  Equivalent to
/// `select_weighted_distinct(weights, 1, rng)` without the vector.
pub fn pick_weighted(weights: &[f32], rng: &mut TensorRng) -> Option<usize> {
    if weights.is_empty() {
        return None;
    }
    Some(select_weighted_distinct(weights, 1, rng)[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_with_zero_propensity_tail_stays_distinct() {
        // only two annotators have positive propensity, yet five are asked
        // for: the remainder must come uniformly from the zero-weight pool
        // without duplicates.
        let mut rng = TensorRng::seed_from_u64(40);
        let weights = [3.0, 0.0, 0.0, 1.0, 0.0, 0.0];
        for _ in 0..200 {
            let chosen = select_weighted_distinct(&weights, 5, &mut rng);
            let mut dedup = chosen.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 5, "duplicates in {chosen:?}");
            assert!(chosen.contains(&0) && chosen.contains(&3), "positive-weight annotators always picked: {chosen:?}");
        }
    }

    #[test]
    fn select_all_zero_weights_is_uniform_and_distinct() {
        let mut rng = TensorRng::seed_from_u64(41);
        let mut seen = [0usize; 4];
        for _ in 0..400 {
            let chosen = select_weighted_distinct(&[0.0; 4], 2, &mut rng);
            let mut dedup = chosen.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 2);
            for &c in &chosen {
                seen[c] += 1;
            }
        }
        // every index gets picked under the uniform fallback
        assert!(seen.iter().all(|&n| n > 50), "uniform fallback coverage: {seen:?}");
    }

    #[test]
    fn empty_weights_yield_empty_selection() {
        let mut rng = TensorRng::seed_from_u64(42);
        assert!(select_weighted_distinct(&[], 3, &mut rng).is_empty());
        assert_eq!(pick_weighted(&[], &mut rng), None);
    }

    #[test]
    fn single_candidate_is_always_picked_regardless_of_weight() {
        let mut rng = TensorRng::seed_from_u64(43);
        for weight in [2.5, 0.0, f32::NAN] {
            assert_eq!(select_weighted_distinct(&[weight], 1, &mut rng), vec![0]);
            assert_eq!(select_weighted_distinct(&[weight], 5, &mut rng), vec![0], "count is clamped to the candidates");
            assert_eq!(pick_weighted(&[weight], &mut rng), Some(0));
        }
    }

    #[test]
    fn nan_weight_falls_back_to_uniform_and_stays_distinct() {
        // a NaN weight poisons the total, so the guarded sum must route
        // every draw through the uniform fallback — never through
        // `categorical`, which would misbehave on a NaN mass
        let mut rng = TensorRng::seed_from_u64(44);
        let weights = [1.0, f32::NAN, 2.0, 0.0];
        let mut seen = [0usize; 4];
        for _ in 0..400 {
            let chosen = select_weighted_distinct(&weights, 3, &mut rng);
            let mut dedup = chosen.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "duplicates in {chosen:?}");
            for &c in &chosen {
                seen[c] += 1;
            }
        }
        // the uniform fallback covers every index, including the NaN one
        assert!(seen.iter().all(|&n| n > 50), "uniform fallback coverage: {seen:?}");
    }

    #[test]
    fn pick_weighted_matches_single_selection() {
        let weights = [0.5, 4.0, 0.25];
        let mut a = TensorRng::seed_from_u64(17);
        let mut b = TensorRng::seed_from_u64(17);
        for _ in 0..50 {
            assert_eq!(pick_weighted(&weights, &mut a), Some(select_weighted_distinct(&weights, 1, &mut b)[0]));
        }
        assert_eq!(pick_weighted(&[], &mut a), None);
    }
}
