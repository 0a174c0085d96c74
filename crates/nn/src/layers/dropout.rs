//! Inverted dropout layer.

use crate::module::{Module, Param};
use lncl_autograd::{Tape, Var};
use lncl_tensor::TensorRng;

/// Inverted dropout: during training each unit is kept with probability
/// `keep` and scaled by `1/keep`; during evaluation the layer is the
/// identity.  Randomness is supplied explicitly through a [`TensorRng`] so
/// experiments remain reproducible.
#[derive(Debug, Clone)]
pub struct Dropout {
    keep: f32,
}

impl Dropout {
    /// Creates a dropout layer with the given *keep* probability (the paper
    /// specifies dropout of 0.5, i.e. `keep = 0.5`).
    pub fn new(keep: f32) -> Self {
        assert!(keep > 0.0 && keep <= 1.0, "Dropout: keep probability must be in (0, 1]");
        Self { keep }
    }

    /// Keep probability.
    pub fn keep(&self) -> f32 {
        self.keep
    }

    /// Applies dropout to `x`, one uniform draw from `rng` per entry in
    /// training mode.
    pub fn forward(&self, tape: &mut Tape, x: Var, rng: &mut TensorRng, training: bool) -> Var {
        tape.dropout(x, self.keep, || rng.uniform(), training)
    }
}

impl Module for Dropout {
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_tensor::Matrix;

    #[test]
    fn eval_mode_is_identity() {
        let dropout = Dropout::new(0.5);
        let mut rng = TensorRng::seed_from_u64(0);
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(2, 3, 1.5));
        let y = dropout.forward(&mut tape, x, &mut rng, false);
        assert_eq!(tape.value(y), tape.value(x));
    }

    #[test]
    fn training_mode_preserves_expectation_roughly() {
        let dropout = Dropout::new(0.5);
        let mut rng = TensorRng::seed_from_u64(1);
        let mut total = 0.0;
        let trials = 200;
        for _ in 0..trials {
            let mut tape = Tape::new();
            let x = tape.leaf(Matrix::full(1, 50, 1.0));
            let y = dropout.forward(&mut tape, x, &mut rng, true);
            total += tape.value(y).mean();
        }
        let mean = total / trials as f32;
        assert!((mean - 1.0).abs() < 0.1, "inverted dropout should preserve the mean, got {mean}");
    }

    #[test]
    fn keep_one_is_identity_even_in_training() {
        let dropout = Dropout::new(1.0);
        let mut rng = TensorRng::seed_from_u64(2);
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(1, 4, 2.0));
        let y = dropout.forward(&mut tape, x, &mut rng, true);
        assert_eq!(tape.value(y), tape.value(x));
    }

    #[test]
    #[should_panic]
    fn zero_keep_probability_rejected() {
        let _ = Dropout::new(0.0);
    }

    #[test]
    fn has_no_parameters() {
        assert_eq!(Dropout::new(0.5).num_parameters(), 0);
    }
}
