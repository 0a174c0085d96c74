//! Optimisers and learning-rate schedules.
//!
//! The paper trains the sentiment CNN with Adadelta (learning rate 1.0,
//! halved every 5 epochs) and the NER tagger with Adam (learning rate
//! 0.001).  SGD with momentum is included as a simple reference optimiser
//! and for the ablation/bench harness.

pub mod adadelta;
pub mod adam;
pub mod schedule;
pub mod sgd;

pub use adadelta::Adadelta;
pub use adam::Adam;
pub use schedule::{EarlyStopping, StepDecay, Verdict};
pub use sgd::Sgd;

use crate::module::Param;

/// A first-order optimiser operating on [`Param`]s.
///
/// The caller is responsible for having averaged the gradient accumulators
/// over the mini-batch (e.g. via `Module::scale_grads(1.0 / batch_len)`)
/// before calling [`Optimizer::step`], and for zeroing them afterwards.
pub trait Optimizer {
    /// Applies one update step to the given parameters using their
    /// accumulated gradients.
    fn step(&mut self, params: &mut [&mut Param]);

    /// Sets the global learning rate (used by LR schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Current global learning rate.
    fn learning_rate(&self) -> f32;
}

/// Applies L2 weight decay directly to the gradient accumulators
/// (`grad += decay * value`), the convention used by all optimisers here.
pub(crate) fn apply_weight_decay(param: &mut Param, decay: f32) {
    if decay == 0.0 {
        return;
    }
    let Param { value, grad, .. } = param;
    lncl_tensor::ops::axpy(decay, value.as_slice(), grad.as_mut_slice());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Binding, Module};
    use lncl_autograd::Tape;
    use lncl_tensor::{Matrix, TensorRng};

    /// A linear softmax classifier `softmax(x W)`, trained on a separable
    /// problem.
    struct Classifier {
        w: Param,
    }

    impl Module for Classifier {
        fn params(&self) -> Vec<&Param> {
            vec![&self.w]
        }
        fn params_mut(&mut self) -> Vec<&mut Param> {
            vec![&mut self.w]
        }
    }

    /// Final cross-entropy every optimiser must reach from `ln 2`.
    const CONVERGED: f32 = 0.1;

    /// Returns (initial loss, final loss) of full-batch training on 32
    /// points whose class is the argmax of a fixed linear map.
    fn train_with(optimizer: &mut dyn Optimizer, steps: usize) -> (f32, f32) {
        let mut rng = TensorRng::seed_from_u64(7);
        let x = rng.normal_matrix(32, 3, 1.0);
        let true_w = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 0.5], &[-1.0, 1.0]]);
        let scores = lncl_tensor::ops::matmul(&x, &true_w);
        let targets = Matrix::from_fn(32, 2, |r, c| (lncl_tensor::stats::argmax(scores.row(r)) == c) as u8 as f32);
        let mut model = Classifier { w: Param::new("w", rng.normal_matrix(3, 2, 0.01)) };
        let mut first_loss = f32::INFINITY;
        let mut last_loss = f32::INFINITY;
        for step in 0..steps {
            model.zero_grad();
            let mut tape = Tape::new();
            let mut binding = Binding::new();
            let xv = tape.constant(x.clone());
            let wv = binding.bind(&mut tape, &model.w);
            let logits = tape.matmul(xv, wv);
            let loss = tape.softmax_cross_entropy(logits, targets.clone());
            let value = tape.scalar(loss);
            if step == 0 {
                first_loss = value;
            }
            last_loss = value;
            tape.backward(loss);
            binding.accumulate(&tape, model.params_mut());
            let mut params = model.params_mut();
            optimizer.step(&mut params);
        }
        (first_loss, last_loss)
    }

    #[test]
    fn sgd_separates_the_classes() {
        let mut opt = Sgd::new(0.5).with_momentum(0.9);
        let (_, last) = train_with(&mut opt, 200);
        assert!(last < CONVERGED, "final loss {last}");
    }

    #[test]
    fn adam_separates_the_classes() {
        let mut opt = Adam::new(0.05);
        let (_, last) = train_with(&mut opt, 300);
        assert!(last < CONVERGED, "final loss {last}");
    }

    #[test]
    fn adadelta_separates_the_classes() {
        // Adadelta warms up slowly because its accumulated-update estimate
        // starts at zero, so it gets more steps.
        let mut opt = Adadelta::new(1.0);
        let (_, last) = train_with(&mut opt, 2000);
        assert!(last < CONVERGED, "final loss {last}");
    }

    /// An optimiser that never moves a parameter.
    struct Frozen;

    impl Optimizer for Frozen {
        fn step(&mut self, _params: &mut [&mut Param]) {}
        fn set_learning_rate(&mut self, _lr: f32) {}
        fn learning_rate(&self) -> f32 {
            0.0
        }
    }

    #[test]
    fn a_no_op_optimiser_does_not_separate_the_classes() {
        let (first, last) = train_with(&mut Frozen, 100);
        assert_eq!(first.to_bits(), last.to_bits());
        assert!(last > CONVERGED, "the problem must not start solved: {last}");
    }

    #[test]
    fn weight_decay_adds_parameter_to_gradient() {
        let mut p = Param::new("p", Matrix::full(1, 2, 2.0));
        p.grad.fill(1.0);
        apply_weight_decay(&mut p, 0.5);
        assert_eq!(p.grad, Matrix::full(1, 2, 2.0));
    }
}
