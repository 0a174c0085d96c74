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

    /// A tiny quadratic problem: minimise ||x W - y||^2 over W.
    struct Quadratic {
        w: Param,
    }

    impl Module for Quadratic {
        fn params(&self) -> Vec<&Param> {
            vec![&self.w]
        }
        fn params_mut(&mut self) -> Vec<&mut Param> {
            vec![&mut self.w]
        }
    }

    /// Returns (initial loss, final loss) on the quadratic problem.
    fn train_with(optimizer: &mut dyn Optimizer, steps: usize) -> (f32, f32) {
        let mut rng = TensorRng::seed_from_u64(7);
        let x = rng.normal_matrix(16, 3, 1.0);
        let true_w = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 0.5], &[-1.0, 1.0]]);
        let y = lncl_tensor::ops::matmul(&x, &true_w);
        let mut model = Quadratic { w: Param::new("w", rng.normal_matrix(3, 2, 0.1)) };
        let mut first_loss = f32::INFINITY;
        let mut last_loss = f32::INFINITY;
        for step in 0..steps {
            model.zero_grad();
            let mut tape = Tape::new();
            let mut binding = Binding::new();
            let xv = tape.constant(x.clone());
            let wv = binding.bind(&mut tape, &model.w);
            let pred = tape.matmul(xv, wv);
            let loss = tape.mse(pred, y.clone());
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
    fn sgd_reduces_quadratic_loss() {
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        let (_, last) = train_with(&mut opt, 200);
        assert!(last < 1e-2, "final loss {last}");
    }

    #[test]
    fn adam_reduces_quadratic_loss() {
        let mut opt = Adam::new(0.05);
        let (_, last) = train_with(&mut opt, 300);
        assert!(last < 1e-2, "final loss {last}");
    }

    #[test]
    fn adadelta_reduces_quadratic_loss() {
        // Adadelta warms up slowly because its accumulated-update estimate
        // starts at zero; assert a large relative improvement rather than an
        // absolute threshold.
        let mut opt = Adadelta::new(1.0);
        let (first, last) = train_with(&mut opt, 800);
        assert!(last < first * 0.2, "loss should drop by >5x: {first} -> {last}");
    }

    #[test]
    fn weight_decay_adds_parameter_to_gradient() {
        let mut p = Param::new("p", Matrix::full(1, 2, 2.0));
        p.grad.fill(1.0);
        apply_weight_decay(&mut p, 0.5);
        assert_eq!(p.grad, Matrix::full(1, 2, 2.0));
    }
}
