//! Adadelta optimiser (Zeiler, 2012) — the optimiser the paper (following
//! Kim 2014) uses for the sentiment CNN with learning rate 1.0.

use super::{apply_weight_decay, Optimizer};
use crate::module::Param;
use lncl_tensor::Matrix;
use std::collections::HashMap;

struct AdadeltaState {
    avg_sq_grad: Matrix,
    avg_sq_update: Matrix,
}

/// Adadelta keeps running averages of squared gradients and squared updates
/// and rescales each step so no hand-tuned base learning rate is required
/// (the `lr` here is the global multiplier, 1.0 in the paper).
pub struct Adadelta {
    lr: f32,
    rho: f32,
    eps: f32,
    weight_decay: f32,
    state: HashMap<u64, AdadeltaState>,
}

impl Adadelta {
    /// Creates Adadelta with `rho = 0.95`, `eps = 1e-6`.
    pub fn new(lr: f32) -> Self {
        Self { lr, rho: 0.95, eps: 1e-6, weight_decay: 0.0, state: HashMap::new() }
    }

    /// Enables L2 weight decay.
    pub fn with_weight_decay(mut self, decay: f32) -> Self {
        self.weight_decay = decay;
        self
    }
}

impl Optimizer for Adadelta {
    fn step(&mut self, params: &mut [&mut Param]) {
        for param in params.iter_mut() {
            apply_weight_decay(param, self.weight_decay);
            let entry = self.state.entry(param.id()).or_insert_with(|| AdadeltaState {
                avg_sq_grad: Matrix::zeros(param.value.rows(), param.value.cols()),
                avg_sq_update: Matrix::zeros(param.value.rows(), param.value.cols()),
            });
            for i in 0..param.value.len() {
                let g = param.grad.as_slice()[i];
                let eg = &mut entry.avg_sq_grad.as_mut_slice()[i];
                *eg = self.rho * *eg + (1.0 - self.rho) * g * g;
                let ex = &mut entry.avg_sq_update.as_mut_slice()[i];
                let update = ((*ex + self.eps).sqrt() / (*eg + self.eps).sqrt()) * g;
                *ex = self.rho * *ex + (1.0 - self.rho) * update * update;
                param.value.as_mut_slice()[i] -= self.lr * update;
            }
        }
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_moves_against_gradient() {
        let mut p = Param::new("p", Matrix::full(1, 1, 1.0));
        p.grad = Matrix::full(1, 1, 2.0);
        let mut opt = Adadelta::new(1.0);
        opt.step(&mut [&mut p]);
        assert!(p.value[(0, 0)] < 1.0);
    }

    #[test]
    fn zero_gradient_leaves_value_unchanged() {
        let mut p = Param::new("p", Matrix::full(1, 2, 3.0));
        let mut opt = Adadelta::new(1.0);
        opt.step(&mut [&mut p]);
        assert_eq!(p.value, Matrix::full(1, 2, 3.0));
    }

    #[test]
    fn learning_rate_scales_updates() {
        let make = || {
            let mut p = Param::new("p", Matrix::full(1, 1, 0.0));
            p.grad = Matrix::full(1, 1, 1.0);
            p
        };
        let mut p_full = make();
        let mut p_half = make();
        Adadelta::new(1.0).step(&mut [&mut p_full]);
        Adadelta::new(0.5).step(&mut [&mut p_half]);
        assert!((p_half.value[(0, 0)] - 0.5 * p_full.value[(0, 0)]).abs() < 1e-7);
    }
}
