//! Adam optimiser (Kingma & Ba, 2015) — the optimiser the paper uses for the
//! NER tagger (learning rate 0.001).

use super::{apply_weight_decay, Optimizer};
use crate::module::Param;
use lncl_tensor::Matrix;
use std::collections::HashMap;

struct AdamState {
    m: Matrix,
    v: Matrix,
    t: u64,
}

/// Adam with bias-corrected first/second moment estimates.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    state: HashMap<u64, AdamState>,
}

impl Adam {
    /// Creates Adam with the usual defaults (`beta1 = 0.9`, `beta2 = 0.999`,
    /// `eps = 1e-8`).
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0, state: HashMap::new() }
    }

    /// Enables L2 weight decay.
    pub fn with_weight_decay(mut self, decay: f32) -> Self {
        self.weight_decay = decay;
        self
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        for param in params.iter_mut() {
            apply_weight_decay(param, self.weight_decay);
            let entry = self.state.entry(param.id()).or_insert_with(|| AdamState {
                m: Matrix::zeros(param.value.rows(), param.value.cols()),
                v: Matrix::zeros(param.value.rows(), param.value.cols()),
                t: 0,
            });
            entry.t += 1;
            let t = entry.t as f32;
            let bias1 = 1.0 - self.beta1.powf(t);
            let bias2 = 1.0 - self.beta2.powf(t);
            for ((m, v), (g, value)) in entry
                .m
                .as_mut_slice()
                .iter_mut()
                .zip(entry.v.as_mut_slice().iter_mut())
                .zip(param.grad.as_slice().iter().zip(param.value.as_mut_slice().iter_mut()).map(|(g, x)| (*g, x)))
            {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let m_hat = *m / bias1;
                let v_hat = *v / bias2;
                *value -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
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
    fn first_step_moves_by_roughly_lr() {
        let mut p = Param::new("p", Matrix::full(1, 1, 0.0));
        p.grad = Matrix::full(1, 1, 10.0);
        let mut opt = Adam::new(0.001);
        opt.step(&mut [&mut p]);
        // With bias correction, the first step is ≈ lr regardless of grad scale.
        assert!((p.value[(0, 0)] + 0.001).abs() < 1e-4);
    }

    #[test]
    fn direction_follows_negative_gradient() {
        let mut p = Param::new("p", Matrix::row_vector(&[0.0, 0.0]));
        p.grad = Matrix::row_vector(&[1.0, -1.0]);
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut p]);
        assert!(p.value[(0, 0)] < 0.0 && p.value[(0, 1)] > 0.0);
    }

    #[test]
    fn per_parameter_state_is_independent() {
        let mut a = Param::new("a", Matrix::full(1, 1, 0.0));
        let mut b = Param::new("b", Matrix::full(1, 1, 0.0));
        a.grad = Matrix::full(1, 1, 1.0);
        b.grad = Matrix::full(1, 1, 0.0);
        let mut opt = Adam::new(0.1);
        opt.step(&mut [&mut a, &mut b]);
        assert!(a.value[(0, 0)] != 0.0);
        assert_eq!(b.value[(0, 0)], 0.0);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.001);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
