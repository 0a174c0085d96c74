//! Fully-connected (affine) layer.

use crate::module::{Binding, Module, Param};
use lncl_autograd::{Tape, Var};
use lncl_tensor::{Matrix, TensorRng};

/// A dense affine layer `y = x W + b` with `W: in x out`, `b: 1 x out`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix (`in_dim x out_dim`).
    pub weight: Param,
    /// Bias row (`1 x out_dim`).
    pub bias: Param,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, rng: &mut TensorRng) -> Self {
        let weight = Param::new(format!("{name}.weight"), rng.xavier_uniform(in_dim, out_dim));
        let bias = Param::new(format!("{name}.bias"), Matrix::zeros(1, out_dim));
        Self { weight, bias, in_dim, out_dim }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to a `rows x in_dim` input node.
    pub fn forward(&self, tape: &mut Tape, binding: &mut Binding, x: Var) -> Var {
        let w = binding.bind(tape, &self.weight);
        let b = binding.bind(tape, &self.bias);
        tape.affine(x, w, b)
    }
}

impl Module for Linear {
    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_values() {
        let mut rng = TensorRng::seed_from_u64(0);
        let mut layer = Linear::new("fc", 3, 2, &mut rng);
        layer.weight.value = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        layer.bias.value = Matrix::row_vector(&[0.5, -0.5]);

        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let x = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        let y = layer.forward(&mut tape, &mut binding, x);
        assert_eq!(tape.value(y), &Matrix::row_vector(&[4.5, 4.5]));
    }

    #[test]
    fn gradients_flow_to_weight_and_bias() {
        let mut rng = TensorRng::seed_from_u64(1);
        let mut layer = Linear::new("fc", 2, 2, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let x = tape.leaf(Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]));
        let y = layer.forward(&mut tape, &mut binding, x);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        binding.accumulate(&tape, layer.params_mut());
        assert!(layer.weight.grad.as_slice().iter().any(|&g| g != 0.0));
        assert_eq!(layer.bias.grad, Matrix::row_vector(&[2.0, 2.0]));
    }

    #[test]
    fn module_reports_parameter_count() {
        let mut rng = TensorRng::seed_from_u64(2);
        let layer = Linear::new("fc", 4, 3, &mut rng);
        assert_eq!(layer.num_parameters(), 4 * 3 + 3);
        assert_eq!(layer.in_dim(), 4);
        assert_eq!(layer.out_dim(), 3);
    }
}
