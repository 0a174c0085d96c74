//! Gated recurrent unit (GRU) cell and sequence layer.
//!
//! The NER architecture of the paper feeds convolutional features into a GRU
//! with 50 hidden states; this module provides the cell (its parameters) and
//! the layer that unrolls it over a whole sequence as one fused
//! [`Tape::gru_sequence`] node.

use crate::module::{Binding, Module, Param};
use lncl_autograd::{Tape, Var};
use lncl_tensor::{Matrix, TensorRng};

/// The parameters of a GRU cell; [`Gru`] runs them over a sequence.
///
/// Update gate `z`, reset gate `r`, candidate `h̃`:
/// ```text
/// z = σ(x Wz + h Uz + bz)
/// r = σ(x Wr + h Ur + br)
/// h̃ = tanh(x Wh + (r ⊙ h) Uh + bh)
/// h' = (1 - z) ⊙ h + z ⊙ h̃
/// ```
#[derive(Debug, Clone)]
pub struct GruCell {
    pub wz: Param,
    pub uz: Param,
    pub bz: Param,
    pub wr: Param,
    pub ur: Param,
    pub br: Param,
    pub wh: Param,
    pub uh: Param,
    pub bh: Param,
    in_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Creates a cell with Xavier-initialised weights and zero biases.
    pub fn new(name: &str, in_dim: usize, hidden_dim: usize, rng: &mut TensorRng) -> Self {
        let w = |suffix: &str, rows: usize, cols: usize, rng: &mut TensorRng| {
            Param::new(format!("{name}.{suffix}"), rng.xavier_uniform(rows, cols))
        };
        let b = |suffix: &str, cols: usize| Param::new(format!("{name}.{suffix}"), Matrix::zeros(1, cols));
        Self {
            wz: w("wz", in_dim, hidden_dim, rng),
            uz: w("uz", hidden_dim, hidden_dim, rng),
            bz: b("bz", hidden_dim),
            wr: w("wr", in_dim, hidden_dim, rng),
            ur: w("ur", hidden_dim, hidden_dim, rng),
            br: b("br", hidden_dim),
            wh: w("wh", in_dim, hidden_dim, rng),
            uh: w("uh", hidden_dim, hidden_dim, rng),
            bh: b("bh", hidden_dim),
            in_dim,
            hidden_dim,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// The nine parameters in the order of [`Tape::gru_sequence`]:
    /// `[wz, uz, bz, wr, ur, br, wh, uh, bh]`.
    fn ordered(&self) -> [&Param; 9] {
        [&self.wz, &self.uz, &self.bz, &self.wr, &self.ur, &self.br, &self.wh, &self.uh, &self.bh]
    }
}

impl Module for GruCell {
    fn params(&self) -> Vec<&Param> {
        self.ordered().to_vec()
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.wz,
            &mut self.uz,
            &mut self.bz,
            &mut self.wr,
            &mut self.ur,
            &mut self.br,
            &mut self.wh,
            &mut self.uh,
            &mut self.bh,
        ]
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in [
            &mut self.wz,
            &mut self.uz,
            &mut self.bz,
            &mut self.wr,
            &mut self.ur,
            &mut self.br,
            &mut self.wh,
            &mut self.uh,
            &mut self.bh,
        ] {
            f(p);
        }
    }
}

/// A unidirectional GRU layer: unrolls a [`GruCell`] over a `T x in_dim`
/// sequence and returns the stacked hidden states (`T x hidden_dim`).
#[derive(Debug, Clone)]
pub struct Gru {
    /// The shared cell.
    pub cell: GruCell,
}

impl Gru {
    /// Creates a GRU layer.
    pub fn new(name: &str, in_dim: usize, hidden_dim: usize, rng: &mut TensorRng) -> Self {
        Self { cell: GruCell::new(name, in_dim, hidden_dim, rng) }
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.cell.hidden_dim()
    }

    /// Unrolls the cell over the sequence node `x` (`T x in_dim`), starting
    /// from a zero hidden state, and returns all hidden states stacked into
    /// a `T x hidden_dim` node — one fused [`Tape::gru_sequence`] node.
    pub fn forward(&self, tape: &mut Tape, binding: &mut Binding, x: Var) -> Var {
        let params = self.cell.ordered().map(|p| binding.bind(tape, p));
        tape.gru_sequence(x, params)
    }
}

impl Module for Gru {
    fn params(&self) -> Vec<&Param> {
        self.cell.params()
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.cell.params_mut()
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.cell.visit_params_mut(f);
    }
}

/// The per-step tape unroll the fused op replaces, kept as the bitwise
/// oracle of the tests.
#[cfg(test)]
impl GruCell {
    /// One time step: consumes `x` (`1 x in_dim`) and the previous hidden
    /// state `h` (`1 x hidden_dim`), returning the next hidden state.
    pub fn step(&self, tape: &mut Tape, binding: &mut Binding, x: Var, h: Var) -> Var {
        let wz = binding.bind(tape, &self.wz);
        let uz = binding.bind(tape, &self.uz);
        let bz = binding.bind(tape, &self.bz);
        let wr = binding.bind(tape, &self.wr);
        let ur = binding.bind(tape, &self.ur);
        let br = binding.bind(tape, &self.br);
        let wh = binding.bind(tape, &self.wh);
        let uh = binding.bind(tape, &self.uh);
        let bh = binding.bind(tape, &self.bh);

        // z = sigmoid(x Wz + h Uz + bz), fused gate pre-activation
        let sz = tape.dual_affine(x, wz, h, uz, bz);
        let z = tape.sigmoid(sz);

        // r = sigmoid(x Wr + h Ur + br)
        let sr = tape.dual_affine(x, wr, h, ur, br);
        let r = tape.sigmoid(sr);

        // candidate = tanh(x Wh + (r ⊙ h) Uh + bh)
        let rh = tape.mul(r, h);
        let sh = tape.dual_affine(x, wh, rh, uh, bh);
        let cand = tape.tanh(sh);

        // h' = (1-z) ⊙ h + z ⊙ candidate
        let one_minus_z = tape.one_minus(z);
        let keep = tape.mul(one_minus_z, h);
        let update = tape.mul(z, cand);
        tape.add(keep, update)
    }
}

#[cfg(test)]
impl Gru {
    /// `row_slice` → [`GruCell::step`] per token → `vstack`.
    fn forward_unrolled(&self, tape: &mut Tape, binding: &mut Binding, x: Var) -> Var {
        let (steps, _) = tape.shape(x);
        let mut h = tape.constant(Matrix::zeros(1, self.cell.hidden_dim()));
        let mut outputs = Vec::with_capacity(steps);
        for t in 0..steps {
            let xt = tape.row_slice(x, t);
            h = self.cell.step(tape, binding, xt, h);
            outputs.push(h);
        }
        tape.vstack(&outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_autograd::gradcheck::assert_gradients_close;

    #[test]
    fn step_output_shape_and_range() {
        let mut rng = TensorRng::seed_from_u64(0);
        let cell = GruCell::new("gru", 3, 4, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let x = tape.leaf(rng.normal_matrix(1, 3, 1.0));
        let h = tape.constant(Matrix::zeros(1, 4));
        let h1 = cell.step(&mut tape, &mut binding, x, h);
        assert_eq!(tape.shape(h1), (1, 4));
        // convex combination of tanh and 0 stays in (-1, 1)
        assert!(tape.value(h1).as_slice().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn unrolled_sequence_shape() {
        let mut rng = TensorRng::seed_from_u64(1);
        let gru = Gru::new("gru", 3, 5, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let x = tape.leaf(rng.normal_matrix(7, 3, 1.0));
        let out = gru.forward(&mut tape, &mut binding, x);
        assert_eq!(tape.shape(out), (7, 5));
    }

    #[test]
    fn gradients_flow_through_time() {
        let mut rng = TensorRng::seed_from_u64(2);
        let mut gru = Gru::new("gru", 2, 3, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let x = tape.leaf(rng.normal_matrix(4, 2, 1.0));
        let out = gru.forward(&mut tape, &mut binding, x);
        let loss = tape.sum_all(out);
        tape.backward(loss);
        binding.accumulate(&tape, gru.params_mut());
        for p in gru.params() {
            if p.name.ends_with("wz") || p.name.ends_with("wh") || p.name.ends_with("uh") {
                assert!(p.grad.as_slice().iter().any(|&g| g != 0.0), "no gradient for {}", p.name);
            }
        }
        // the input should also receive gradient at every timestep
        assert!(tape.grad(x).as_slice().iter().filter(|&&g| g != 0.0).count() >= 4);
    }

    #[test]
    fn gru_input_gradient_matches_finite_differences() {
        let mut rng = TensorRng::seed_from_u64(3);
        let gru = Gru::new("gru", 2, 3, &mut rng);
        let x = rng.normal_matrix(3, 2, 0.5);
        assert_gradients_close(&[x], 1e-2, 2e-2, move |tape, vars| {
            let mut binding = Binding::new();
            let out = gru.forward(tape, &mut binding, vars[0]);
            tape.sum_all(out)
        });
    }

    #[test]
    fn fused_forward_matches_the_per_step_unroll_bitwise() {
        let mut rng = TensorRng::seed_from_u64(5);
        let gru = Gru::new("gru", 4, 6, &mut rng);
        for steps in [1, 2, 9] {
            let x = rng.normal_matrix(steps, 4, 1.0);
            let weights = rng.normal_matrix(steps, 6, 1.0);
            let run = |fused: bool| {
                let mut model = gru.clone();
                let mut tape = Tape::new();
                let mut binding = Binding::new();
                let xv = tape.leaf(x.clone());
                let out = if fused {
                    model.forward(&mut tape, &mut binding, xv)
                } else {
                    model.forward_unrolled(&mut tape, &mut binding, xv)
                };
                let w = tape.constant(weights.clone());
                let weighted = tape.mul(out, w);
                let loss = tape.sum_all(weighted);
                tape.backward(loss);
                binding.accumulate(&tape, model.params_mut());
                let mut all = vec![tape.value(out).clone(), tape.grad(xv).clone()];
                all.extend(model.params().iter().map(|p| p.grad.clone()));
                all
            };
            let bits = |ms: Vec<Matrix>| -> Vec<Vec<u32>> {
                ms.iter().map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect()).collect()
            };
            assert_eq!(bits(run(true)), bits(run(false)), "T = {steps}");
        }
    }

    #[test]
    fn parameter_count() {
        let mut rng = TensorRng::seed_from_u64(4);
        let gru = Gru::new("gru", 4, 6, &mut rng);
        // 3 gates * (in*hidden + hidden*hidden + hidden)
        assert_eq!(gru.num_parameters(), 3 * (4 * 6 + 6 * 6 + 6));
    }
}
