//! Parameters, parameter bindings and the [`Module`] trait.
//!
//! Layers own their parameters as plain [`Param`] values (a value matrix plus
//! a gradient accumulator).  During a forward pass the parameters are copied
//! onto the autograd [`Tape`] through a [`Binding`], which remembers the
//! tape handle of each parameter so that, after `Tape::backward`, the
//! gradients can be pulled back into the `Param` accumulators with
//! [`Binding::accumulate`].  Optimisers then operate purely on `Param`s.
//! A [`Workspace`](crate::Workspace) keeps one tape and binding for a whole
//! training run and copies the parameters once per mini-batch.

use lncl_autograd::{Tape, Var};
use lncl_tensor::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(1);

/// A trainable parameter: a value matrix, a gradient accumulator and a
/// stable identity used by optimisers to attach per-parameter state.
#[derive(Debug, Clone)]
pub struct Param {
    id: u64,
    gathered: bool,
    /// Human-readable name, e.g. `"sentiment_cnn.conv3.weight"`.
    pub name: String,
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (summed over the instances seen since the last
    /// [`Param::zero_grad`] call).
    pub grad: Matrix,
}

impl Param {
    /// Creates a parameter with a zeroed gradient accumulator.
    pub fn new(name: impl Into<String>, value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self { id: NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed), gathered: false, name: name.into(), value, grad }
    }

    /// Creates a lookup-table parameter: every pass binds only the rows it
    /// reads ([`Binding::bind_gathered`]), never the whole table, so a
    /// [`Workspace`](crate::Workspace) does not place it on the tape.
    pub fn new_gathered(name: impl Into<String>, value: Matrix) -> Self {
        Self { gathered: true, ..Self::new(name, value) }
    }

    /// Whether this is a lookup table bound a row subset at a time.
    pub fn is_gathered(&self) -> bool {
        self.gathered
    }

    /// Stable identity of this parameter (unique per process).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of scalar entries.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

/// One parameter placed on the tape.
#[derive(Clone, Copy)]
struct Entry {
    id: u64,
    var: Var,
    /// For a gathered binding, the range of its row indices in
    /// [`Binding::indices`]; the leaf's gradient is scattered back into
    /// those rows of the parameter.
    rows: Option<(usize, usize)>,
}

/// Per-forward-pass association between parameters and tape leaves.
#[derive(Default)]
pub struct Binding {
    entries: Vec<Entry>,
    /// Row indices of every gathered entry, back to back.
    indices: Vec<usize>,
    /// Reused handle list for layers that stack several nodes.
    pub(crate) vars: Vec<Var>,
}

impl Binding {
    /// Creates an empty binding.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&self, param: &Param) -> Option<&Entry> {
        self.entries.iter().find(|e| e.id == param.id)
    }

    /// Returns the tape handle for `param`, creating a leaf holding a copy
    /// of the parameter value on first use.
    ///
    /// # Panics
    /// Panics if the parameter was bound with [`Binding::bind_gathered`] on
    /// this pass — the gathered leaf holds only a row subset and must not
    /// be aliased as the full value.
    pub fn bind(&mut self, tape: &mut Tape, param: &Param) -> Var {
        match self.entry(param) {
            Some(Entry { var, rows: None, .. }) => return *var,
            Some(_) => panic!("bind: parameter {} was bound as a gathered row subset this pass", param.name),
            None => {}
        }
        let var = tape.leaf_from(&param.value);
        self.entries.push(Entry { id: param.id, var, rows: None });
        var
    }

    /// Binds only the listed rows of `param` (an embedding lookup): the
    /// tape leaf holds the gathered `rows x cols` matrix instead of a copy
    /// of the whole table, and [`Binding::accumulate`] scatters the leaf's
    /// gradient back into the parameter's rows.  The same parameter must
    /// not also be bound in full on this pass.
    pub fn bind_gathered(&mut self, tape: &mut Tape, param: &Param, indices: impl IntoIterator<Item = usize>) -> Var {
        assert!(self.entry(param).is_none(), "bind_gathered: parameter {} already bound this pass", param.name);
        let start = self.indices.len();
        self.indices.extend(indices);
        let var = tape.leaf_gathered(&param.value, &self.indices[start..]);
        self.entries.push(Entry { id: param.id, var, rows: Some((start, self.indices.len())) });
        var
    }

    /// Whether `param` was bound during this pass.
    pub fn is_bound(&self, param: &Param) -> bool {
        self.entry(param).is_some()
    }

    /// Room for `rows` gathered row indices.
    pub(crate) fn reserve_rows(&mut self, rows: usize) {
        self.indices.reserve(rows);
    }

    /// Keeps the first `len` bindings (those made before the matching
    /// [`Tape::rewind`]) and forgets the rest.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
        let end = self.entries.iter().filter_map(|e| e.rows.map(|(_, end)| end)).max().unwrap_or(0);
        self.indices.truncate(end);
    }

    /// Adds the tape gradients of every bound parameter into the parameter
    /// gradient accumulators.  Call after `Tape::backward` (before it,
    /// gradients are unmaterialised and nothing is accumulated).
    pub fn accumulate<'a>(&self, tape: &Tape, params: impl IntoIterator<Item = &'a mut Param>) {
        for param in params {
            self.accumulate_param(tape, param);
        }
    }

    /// [`Binding::accumulate`] for one parameter.
    pub(crate) fn accumulate_param(&self, tape: &Tape, param: &mut Param) {
        let Some(entry) = self.entry(param) else { return };
        let grad = tape.grad(entry.var);
        if grad.is_empty() {
            return;
        }
        let Some((start, end)) = entry.rows else {
            lncl_tensor::ops::add_assign(&mut param.grad, grad);
            return;
        };
        // the rows of a repeated index are combined first (in occurrence
        // order, at its first occurrence), matching the accumulation order
        // of a scatter into a zeroed full-size gradient
        let indices = &self.indices[start..end];
        for (r, &idx) in indices.iter().enumerate() {
            if indices[..r].contains(&idx) {
                continue;
            }
            let dst = param.grad.row_mut(idx);
            if !indices[r + 1..].contains(&idx) {
                for (d, g) in dst.iter_mut().zip(grad.row(r)) {
                    *d += g;
                }
                continue;
            }
            for (j, d) in dst.iter_mut().enumerate() {
                let mut sum = grad[(r, j)];
                for r2 in (r + 1..indices.len()).filter(|&r2| indices[r2] == idx) {
                    sum += grad[(r2, j)];
                }
                *d += sum;
            }
        }
    }

    /// Number of bound parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been bound yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Anything that owns trainable parameters.
pub trait Module {
    /// Immutable views of all parameters.
    fn params(&self) -> Vec<&Param>;

    /// Mutable views of all parameters (same order as [`Module::params`]).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Calls `f` on every parameter in [`Module::params_mut`] order; the
    /// layers and models override it so nothing is collected.
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self.params_mut() {
            f(p);
        }
    }

    /// Clears every gradient accumulator.
    fn zero_grad(&mut self) {
        self.visit_params_mut(&mut |p| p.zero_grad());
    }

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Scales every accumulated gradient by `factor` (used to average
    /// gradients over a mini-batch before the optimiser step).
    fn scale_grads(&mut self, factor: f32) {
        self.visit_params_mut(&mut |p| p.grad.map_inplace(|g| g * factor));
    }

    /// L2 norm of the concatenated gradient vector (for clipping /
    /// diagnostics).  The sum of squares runs over eight independent
    /// accumulators (combined in a fixed order, so the result is
    /// deterministic) — a strictly sequential float sum is latency-bound
    /// and an order of magnitude slower.
    fn grad_norm(&self) -> f32 {
        fn sum_squares(values: &[f32]) -> f32 {
            let mut lanes = [0.0f32; 8];
            let split = values.len() - values.len() % 8;
            for chunk in values[..split].chunks_exact(8) {
                for (lane, &v) in lanes.iter_mut().zip(chunk) {
                    *lane += v * v;
                }
            }
            let mut tail = 0.0;
            for &v in &values[split..] {
                tail += v * v;
            }
            let pairs = [lanes[0] + lanes[4], lanes[1] + lanes[5], lanes[2] + lanes[6], lanes[3] + lanes[7]];
            ((pairs[0] + pairs[2]) + (pairs[1] + pairs[3])) + tail
        }
        self.params().iter().map(|p| sum_squares(p.grad.as_slice())).sum::<f32>().sqrt()
    }

    /// Clips the global gradient norm to `max_norm` (no-op if already
    /// smaller).  Returns the pre-clipping norm.
    fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            self.scale_grads(scale);
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        a: Param,
        b: Param,
    }

    impl Module for Toy {
        fn params(&self) -> Vec<&Param> {
            vec![&self.a, &self.b]
        }
        fn params_mut(&mut self) -> Vec<&mut Param> {
            vec![&mut self.a, &mut self.b]
        }
    }

    fn toy() -> Toy {
        Toy { a: Param::new("a", Matrix::full(2, 2, 1.0)), b: Param::new("b", Matrix::full(1, 3, 2.0)) }
    }

    #[test]
    fn param_ids_are_unique() {
        let p1 = Param::new("x", Matrix::zeros(1, 1));
        let p2 = Param::new("x", Matrix::zeros(1, 1));
        assert_ne!(p1.id(), p2.id());
    }

    #[test]
    fn num_parameters_counts_entries() {
        assert_eq!(toy().num_parameters(), 7);
    }

    #[test]
    fn binding_binds_once_and_accumulates() {
        let mut model = toy();
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let va1 = binding.bind(&mut tape, &model.a);
        let va2 = binding.bind(&mut tape, &model.a);
        assert_eq!(va1, va2, "same param must map to the same tape leaf");
        let s = tape.sum_all(va1);
        tape.backward(s);
        binding.accumulate(&tape, model.params_mut());
        assert!(model.a.grad.as_slice().iter().all(|&g| g == 1.0));
        assert!(model.b.grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn zero_and_scale_grads() {
        let mut model = toy();
        model.a.grad.fill(4.0);
        model.scale_grads(0.5);
        assert!(model.a.grad.as_slice().iter().all(|&g| g == 2.0));
        model.zero_grad();
        assert!(model.a.grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let mut model = toy();
        model.a.grad.fill(3.0);
        let norm_before = model.grad_norm();
        let reported = model.clip_grad_norm(1.0);
        assert!((reported - norm_before).abs() < 1e-5);
        assert!((model.grad_norm() - 1.0).abs() < 1e-5);
        // already small: no change
        let reported2 = model.clip_grad_norm(10.0);
        assert!((reported2 - 1.0).abs() < 1e-5);
        assert!((model.grad_norm() - 1.0).abs() < 1e-5);
    }
}
