//! Multi-window text convolution with max-over-time pooling (the feature
//! extractor of the Kim-2014 sentence CNN used for the sentiment task), and
//! a "same-length" 1-D convolution used by the NER tagger.

use crate::module::{Binding, Module, Param};
use lncl_autograd::{Tape, Var};
use lncl_tensor::{Matrix, TensorRng};

/// One convolutional filter bank for a single window size.
#[derive(Debug, Clone)]
pub struct ConvFilter {
    /// Flattened filter weights (`window * emb_dim x num_filters`).
    pub weight: Param,
    /// Bias (`1 x num_filters`).
    pub bias: Param,
    /// Window (kernel) size in tokens.
    pub window: usize,
}

/// Kim-2014 style text convolution: several window sizes, each with its own
/// filter bank, ReLU activation and max-over-time pooling; the pooled
/// features of all windows are concatenated into a single `1 x total`
/// feature vector.
#[derive(Debug, Clone)]
pub struct TextConv {
    filters: Vec<ConvFilter>,
    emb_dim: usize,
    num_filters: usize,
}

impl TextConv {
    /// Creates filter banks for each window size with `num_filters` filters
    /// per window.
    pub fn new(name: &str, emb_dim: usize, windows: &[usize], num_filters: usize, rng: &mut TensorRng) -> Self {
        assert!(!windows.is_empty(), "TextConv: need at least one window size");
        let filters = windows
            .iter()
            .map(|&w| ConvFilter {
                weight: Param::new(format!("{name}.conv{w}.weight"), rng.xavier_uniform(w * emb_dim, num_filters)),
                bias: Param::new(format!("{name}.conv{w}.bias"), Matrix::zeros(1, num_filters)),
                window: w,
            })
            .collect();
        Self { filters, emb_dim, num_filters }
    }

    /// Total pooled feature dimensionality (`windows.len() * num_filters`).
    pub fn output_dim(&self) -> usize {
        self.filters.len() * self.num_filters
    }

    /// Largest window size; sentences must be padded to at least this many
    /// tokens before calling [`TextConv::forward`].
    pub fn max_window(&self) -> usize {
        self.filters.iter().map(|f| f.window).max().unwrap_or(1)
    }

    /// Embedding dimensionality this layer expects.
    pub fn emb_dim(&self) -> usize {
        self.emb_dim
    }

    /// Applies the convolution to a `T x emb_dim` node and returns the
    /// pooled `1 x output_dim` feature node: one fused
    /// [`Tape::conv_max_pool`] node per window size.
    ///
    /// # Panics
    /// Panics if the sequence is shorter than the largest window.
    pub fn forward(&self, tape: &mut Tape, binding: &mut Binding, embedded: Var) -> Var {
        let (rows, cols) = tape.shape(embedded);
        assert_eq!(cols, self.emb_dim, "TextConv: embedding dim mismatch");
        assert!(
            rows >= self.max_window(),
            "TextConv: sequence length {rows} shorter than max window {}; pad first",
            self.max_window()
        );
        let mut pooled = std::mem::take(&mut binding.vars);
        pooled.clear();
        for filter in &self.filters {
            let w = binding.bind(tape, &filter.weight);
            let b = binding.bind(tape, &filter.bias);
            pooled.push(tape.conv_max_pool(embedded, w, b, filter.window));
        }
        let features = tape.hstack(&pooled);
        binding.vars = pooled;
        features
    }
}

impl Module for TextConv {
    fn params(&self) -> Vec<&Param> {
        self.filters.iter().flat_map(|f| [&f.weight, &f.bias]).collect()
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.filters.iter_mut().flat_map(|f| [&mut f.weight, &mut f.bias]).collect()
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for filter in &mut self.filters {
            f(&mut filter.weight);
            f(&mut filter.bias);
        }
    }
}

/// A "same-length" 1-D convolution over a token sequence: each output row is
/// a ReLU-activated affine function of a window centred on the corresponding
/// input token (with implicit zero padding at the borders).  This is the
/// convolutional front-end of the NER tagger of Rodrigues & Pereira (2018).
#[derive(Debug, Clone)]
pub struct SameConv {
    /// Flattened filter weights (`window * in_dim x out_dim`).
    pub weight: Param,
    /// Bias (`1 x out_dim`).
    pub bias: Param,
    window: usize,
    in_dim: usize,
    out_dim: usize,
}

impl SameConv {
    /// Creates a same-length convolution with an odd `window`.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, window: usize, rng: &mut TensorRng) -> Self {
        assert!(window % 2 == 1, "SameConv: window must be odd so the output aligns with the input");
        Self {
            weight: Param::new(format!("{name}.weight"), rng.xavier_uniform(window * in_dim, out_dim)),
            bias: Param::new(format!("{name}.bias"), Matrix::zeros(1, out_dim)),
            window,
            in_dim,
            out_dim,
        }
    }

    /// Output feature dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Applies the convolution to a `T x in_dim` node, producing `T x out_dim`
    /// as one fused [`Tape::same_conv`] node.
    ///
    /// The windows see `(window-1)/2` zero rows beyond both ends, so the
    /// output has the same number of rows as the input.
    pub fn forward(&self, tape: &mut Tape, binding: &mut Binding, x: Var) -> Var {
        assert_eq!(tape.shape(x).1, self.in_dim, "SameConv: input dim mismatch");
        let w = binding.bind(tape, &self.weight);
        let b = binding.bind(tape, &self.bias);
        tape.same_conv(x, w, b, self.window)
    }
}

impl Module for SameConv {
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
    fn text_conv_output_shape() {
        let mut rng = TensorRng::seed_from_u64(0);
        let conv = TextConv::new("tc", 4, &[2, 3], 5, &mut rng);
        assert_eq!(conv.output_dim(), 10);
        assert_eq!(conv.max_window(), 3);

        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let x = tape.leaf(rng.normal_matrix(7, 4, 1.0));
        let y = conv.forward(&mut tape, &mut binding, x);
        assert_eq!(tape.shape(y), (1, 10));
    }

    #[test]
    #[should_panic]
    fn text_conv_rejects_too_short_sequences() {
        let mut rng = TensorRng::seed_from_u64(1);
        let conv = TextConv::new("tc", 4, &[3, 5], 2, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let x = tape.leaf(rng.normal_matrix(3, 4, 1.0));
        let _ = conv.forward(&mut tape, &mut binding, x);
    }

    #[test]
    fn text_conv_gradients_reach_all_filters() {
        let mut rng = TensorRng::seed_from_u64(2);
        let mut conv = TextConv::new("tc", 3, &[2, 3], 4, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let x = tape.leaf(rng.normal_matrix(6, 3, 1.0));
        let y = conv.forward(&mut tape, &mut binding, x);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        binding.accumulate(&tape, conv.params_mut());
        for p in conv.params() {
            if p.name.contains("weight") {
                assert!(p.grad.as_slice().iter().any(|&g| g != 0.0), "no gradient in {}", p.name);
            }
        }
    }

    #[test]
    fn same_conv_preserves_length() {
        let mut rng = TensorRng::seed_from_u64(3);
        let conv = SameConv::new("sc", 4, 6, 5, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let x = tape.leaf(rng.normal_matrix(9, 4, 1.0));
        let y = conv.forward(&mut tape, &mut binding, x);
        assert_eq!(tape.shape(y), (9, 6));
    }

    #[test]
    fn same_conv_single_token_sequence() {
        let mut rng = TensorRng::seed_from_u64(4);
        let conv = SameConv::new("sc", 3, 2, 3, &mut rng);
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let x = tape.leaf(rng.normal_matrix(1, 3, 1.0));
        let y = conv.forward(&mut tape, &mut binding, x);
        assert_eq!(tape.shape(y), (1, 2));
    }

    #[test]
    #[should_panic]
    fn same_conv_requires_odd_window() {
        let mut rng = TensorRng::seed_from_u64(5);
        let _ = SameConv::new("sc", 3, 2, 4, &mut rng);
    }
}
