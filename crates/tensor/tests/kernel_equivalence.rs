//! Property-style equivalence tests: the products and fused kernels must
//! match naive reference implementations to 1e-6 across odd shapes
//! (1×N, N×1, primes, non-multiples of the kernel's vector and strip
//! widths).  Values are kept small so f32 rounding differences between
//! summation orders stay well under the tolerance.

use lncl_tensor::ops;
use lncl_tensor::{Matrix, TensorRng};

const TOL: f32 = 1e-6;

fn random(rows: usize, cols: usize, rng: &mut TensorRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| (rng.uniform() - 0.5) * 0.2)
}

fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for kk in 0..a.cols() {
                acc += a[(i, kk)] * b[(kk, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

fn naive_transpose(a: &Matrix) -> Matrix {
    Matrix::from_fn(a.cols(), a.rows(), |r, c| a[(c, r)])
}

fn assert_close(actual: &Matrix, expect: &Matrix, label: &str) {
    assert_eq!(actual.shape(), expect.shape(), "{label}: shape mismatch");
    for r in 0..actual.rows() {
        for c in 0..actual.cols() {
            let (x, y) = (actual[(r, c)], expect[(r, c)]);
            assert!((x - y).abs() <= TOL, "{label}: ({r},{c}) {x} vs {y} (diff {})", (x - y).abs());
        }
    }
}

/// Odd shapes: row/column vectors, primes, multiples of the 8-lane vectors
/// and 64-column strips and off-by-ones around them, and products with a
/// long depth and many strips in one kernel call.
fn shape_grid() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 17, 1),
        (1, 64, 33),
        (33, 64, 1),
        (7, 13, 5),
        (19, 1, 23),
        (31, 37, 29),
        (64, 128, 256), // whole vectors and strips
        (65, 129, 257), // one past
        (63, 127, 255), // one short
        (70, 200, 40),  // long depth
        (130, 50, 300), // several column strips
    ]
}

#[test]
fn blocked_matmul_matches_naive_reference() {
    let mut rng = TensorRng::seed_from_u64(11);
    for (m, k, n) in shape_grid() {
        let a = random(m, k, &mut rng);
        let b = random(k, n, &mut rng);
        assert_close(&ops::matmul(&a, &b), &naive_matmul(&a, &b), &format!("matmul {m}x{k}x{n}"));
    }
}

#[test]
fn transpose_variants_match_naive_reference() {
    let mut rng = TensorRng::seed_from_u64(13);
    for (m, k, n) in shape_grid() {
        let a = random(m, k, &mut rng);
        let b = random(n, k, &mut rng);
        let expect = naive_matmul(&a, &naive_transpose(&b));
        assert_close(&ops::matmul_transpose_b(&a, &b), &expect, &format!("matmul_transpose_b {m}x{k}x{n}"));

        let at = random(k, m, &mut rng);
        let bb = random(k, n, &mut rng);
        let expect = naive_matmul(&naive_transpose(&at), &bb);
        assert_close(&ops::matmul_transpose_a(&at, &bb), &expect, &format!("matmul_transpose_a {m}x{k}x{n}"));
    }
}

#[test]
fn large_products_run_as_one_block_and_stay_correct() {
    // 160*180*100 = 2.88M multiply-adds, far above any product the models
    // make, through one kernel call of the public API
    let mut rng = TensorRng::seed_from_u64(19);
    let (m, k, n) = (160, 180, 100);
    let a = random(m, k, &mut rng);
    let b = random(k, n, &mut rng);
    assert_close(&ops::matmul(&a, &b), &naive_matmul(&a, &b), "large matmul");
}

#[test]
fn fused_ops_match_their_compositions_on_odd_shapes() {
    let mut rng = TensorRng::seed_from_u64(23);
    for (m, k, n) in [(1usize, 5, 3), (4, 1, 7), (9, 130, 11), (70, 200, 40)] {
        let x = random(m, k, &mut rng);
        let w = random(k, n, &mut rng);
        let bias = random(1, n, &mut rng);
        let xw = ops::matmul(&x, &w);
        assert_close(&ops::affine(&x, &w, &bias), &ops::add_row_broadcast(&xw, &bias), "affine");

        let h = random(m, k, &mut rng);
        let u = random(k, n, &mut rng);
        let expect = ops::add_row_broadcast(&ops::add(&xw, &ops::matmul(&h, &u)), &bias);
        assert_close(&ops::dual_affine(&x, &w, &h, &u, &bias), &expect, "dual_affine");
    }
}

#[test]
fn axpy_equivalence_on_odd_lengths() {
    let mut rng = TensorRng::seed_from_u64(29);
    for len in [0usize, 1, 3, 4, 5, 127, 1024, 1025] {
        let x: Vec<f32> = (0..len).map(|_| rng.uniform() - 0.5).collect();
        let mut y: Vec<f32> = (0..len).map(|_| rng.uniform() - 0.5).collect();
        let mut expect = y.clone();
        for (e, xv) in expect.iter_mut().zip(&x) {
            *e += -0.75 * xv;
        }
        ops::axpy(-0.75, &x, &mut y);
        assert_eq!(y, expect, "axpy len {len}");
    }
}

#[test]
fn fused_softmax_xent_matches_composition_across_shapes() {
    let mut rng = TensorRng::seed_from_u64(31);
    for (rows, k) in [(1usize, 2), (7, 9), (40, 3)] {
        let logits = Matrix::from_fn(rows, k, |_, _| (rng.uniform() - 0.5) * 6.0);
        let mut targets = Matrix::from_fn(rows, k, |_, _| rng.uniform());
        for r in 0..rows {
            let sum: f32 = targets.row(r).iter().sum();
            targets.row_mut(r).iter_mut().for_each(|v| *v /= sum);
        }
        let (loss, probs) = ops::softmax_xent_rows(&logits, &targets);
        let expect_probs = lncl_tensor::stats::softmax_rows(&logits);
        assert_close(&probs, &expect_probs, "softmax probs");
        let mut expect_loss = 0.0;
        for r in 0..rows {
            expect_loss += lncl_tensor::stats::cross_entropy(targets.row(r), expect_probs.row(r));
        }
        expect_loss /= rows as f32;
        assert!((loss - expect_loss).abs() <= 1e-5, "loss {loss} vs {expect_loss}");
    }
}
