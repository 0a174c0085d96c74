//! Cross-tier kernel equivalence: every SIMD tier the machine offers must
//! produce **bitwise identical** results to the scalar fallback — not
//! approximately equal, `f32::to_bits`-equal.  This is the contract that
//! lets the tiered dispatch stay invisible to every seeded end-to-end test
//! and all checked-in benchmark baselines: the tiers share the per-element
//! reduction order (ascending inner index, one `mul` + one `add` per
//! summand, no FMA contraction), so which tier runs is unobservable.
//!
//! [`simd::matmul_block`] takes the tier as a parameter, so these tests
//! drive it on every available tier directly, over whole matrices as
//! `ops::matmul_acc` calls it, and check the public entry points (which run
//! the detected tier) against the forced-scalar kernel.  Shapes
//! deliberately include odd sizes and remainder widths so the vector main
//! loops *and* their masked or scalar tails are exercised on every tier.

use lncl_tensor::ops;
use lncl_tensor::simd::{self, KernelTier};
use lncl_tensor::{Matrix, TensorRng};

fn random(rows: usize, cols: usize, rng: &mut TensorRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| (rng.uniform() - 0.5) * 2.0)
}

/// Random matrix with ~25% exact zeros, whose `0 · b` terms every tier
/// must add alike.
fn random_sparse(rows: usize, cols: usize, rng: &mut TensorRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        let v = rng.uniform();
        if v < 0.25 {
            0.0
        } else {
            (v - 0.5) * 2.0
        }
    })
}

fn assert_bitwise(actual: &Matrix, expect: &Matrix, label: &str) {
    assert_eq!(actual.shape(), expect.shape(), "{label}: shape mismatch");
    for (i, (x, y)) in actual.as_slice().iter().zip(expect.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{label}: flat index {i}: {x:?} ({:#x}) vs {y:?} ({:#x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// `out += a * b` through one [`simd::matmul_block`] call on `tier` over
/// the whole matrices, the call `ops::matmul_acc` makes on the detected
/// tier.
fn block_product(tier: KernelTier, a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let lhs = simd::Lhs { data: a.as_slice(), off: 0, row_step: k, k_step: 1 };
    simd::matmul_block(tier, lhs, b.as_slice(), n, out.as_mut_slice(), n, (m, k, n));
}

/// Odd/remainder shapes: widths below one vector lane group, between SSE
/// and AVX widths, off-by-ones around the 8-lane vectors and the 64-column
/// strips of the micro-kernel, and products with many strips, row blocks
/// and a long depth in one call.
fn shape_grid() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (3, 5, 2),
        (2, 9, 5),
        (5, 7, 7),
        (4, 11, 9),
        (7, 13, 15),
        (9, 17, 16),
        (8, 19, 17),
        (11, 23, 31),
        (13, 29, 33),
        (31, 37, 29),
        (63, 127, 47),
        (65, 129, 257),
        (70, 200, 40),
        (130, 50, 300),
    ]
}

#[test]
fn matmul_tiers_agree_bitwise_over_the_shape_grid() {
    let mut rng = TensorRng::seed_from_u64(71);
    for (m, k, n) in shape_grid() {
        let a = random(m, k, &mut rng);
        let b = random(k, n, &mut rng);
        let mut scalar = Matrix::zeros(m, n);
        block_product(KernelTier::Scalar, &a, &b, &mut scalar);
        for tier in simd::available_tiers() {
            let mut out = Matrix::zeros(m, n);
            block_product(tier, &a, &b, &mut out);
            assert_bitwise(&out, &scalar, &format!("matmul {m}x{k}x{n} tier {tier:?}"));
        }
    }
}

#[test]
fn sparse_left_operands_agree_bitwise_across_tiers() {
    // the exact zeros of a sparse A add their `±0` terms on every tier in
    // the same order as the scalar loop: no tier may skip or reorder them
    let mut rng = TensorRng::seed_from_u64(73);
    for (m, k, n) in [(7usize, 33, 17), (19, 64, 48), (33, 127, 65)] {
        let a = random_sparse(m, k, &mut rng);
        let b = random(k, n, &mut rng);
        let mut scalar = Matrix::zeros(m, n);
        block_product(KernelTier::Scalar, &a, &b, &mut scalar);
        for tier in simd::available_tiers() {
            let mut out = Matrix::zeros(m, n);
            block_product(tier, &a, &b, &mut out);
            assert_bitwise(&out, &scalar, &format!("sparse matmul {m}x{k}x{n} tier {tier:?}"));
        }
    }
}

#[test]
fn accumulating_into_nonzero_output_agrees_bitwise_across_tiers() {
    let mut rng = TensorRng::seed_from_u64(79);
    let (m, k, n) = (17, 41, 35);
    let a = random(m, k, &mut rng);
    let b = random(k, n, &mut rng);
    let init = random(m, n, &mut rng);
    let mut scalar = init.clone();
    block_product(KernelTier::Scalar, &a, &b, &mut scalar);
    for tier in simd::available_tiers() {
        let mut out = init.clone();
        block_product(tier, &a, &b, &mut out);
        assert_bitwise(&out, &scalar, &format!("acc-into-nonzero tier {tier:?}"));
    }
}

#[test]
fn scalar_kernel_matches_the_public_entry_points() {
    // whatever tier was detected, the public matmul/transpose wrappers
    // must equal the forced-scalar kernel bitwise — the dispatch decision
    // itself is unobservable in the results
    let mut rng = TensorRng::seed_from_u64(89);
    for (m, k, n) in [(5usize, 9, 3), (33, 64, 21), (70, 200, 40), (160, 180, 100)] {
        let a = random(m, k, &mut rng);
        let b = random(k, n, &mut rng);
        let mut scalar = Matrix::zeros(m, n);
        block_product(KernelTier::Scalar, &a, &b, &mut scalar);
        assert_bitwise(&ops::matmul(&a, &b), &scalar, &format!("public matmul {m}x{k}x{n}"));
    }
    // matmul_transpose_a reaches the same micro-kernel through a strided
    // left operand
    let at = random(41, 27, &mut rng);
    let bb = random(41, 19, &mut rng);
    let naive = {
        let mut out = Matrix::zeros(27, 19);
        for i in 0..27 {
            for j in 0..19 {
                let mut acc = 0.0f32;
                for kk in 0..41 {
                    acc += at[(kk, i)] * bb[(kk, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    };
    assert_bitwise(&ops::matmul_transpose_a(&at, &bb), &naive, "matmul_transpose_a vs naive scalar");
    // matmul_transpose_b runs its row-by-row dots at every size: one shape
    // below 2048 multiply-adds and one above
    for (m, k, n) in [(6usize, 9, 27), (33, 64, 21)] {
        let a = random(m, k, &mut rng);
        let b = random(n, k, &mut rng);
        let naive = Matrix::from_fn(m, n, |i, j| {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[(i, kk)] * b[(j, kk)];
            }
            acc
        });
        assert_bitwise(&ops::matmul_transpose_b(&a, &b), &naive, &format!("matmul_transpose_b {m}x{k}x{n}"));
    }
}

/// How the rows of `a` sit in memory in one [`simd::matmul_block`] case.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// Rows of a matrix with two spare columns.
    Rows,
    /// Columns of a matrix, as `matmul_transpose_a` reads them.
    Columns,
    /// Overlapping windows three values apart, as a text convolution
    /// reads them.
    Windows,
}

const SENTINEL: f32 = -7777.25;

/// Value `i` of a left operand: a mix of random values, `+0` and `-0`.
fn signed_zeros(rng: &mut TensorRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| match i % 7 {
            1 => 0.0,
            4 => -0.0,
            _ => (rng.uniform() - 0.5) * 2.0,
        })
        .collect()
}

#[test]
fn matmul_block_tiers_agree_bitwise_and_write_only_their_block() {
    let widths: Vec<usize> =
        (1..=17).chain([20, 24]).chain(31..=33).chain([40, 48, 60]).chain(63..=65).chain([100, 112]).collect();
    let mut rng = TensorRng::seed_from_u64(97);
    for layout in [Layout::Rows, Layout::Columns, Layout::Windows] {
        for rows in 1..=9usize {
            for depth in [0usize, 1, 5, 24, 100] {
                for &width in &widths {
                    // a(r, kk) at off + r * row_step + kk * k_step
                    let (off, row_step, k_step) = match layout {
                        Layout::Rows => (1, depth + 2, 1),
                        Layout::Columns => (2, 1, rows + 1),
                        Layout::Windows => (0, 3, 1),
                    };
                    let a_len = off + (rows - 1) * row_step + depth.saturating_sub(1) * k_step + 1;
                    let a = signed_zeros(&mut rng, a_len);
                    // b rows with three padding columns, ending right after
                    // the last used element
                    let b_stride = width + 3;
                    let b_len = depth.saturating_sub(1) * b_stride + width;
                    let b: Vec<f32> = (0..b_len)
                        .map(|i| if i % b_stride < width { (rng.uniform() - 0.5) * 2.0 } else { f32::NAN })
                        .collect();
                    // out block at offset 5, stride width + 2, sentinels
                    // in every other slot; accumulators partly -0
                    let (out_off, out_stride) = (5, width + 2);
                    let mut init = vec![SENTINEL; out_off + rows * out_stride + 4];
                    for r in 0..rows {
                        for j in 0..width {
                            init[out_off + r * out_stride + j] =
                                if (r + j) % 3 == 0 { -0.0 } else { (rng.uniform() - 0.5) * 2.0 };
                        }
                    }

                    let mut naive = init.clone();
                    for r in 0..rows {
                        for kk in 0..depth {
                            let x = a[off + r * row_step + kk * k_step];
                            for j in 0..width {
                                naive[out_off + r * out_stride + j] += x * b[kk * b_stride + j];
                            }
                        }
                    }
                    let label = format!("{layout:?} rows {rows} depth {depth} width {width}");
                    for tier in simd::available_tiers() {
                        let mut out = init.clone();
                        let lhs = simd::Lhs { data: &a, off, row_step, k_step };
                        let shape = (rows, depth, width);
                        simd::matmul_block(tier, lhs, &b, b_stride, &mut out[out_off..], out_stride, shape);
                        for (i, (x, y)) in out.iter().zip(&naive).enumerate() {
                            assert!(x.to_bits() == y.to_bits(), "{label} tier {tier:?}: slot {i}: {x:?} vs {y:?}");
                        }
                    }
                }
            }
        }
    }
}

/// The product kernel's old zero-skipping loop, kept only as an oracle: a
/// zero `a(r, kk)` adds nothing to its row, so `0 · b` never reaches the
/// sum.
fn zero_skipping_block(
    a: simd::Lhs<'_>,
    b: &[f32],
    b_stride: usize,
    out: &mut [f32],
    out_stride: usize,
    shape: simd::Shape,
) {
    let (rows, depth, width) = shape;
    for r in 0..rows {
        for kk in 0..depth {
            let x = a.data[a.off + r * a.row_step + kk * a.k_step];
            if x == 0.0 {
                continue;
            }
            for j in 0..width {
                out[r * out_stride + j] += x * b[kk * b_stride + j];
            }
        }
    }
}

/// A uniform value in `[-1, 1)` other than zero.
fn nonzero(rng: &mut TensorRng) -> f32 {
    let v = (rng.uniform() - 0.5) * 2.0;
    if v == 0.0 {
        1.0
    } else {
        v
    }
}

fn assert_same_bits(actual: &[f32], expect: &[f32], label: &str) {
    for (i, (x, y)) in actual.iter().zip(expect).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{label}: slot {i}: {x:?} vs {y:?}");
    }
}

#[test]
fn plain_accumulation_equals_the_zero_skipping_loop_except_on_negative_zero_and_non_finite_b() {
    // a ~30% `±0`, b finite, accumulators at `+0`, nonzero or a mix: the
    // added `0 · b` terms are `±0`, which a sum that starts at `+0` or at a
    // nonzero value cannot notice
    let mut rng = TensorRng::seed_from_u64(101);
    for (rows, depth, width) in [(1usize, 1usize, 1usize), (3, 7, 5), (5, 24, 17), (4, 64, 33), (9, 100, 65)] {
        let a: Vec<f32> = (0..rows * depth)
            .map(|_| match rng.uniform() {
                u if u < 0.15 => 0.0,
                u if u < 0.3 => -0.0,
                _ => nonzero(&mut rng),
            })
            .collect();
        let b: Vec<f32> = (0..depth * width).map(|_| (rng.uniform() - 0.5) * 2.0).collect();
        let lhs = simd::Lhs { data: &a, off: 0, row_step: depth, k_step: 1 };
        let shape = (rows, depth, width);
        let inits = [
            ("+0", vec![0.0; rows * width]),
            ("nonzero", (0..rows * width).map(|_| nonzero(&mut rng)).collect::<Vec<f32>>()),
            ("mixed", (0..rows * width).map(|i| if i % 2 == 0 { 0.0 } else { nonzero(&mut rng) }).collect()),
        ];
        for (name, init) in inits {
            let mut skipped = init.clone();
            zero_skipping_block(lhs, &b, width, &mut skipped, width, shape);
            for tier in simd::available_tiers() {
                let mut out = init.clone();
                simd::matmul_block(tier, lhs, &b, width, &mut out, width, shape);
                assert_same_bits(&out, &skipped, &format!("{rows}x{depth}x{width} from {name} tier {tier:?}"));
            }
        }
    }

    // where the two loops part: an accumulator that enters as `-0` (the
    // added `+0 · b` turns it into `+0`) and a non-finite `b` (`0 · ∞` is
    // NaN, which the skipping loop never forms)
    let a = [0.0f32, -0.0, 0.0, 1.0];
    let lhs = simd::Lhs { data: &a, off: 0, row_step: 2, k_step: 1 };
    let b = [1.0f32, -2.0];
    let infinite_b = [f32::INFINITY, 2.0];
    for tier in simd::available_tiers() {
        let mut skipped = [-0.0f32, 0.0];
        zero_skipping_block(lhs, &b, 1, &mut skipped, 1, (2, 2, 1));
        let mut out = [-0.0f32, 0.0];
        simd::matmul_block(tier, lhs, &b, 1, &mut out, 1, (2, 2, 1));
        assert_eq!(skipped[0].to_bits(), (-0.0f32).to_bits(), "the skipping loop keeps a -0 accumulator");
        assert_eq!(out[0].to_bits(), 0.0f32.to_bits(), "tier {tier:?}: plain accumulation turns -0 into +0");

        let mut skipped = [0.0f32; 2];
        zero_skipping_block(lhs, &infinite_b, 1, &mut skipped, 1, (2, 2, 1));
        let mut out = [0.0f32; 2];
        simd::matmul_block(tier, lhs, &infinite_b, 1, &mut out, 1, (2, 2, 1));
        assert_eq!(skipped[1], 2.0, "the skipping loop never forms 0 · inf");
        assert!(out[1].is_nan(), "tier {tier:?}: plain accumulation adds 0 · inf = NaN, got {}", out[1]);
    }
}
