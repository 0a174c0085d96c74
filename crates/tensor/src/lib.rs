//! # lncl-tensor
//!
//! A small, dependency-light dense linear-algebra substrate used by the
//! Logic-LNCL reproduction.  It provides a row-major `f32` [`Matrix`] type,
//! the matrix/vector operations needed by the neural-network stack
//! ([`ops`]), numerically stable statistical helpers ([`stats`]) and a tiny
//! seeded random-number facade ([`rng`]) built on top of `rand`.
//!
//! This is the bottom layer of the workspace — every other crate builds on
//! it; the full crate map lives in `ARCHITECTURE.md` at the repository
//! root.
//!
//! The crate is intentionally BLAS-free but not naive: every matrix product
//! is one call of a register-blocked micro-kernel
//! ([`simd::matmul_block`]: several output rows × up to 64 columns per
//! depth pass, a masked last vector instead of a scalar tail) on tiered
//! AVX2 / SSE2 / scalar bodies ([`simd`], runtime-detected, bitwise
//! identical across tiers), and the hot compositions the trainers need
//! (`affine`, `dual_affine`, `softmax_xent_rows`, `axpy`) exist as fused
//! single-allocation ops, with `_into` / `_acc` forms that write into a
//! caller's buffer.  Everything stays dependency-free and bit-for-bit
//! reproducible across tiers; [`par::max_threads`] caps the job pools of
//! the experiment harness, and no kernel spawns a thread.
//!
//! ## Quick example
//!
//! ```
//! use lncl_tensor::{Matrix, ops, stats};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = ops::matmul(&a, &b);
//! assert_eq!(c, a);
//! let probs = stats::softmax_rows(&a);
//! assert!((probs.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
//! ```

pub mod env;
pub mod json;
pub mod matrix;
pub mod ops;
pub mod par;
pub mod rng;
pub mod simd;
pub mod stats;

pub use matrix::Matrix;
pub use rng::TensorRng;
