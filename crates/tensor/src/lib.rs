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
//! The crate is intentionally BLAS-free but not naive: the matrix products
//! are plan-driven ([`ops::MatmulPlan`]) cache-blocked i-k-j kernels that
//! shard output rows across scoped threads ([`par`]) once a product is
//! large enough to pay for the spawn, dispatch their micro-kernels to
//! tiered AVX2 / SSE2 / scalar paths ([`simd`], runtime-detected, bitwise
//! identical across tiers), and the hot compositions the trainers
//! need (`affine`, `affine_relu`, `dual_affine`, `softmax_xent_rows`,
//! `axpy`) exist as fused single-allocation ops.  Everything stays
//! dependency-free and, on the shapes the paper's experiments use,
//! bit-for-bit reproducible across plans.
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
