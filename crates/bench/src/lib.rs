//! # lncl-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation section on the synthetic stand-in corpora (see
//! DESIGN.md §1 and §3):
//!
//! | target binary | paper artefact |
//! |---|---|
//! | `fig4_annotator_stats` | Figure 4 (annotator workload / quality boxplots) |
//! | `table2_sentiment` | Table II (sentiment prediction + inference) |
//! | `table3_ner` | Table III (NER prediction + inference) |
//! | `table4_ablation` | Table IV (ablation study) |
//! | `fig6_reliability_sentiment` | Figure 6 (annotator reliability, sentiment) |
//! | `fig7_reliability_ner` | Figure 7 (annotator reliability, NER) |
//! | `sample_efficiency` | §VI-B sample-efficiency experiment |
//! | `scenario_sweep` | cross-scenario robustness sweep (beyond the paper; see the README) |
//! | `budget_curves` | closed-loop routing-policy budget curves ([`budget`]; beyond the paper) |
//!
//! Each binary accepts the environment variables `LNCL_SCALE`
//! (`small` (default) / `medium` / `paper`), `LNCL_REPS` (number of repeated
//! runs averaged per method), `LNCL_EPOCHS`, `LNCL_BENCH_ITERS` (timed
//! iterations per bench case) and `LNCL_THREADS` (worker-thread cap) to
//! trade fidelity for wall time; the defaults finish in minutes on a
//! laptop-class CPU.  Bench targets and the table binaries additionally
//! write machine-readable `BENCH_<target>.json` reports ([`timing`],
//! [`json`]) carrying wall-clock cases *and* per-method quality tables
//! ([`quality`]); the CI perf gate compares the timings against the
//! checked-in `bench_baseline.json` via the `bench_diff` binary, and
//! `bench_diff rank` ([`rank`]) turns the quality tables into
//! per-scenario method rankings with flip detection.  `scenario_sweep`
//! shards across threads (`LNCL_THREADS`) and processes
//! (`LNCL_SHARD=i/N` + `bench_diff merge`) bitwise-identically — see the
//! crate README for the schema and workflows, and `ARCHITECTURE.md` at
//! the repository root for the workspace-level pipeline map.

pub mod budget;
pub mod experiments;
pub mod merge;
pub mod methods;
pub mod predictivity;
pub mod quality;
pub mod rank;
pub mod scale;
pub mod tables;
pub mod timing;

// the JSON value type lives in lncl-tensor (so lncl-serve can use it
// without linking this crate); re-exported under its historical path
pub use lncl_tensor::json;

pub use budget::*;
pub use experiments::*;
pub use merge::*;
pub use methods::*;
pub use predictivity::*;
pub use quality::*;
pub use rank::*;
pub use scale::*;
pub use tables::*;
