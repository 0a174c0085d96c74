//! # lncl-serve
//!
//! A streaming truth-inference service over the incremental Dawid–Skene
//! estimator ([`lncl_crowd::truth::streaming`]).  Crowd labels are POSTed
//! one at a time (or in batches) and consensus posteriors / annotator
//! reliabilities can be queried between arrivals — the serving-layer
//! complement to the batch experiment harness, turning the reproduction's
//! truth-inference stack into a long-lived process.
//!
//! The crate is deliberately layered so everything above the socket is
//! unit-testable:
//!
//! * [`http`] — hand-rolled HTTP/1.1 parsing and response framing (the
//!   container has no crates.io access, so no hyper), with hard limits on
//!   head and body size and typed 4xx errors.
//! * [`routes`] — the typed route table: [`Route::parse`] turns a request
//!   line into a [`Route`] variant or a typed 404/405 (the `405` carries
//!   the exact `Allow` header value), and dispatch matches exhaustively.
//! * [`state`] — [`AppState`]: the estimator plus string
//!   id interners behind one mutex, and the transport-free route dispatch
//!   — including the `/assign` planner under an optional label budget.
//! * [`routing`] — the `/assign` policies ([`routing::PolicyKind`]) and
//!   the label budget, over the service's own per-instance labelled sets.
//! * [`server`] — `TcpListener` accept loop feeding a fixed worker pool
//!   over an mpsc channel; keep-alive connections, panic-isolated request
//!   handling.
//! * [`config`] — `LNCL_SERVE_*` environment-variable parsing, following
//!   the workspace's warn-and-default convention.
//!
//! ## Routes
//!
//! | route                   | method | purpose                                     |
//! |-------------------------|--------|---------------------------------------------|
//! | `/labels`               | POST   | ingest one label or `{"labels": [...]}` (`409` once over budget) |
//! | `/assign`               | POST   | plan the next routed assignments from live estimates |
//! | `/budget`               | GET    | active policy and label-budget accounting   |
//! | `/consensus/<instance>` | GET    | posterior, hard class, entropy, label count |
//! | `/annotators/<id>`      | GET    | confusion matrix, reliability, label count  |
//! | `/finalize`             | POST   | full batch EM over everything ingested      |
//! | `/stats`                | GET    | counters and estimator mode                 |
//! | `/healthz`              | GET    | liveness                                    |
//!
//! The `serve` binary wires this up from environment variables.  The
//! crate links only `lncl-tensor` and `lncl-crowd` — no neural-training
//! code; its loopback load generator, `serve_bench`, lives in `lncl-bench`
//! and writes the `BENCH_serve.json` latency/throughput report the CI
//! smoke job gates on.
//!
//! (Where this sits in the workspace: `ARCHITECTURE.md` at the repository
//! root; the crate README has the quickstart with curl examples and the
//! `LNCL_SERVE_*` variable reference.)
//!
//! ```no_run
//! use lncl_serve::{server::{Server, ServerConfig}, state::AppState};
//! use lncl_crowd::truth::streaming::StreamingConfig;
//! use std::sync::Arc;
//!
//! let state = Arc::new(AppState::new(StreamingConfig::pooled(2)));
//! let server = Server::start(state, ServerConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! ```

pub mod config;
pub mod http;
pub mod routes;
pub mod routing;
pub mod server;
pub mod state;

pub use routes::{Route, RouteError};
pub use server::{Server, ServerConfig};
pub use state::{ApiResponse, AppState};
