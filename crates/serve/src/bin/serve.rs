//! The streaming truth-inference server binary.
//!
//! Configuration is environment-only (see [`lncl_serve::config`]):
//!
//! ```text
//! LNCL_SERVE_PORT=7878 LNCL_SERVE_CLASSES=2 cargo run --release -p lncl-serve --bin serve
//! ```
//!
//! The process serves until killed.  `LNCL_SERVE_WINDOW` (plus optional
//! `LNCL_SERVE_DECAY`) switches the estimator from pooled Dawid–Skene to
//! the stream-windowed DS-W statistics; `LNCL_SERVE_POLICY` /
//! `LNCL_SERVE_BUDGET` / `LNCL_SERVE_SEED` configure the `/assign`
//! planner and the label budget.

use lncl_serve::config::{routing_config_from_env, server_config_from_env, streaming_config_from_env};
use lncl_serve::server::{Server, ServerConfig};
use lncl_serve::state::AppState;
use std::sync::Arc;

fn main() {
    let streaming = streaming_config_from_env();
    let config = server_config_from_env();
    let (policy, budget, seed) = routing_config_from_env();
    let mode = match streaming.window {
        None => "pooled".to_string(),
        Some(w) => format!("windowed (size {}, decay {})", w.size, w.decay),
    };
    let budget_label = budget.map_or("unlimited".to_string(), |b| format!("{b} labels"));
    let state = Arc::new(AppState::with_routing(streaming, policy, budget, seed));
    let server = match Server::start(state, ServerConfig { ..config }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "serve: listening on http://{} ({} classes, {mode} estimator, {} policy, {budget_label} budget)",
        server.addr(),
        streaming.num_classes,
        policy.name()
    );
    // Serve forever: the supervisor thread owns the accept loop; parking
    // the main thread keeps the process (and the Server guard) alive.
    loop {
        std::thread::park();
    }
}
