//! Environment-variable configuration for the `serve` binary.
//!
//! Every variable follows the workspace convention (see
//! [`lncl_tensor::env`]): unset means default, set-but-invalid means a
//! warning on stderr and the default — never a panic.
//!
//! | variable             | meaning                               | default       |
//! |----------------------|---------------------------------------|---------------|
//! | `LNCL_SERVE_PORT`    | listen port (`0` = pick a free port)  | `7878`        |
//! | `LNCL_SERVE_THREADS` | worker threads (>= 1)                 | `4`           |
//! | `LNCL_SERVE_CLASSES` | number of label classes (>= 2)        | `2`           |
//! | `LNCL_SERVE_WINDOW`  | stream window size; unset = pooled    | unset         |
//! | `LNCL_SERVE_DECAY`   | window decay in `(0, 1]`              | DS-W default  |
//! | `LNCL_SERVE_POLICY`  | `/assign` policy (`static`, `uncertainty`, `quarantine` or full names) | `static` |
//! | `LNCL_SERVE_BUDGET`  | label budget; unset = unlimited       | unset         |
//! | `LNCL_SERVE_SEED`    | assignment-RNG seed                   | `0`           |

use crate::server::ServerConfig;
use lncl_crowd::scenario::router::PolicyKind;
use lncl_crowd::truth::ds_windowed::DsWindowed;
use lncl_crowd::truth::streaming::StreamingConfig;
use lncl_tensor::env::{env_parsed, env_usize_at_least_one};

/// Default listen port of the `serve` binary.
pub const DEFAULT_PORT: u16 = 7878;

/// The listener configuration from `LNCL_SERVE_PORT` / `LNCL_SERVE_THREADS`.
pub fn server_config_from_env() -> ServerConfig {
    let port = env_parsed::<u16>("LNCL_SERVE_PORT", "a port number", |_| true).unwrap_or(DEFAULT_PORT);
    ServerConfig {
        addr: format!("127.0.0.1:{port}"),
        workers: env_usize_at_least_one("LNCL_SERVE_THREADS").unwrap_or(4),
        ..ServerConfig::default()
    }
}

/// The estimator configuration from `LNCL_SERVE_CLASSES` /
/// `LNCL_SERVE_WINDOW` / `LNCL_SERVE_DECAY`.
pub fn streaming_config_from_env() -> StreamingConfig {
    let classes = env_parsed::<usize>("LNCL_SERVE_CLASSES", "an integer >= 2", |&k| k >= 2).unwrap_or(2);
    match env_usize_at_least_one("LNCL_SERVE_WINDOW") {
        None => StreamingConfig::pooled(classes),
        Some(window) => {
            let decay =
                env_parsed::<f32>("LNCL_SERVE_DECAY", "a decay in (0, 1]", |&d| d > 0.0 && d <= 1.0 && d.is_finite())
                    .unwrap_or(DsWindowed::DEFAULT_DECAY);
            StreamingConfig::windowed(classes, window, decay)
        }
    }
}

/// The closed-loop routing configuration from `LNCL_SERVE_POLICY` /
/// `LNCL_SERVE_BUDGET` / `LNCL_SERVE_SEED`: the `/assign` policy, the
/// optional label budget and the assignment-RNG seed.
pub fn routing_config_from_env() -> (PolicyKind, Option<usize>, u64) {
    let policy = match std::env::var("LNCL_SERVE_POLICY") {
        Err(_) => PolicyKind::StaticRedundancy,
        Ok(raw) => PolicyKind::parse(&raw).unwrap_or_else(|| {
            eprintln!("warning: LNCL_SERVE_POLICY={raw:?} is not a policy name; using static-redundancy");
            PolicyKind::StaticRedundancy
        }),
    };
    let budget = env_usize_at_least_one("LNCL_SERVE_BUDGET");
    let seed = env_parsed::<u64>("LNCL_SERVE_SEED", "an integer seed", |_| true).unwrap_or(0);
    (policy, budget, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process env is global: each test uses its own variable set and the
    // defaults are asserted with everything unset.

    #[test]
    fn defaults_apply_when_unset() {
        let server = server_config_from_env();
        assert_eq!(server.addr, format!("127.0.0.1:{DEFAULT_PORT}"));
        assert!(server.workers >= 1);
        let streaming = streaming_config_from_env();
        assert_eq!(streaming.num_classes, 2);
        assert!(streaming.window.is_none());
        let (policy, budget, seed) = routing_config_from_env();
        assert_eq!(policy, PolicyKind::StaticRedundancy);
        assert!(budget.is_none());
        assert_eq!(seed, 0);
    }
}
