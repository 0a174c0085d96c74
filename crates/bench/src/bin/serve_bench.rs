//! Loopback load generator for the streaming truth-inference service.
//!
//! Starts an in-process [`Server`] on a free port, drives it with
//! `LNCL_SERVE_CONNS` persistent client connections (each its own thread),
//! and records per-route latency percentiles plus throughput into
//! `BENCH_serve.json`:
//!
//! * timed cases `"<route>/p50"`, `"<route>/p99"` and `"<route>/mean"`
//!   (seconds per request — lower is better, so the CI
//!   `bench_diff compare --gate` direction is meaningful), and
//! * quality rows `serve/<route>` with a `requests_per_sec` metric.
//!
//! `LNCL_BENCH_ITERS` scales the request volume (default 20; the CI smoke
//! job runs 3).  The label workload is seeded and connection-local, so a
//! run exercises contended ingest without being racy about *what* is
//! ingested.

use lncl_bench::timing::{bench_iters, BenchReport, SCENARIO_CASE};
use lncl_serve::server::{Server, ServerConfig};
use lncl_serve::state::AppState;
use lncl_tensor::env::env_usize_at_least_one;
use lncl_tensor::TensorRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use lncl_crowd::truth::streaming::StreamingConfig;

/// One route's collected request latencies (seconds each).
struct RouteSamples {
    route: &'static str,
    latencies: Vec<f64>,
    elapsed_s: f64,
}

/// Sends `raw`, reads exactly one HTTP response and returns its status.
fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, raw: &[u8]) -> u16 {
    stream.write_all(raw).expect("request write");
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(value) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = value.trim().parse().expect("content length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    status
}

fn http_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\n\r\n").into_bytes()
}

fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len()).into_bytes()
}

/// Drives one phase over `requests` pre-built raw requests, timing each
/// round trip.
fn run_phase(addr: SocketAddr, route: &'static str, requests: &[Vec<u8>]) -> RouteSamples {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut latencies = Vec::with_capacity(requests.len());
    let phase_start = Instant::now();
    for raw in requests {
        let start = Instant::now();
        let status = roundtrip(&mut stream, &mut reader, raw);
        latencies.push(start.elapsed().as_secs_f64());
        assert!(status < 500, "{route}: server answered {status}");
    }
    RouteSamples { route, latencies, elapsed_s: phase_start.elapsed().as_secs_f64() }
}

/// Nearest-rank percentile of an unsorted latency set.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The per-connection workload: seeded label posts over a connection-local
/// instance pool and a shared annotator pool, then consensus / annotator /
/// stats reads.
fn build_workload(conn: usize, posts: usize, reads: usize) -> Vec<(&'static str, Vec<Vec<u8>>)> {
    let mut rng = TensorRng::seed_from_u64(0x5e27e + conn as u64);
    let instance_pool = 64;
    let post_requests: Vec<Vec<u8>> = (0..posts)
        .map(|n| {
            let body = format!(
                r#"{{"instance": "c{conn}-i{}", "annotator": "a{}", "class": {}}}"#,
                n % instance_pool,
                rng.usize_below(8),
                rng.usize_below(2),
            );
            http_post("/labels", &body)
        })
        .collect();
    let consensus_requests: Vec<Vec<u8>> =
        (0..reads).map(|n| http_get(&format!("/consensus/c{conn}-i{}", n % instance_pool))).collect();
    let annotator_requests: Vec<Vec<u8>> = (0..reads).map(|n| http_get(&format!("/annotators/a{}", n % 8))).collect();
    let stats_requests: Vec<Vec<u8>> = (0..reads.div_ceil(4)).map(|_| http_get("/stats")).collect();
    vec![
        ("post_labels", post_requests),
        ("get_consensus", consensus_requests),
        ("get_annotators", annotator_requests),
        ("get_stats", stats_requests),
    ]
}

/// Load-generator client connections (`LNCL_SERVE_CONNS`, default 4).
fn bench_connections_from_env() -> usize {
    env_usize_at_least_one("LNCL_SERVE_CONNS").unwrap_or(4)
}

fn main() {
    let iters = bench_iters();
    let conns = bench_connections_from_env();
    let workers = env_usize_at_least_one("LNCL_SERVE_THREADS").unwrap_or(4);
    let posts_per_conn = iters * 25;
    let reads_per_conn = iters * 15;

    let state = Arc::new(AppState::new(StreamingConfig::pooled(2)));
    let server = Server::start(state, ServerConfig { workers, ..ServerConfig::default() }).expect("bind loopback");
    let addr = server.addr();
    println!(
        "serve_bench: {conns} connection(s) x ({posts_per_conn} posts + {} reads) against {addr} ({workers} workers)",
        reads_per_conn * 2 + reads_per_conn.div_ceil(4)
    );

    // Each connection runs the same phase sequence; phases are merged per
    // route across connections afterwards.
    let per_conn: Vec<Vec<RouteSamples>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn(move || {
                    build_workload(conn, posts_per_conn, reads_per_conn)
                        .into_iter()
                        .map(|(route, requests)| run_phase(addr, route, &requests))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let mut report = BenchReport::new("serve");
    report.environment.push(("serve_workers".to_string(), workers.to_string()));
    report.environment.push(("serve_conns".to_string(), conns.to_string()));

    let routes = ["post_labels", "get_consensus", "get_annotators", "get_stats"];
    let mut total_requests = 0usize;
    let mut total_elapsed = 0.0f64;
    for route in routes {
        let mut latencies = Vec::new();
        let mut elapsed = 0.0f64;
        for conn in &per_conn {
            for samples in conn.iter().filter(|s| s.route == route) {
                latencies.extend_from_slice(&samples.latencies);
                // connections run concurrently: the route's effective wall
                // time is the slowest connection's phase
                elapsed = elapsed.max(samples.elapsed_s);
            }
        }
        latencies.sort_by(f64::total_cmp);
        let count = latencies.len();
        let mean = latencies.iter().sum::<f64>() / count as f64;
        report.record(&format!("{route}/p50"), count, &[percentile(&latencies, 0.50)]);
        report.record(&format!("{route}/p99"), count, &[percentile(&latencies, 0.99)]);
        report.record(&format!("{route}/mean"), count, &[mean]);
        let rps = count as f64 / elapsed.max(1e-9);
        report.record_quality(
            &format!("serve/{route}"),
            SCENARIO_CASE,
            vec![("requests_per_sec".to_string(), rps), ("requests".to_string(), count as f64)],
        );
        total_requests += count;
        total_elapsed += elapsed;
    }
    report.record_quality(
        "serve/all",
        SCENARIO_CASE,
        vec![("requests_per_sec".to_string(), total_requests as f64 / total_elapsed.max(1e-9))],
    );

    match report.write() {
        Ok(path) => println!("serve_bench: wrote {}", path.display()),
        Err(e) => {
            eprintln!("serve_bench: cannot write report: {e}");
            std::process::exit(1);
        }
    }
}
