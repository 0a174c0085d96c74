//! `serve`: open-loop mixed traffic against an in-process `lncl-serve`.
//!
//! The traffic is a seeded classification scenario (the paper-tier sweep
//! base: 2,000 instances, 60 annotators) replayed as `POST /labels` in
//! stream order, with `GET /consensus` on recently labelled instances
//! (about 25% of requests), `GET /annotators` (about 5%), one
//! `POST /assign` after every 50 label posts and a closing `POST /finalize`.
//! Requests are due at a fixed offered rate and timed from their due time;
//! each of `nproc` client connections carries every request about the
//! instances it owns, so a read never overtakes the write it depends on.
//! Each rate step of the ladder replays the stream from an empty server
//! with as many workers as client connections.  The end-to-end run repeats
//! the fixed-rate step to fill the run time; its operation is one request,
//! and `latency_ms` is the median over the passes of each pass's p50.  The
//! traced run reports the p99 of one fixed-rate pass and climbs the ladder
//! for `serve_max_rps`, a ladder rate and so too coarse to bound.
//!
//! The traced mode replays the identical request bytes through
//! `http::parse_request` and `AppState::handle` without a socket.

use crate::report::{median, percentile, secs, summarize, Digest, Outcome};
use crate::Args;
use lncl_bench::Scale;
use lncl_crowd::scenario::generate_scenario;
use lncl_crowd::truth::streaming::StreamingConfig;
use lncl_crowd::truth::{DawidSkene, TruthInference};
use lncl_crowd::{CrowdDataset, TaskKind};
use lncl_serve::http::parse_request;
use lncl_serve::{AppState, Server, ServerConfig};
use lncl_tensor::TensorRng;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUTES: [&str; 5] = ["post_labels", "get_consensus", "get_annotators", "post_assign", "post_finalize"];
const LABELS: usize = 0;
const CONSENSUS: usize = 1;
const ANNOTATORS: usize = 2;
const ASSIGN: usize = 3;
const FINALIZE: usize = 4;
/// Offered rates (requests per second) of the traced mode's ladder; the
/// first one is the fixed rate of the latency metrics.
const LADDER: [f64; 4] = [1000.0, 2000.0, 4000.0, 8000.0];
/// Latency limit on a rung's p99.  A single `/assign` at the full scenario
/// holds the state lock for about 4 ms (8 ms at its p99) on a 2-core x86
/// host, so a rung that keeps up already reads 5 to 8 ms; an overloaded one
/// reads 60 ms and more.
const P99_LIMIT_MS: f64 = 20.0;
/// Generator lag growth (last tenth of the stream over the first) above
/// which a rung counts as falling behind.  Later `/assign` calls cost more
/// than early ones, so a rung that keeps up still grows by a few ms.
const LAG_GROWTH_MS: f64 = 10.0;
/// Set-up passes per window; a window comes before each fixed-rate pass
/// and after the last one.
const SETUP_PER_WINDOW: usize = 7;
/// Largest tolerated finalize-vs-batch Dawid-Skene posterior difference.
const CONSENSUS_TOL: f64 = 5e-4;

/// One pre-built request.
struct Req {
    route: usize,
    conn: usize,
    bytes: Vec<u8>,
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len()).into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\n\r\n").into_bytes()
}

fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn scenario(args: &Args) -> CrowdDataset {
    let tier = if args.tiny { Scale::Small } else { Scale::Paper };
    generate_scenario(&tier.scenario_base(TaskKind::Classification, args.seed))
}

/// The stream in due order (the closing `/finalize` is sent separately).
fn build_requests(ds: &CrowdDataset, seed: u64, conns: usize) -> Vec<Req> {
    let mut rng = TensorRng::seed_from_u64(seed ^ 0x5e7e_0b5e);
    let mut requests = Vec::new();
    let mut recent: VecDeque<usize> = VecDeque::new();
    let mut first_conn: HashMap<usize, usize> = HashMap::new();
    let mut seen: Vec<usize> = Vec::new();
    let mut posted = 0usize;
    for (i, inst) in ds.train.iter().enumerate() {
        let conn = i % conns;
        for label in &inst.crowd_labels {
            let body =
                format!(r#"{{"instance": "i{i}", "annotator": "a{}", "class": {}}}"#, label.annotator, label.labels[0]);
            requests.push(Req { route: LABELS, conn, bytes: post("/labels", &body) });
            if let std::collections::hash_map::Entry::Vacant(slot) = first_conn.entry(label.annotator) {
                slot.insert(conn);
                seen.push(label.annotator);
            }
            if recent.back() != Some(&i) {
                recent.push_back(i);
                if recent.len() > 8 {
                    recent.pop_front();
                }
            }
            posted += 1;
            // about 25% / 5% of all requests (labels are about 70%)
            if rng.uniform() < 0.357 {
                let x = recent[rng.usize_below(recent.len())];
                requests.push(Req { route: CONSENSUS, conn: x % conns, bytes: get(&format!("/consensus/i{x}")) });
            }
            if rng.uniform() < 0.0714 {
                let a = seen[rng.usize_below(seen.len())];
                requests.push(Req {
                    route: ANNOTATORS,
                    conn: first_conn[&a],
                    bytes: get(&format!("/annotators/a{a}")),
                });
            }
            if posted.is_multiple_of(50) {
                requests.push(Req {
                    route: ASSIGN,
                    conn: (posted / 50) % conns,
                    bytes: post("/assign", r#"{"limit": 16}"#),
                });
            }
        }
    }
    requests
}

pub fn digest(args: &Args) -> u64 {
    let mut digest = Digest::new();
    let ds = scenario(args);
    digest.dataset(&ds);
    for req in build_requests(&ds, args.seed, connections()) {
        digest.word(req.conn as u64);
        digest.bytes(&req.bytes);
    }
    digest.finish()
}

/// Sends one request and reads one response; returns the status and body.
fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    stream.write_all(raw)?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let mut length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

/// One answered (or failed) request of a socket step.
struct Sample {
    route: usize,
    /// Completion minus due time.
    latency: f64,
    /// Send minus due time.
    lag: f64,
    /// Completion minus send.
    rtt: f64,
    ok: bool,
}

/// Everything one rate step measured.
struct Step {
    rate: f64,
    samples: Vec<Sample>,
    achieved_rps: f64,
    label_posts_ok: u64,
    total_labels: f64,
    refreshed_per_label: f64,
    dirty_backlog: f64,
    finalize_ok: bool,
    consensus_diffs: Vec<f64>,
}

impl Step {
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency * 1e3).collect()
    }

    fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count() + usize::from(!self.finalize_ok)
    }

    /// Median generator lag of the last tenth of the stream minus that of
    /// the first tenth, in ms.
    fn lag_growth_ms(&self) -> f64 {
        let tenth = (self.samples.len() / 10).max(1);
        let lags: Vec<f64> = self.samples.iter().map(|s| s.lag * 1e3).collect();
        median(&lags[lags.len() - tenth..]) - median(&lags[..tenth])
    }

    /// The generator fell behind: its lag grew, or the stream took more
    /// than 1% longer than the schedule.
    fn lag_grows(&self) -> bool {
        self.lag_growth_ms() > LAG_GROWTH_MS || self.achieved_rps < 0.99 * self.rate
    }

    fn passes(&self) -> bool {
        percentile(&self.latencies_ms(), 0.99) <= P99_LIMIT_MS && self.failed() == 0 && !self.lag_grows()
    }
}

/// Drives one connection's share of the stream at `rate`.
fn drive(addr: SocketAddr, share: &[(usize, &Req)], t0: Instant, rate: f64) -> Vec<(usize, Sample)> {
    let mut samples = Vec::with_capacity(share.len());
    let connected = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(s.try_clone()?);
        Ok((s, reader))
    });
    let Ok((mut stream, mut reader)) = connected else {
        return share
            .iter()
            .map(|&(k, r)| (k, Sample { route: r.route, latency: 0.0, lag: 0.0, rtt: 0.0, ok: false }))
            .collect();
    };
    let mut broken = false;
    for &(k, req) in share {
        let due = t0 + Duration::from_secs_f64(k as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let ok = !broken && matches!(roundtrip(&mut stream, &mut reader, &req.bytes), Ok((200, _)));
        broken |= !ok;
        let done = Instant::now();
        samples.push((
            k,
            Sample {
                route: req.route,
                latency: (done - due).as_secs_f64(),
                lag: sent.saturating_duration_since(due).as_secs_f64(),
                rtt: (done - sent).as_secs_f64(),
                ok,
            },
        ));
    }
    samples
}

/// Reads a numeric field of a handler response.
fn field(state: &AppState, path: &str, key: &str) -> f64 {
    state.handle("GET", path, b"").body.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
}

/// The set-up of a rate step: scenario generation, request building and
/// an empty server started.
fn start_server(args: &Args, conns: usize) -> (CrowdDataset, Vec<Req>, Arc<AppState>, Server) {
    let ds = scenario(args);
    let requests = build_requests(&ds, args.seed, conns);
    let state = Arc::new(AppState::new(StreamingConfig::pooled(ds.num_classes)));
    let server = Server::start(Arc::clone(&state), ServerConfig { workers: conns, ..ServerConfig::default() })
        .expect("bind a loopback port");
    (ds, requests, state, server)
}

/// One rate step from an empty server.
fn socket_step(args: &Args, rate: f64, conns: usize, batch: &[Vec<f32>]) -> Step {
    let (ds, requests, state, mut server) = start_server(args, conns);
    let addr = server.addr();
    let shares: Vec<Vec<(usize, &Req)>> =
        (0..conns).map(|c| requests.iter().enumerate().filter(|(_, r)| r.conn == c).collect()).collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut indexed: Vec<(usize, Sample)> = std::thread::scope(|s| {
        let handles: Vec<_> = shares.iter().map(|share| s.spawn(move || drive(addr, share, t0, rate))).collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = secs(t0);
    indexed.sort_by_key(|(k, _)| *k);
    let samples: Vec<Sample> = indexed.into_iter().map(|(_, s)| s).collect();

    let label_posts_ok = samples.iter().filter(|s| s.route == LABELS && s.ok).count() as u64;
    let total_labels = field(&state, "/stats", "total_labels");
    let refreshed_per_label = field(&state, "/stats", "refreshed_instances") / total_labels;
    let dirty_backlog = field(&state, "/stats", "dirty_backlog");

    let t = Instant::now();
    let finalize_ok = TcpStream::connect(addr)
        .and_then(|mut s| {
            let mut reader = BufReader::new(s.try_clone()?);
            roundtrip(&mut s, &mut reader, &post("/finalize", ""))
        })
        .is_ok_and(|(status, _)| status == 200);
    let mut samples = samples;
    samples.push(Sample { route: FINALIZE, latency: secs(t), lag: 0.0, rtt: secs(t), ok: finalize_ok });

    let consensus_diffs = (0..ds.train.len())
        .map(|u| {
            let response = state.handle("GET", &format!("/consensus/i{u}"), b"");
            let posterior: Vec<f64> = response
                .body
                .get("posterior")
                .and_then(|p| p.as_array())
                .map(|p| p.iter().filter_map(|v| v.as_f64()).collect())
                .unwrap_or_default();
            if posterior.len() != batch[u].len() {
                return f64::INFINITY;
            }
            posterior.iter().zip(&batch[u]).map(|(a, &b)| (a - b as f64).abs()).fold(0.0, f64::max)
        })
        .collect();
    server.stop();
    let achieved_rps = samples.len() as f64 / elapsed;
    Step {
        rate,
        samples,
        achieved_rps,
        label_posts_ok,
        total_labels,
        refreshed_per_label,
        dirty_backlog,
        finalize_ok,
        consensus_diffs,
    }
}

fn check_step(out: &mut Outcome, step: &Step) {
    let rate = step.rate;
    for (i, s) in step.samples.iter().enumerate() {
        out.check(s.ok, || format!("{rate} req/s: request {i} ({}) did not answer 200", ROUTES[s.route]));
    }
    out.check(step.label_posts_ok as f64 == step.total_labels, || {
        format!("{rate} req/s: {} label posts succeeded, /stats counts {}", step.label_posts_ok, step.total_labels)
    });
    for (u, &d) in step.consensus_diffs.iter().enumerate() {
        out.check(d <= CONSENSUS_TOL, || format!("{rate} req/s: instance {u} consensus differs from batch DS by {d}"));
    }
}

fn batch_ds(args: &Args) -> Vec<Vec<f32>> {
    DawidSkene::default().infer(&scenario(args).annotation_view()).posteriors
}

fn ladder(args: &Args) -> &'static [f64] {
    if args.tiny {
        &LADDER[..2]
    } else {
        &LADDER
    }
}

fn print_step(step: &Step) {
    let latencies = step.latencies_ms();
    println!(
        "step {} req/s: achieved {:.1} req/s, p50 {:.4} ms, p99 {:.4} ms, {} failed, lag growth {:.3} ms",
        step.rate,
        step.achieved_rps,
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.99),
        step.failed(),
        step.lag_growth_ms()
    );
}

/// Latency at the fixed rate: as many passes as fit in the run time
/// (rounded to the nearest), each from an empty server.  The metrics are
/// medians over the passes, so one disturbed pass does not set them.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let mut out = Outcome::default();
    let conns = connections();
    let batch = batch_ds(args);
    let setup_window = || -> Vec<f64> {
        (0..SETUP_PER_WINDOW)
            .map(|_| {
                let t = Instant::now();
                let (_, _, _, mut server) = start_server(args, conns);
                let elapsed = secs(t);
                server.stop();
                elapsed
            })
            .collect()
    };
    let (mut setup, mut passes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        setup.push(setup_window());
        let step = socket_step(args, LADDER[0], conns, &batch);
        check_step(&mut out, &step);
        print_step(&step);
        passes.push(step.latencies_ms());
        let pass_s = secs(start) / passes.len() as f64;
        if (passes.len() as f64 + 0.5) * pass_s > args.seconds {
            break;
        }
    }
    setup.push(setup_window());
    summarize(&format!("serve_latency_ms@{}", LADDER[0]), &passes.concat(), "ms");
    let per_pass = |q: f64| passes.iter().map(|l| percentile(l, q)).collect::<Vec<_>>();
    summarize("serve_p99_ms (per pass)", &per_pass(0.99), "ms");
    out.timing("latency_ms", &per_pass(0.5), "ms");
    out.setup(&setup);
    out.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
    out
}

fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let conns = connections();
    let start = Instant::now();
    let batch = batch_ds(args);
    let step = socket_step(args, LADDER[0], conns, &batch);
    check_step(&mut out, &step);
    print_step(&step);
    // the highest ladder rate that meets the limits (0 when none does)
    let mut max_rps = if step.passes() { step.rate } else { 0.0 };
    for &rate in &ladder(args)[1..] {
        let rung = socket_step(args, rate, conns, &batch);
        check_step(&mut out, &rung);
        print_step(&rung);
        if rung.passes() {
            max_rps = rate;
        }
    }

    let ds = scenario(args);
    let requests = build_requests(&ds, args.seed, conns);
    let finalize = Req { route: FINALIZE, conn: 0, bytes: post("/finalize", "") };
    let mut handler_us: Vec<Vec<f64>> = vec![Vec::new(); ROUTES.len()];
    let mut parse_us = Vec::new();
    let mut replays = 0;
    while replays == 0 || secs(start) < args.seconds {
        let state = AppState::new(StreamingConfig::pooled(ds.num_classes));
        for req in requests.iter().chain(std::iter::once(&finalize)) {
            let t = Instant::now();
            let parsed = parse_request(&mut BufReader::new(req.bytes.as_slice()));
            parse_us.push(secs(t) * 1e6);
            let Ok(Some(request)) = parsed else {
                out.check(false, || format!("request bytes do not parse: {:?}", String::from_utf8_lossy(&req.bytes)));
                continue;
            };
            let t = Instant::now();
            let response = state.handle(&request.method, &request.path, &request.body);
            handler_us[req.route].push(secs(t) * 1e6);
            out.check(response.status == 200, || {
                format!("handler replay: {} answered {}", ROUTES[req.route], response.status)
            });
        }
        replays += 1;
    }

    for (route, samples) in ROUTES.iter().zip(&handler_us) {
        summarize(&format!("serve.handler.{route}_us"), samples, "us");
        out.metric(format!("serve.handler.{route}_p50_us"), percentile(samples, 0.5), "us");
        out.metric(format!("serve.handler.{route}_p99_us"), percentile(samples, 0.99), "us");
    }
    let parse_p50 = summarize("serve.http.parse_us", &parse_us, "us");
    out.metric("serve.http.parse_us", parse_p50, "us");
    let all_handlers: Vec<f64> = handler_us.concat();
    let rtt_us: Vec<f64> = step.samples.iter().map(|s| s.rtt * 1e6).collect();
    let rtt_p50 = summarize("serve.roundtrip_us@1000", &rtt_us, "us");
    out.metric("serve.transport_us", rtt_p50 - median(&all_handlers) - parse_p50, "us");
    let lags: Vec<f64> = step.samples.iter().map(|s| s.lag * 1e3).collect();
    out.metric("serve.generator_lag_ms", summarize("serve.generator_lag_ms", &lags, "ms"), "ms");
    out.metric("serve.crowd.refreshed_per_label", step.refreshed_per_label, "ratio");
    out.metric("serve.crowd.dirty_backlog", step.dirty_backlog, "count");
    out.metric("serve.p99_ms", percentile(&step.latencies_ms(), 0.99), "ms");
    out.metric("serve_max_rps", max_rps, "1/s");
    out.metric("serve.requests", step.samples.len() as f64, "count");
    out.metric("serve.failed", step.failed() as f64, "count");
    out
}
