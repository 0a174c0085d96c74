//! End-to-end tests over real loopback sockets: the label → consensus
//! flow, the closed-loop assign → label → consensus round under a budget,
//! the HTTP robustness contract (malformed input answers 4xx and
//! never kills the accept loop, however deeply a JSON body nests; a 405
//! carries its `Allow` header) and
//! concurrent-ingest determinism (the same label multiset, any arrival
//! interleaving, any connection assignment → the same finalized
//! consensus).

use lncl_crowd::scenario::router::PolicyKind;
use lncl_crowd::truth::streaming::StreamingConfig;
use lncl_serve::server::{Server, ServerConfig};
use lncl_serve::state::AppState;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn start_server() -> Server {
    let state = Arc::new(AppState::new(StreamingConfig::pooled(2)));
    Server::start(state, ServerConfig::default()).expect("bind loopback")
}

/// Sends raw bytes on a fresh connection and returns (status, headers, body).
fn raw_request_with_headers(addr: SocketAddr, raw: &[u8]) -> (u16, Vec<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(raw).expect("write");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let mut content_length = 0usize;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        if line.trim_end().is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("length");
        }
        headers.push(line.trim_end().to_string());
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, headers, String::from_utf8(body).expect("utf8 body"))
}

/// Sends raw bytes on a fresh connection and returns (status, body).
fn raw_request(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let (status, _, body) = raw_request_with_headers(addr, raw);
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    raw_request(addr, format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    raw_request(
        addr,
        format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}", body.len()).as_bytes(),
    )
}

#[test]
fn label_to_consensus_flow_over_sockets() {
    let server = start_server();
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");

    // three annotators agree on class 1 for i0, class 0 for i1
    for a in 0..3 {
        let (status, body) =
            post(addr, "/labels", &format!(r#"{{"instance": "i0", "annotator": "a{a}", "class": 1}}"#));
        assert_eq!(status, 200, "{body}");
        let (status, body) =
            post(addr, "/labels", &format!(r#"{{"instance": "i1", "annotator": "a{a}", "class": 0}}"#));
        assert_eq!(status, 200, "{body}");
    }
    let (status, body) = post(addr, "/finalize", "");
    assert_eq!(status, 200, "{body}");

    let (status, body) = get(addr, "/consensus/i0");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"hard_class\": 1"), "{body}");
    let (status, body) = get(addr, "/consensus/i1");
    assert_eq!(status, 200);
    assert!(body.contains("\"hard_class\": 0"), "{body}");

    let (status, body) = get(addr, "/annotators/a0");
    assert_eq!(status, 200);
    assert!(body.contains("\"reliability\""), "{body}");
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"total_labels\": 6"), "{body}");
}

#[test]
fn closed_loop_assign_label_consensus_round_under_budget() {
    // a quarantine-policy server with a finite budget: seed labels, then
    // follow /assign plans until the budget runs dry, checking the
    // accounting at every step
    let state = Arc::new(AppState::with_routing(StreamingConfig::pooled(2), PolicyKind::SpamQuarantine, Some(12), 3));
    let server = Server::start(state, ServerConfig::default()).expect("bind loopback");
    let addr = server.addr();

    // seed: 4 of 12 labels introduce 4 instances and 3 annotators, leaving
    // exactly 8 open (instance, annotator) pairs for the 8 remaining labels
    for (instance, annotator, class) in [("i0", "a0", 1), ("i1", "a0", 0), ("i2", "a1", 0), ("i3", "a2", 1)] {
        let (status, body) = post(
            addr,
            "/labels",
            &format!(r#"{{"instance": "{instance}", "annotator": "{annotator}", "class": {class}}}"#),
        );
        assert_eq!(status, 200, "{body}");
    }
    let (status, body) = get(addr, "/budget");
    assert_eq!(status, 200);
    assert!(body.contains("\"policy\": \"spam-quarantine\""), "{body}");
    assert!(body.contains("\"spent\": 4"), "{body}");
    assert!(body.contains("\"remaining\": 8"), "{body}");

    // closed loop: answer every planned assignment with a label until the
    // planner reports exhaustion
    let mut answered = 0usize;
    loop {
        let (status, body) = post(addr, "/assign", r#"{"limit": 3}"#);
        if status == 409 {
            break;
        }
        assert_eq!(status, 200, "{body}");
        let mut planned = 0usize;
        for part in body.split("\"instance\": \"").skip(1) {
            let instance = part.split('"').next().unwrap();
            let annotator = part.split("\"annotator\": \"").nth(1).unwrap().split('"').next().unwrap();
            let (status, response) = post(
                addr,
                "/labels",
                &format!(r#"{{"instance": "{instance}", "annotator": "{annotator}", "class": 1}}"#),
            );
            assert_eq!(status, 200, "{response}");
            planned += 1;
            answered += 1;
        }
        if planned == 0 {
            break; // nothing left to route (full coverage before budget ran out)
        }
        assert!(answered <= 8, "planner overspent the budget");
    }
    assert_eq!(answered, 8, "the loop should spend the budget exactly");

    let (status, body) = get(addr, "/budget");
    assert_eq!(status, 200);
    assert!(body.contains("\"exhausted\": true"), "{body}");
    // the consensus for the doubly-confirmed instance is queryable
    let (status, body) = get(addr, "/consensus/i0");
    assert_eq!(status, 200);
    assert!(body.contains("\"hard_class\": 1"), "{body}");
}

#[test]
fn method_not_allowed_carries_the_allow_header() {
    let server = start_server();
    let (status, headers, body) =
        raw_request_with_headers(server.addr(), b"DELETE /labels HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 405, "{body}");
    assert!(headers.iter().any(|h| h == "Allow: POST"), "missing Allow header: {headers:?}");
    let (status, headers, _) =
        raw_request_with_headers(server.addr(), b"POST /stats HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 405);
    assert!(headers.iter().any(|h| h == "Allow: GET"), "{headers:?}");
}

#[test]
fn malformed_requests_answer_4xx_and_do_not_kill_the_server() {
    let server = start_server();
    let addr = server.addr();

    let cases: Vec<(&str, Vec<u8>, u16)> = vec![
        ("garbage request line", b"GARBAGE\r\n\r\n".to_vec(), 400),
        ("two-token request line", b"GET /healthz\r\n\r\n".to_vec(), 400),
        ("relative target", b"GET healthz HTTP/1.1\r\n\r\n".to_vec(), 400),
        ("bad content-length", b"POST /labels HTTP/1.1\r\nContent-Length: ten\r\n\r\n".to_vec(), 400),
        (
            "conflicting duplicate content-lengths",
            b"POST /labels HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd".to_vec(),
            400,
        ),
        (
            "oversized body",
            format!("POST /labels HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 2 * 1024 * 1024).into_bytes(),
            413,
        ),
        (
            "oversized head",
            format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "x".repeat(9000)).into_bytes(),
            431,
        ),
        ("unknown route", b"GET /nope HTTP/1.1\r\n\r\n".to_vec(), 404),
        ("wrong method", b"DELETE /labels HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec(), 405),
        (
            "invalid json",
            b"POST /labels HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json".to_vec(),
            400,
        ),
        (
            "out-of-range class",
            b"POST /labels HTTP/1.1\r\nContent-Length: 48\r\n\r\n{\"instance\": \"i\", \"annotator\": \"a\", \"class\": 7}\n".to_vec(),
            400,
        ),
    ];
    for (name, raw, expected) in cases {
        let (status, body) = raw_request(addr, &raw);
        assert_eq!(status, expected, "{name}: {body}");
        assert!(body.contains("\"error\""), "{name}: {body}");
        // the accept loop must still be alive after every abuse
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200, "server died after {name}");
    }
}

#[test]
fn deeply_nested_json_bodies_answer_400() {
    let server = start_server();
    let addr = server.addr();
    // far past the parser's nesting cap: must be a 400, not a stack
    // overflow that aborts the whole process
    let body = "[".repeat(500_000);
    for path in ["/labels", "/assign"] {
        let (status, response) = post(addr, path, &body);
        assert_eq!(status, 400, "{path}: {response}");
        assert!(response.contains("\"error\""), "{path}: {response}");
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200, "server died after a nested {path} body");
    }
}

#[test]
fn concurrent_interleaved_ingest_is_deterministic() {
    // The same label multiset, pushed through 4 concurrent connections with
    // two different label-to-connection assignments: after finalize, both
    // servers report identical consensus documents.  A deterministic
    // warm-up batch pins the (first-seen-order) id interning first — the
    // determinism contract is over a fixed id assignment, which is what a
    // real deployment's stable external ids map to.
    let labels: Vec<(String, String, usize)> = (0..60)
        .flat_map(|u| {
            (0..4).map(move |a| {
                let noisy = (u + a) % 7 == 0; // deterministic disagreement
                (format!("i{u}"), format!("a{a}"), if noisy { (u + 1) % 2 } else { u % 2 })
            })
        })
        .collect();
    // one label per (instance, one annotator) in fixed order registers
    // every id before the concurrent phase
    let warmup: Vec<String> = labels
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 4 == (i / 4) % 4)
        .map(|(_, (instance, annotator, class))| {
            format!(r#"{{"instance": "{instance}", "annotator": "{annotator}", "class": {class}}}"#)
        })
        .collect();
    let warmup_body = format!("{{\"labels\": [{}]}}", warmup.join(", "));

    let mut snapshots = Vec::new();
    for split in 0..2usize {
        let server = start_server();
        let addr = server.addr();
        let (status, body) = post(addr, "/labels", &warmup_body);
        assert_eq!(status, 200, "{body}");
        std::thread::scope(|scope| {
            for conn in 0..4usize {
                let labels = &labels;
                scope.spawn(move || {
                    for (i, (instance, annotator, class)) in labels.iter().enumerate() {
                        if i % 4 == (i / 4) % 4 {
                            continue; // already sent in the warm-up batch
                        }
                        // different splits shard the same labels differently
                        if (i + split * 2) % 4 != conn {
                            continue;
                        }
                        let body =
                            format!(r#"{{"instance": "{instance}", "annotator": "{annotator}", "class": {class}}}"#);
                        let (status, response) = post(addr, "/labels", &body);
                        assert_eq!(status, 200, "{response}");
                    }
                });
            }
        });
        let (status, body) = post(addr, "/finalize", "");
        assert_eq!(status, 200, "{body}");
        let consensus: Vec<String> = (0..60).map(|u| get(addr, &format!("/consensus/i{u}")).1).collect();
        snapshots.push(consensus);
    }
    assert_eq!(snapshots[0], snapshots[1], "arrival interleaving changed the finalized consensus");
}
