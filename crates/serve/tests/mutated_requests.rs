//! Seeded mutation test of the request path: valid `/labels`, `/assign`,
//! `/consensus/<id>`, `/annotators/<id>` and `/finalize` requests are
//! damaged — bytes flipped, the request cut short, JSON fields dropped or
//! duplicated, numbers replaced by `-1`, `1e308` or `2^64` — and every
//! result goes through [`parse_request`] and then [`AppState::handle`], as
//! a worker runs it.  No answer may be a `5xx` (or a panic), the service
//! must stay live, and `/stats` must count exactly the labels the
//! answers accepted.

use lncl_crowd::truth::streaming::StreamingConfig;
use lncl_serve::http::parse_request;
use lncl_serve::routing::PolicyKind;
use lncl_serve::state::AppState;
use lncl_tensor::json::Json;
use lncl_tensor::TensorRng;

/// Numbers a client may send where a small count or class is expected.
const EXTREMES: [&str; 3] = ["-1", "1e308", "18446744073709551616"];

/// One request: method, path and the JSON objects of its body (`None` =
/// no body; several objects = a `{"labels": [...]}` batch).
struct Template {
    method: &'static str,
    path: String,
    objects: Option<Vec<Vec<(String, String)>>>,
}

fn label(rng: &mut TensorRng) -> Vec<(String, String)> {
    vec![
        ("instance".to_string(), format!("\"i{}\"", rng.usize_below(12))),
        ("annotator".to_string(), format!("\"a{}\"", rng.usize_below(6))),
        ("class".to_string(), rng.usize_below(3).to_string()),
    ]
}

/// A valid request of a random route.
fn template(rng: &mut TensorRng) -> Template {
    let (method, path, objects) = match rng.usize_below(6) {
        0 => ("POST", "/labels".to_string(), Some(vec![label(rng)])),
        1 => ("POST", "/labels".to_string(), Some((0..1 + rng.usize_below(3)).map(|_| label(rng)).collect())),
        2 => ("POST", "/assign".to_string(), Some(vec![vec![("limit".to_string(), "4".to_string())]])),
        3 => ("GET", format!("/consensus/i{}", rng.usize_below(12)), None),
        4 => ("GET", format!("/annotators/a{}", rng.usize_below(6)), None),
        _ => ("POST", "/finalize".to_string(), None),
    };
    Template { method, path, objects }
}

fn body(t: &Template) -> String {
    let object = |fields: &[(String, String)]| {
        let members: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", members.join(", "))
    };
    match &t.objects {
        None => String::new(),
        Some(objects) if t.path == "/labels" && objects.len() > 1 => {
            let items: Vec<String> = objects.iter().map(|o| object(o)).collect();
            format!("{{\"labels\": [{}]}}", items.join(", "))
        }
        Some(objects) => object(&objects[0]),
    }
}

fn raw(t: &Template) -> Vec<u8> {
    let body = body(t);
    format!("{} {} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}", t.method, t.path, body.len())
        .into_bytes()
}

/// The template damaged one way, or left valid one time in four.
fn mutated(rng: &mut TensorRng) -> Vec<u8> {
    let mut t = template(rng);
    let extreme = EXTREMES[rng.usize_below(EXTREMES.len())];
    match rng.usize_below(8) {
        0 | 1 => {}
        2 => {
            let mut bytes = raw(&t);
            for _ in 0..1 + rng.usize_below(4) {
                let at = rng.usize_below(bytes.len());
                bytes[at] ^= 1 + rng.usize_below(255) as u8;
            }
            return bytes;
        }
        3 => {
            let mut bytes = raw(&t);
            bytes.truncate(rng.usize_below(bytes.len()));
            return bytes;
        }
        mode => match t.objects.as_mut() {
            Some(objects) => {
                let object = rng.usize_below(objects.len());
                let fields = &mut objects[object];
                let field = rng.usize_below(fields.len());
                match mode {
                    4 => {
                        fields.remove(field);
                    }
                    5 => {
                        let copy = fields[field].clone();
                        fields.insert(rng.usize_below(fields.len() + 1), copy);
                    }
                    6 => {
                        let (key, _) = fields[field].clone();
                        fields.push((key, extreme.to_string()));
                    }
                    _ => fields[field].1 = extreme.to_string(),
                }
            }
            None if t.method == "GET" => {
                let prefix = t.path.rsplit_once('/').map(|(p, _)| p.to_string()).expect("an id route");
                t.path = format!("{prefix}/{extreme}");
            }
            None => t.objects = Some(vec![vec![("limit".to_string(), extreme.to_string())]]),
        },
    }
    raw(&t)
}

fn count(response: &Json, key: &str) -> f64 {
    response.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("{key:?} missing from {response:?}"))
}

#[test]
fn mutated_requests_never_answer_5xx_and_stats_count_only_accepted_labels() {
    for (seed, policy) in
        [(1, PolicyKind::StaticRedundancy), (2, PolicyKind::UncertaintyRouting), (3, PolicyKind::SpamQuarantine)]
    {
        let state = AppState::with_routing(StreamingConfig::pooled(3), policy, None, seed);
        let mut rng = TensorRng::seed_from_u64(seed);
        let (mut accepted, mut answered, mut refused) = (0.0, 0usize, 0usize);
        for _ in 0..3000 {
            let bytes = mutated(&mut rng);
            let status = match parse_request(&mut &bytes[..]) {
                Ok(None) => continue,
                Err(e) => e.status().0,
                Ok(Some(request)) => {
                    let response = state.handle(&request.method, &request.path, &request.body);
                    if request.path == "/labels" && response.status == 200 {
                        accepted += count(&response.body, "accepted");
                    }
                    response.status
                }
            };
            assert!(status < 500, "seed {seed}: {status} for {:?}", String::from_utf8_lossy(&bytes));
            if status < 300 {
                answered += 1;
            } else {
                refused += 1;
            }
        }
        assert!(accepted > 100.0 && answered > 500 && refused > 500, "seed {seed}: {accepted} {answered} {refused}");
        assert_eq!(state.handle("GET", "/healthz", b"").status, 200);
        let stats = state.handle("GET", "/stats", b"");
        assert_eq!(stats.status, 200);
        assert_eq!(count(&stats.body, "total_labels"), accepted, "seed {seed}");
    }
}
