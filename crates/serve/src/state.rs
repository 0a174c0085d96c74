//! Shared service state and route dispatch.
//!
//! [`AppState`] owns the incremental estimator
//! ([`StreamingTruth`]) behind one
//! mutex, plus the interners mapping external string ids (instance and
//! annotator names) to the dense indices the estimator works in.  Route
//! handling is transport-free — [`AppState::handle`] parses the request
//! line into a typed [`Route`] and returns a status + JSON document — so
//! the whole API surface is unit-testable without sockets.
//!
//! The state also routes collection over HTTP: a [`PolicyKind`] (picked
//! by [`AppState::with_routing`]) plans `POST /assign` responses from the
//! live estimates and the per-instance labelled sets that `POST /labels`
//! keeps, and an optional label budget caps ingestion — a `POST /labels`
//! batch that would overspend is refused whole with `409`, mirroring the
//! all-or-nothing validation contract.

use crate::routes::{Route, RouteError};
use crate::routing::{LabelBudget, PolicyKind, RoutingView};
use lncl_crowd::truth::streaming::{StreamingConfig, StreamingTruth};
use lncl_tensor::json::Json;
use lncl_tensor::TensorRng;
use std::collections::HashMap;
use std::sync::Mutex;

/// Default `POST /assign` round size when the request names no `limit`.
pub const DEFAULT_ASSIGN_LIMIT: usize = 16;

/// Salt for the service's assignment RNG stream, so it never coincides
/// with a stream seeded from the same number elsewhere.
const SERVE_RNG_SALT: u64 = 0x5345_5256_4501;

/// A status code plus a JSON body — one API response.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response document.
    pub body: Json,
    /// `Allow` header value accompanying a `405`.
    pub allow: Option<&'static str>,
}

impl ApiResponse {
    fn ok(body: Json) -> Self {
        Self { status: 200, body, allow: None }
    }

    fn error(status: u16, message: impl Into<String>) -> Self {
        Self { status, body: Json::Obj(vec![("error".to_string(), Json::Str(message.into()))]), allow: None }
    }

    fn method_not_allowed(allow: &'static str, method: &str, path: &str) -> Self {
        Self {
            allow: Some(allow),
            ..Self::error(405, format!("{method} is not supported on {path}; allowed: {allow}"))
        }
    }
}

/// Dense interner for external string ids; ids are assigned in first-seen
/// order, so a replayed label stream always produces the same mapping.
#[derive(Debug, Default)]
struct Interner {
    ids: HashMap<String, usize>,
    names: Vec<String>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len();
        self.ids.insert(name.to_string(), id);
        self.names.push(name.to_string());
        id
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.ids.get(name).copied()
    }
}

struct Inner {
    stream: StreamingTruth,
    instances: Interner,
    annotators: Interner,
    /// Per instance id: annotators who already labelled it, arrival order,
    /// no repeats — what `/assign` routes over.
    labeled: Vec<Vec<usize>>,
    policy: PolicyKind,
    budget: Option<LabelBudget>,
    rng: TensorRng,
}

/// The shared state of a running service.
pub struct AppState {
    inner: Mutex<Inner>,
}

/// One validated label from a `POST /labels` body.
struct LabelEntry {
    instance: String,
    annotator: String,
    class: usize,
}

impl AppState {
    /// Creates an empty service over the given estimator configuration,
    /// with the static-redundancy policy and no label budget.
    pub fn new(config: StreamingConfig) -> Self {
        Self::with_routing(config, PolicyKind::StaticRedundancy, None, 0)
    }

    /// Creates an empty service with an explicit assignment policy,
    /// optional label budget (in labels) and assignment-RNG seed.
    pub fn with_routing(config: StreamingConfig, policy: PolicyKind, budget: Option<usize>, seed: u64) -> Self {
        Self {
            inner: Mutex::new(Inner {
                stream: StreamingTruth::new(config),
                instances: Interner::default(),
                annotators: Interner::default(),
                labeled: Vec::new(),
                policy,
                budget: budget.map(LabelBudget::new),
                rng: TensorRng::seed_from_u64(seed ^ SERVE_RNG_SALT),
            }),
        }
    }

    /// Dispatches one request.  Unknown paths get `404`, known paths with
    /// the wrong method `405` (with the `Allow` value in
    /// [`ApiResponse::allow`]); handler-level validation failures are
    /// `400` with an `error` message, over-budget ingestion `409`.
    pub fn handle(&self, method: &str, path: &str, body: &[u8]) -> ApiResponse {
        match Route::parse(method, path) {
            Ok(Route::PostLabels) => self.post_labels(body),
            Ok(Route::PostFinalize) => self.post_finalize(),
            Ok(Route::PostAssign) => self.post_assign(body),
            Ok(Route::GetBudget) => self.get_budget(),
            Ok(Route::GetHealthz) => ApiResponse::ok(Json::Obj(vec![("ok".to_string(), Json::Bool(true))])),
            Ok(Route::GetStats) => self.get_stats(),
            Ok(Route::GetConsensus { instance }) => self.get_consensus(&instance),
            Ok(Route::GetAnnotator { annotator }) => self.get_annotator(&annotator),
            Err(RouteError::NotFound) => ApiResponse::error(404, format!("no route for {path}")),
            Err(RouteError::MethodNotAllowed { allow }) => ApiResponse::method_not_allowed(allow, method, path),
        }
    }

    /// `POST /labels`: one label object or `{"labels": [...]}`.  The batch
    /// is validated in full before anything is ingested (all-or-nothing).
    fn post_labels(&self, body: &[u8]) -> ApiResponse {
        let text = match std::str::from_utf8(body) {
            Ok(text) => text,
            Err(_) => return ApiResponse::error(400, "body is not UTF-8"),
        };
        let doc = match Json::parse(text) {
            Ok(doc) => doc,
            Err(e) => return ApiResponse::error(400, format!("invalid JSON body: {e}")),
        };
        let raw_entries: Vec<&Json> = match doc.get("labels") {
            Some(Json::Arr(items)) => items.iter().collect(),
            Some(_) => return ApiResponse::error(400, "\"labels\" must be an array"),
            None => vec![&doc],
        };
        let mut entries = Vec::with_capacity(raw_entries.len());
        for (i, raw) in raw_entries.iter().enumerate() {
            match parse_label(raw) {
                Ok(entry) => entries.push(entry),
                Err(reason) => return ApiResponse::error(400, format!("label {i}: {reason}")),
            }
        }
        if entries.is_empty() {
            return ApiResponse::error(400, "empty label batch");
        }

        let mut inner = self.lock();
        let num_classes = inner.stream.config().num_classes;
        if let Some(bad) = entries.iter().find(|e| e.class >= num_classes) {
            return ApiResponse::error(400, format!("class {} out of range for {num_classes} classes", bad.class));
        }
        // budget is all-or-nothing like validation: refuse the whole batch
        // rather than ingest a prefix
        if let Some(budget) = inner.budget.as_mut() {
            if budget.spend(entries.len()).is_err() {
                let remaining = budget.remaining();
                return ApiResponse::error(
                    409,
                    format!("label budget exhausted: batch of {} exceeds the {remaining} remaining", entries.len()),
                );
            }
        }
        for entry in &entries {
            let instance = inner.instances.intern(&entry.instance);
            let annotator = inner.annotators.intern(&entry.annotator);
            inner.stream.ingest(instance, annotator, entry.class).expect("class range checked above");
            if inner.labeled.len() <= instance {
                inner.labeled.resize(instance + 1, Vec::new());
            }
            if !inner.labeled[instance].contains(&annotator) {
                inner.labeled[instance].push(annotator);
            }
        }
        ApiResponse::ok(Json::Obj(vec![
            ("accepted".to_string(), Json::Num(entries.len() as f64)),
            ("total_labels".to_string(), Json::Num(inner.stream.total_labels() as f64)),
            ("dirty_backlog".to_string(), Json::Num(inner.stream.dirty_backlog() as f64)),
        ]))
    }

    /// `POST /assign`: plans the next routed assignments from the live
    /// estimates.  Body is optional JSON `{"limit": N}` (default
    /// [`DEFAULT_ASSIGN_LIMIT`]); the plan never exceeds the remaining
    /// label budget.  Candidates for an instance are every annotator the
    /// service has seen that has not labelled it yet (see
    /// [`crate::routing`]).
    fn post_assign(&self, body: &[u8]) -> ApiResponse {
        let mut limit = DEFAULT_ASSIGN_LIMIT;
        if !body.is_empty() {
            let Ok(text) = std::str::from_utf8(body) else {
                return ApiResponse::error(400, "body is not UTF-8");
            };
            let doc = match Json::parse(text) {
                Ok(doc) => doc,
                Err(e) => return ApiResponse::error(400, format!("invalid JSON body: {e}")),
            };
            if let Some(raw) = doc.get("limit") {
                match raw.as_f64() {
                    Some(n) if n >= 1.0 && n.fract() == 0.0 => limit = n as usize,
                    _ => return ApiResponse::error(400, "\"limit\" must be a positive integer"),
                }
            }
        }
        let mut inner = self.lock();
        if let Some(budget) = &inner.budget {
            if budget.is_exhausted() {
                return ApiResponse::error(409, format!("label budget of {} is exhausted", budget.total()));
            }
            limit = limit.min(budget.remaining());
        }
        // drain pending re-estimates so the policy routes on fresh state
        inner.stream.drain_dirty();
        let inner = &mut *inner;
        let view =
            RoutingView { truth: &inner.stream, labeled: &inner.labeled, num_annotators: inner.annotators.names.len() };
        let planned = inner.policy.plan(&view, limit, &mut inner.rng);
        let assignments: Vec<Json> = planned
            .iter()
            .map(|a| {
                Json::Obj(vec![
                    ("instance".to_string(), Json::Str(inner.instances.names[a.instance].clone())),
                    ("annotator".to_string(), Json::Str(inner.annotators.names[a.annotator].clone())),
                ])
            })
            .collect();
        ApiResponse::ok(Json::Obj(vec![
            ("policy".to_string(), Json::Str(inner.policy.name().to_string())),
            ("planned".to_string(), Json::Num(assignments.len() as f64)),
            ("assignments".to_string(), Json::Arr(assignments)),
        ]))
    }

    /// `GET /budget`: the active policy plus label-budget accounting
    /// (`total`/`remaining` are `null` when the service is unbudgeted;
    /// `spent` always equals the ingested label count).
    fn get_budget(&self) -> ApiResponse {
        let inner = self.lock();
        let num = |n: usize| Json::Num(n as f64);
        let (total, remaining, exhausted) = match &inner.budget {
            Some(b) => (num(b.total()), num(b.remaining()), b.is_exhausted()),
            None => (Json::Null, Json::Null, false),
        };
        ApiResponse::ok(Json::Obj(vec![
            ("policy".to_string(), Json::Str(inner.policy.name().to_string())),
            ("total".to_string(), total),
            ("spent".to_string(), Json::Num(inner.stream.total_labels() as f64)),
            ("remaining".to_string(), remaining),
            ("exhausted".to_string(), Json::Bool(exhausted)),
        ]))
    }

    /// `POST /finalize`: full batch EM over everything ingested so far.
    fn post_finalize(&self) -> ApiResponse {
        let mut inner = self.lock();
        let iterations = inner.stream.finalize();
        ApiResponse::ok(Json::Obj(vec![
            ("iterations".to_string(), Json::Num(iterations as f64)),
            ("instances".to_string(), Json::Num(inner.stream.num_instances() as f64)),
        ]))
    }

    /// `GET /consensus/<instance>`.
    fn get_consensus(&self, id: &str) -> ApiResponse {
        let inner = self.lock();
        let Some(consensus) = inner.instances.lookup(id).and_then(|u| inner.stream.consensus(u)) else {
            return ApiResponse::error(404, format!("unknown instance {id:?}"));
        };
        ApiResponse::ok(Json::Obj(vec![
            ("instance".to_string(), Json::Str(id.to_string())),
            ("posterior".to_string(), Json::Arr(consensus.posterior.iter().map(|&p| Json::Num(p as f64)).collect())),
            ("hard_class".to_string(), Json::Num(consensus.hard as f64)),
            ("entropy".to_string(), Json::Num(consensus.entropy as f64)),
            ("labels".to_string(), Json::Num(consensus.labels as f64)),
        ]))
    }

    /// `GET /annotators/<id>`.
    fn get_annotator(&self, id: &str) -> ApiResponse {
        let inner = self.lock();
        let Some(stat) = inner.annotators.lookup(id).and_then(|a| inner.stream.annotator(a)) else {
            return ApiResponse::error(404, format!("unknown annotator {id:?}"));
        };
        let confusion = Json::Arr(
            (0..stat.confusion.rows())
                .map(|r| Json::Arr(stat.confusion.row(r).iter().map(|&v| Json::Num(v as f64)).collect()))
                .collect(),
        );
        ApiResponse::ok(Json::Obj(vec![
            ("annotator".to_string(), Json::Str(id.to_string())),
            ("reliability".to_string(), Json::Num(stat.reliability as f64)),
            ("labels".to_string(), Json::Num(stat.labels as f64)),
            ("confusion".to_string(), confusion),
        ]))
    }

    /// `GET /stats`.
    fn get_stats(&self) -> ApiResponse {
        let inner = self.lock();
        let config = inner.stream.config();
        let mode = if config.window.is_some() { "windowed" } else { "pooled" };
        ApiResponse::ok(Json::Obj(vec![
            ("instances".to_string(), Json::Num(inner.stream.num_instances() as f64)),
            ("annotators".to_string(), Json::Num(inner.stream.num_annotators() as f64)),
            ("total_labels".to_string(), Json::Num(inner.stream.total_labels() as f64)),
            ("dirty_backlog".to_string(), Json::Num(inner.stream.dirty_backlog() as f64)),
            ("refreshed_instances".to_string(), Json::Num(inner.stream.refreshed_instances() as f64)),
            ("num_classes".to_string(), Json::Num(config.num_classes as f64)),
            ("mode".to_string(), Json::Str(mode.to_string())),
        ]))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // a worker that panicked mid-request must not take the service
        // down with it: the estimator mutates through &mut self only after
        // validation, so the state is still usable
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

fn parse_label(raw: &Json) -> Result<LabelEntry, String> {
    let field = |key: &str| raw.get(key).ok_or_else(|| format!("missing {key:?}"));
    let text = |key: &str| field(key)?.as_str().map(str::to_string).ok_or_else(|| format!("{key:?} must be a string"));
    let instance = text("instance")?;
    let annotator = text("annotator")?;
    if instance.is_empty() || annotator.is_empty() {
        return Err("instance and annotator ids must be non-empty".to_string());
    }
    let class = field("class")?.as_f64().ok_or("\"class\" must be a number")?;
    if class < 0.0 || class.fract() != 0.0 {
        return Err(format!("\"class\" must be a non-negative integer, got {class}"));
    }
    Ok(LabelEntry { instance, annotator, class: class as usize })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(state: &AppState, path: &str, body: &str) -> ApiResponse {
        state.handle("POST", path, body.as_bytes())
    }

    #[test]
    fn healthz_and_stats_respond() {
        let state = AppState::new(StreamingConfig::pooled(2));
        assert_eq!(state.handle("GET", "/healthz", b"").status, 200);
        let stats = state.handle("GET", "/stats", b"");
        assert_eq!(stats.status, 200);
        assert_eq!(stats.body.get("mode").and_then(Json::as_str), Some("pooled"));
        assert_eq!(stats.body.get("total_labels").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn single_and_batch_labels_are_ingested() {
        let state = AppState::new(StreamingConfig::pooled(2));
        let single = post(&state, "/labels", r#"{"instance": "i0", "annotator": "ann", "class": 1}"#);
        assert_eq!(single.status, 200, "{:?}", single.body);
        assert_eq!(single.body.get("accepted").and_then(Json::as_f64), Some(1.0));
        let batch = post(
            &state,
            "/labels",
            r#"{"labels": [
                {"instance": "i0", "annotator": "b", "class": 1},
                {"instance": "i1", "annotator": "b", "class": 0}
            ]}"#,
        );
        assert_eq!(batch.status, 200);
        assert_eq!(batch.body.get("total_labels").and_then(Json::as_f64), Some(3.0));
        let consensus = state.handle("GET", "/consensus/i0", b"");
        assert_eq!(consensus.status, 200);
        assert_eq!(consensus.body.get("labels").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn invalid_label_bodies_are_rejected_without_partial_ingest() {
        let state = AppState::new(StreamingConfig::pooled(2));
        for (body, fragment) in [
            ("not json", "invalid JSON"),
            (r#"{"labels": 3}"#, "must be an array"),
            (r#"{"labels": []}"#, "empty label batch"),
            (r#"{"instance": "i", "annotator": "a"}"#, "missing \"class\""),
            (r#"{"instance": "i", "annotator": "a", "class": 1.5}"#, "non-negative integer"),
            (r#"{"instance": "i", "annotator": "a", "class": 9}"#, "out of range"),
            (r#"{"instance": "", "annotator": "a", "class": 0}"#, "non-empty"),
            (
                r#"{"labels": [
                    {"instance": "i", "annotator": "a", "class": 0},
                    {"instance": "i", "annotator": "b", "class": 7}
                ]}"#,
                "out of range",
            ),
        ] {
            let response = post(&state, "/labels", body);
            assert_eq!(response.status, 400, "{body}");
            let message = response.body.get("error").and_then(Json::as_str).unwrap();
            assert!(message.contains(fragment), "{body}: {message}");
        }
        let stats = state.handle("GET", "/stats", b"");
        assert_eq!(stats.body.get("total_labels").and_then(Json::as_f64), Some(0.0), "all-or-nothing");
    }

    #[test]
    fn unknown_ids_are_404() {
        let state = AppState::new(StreamingConfig::pooled(2));
        assert_eq!(state.handle("GET", "/consensus/ghost", b"").status, 404);
        assert_eq!(state.handle("GET", "/annotators/ghost", b"").status, 404);
    }

    #[test]
    fn unknown_routes_and_wrong_methods() {
        let state = AppState::new(StreamingConfig::pooled(2));
        assert_eq!(state.handle("GET", "/nope", b"").status, 404);
        assert_eq!(state.handle("GET", "/consensus/", b"").status, 404);
        let delete = state.handle("DELETE", "/labels", b"");
        assert_eq!((delete.status, delete.allow), (405, Some("POST")));
        let post = state.handle("POST", "/consensus/i0", b"");
        assert_eq!((post.status, post.allow), (405, Some("GET")));
        let health = state.handle("POST", "/healthz", b"");
        assert_eq!((health.status, health.allow), (405, Some("GET")));
        assert_eq!(state.handle("GET", "/healthz", b"").allow, None, "2xx carries no Allow");
    }

    #[test]
    fn budget_reports_and_enforces_the_label_ceiling() {
        let state = AppState::with_routing(StreamingConfig::pooled(2), PolicyKind::StaticRedundancy, Some(2), 7);
        let budget = state.handle("GET", "/budget", b"");
        assert_eq!(budget.status, 200);
        assert_eq!(budget.body.get("policy").and_then(Json::as_str), Some("static-redundancy"));
        assert_eq!(budget.body.get("total").and_then(Json::as_f64), Some(2.0));
        assert_eq!(budget.body.get("spent").and_then(Json::as_f64), Some(0.0));

        // a batch of 3 overspends a 2-label budget: refused whole
        let over = post(
            &state,
            "/labels",
            r#"{"labels": [
                {"instance": "i0", "annotator": "a", "class": 0},
                {"instance": "i1", "annotator": "a", "class": 1},
                {"instance": "i2", "annotator": "a", "class": 0}
            ]}"#,
        );
        assert_eq!(over.status, 409, "{:?}", over.body);
        let stats = state.handle("GET", "/stats", b"");
        assert_eq!(stats.body.get("total_labels").and_then(Json::as_f64), Some(0.0), "all-or-nothing");

        assert_eq!(post(&state, "/labels", r#"{"instance": "i0", "annotator": "a", "class": 0}"#).status, 200);
        assert_eq!(post(&state, "/labels", r#"{"instance": "i0", "annotator": "b", "class": 0}"#).status, 200);
        let exhausted = state.handle("GET", "/budget", b"");
        assert_eq!(exhausted.body.get("remaining").and_then(Json::as_f64), Some(0.0));
        assert_eq!(exhausted.body.get("exhausted"), Some(&Json::Bool(true)));
        assert_eq!(post(&state, "/labels", r#"{"instance": "i1", "annotator": "a", "class": 1}"#).status, 409);
        assert_eq!(post(&state, "/assign", "{}").status, 409, "assign refuses once exhausted");
    }

    #[test]
    fn unbudgeted_budget_is_null_and_never_exhausted() {
        let state = AppState::new(StreamingConfig::pooled(2));
        let budget = state.handle("GET", "/budget", b"");
        assert_eq!(budget.body.get("total"), Some(&Json::Null));
        assert_eq!(budget.body.get("remaining"), Some(&Json::Null));
        assert_eq!(budget.body.get("exhausted"), Some(&Json::Bool(false)));
    }

    #[test]
    fn assign_plans_only_unlabeled_pairs_and_honours_limit() {
        let state = AppState::new(StreamingConfig::pooled(2));
        for (instance, annotator) in [("i0", "a0"), ("i0", "a1"), ("i1", "a0")] {
            let body = format!(r#"{{"instance": "{instance}", "annotator": "{annotator}", "class": 0}}"#);
            assert_eq!(post(&state, "/labels", &body).status, 200);
        }
        let assign = post(&state, "/assign", r#"{"limit": 8}"#);
        assert_eq!(assign.status, 200, "{:?}", assign.body);
        assert_eq!(assign.body.get("policy").and_then(Json::as_str), Some("static-redundancy"));
        let assignments = assign.body.get("assignments").and_then(Json::as_array).unwrap();
        assert_eq!(assign.body.get("planned").and_then(Json::as_f64), Some(assignments.len() as f64));
        // the only instance at the shallowest depth is i1 (1 label vs 2);
        // its sole open candidate is a1
        assert_eq!(assignments.len(), 1, "{assignments:?}");
        assert_eq!(assignments[0].get("instance").and_then(Json::as_str), Some("i1"));
        assert_eq!(assignments[0].get("annotator").and_then(Json::as_str), Some("a1"));

        let capped = post(&state, "/assign", r#"{"limit": 1}"#);
        assert_eq!(capped.body.get("planned").and_then(Json::as_f64), Some(1.0));
        assert_eq!(post(&state, "/assign", r#"{"limit": 0}"#).status, 400);
        assert_eq!(post(&state, "/assign", r#"{"limit": 1.5}"#).status, 400);
        assert_eq!(post(&state, "/assign", "not json").status, 400);
        assert_eq!(post(&state, "/assign", "").status, 200, "empty body uses the default limit");
    }

    #[test]
    fn assign_round_trips_into_labels_until_coverage() {
        let state = AppState::with_routing(StreamingConfig::pooled(2), PolicyKind::UncertaintyRouting, None, 11);
        for (instance, annotator, class) in [("i0", "a0", 0), ("i1", "a1", 1)] {
            let body = format!(r#"{{"instance": "{instance}", "annotator": "{annotator}", "class": {class}}}"#);
            assert_eq!(post(&state, "/labels", &body).status, 200);
        }
        // follow the planner for a few rounds, answering every assignment
        for _ in 0..4 {
            let assign = post(&state, "/assign", "");
            assert_eq!(assign.status, 200);
            for planned in assign.body.get("assignments").and_then(Json::as_array).unwrap() {
                let instance = planned.get("instance").and_then(Json::as_str).unwrap();
                let annotator = planned.get("annotator").and_then(Json::as_str).unwrap();
                let body = format!(r#"{{"instance": "{instance}", "annotator": "{annotator}", "class": 0}}"#);
                assert_eq!(post(&state, "/labels", &body).status, 200);
            }
        }
        // every (instance, annotator) pair is covered at most once: 2
        // instances x 2 annotators bounds the label count
        let stats = state.handle("GET", "/stats", b"");
        assert!(stats.body.get("total_labels").and_then(Json::as_f64).unwrap() <= 4.0);
    }

    /// Feeds a seeded, shuffled label stream of a spam-mix scenario through
    /// [`AppState::handle`], asks `/assign` every 25 labels (limits cycling
    /// past the policies' round cap) and hashes every rendered answer.
    fn assign_stream_digest(policy: PolicyKind) -> u64 {
        use lncl_crowd::scenario::{generate_scenario, Archetype, ScenarioConfig};
        let config = ScenarioConfig::classification("assign-pin")
            .with_sizes(200, 10, 10)
            .with_annotators(12)
            .with_mix(vec![(Archetype::reliable(), 0.6), (Archetype::Spammer, 0.4)])
            .with_seed(53);
        let dataset = generate_scenario(&config);
        let mut labels: Vec<(usize, usize, usize)> = dataset
            .train
            .iter()
            .enumerate()
            .flat_map(|(u, instance)| instance.crowd_labels.iter().map(move |cl| (u, cl.annotator, cl.labels[0])))
            .collect();
        TensorRng::seed_from_u64(5).shuffle(&mut labels);
        let state = AppState::with_routing(StreamingConfig::pooled(dataset.num_classes), policy, None, 19);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let (mut calls, mut planned) = (0usize, 0usize);
        for (n, &(u, a, class)) in labels.iter().enumerate() {
            let body = format!(r#"{{"instance": "i{u}", "annotator": "a{a}", "class": {class}}}"#);
            assert_eq!(post(&state, "/labels", &body).status, 200);
            if (n + 1) % 25 == 0 || n + 1 == labels.len() {
                let limit = 1 + (calls * 7) % 48;
                calls += 1;
                let assign = post(&state, "/assign", &format!(r#"{{"limit": {limit}}}"#));
                assert_eq!(assign.status, 200, "{:?}", assign.body);
                planned += assign.body.get("planned").and_then(Json::as_f64).unwrap() as usize;
                for byte in format!("{} {}\n", assign.status, assign.body.render()).bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert!(planned > 400, "{} planned only {planned} assignments in {calls} calls", policy.name());
        hash
    }

    #[test]
    fn assign_answers_over_a_seeded_stream_are_pinned() {
        let digests = PolicyKind::ALL.map(assign_stream_digest);
        assert_eq!(digests, [0x3ea5_5033_d891_f277, 0x003d_9a70_d51d_c5d6, 0x0be3_3b6b_25da_1530], "{digests:x?}");
    }

    #[test]
    fn finalize_reports_iterations_and_sharpens_consensus() {
        let state = AppState::new(StreamingConfig::pooled(2));
        for u in 0..20 {
            for a in 0..3 {
                let body = format!(r#"{{"instance": "i{u}", "annotator": "a{a}", "class": {}}}"#, u % 2);
                assert_eq!(post(&state, "/labels", &body).status, 200);
            }
        }
        let finalize = post(&state, "/finalize", "");
        assert_eq!(finalize.status, 200);
        assert!(finalize.body.get("iterations").and_then(Json::as_f64).unwrap() >= 1.0);
        let consensus = state.handle("GET", "/consensus/i1", b"");
        let posterior = consensus.body.get("posterior").and_then(Json::as_array).unwrap();
        assert!(posterior[1].as_f64().unwrap() > 0.9, "unanimous labels should dominate: {posterior:?}");
        let annotator = state.handle("GET", "/annotators/a0", b"");
        assert_eq!(annotator.status, 200);
        assert!(annotator.body.get("reliability").and_then(Json::as_f64).unwrap() > 0.5);
    }
}
