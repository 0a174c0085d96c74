//! `POST /assign` routing: the three assignment policies, the label budget
//! and the view of the service state they plan from.
//!
//! A policy plans the next batch of assignments from a routing view:
//! the live [`StreamingTruth`] estimates plus, per instance, the annotators
//! who already labelled it.  An instance is **open** while it has fewer
//! labels than the service has seen annotators; its **candidates** are the
//! seen annotators not in its labelled set, in ascending id order.  Nothing
//! is built per call: only the instances a policy picks enumerate their
//! candidates, so a plan's cost does not grow with the annotator count.
//!
//! Every policy is deterministic given the service's assignment RNG — no
//! clocks, no global state.

use lncl_crowd::sampling::pick_weighted;
use lncl_crowd::truth::streaming::StreamingTruth;
use lncl_tensor::TensorRng;

/// `uncertainty-routing` stops asking for an instance once its posterior
/// entropy (nats) is at or below this.
const ENTROPY_STOP: f32 = 0.20;
/// `uncertainty-routing`'s per-instance label cap, uncertainty
/// notwithstanding.
const MAX_PER_INSTANCE: usize = 8;
/// Largest round the two adaptive policies plan: smaller rounds mean the
/// estimates they score on are refreshed more often.
const ROUND_SIZE: usize = 32;
/// `spam-quarantine`'s selection weight floor, so a suspected spammer stays
/// reachable.
const QUARANTINE_FLOOR: f32 = 0.02;
/// `spam-quarantine`'s selection weight of an annotator with no labels yet:
/// the quarantine is earned, not assumed.
const EXPLORATION_WEIGHT: f32 = 0.25;

/// One assignment request: annotator `annotator` labels instance
/// `instance` (both dense service ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Assignment {
    /// Instance id.
    pub(crate) instance: usize,
    /// Annotator id.
    pub(crate) annotator: usize,
}

/// Explicit label-budget accounting: `total` may never be exceeded and
/// every collected label costs exactly one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LabelBudget {
    total: usize,
    spent: usize,
}

impl LabelBudget {
    /// A fresh budget of `total` labels.
    pub(crate) fn new(total: usize) -> Self {
        Self { total, spent: 0 }
    }

    /// The budget ceiling.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// Labels still available.
    pub(crate) fn remaining(&self) -> usize {
        self.total - self.spent
    }

    /// True once nothing is left to spend.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.spent >= self.total
    }

    /// Spends `count` labels; overspending is an error and spends nothing.
    pub(crate) fn spend(&mut self, count: usize) -> Result<(), String> {
        if count > self.remaining() {
            return Err(format!("cannot spend {count} labels: {} of {} remaining", self.remaining(), self.total));
        }
        self.spent += count;
        Ok(())
    }
}

/// The live state a policy routes on.  Instance `i` is also the
/// estimator's unit `i` (one unit per instance).
pub(crate) struct RoutingView<'a> {
    /// The incremental estimator (posteriors, entropies, annotator stats).
    pub(crate) truth: &'a StreamingTruth,
    /// Per instance id: the annotators who already labelled it, without
    /// repeats.
    pub(crate) labeled: &'a [Vec<usize>],
    /// Annotators seen so far; their ids are `0..num_annotators`.
    pub(crate) num_annotators: usize,
}

impl RoutingView<'_> {
    /// Labels collected for `instance`.
    fn collected(&self, instance: usize) -> usize {
        self.labeled[instance].len()
    }

    /// True while some seen annotator has not labelled `instance`.
    fn is_open(&self, instance: usize) -> bool {
        self.collected(instance) < self.num_annotators
    }

    /// The seen annotators who have not labelled `instance`, ascending.
    fn candidates(&self, instance: usize) -> impl Iterator<Item = usize> + '_ {
        let labeled = &self.labeled[instance];
        (0..self.num_annotators).filter(move |a| !labeled.contains(a))
    }

    /// The open instances at the smallest label count, in id order: the
    /// next redundancy level of a breadth-first collection.
    fn shallowest_open(&self) -> impl Iterator<Item = usize> + '_ {
        let open = (0..self.labeled.len()).filter(|&i| self.is_open(i));
        let depth = open.clone().map(|i| self.collected(i)).min();
        open.filter(move |&i| Some(self.collected(i)) == depth)
    }

    /// Posterior entropy of `instance`; maximal (`ln K`) while the
    /// estimator has no consensus for it.
    fn entropy(&self, instance: usize) -> f32 {
        let max_entropy = (self.truth.config().num_classes as f32).ln();
        self.truth.consensus(instance).map_or(max_entropy, |c| c.entropy)
    }

    /// Estimated probability of a correct label from `annotator`
    /// (chance level `1/K` before any of their labels arrived).
    fn reliability(&self, annotator: usize) -> f32 {
        let k = self.truth.config().num_classes;
        self.truth.annotator(annotator).map_or(1.0 / k as f32, |s| s.reliability)
    }

    /// How far `annotator`'s live confusion estimate is from the uniform
    /// (spammer) matrix, normalised to `[0, 1]`: `0` = perfectly uniform,
    /// `1` = deterministic rows; `None` before any of their labels arrived.
    fn spam_distance(&self, annotator: usize) -> Option<f32> {
        let stat = self.truth.annotator(annotator)?;
        let k = stat.confusion.rows();
        let uniform = 1.0 / k as f32;
        let mut deviation = 0.0f32;
        for r in 0..k {
            for &p in stat.confusion.row(r) {
                deviation += (p - uniform).abs();
            }
        }
        let mean = deviation / (k * k) as f32;
        // a deterministic row deviates by 2 (K - 1) / K in total, i.e.
        // 2 (K - 1) / K^2 on average — the normaliser to [0, 1]
        Some((mean * (k * k) as f32 / (2.0 * (k as f32 - 1.0))).clamp(0.0, 1.0))
    }
}

/// The built-in assignment policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The control: breadth-first coverage.  Every open instance reaches
    /// label count `d` before any starts `d + 1`, in instance order, each
    /// asking its lowest-id candidate.
    StaticRedundancy,
    /// Spend labels where the posterior is still uncertain: most uncertain
    /// instance first (ties by id), each routed to its most reliable
    /// candidate (ties by id).  An instance is retired once its entropy
    /// falls to 0.20 nats or it holds 8 labels.
    /// Greedy by design: an instance whose early labels agree (say, two
    /// colluding spammers) can be retired confidently wrong.
    UncertaintyRouting,
    /// Breadth-first coverage like the control, but each slot is drawn
    /// through [`pick_weighted`], weighting a candidate by the squared
    /// distance of their live confusion estimate from the uniform
    /// (spammer) matrix (squared to sharpen a noisy early signal), floored
    /// at 0.02; an annotator with no labels yet weighs 0.25.
    SpamQuarantine,
}

impl PolicyKind {
    /// All built-in policies, control first.
    pub const ALL: [PolicyKind; 3] =
        [PolicyKind::StaticRedundancy, PolicyKind::UncertaintyRouting, PolicyKind::SpamQuarantine];

    /// The stable name reported by `/assign` and `/budget`.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::StaticRedundancy => "static-redundancy",
            PolicyKind::UncertaintyRouting => "uncertainty-routing",
            PolicyKind::SpamQuarantine => "spam-quarantine",
        }
    }

    /// Parses a policy name; accepts the full name and the short aliases
    /// `static` / `uncertainty` / `quarantine`.
    pub fn parse(raw: &str) -> Option<PolicyKind> {
        match raw {
            "static" | "static-redundancy" => Some(PolicyKind::StaticRedundancy),
            "uncertainty" | "uncertainty-routing" => Some(PolicyKind::UncertaintyRouting),
            "quarantine" | "spam-quarantine" => Some(PolicyKind::SpamQuarantine),
            _ => None,
        }
    }

    /// Plans at most `limit` assignments, each naming an open instance and
    /// one of its candidates, no instance twice.  An empty plan means
    /// nothing is left worth asking.
    pub(crate) fn plan(&self, view: &RoutingView<'_>, limit: usize, rng: &mut TensorRng) -> Vec<Assignment> {
        match self {
            PolicyKind::StaticRedundancy => view
                .shallowest_open()
                .take(limit)
                .map(|i| Assignment { instance: i, annotator: view.candidates(i).next().expect("open instance") })
                .collect(),
            PolicyKind::UncertaintyRouting => {
                let mut scored: Vec<(f32, usize)> = (0..view.labeled.len())
                    .filter(|&i| view.is_open(i) && view.collected(i) < MAX_PER_INSTANCE)
                    .map(|i| (view.entropy(i), i))
                    .filter(|&(entropy, _)| entropy > ENTROPY_STOP)
                    .collect();
                // most uncertain first; ties resolve by instance id so the
                // plan is deterministic
                scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1)));
                scored
                    .into_iter()
                    .take(limit.min(ROUND_SIZE))
                    .map(|(_, i)| {
                        let mut candidates = view.candidates(i);
                        let mut best = candidates.next().expect("open instance");
                        for candidate in candidates {
                            if view.reliability(candidate) > view.reliability(best) {
                                best = candidate;
                            }
                        }
                        Assignment { instance: i, annotator: best }
                    })
                    .collect()
            }
            PolicyKind::SpamQuarantine => view
                .shallowest_open()
                .take(limit.min(ROUND_SIZE))
                .map(|i| {
                    let candidates: Vec<usize> = view.candidates(i).collect();
                    let weights: Vec<f32> = candidates
                        .iter()
                        .map(|&a| view.spam_distance(a).map_or(EXPLORATION_WEIGHT, |d| (d * d).max(QUARANTINE_FLOOR)))
                        .collect();
                    let slot = pick_weighted(&weights, rng).expect("open instance");
                    Assignment { instance: i, annotator: candidates[slot] }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_crowd::truth::streaming::StreamingConfig;

    /// The drained estimator and the labelled sets after ingesting
    /// `(instance, annotator, class)` triples.
    fn ingest(labels: &[(usize, usize, usize)], num_instances: usize) -> (StreamingTruth, Vec<Vec<usize>>) {
        let mut truth = StreamingTruth::new(StreamingConfig::pooled(2));
        let mut labeled = vec![Vec::new(); num_instances];
        for &(i, a, class) in labels {
            truth.ingest(i, a, class).unwrap();
            labeled[i].push(a);
        }
        truth.drain_dirty();
        (truth, labeled)
    }

    #[test]
    fn label_budget_accounts_exactly_and_rejects_overspend() {
        let mut budget = LabelBudget::new(3);
        assert_eq!(budget.remaining(), 3);
        budget.spend(2).unwrap();
        assert_eq!(budget.remaining(), 1);
        assert!(!budget.is_exhausted());
        assert!(budget.spend(2).is_err());
        assert_eq!(budget.remaining(), 1, "failed spend must not debit");
        budget.spend(1).unwrap();
        assert!(budget.is_exhausted());
    }

    #[test]
    fn policy_kind_round_trips_names_and_aliases() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("static"), Some(PolicyKind::StaticRedundancy));
        assert_eq!(PolicyKind::parse("uncertainty"), Some(PolicyKind::UncertaintyRouting));
        assert_eq!(PolicyKind::parse("quarantine"), Some(PolicyKind::SpamQuarantine));
        assert_eq!(PolicyKind::parse("greedy"), None);
    }

    #[test]
    fn static_redundancy_is_breadth_first() {
        // 4 annotators; instance label counts 2, 1, 4 (closed), 1, 3, 1
        let labels = [(0, 0, 0), (0, 2, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0), (2, 2, 0), (2, 3, 0)]
            .into_iter()
            .chain([(3, 0, 1), (4, 3, 1), (4, 0, 1), (4, 1, 1), (5, 2, 0)])
            .collect::<Vec<_>>();
        let (truth, labeled) = ingest(&labels, 6);
        let view = RoutingView { truth: &truth, labeled: &labeled, num_annotators: 4 };
        let mut rng = TensorRng::seed_from_u64(1);
        let plan = PolicyKind::StaticRedundancy.plan(&view, 16, &mut rng);
        // only the shallowest level (1 label), in id order, each asking its
        // lowest-id annotator that has not labelled it yet
        let expected = [(1, 0), (3, 1), (5, 0)].map(|(instance, annotator)| Assignment { instance, annotator });
        assert_eq!(plan, expected);
        assert_eq!(PolicyKind::StaticRedundancy.plan(&view, 2, &mut rng), expected[..2]);

        // once the shallow level is full the next one opens; a closed
        // instance (every annotator asked) is never planned
        let more = [(1, 0, 1), (3, 1, 1), (5, 0, 0)];
        let (truth, labeled) = ingest(&[labels, more.to_vec()].concat(), 6);
        let view = RoutingView { truth: &truth, labeled: &labeled, num_annotators: 4 };
        let plan = PolicyKind::StaticRedundancy.plan(&view, 16, &mut rng);
        let instances: Vec<usize> = plan.iter().map(|a| a.instance).collect();
        assert_eq!(instances, [0, 1, 3, 5]);
        let full = RoutingView { truth: &truth, labeled: &labeled[2..3], num_annotators: 4 };
        assert!(PolicyKind::StaticRedundancy.plan(&full, 16, &mut rng).is_empty());
    }

    #[test]
    fn uncertainty_routing_asks_the_most_reliable_candidate_on_the_most_uncertain_instances() {
        // annotators 0-2 agree with the class u % 2 on 30 instances;
        // annotator 3 answers the opposite on half of them
        let mut labels = Vec::new();
        for u in 0..30 {
            for a in 0..3 {
                labels.push((u, a, u % 2));
            }
            if u % 2 == 0 {
                labels.push((u, 3, 1 - u % 2));
            }
        }
        // three more: 30 has one label from the unreliable annotator 3, 31
        // a split between two reliable annotators, 32 two agreeing ones
        labels.extend([(30, 3, 0), (31, 0, 0), (31, 1, 1), (32, 1, 1), (32, 2, 1)]);
        let (truth, labeled) = ingest(&labels, 33);
        let view = RoutingView { truth: &truth, labeled: &labeled, num_annotators: 5 };
        let mut rng = TensorRng::seed_from_u64(2);
        let plan = PolicyKind::UncertaintyRouting.plan(&view, 64, &mut rng);
        assert!(!plan.is_empty());

        let mut last = f32::INFINITY;
        for assignment in &plan {
            let entropy = view.entropy(assignment.instance);
            // the stop rule: a confident instance is never asked again
            assert!(entropy > ENTROPY_STOP, "{assignment:?} planned at entropy {entropy}");
            assert!(entropy <= last, "most uncertain first: {plan:?}");
            last = entropy;
            let best =
                view.candidates(assignment.instance).map(|a| view.reliability(a)).fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(
                view.reliability(assignment.annotator),
                best,
                "{assignment:?} skipped a more reliable candidate"
            );
        }
        // unanimous reliable labels settle 0-29 and 32; the split is the
        // most uncertain and goes to the reliable annotator it lacks
        let instances: Vec<usize> = plan.iter().map(|a| a.instance).collect();
        assert_eq!(instances, [31, 30]);
        assert_eq!(plan[0].annotator, 2);
        assert_eq!(PolicyKind::UncertaintyRouting.plan(&view, 1, &mut rng), plan[..1]);
    }

    #[test]
    fn spam_quarantine_starves_uniform_annotators() {
        // a full label universe: annotators 0-4 always answer the gold
        // class u % 2, annotators 5-9 answer at random
        let mut universe_rng = TensorRng::seed_from_u64(3);
        let universe: Vec<Vec<usize>> = (0..120)
            .map(|u| (0..10).map(|a| if a < 5 { u % 2 } else { universe_rng.usize_below(2) }).collect())
            .collect();
        let mut truth = StreamingTruth::new(StreamingConfig::pooled(2));
        let mut labeled = vec![Vec::new(); 120];
        let reveal = |truth: &mut StreamingTruth, labeled: &mut [Vec<usize>], u: usize, a: usize| {
            truth.ingest(u, a, universe[u][a]).unwrap();
            labeled[u].push(a);
        };
        // every annotator is seen through one seed label per instance
        for u in 0..120 {
            reveal(&mut truth, &mut labeled, u, u % 10);
        }
        let mut rng = TensorRng::seed_from_u64(4);
        let mut spent_on = [0usize; 10];
        for _ in 0..15 {
            truth.drain_dirty();
            let view = RoutingView { truth: &truth, labeled: &labeled, num_annotators: 10 };
            let plan = PolicyKind::SpamQuarantine.plan(&view, 64, &mut rng);
            assert!(plan.len() <= ROUND_SIZE);
            for a in plan {
                assert!(!labeled[a.instance].contains(&a.annotator), "{a:?} asked twice");
                reveal(&mut truth, &mut labeled, a.instance, a.annotator);
                spent_on[a.annotator] += 1;
            }
        }
        let reliable: usize = spent_on[..5].iter().sum();
        let spammers: usize = spent_on[5..].iter().sum();
        // a uniform draw would split the labels about evenly
        assert!(reliable > 2 * spammers, "quarantine should route away from uniform annotators: {spent_on:?}");
    }
}
