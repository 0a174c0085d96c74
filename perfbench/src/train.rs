//! `train`: one Logic-LNCL run per task at Small scale through the
//! registry's `logic-lncl` method (sentiment CNN with the A-but-B rule,
//! NER conv-GRU with the transition rules, 12 epochs, early stopping off).
//!
//! Each run trains on [`DATASETS_PER_RUN`] datasets: the seed picks one of
//! the disjoint groups the pool of [`POOL`] dataset seeds splits into.  Its
//! operation is a round: a sentiment run and an NER run, each with test
//! evaluation, on every dataset of the group, spread over `nproc` threads
//! as the sweep spreads its scenarios; `latency_ms` is the median round.  A
//! round lasts seconds and uses every core, so it averages over the speed
//! changes of a shared host's cores: on a 2-core host, the median
//! single-thread round spread 0.38 and 0.53 (interquartile range over
//! median, ten seeds), the two-thread round 0.13.  Every dataset must
//! reproduce the test metrics `expected_quality.txt` records for it, and
//! every repeat the first round bitwise.  The traced mode replays
//! Algorithm 1 from the public API with a timer around each phase and
//! checks the replay against `LogicLncl::train` bitwise.

use crate::report::{median, secs, summarize, Digest, Outcome};
use crate::Args;
use lncl_autograd::Tape;
use lncl_bench::Scale;
use lncl_crowd::truth::{MajorityVote, TruthInference};
use lncl_crowd::{metrics, CrowdDataset, TaskKind};
use lncl_nn::models::AnyModel;
use lncl_nn::optim::{Adadelta, Adam, Optimizer, Sgd};
use lncl_nn::{Binding, InstanceClassifier, Module};
use lncl_tensor::TensorRng;
use logic_lncl::distill::infer_qb;
use logic_lncl::posterior::{infer_qa_into, FlatPosteriors};
use logic_lncl::predict::evaluate_split;
use logic_lncl::{
    paper_rules, AnnotatorModel, EvalMetrics, LogicLncl, MStepObjective, MethodRegistry, OptimizerKind, PredictionMode,
    RunContext, TrainConfig,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Datasets one run trains on; the quality metrics are their mean, which
/// keeps their spread across seeds small.
const DATASETS_PER_RUN: u64 = 4;
/// Dataset seeds `0..POOL` the runs draw from.
const POOL: u64 = 24;
/// Set-up passes in the window after each round.
const SETUP_PER_WINDOW: usize = 8;

/// Recorded teacher test metrics: `dataset-seed sentiment-accuracy ner-f1`.
const EXPECTED_QUALITY: &str = include_str!("../expected_quality.txt");

#[derive(Clone, Copy, PartialEq)]
enum Task {
    Sent,
    Ner,
}

impl Task {
    fn name(self) -> &'static str {
        match self {
            Task::Sent => "sent",
            Task::Ner => "ner",
        }
    }
}

fn scale(tiny: bool) -> Scale {
    if tiny {
        Scale::Tiny
    } else {
        Scale::Small
    }
}

fn epochs(tiny: bool) -> usize {
    if tiny {
        2
    } else {
        12
    }
}

fn dataset(task: Task, dseed: u64, tiny: bool) -> CrowdDataset {
    match task {
        Task::Sent => scale(tiny).sentiment_dataset(dseed),
        Task::Ner => scale(tiny).ner_dataset(dseed),
    }
}

/// The `Scale::Small` train config with early stopping disabled, so every
/// run does the same work.
fn config(dataset: &CrowdDataset, dseed: u64, tiny: bool) -> TrainConfig {
    let epochs = epochs(tiny);
    let mut config = Scale::Small.train_config_with_epochs(dataset.task, dseed, epochs);
    config.early_stopping_patience = epochs;
    config
}

fn dataset_seeds(seed: u64) -> Vec<u64> {
    (0..DATASETS_PER_RUN).map(|k| (seed % POOL * DATASETS_PER_RUN + k) % POOL).collect()
}

fn expected_quality(dseed: u64) -> Option<(f32, f32)> {
    EXPECTED_QUALITY.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
        let mut fields = line.split_whitespace();
        if fields.next()?.parse::<u64>().ok()? != dseed {
            return None;
        }
        Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
    })
}

/// The teacher test metric of one registry run: accuracy for sentiment,
/// strict span F1 for NER.
fn registry_run(method: &dyn logic_lncl::CrowdMethod, dataset: &CrowdDataset, ctx: &RunContext) -> Option<f32> {
    let rows = method.run(dataset, ctx);
    let teacher = rows.iter().find(|r| r.method == "Logic-LNCL-teacher")?;
    Some(teacher.prediction.headline(dataset.task == TaskKind::SequenceTagging))
}

/// Prints the recorded-quality table for every dataset of the pool.
pub fn record_quality() {
    let registry = MethodRegistry::standard();
    let method = registry.get("logic-lncl").expect("logic-lncl is registered");
    println!("# dataset-seed sentiment-teacher-accuracy ner-teacher-span-f1 ({} epochs, Small)", epochs(false));
    for dseed in 0..POOL {
        let values: Vec<f32> = [Task::Sent, Task::Ner]
            .into_iter()
            .map(|task| {
                let ds = dataset(task, dseed, false);
                let ctx = RunContext::for_dataset(&ds, config(&ds, dseed, false));
                registry_run(method, &ds, &ctx).expect("teacher row")
            })
            .collect();
        println!("{dseed} {} {}", values[0], values[1]);
    }
}

pub fn digest(args: &Args) -> u64 {
    let mut digest = Digest::new();
    for dseed in dataset_seeds(args.seed) {
        for task in [Task::Sent, Task::Ner] {
            let ds = dataset(task, dseed, args.tiny);
            digest.dataset(&ds);
            digest.word(config(&ds, dseed, args.tiny).seed);
        }
    }
    digest.finish()
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        traced(args)
    } else {
        end_to_end(args)
    }
}

/// One dataset pair with its run contexts.
struct Prepared {
    sent: CrowdDataset,
    ner: CrowdDataset,
    sent_ctx: RunContext,
    ner_ctx: RunContext,
}

/// Generates both datasets of `dseed`, builds their run contexts and
/// initialises each model once (the set-up a training run pays).
fn prepare(dseed: u64, tiny: bool) -> Prepared {
    let sent = dataset(Task::Sent, dseed, tiny);
    let ner = dataset(Task::Ner, dseed, tiny);
    let sent_ctx = RunContext::for_dataset(&sent, config(&sent, dseed, tiny));
    let ner_ctx = RunContext::for_dataset(&ner, config(&ner, dseed, tiny));
    drop((sent_ctx.model(sent_ctx.config.seed), ner_ctx.model(ner_ctx.config.seed)));
    Prepared { sent, ner, sent_ctx, ner_ctx }
}

/// Runs every training job of a round on `threads` threads, each taking
/// the next job when it is free; returns each job's teacher metric and
/// seconds, in job order.
fn run_round(
    method: &dyn logic_lncl::CrowdMethod,
    jobs: &[(&CrowdDataset, &RunContext)],
    threads: usize,
) -> Vec<(Option<f32>, f64)> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Option<f32>, f64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(ds, ctx)) = jobs.get(job) else { break mine };
                        let t = Instant::now();
                        let metric = registry_run(method, ds, ctx);
                        mine.push((job, metric, secs(t)));
                    }
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("training thread panicked")).collect()
    });
    done.sort_by_key(|d| d.0);
    done.into_iter().map(|(_, metric, s)| (metric, s)).collect()
}

fn end_to_end(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let registry = MethodRegistry::standard();
    let method = registry.get("logic-lncl").expect("logic-lncl is registered");
    let threads = lncl_tensor::par::max_threads();
    let seeds = dataset_seeds(args.seed);
    let prepared: Vec<Prepared> = seeds.iter().map(|&dseed| prepare(dseed, args.tiny)).collect();
    let jobs: Vec<(&CrowdDataset, &RunContext)> =
        prepared.iter().flat_map(|p| [(&p.sent, &p.sent_ctx), (&p.ner, &p.ner_ctx)]).collect();
    let mut first: Vec<Option<[f32; 2]>> = vec![None; seeds.len()];
    let (mut setup, mut wall_sent, mut wall_ner, mut rounds_ms) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let results = run_round(method, &jobs, threads);
        rounds_ms.push(secs(t) * 1e3);
        for (k, (&dseed, pair)) in seeds.iter().zip(results.chunks(2)).enumerate() {
            let [(acc, sent_s), (f1, ner_s)] = [pair[0], pair[1]];
            wall_sent.push(sent_s);
            wall_ner.push(ner_s);
            out.check(acc.is_some() && f1.is_some(), || format!("dataset {dseed}: missing Logic-LNCL-teacher row"));
            let values = [acc.unwrap_or(f32::NAN), f1.unwrap_or(f32::NAN)];
            out.check(values.iter().all(|v| (0.0..=1.0).contains(v)), || {
                format!("dataset {dseed}: teacher metrics out of range: {values:?}")
            });
            match first[k] {
                None => {
                    if !args.tiny {
                        let expected = expected_quality(dseed);
                        let same = expected.is_some_and(|e| [e.0, e.1].map(f32::to_bits) == values.map(f32::to_bits));
                        out.check(same, || {
                            format!("dataset {dseed}: teacher metrics {values:?}, recorded {expected:?}")
                        });
                    }
                    first[k] = Some(values);
                }
                Some(recorded) => out.check(recorded.map(f32::to_bits) == values.map(f32::to_bits), || {
                    format!("dataset {dseed}: repeat gave {values:?}, first round {recorded:?}")
                }),
            }
        }
        let window: Vec<f64> = (0..SETUP_PER_WINDOW)
            .map(|j| {
                let t = Instant::now();
                drop(prepare(seeds[j % seeds.len()], args.tiny));
                secs(t)
            })
            .collect();
        setup.push(window);
        if secs(start) + rounds_ms.last().unwrap() / 1e3 > args.seconds {
            break;
        }
    }
    let mean = |i: usize| first.iter().flatten().map(|v| v[i] as f64).sum::<f64>() / seeds.len() as f64;
    println!("sent_test_accuracy: {:.6} ner_test_f1: {:.6} (means over datasets {seeds:?})", mean(0), mean(1));
    summarize(&format!("train_sent_s (on {threads} threads)"), &wall_sent, "s");
    summarize(&format!("train_ner_s (on {threads} threads)"), &wall_ner, "s");
    out.timing("latency_ms", &rounds_ms, "ms");
    out.setup(&setup);
    out.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
    out
}

/// Wall time and counts of one traced replay.
#[derive(Default, Clone)]
struct Spans {
    forward: f64,
    backward: f64,
    accumulate: f64,
    optimizer: f64,
    estep_predict: f64,
    eq13: f64,
    project: f64,
    eq12: f64,
    dev_eval: f64,
    instances: u64,
    batches: u64,
    clause_calls: u64,
    rule_hits: u64,
    e_instances: u64,
}

impl Spans {
    fn timed(&self) -> [(&'static str, f64); 9] {
        [
            ("nn.forward_s", self.forward),
            ("autograd.backward_s", self.backward),
            ("nn.accumulate_s", self.accumulate),
            ("nn.optimizer_s", self.optimizer),
            ("core.estep_predict_s", self.estep_predict),
            ("core.eq13_s", self.eq13),
            ("logic.project_s", self.project),
            ("core.eq12_s", self.eq12),
            ("core.dev_eval_s", self.dev_eval),
        ]
    }
}

/// What the replay produced, for the bitwise comparison.
struct Replayed {
    model: AnyModel,
    qf: FlatPosteriors,
    loss_history: Vec<f32>,
    dev_history: Vec<f32>,
    inference: EvalMetrics,
}

fn make_optimizer(kind: OptimizerKind) -> Box<dyn Optimizer> {
    match kind {
        OptimizerKind::Sgd { lr, momentum } => Box::new(Sgd::new(lr).with_momentum(momentum)),
        OptimizerKind::Adam { lr } => Box::new(Adam::new(lr)),
        OptimizerKind::Adadelta { lr } => Box::new(Adadelta::new(lr)),
    }
}

/// Algorithm 1 exactly as `LogicLncl::train` runs it (iterative posterior,
/// paper rules, pooled annotator model), with a timer around each phase.
fn replay(ds: &CrowdDataset, ctx: &RunContext, cfg: &TrainConfig, sp: &mut Spans) -> Replayed {
    let rules = paper_rules(ds);
    let mut model = ctx.model(cfg.seed);
    let mut annotators = AnnotatorModel::new(ds.num_annotators, ds.num_classes, 0.7);
    let mut rng = TensorRng::seed_from_u64(cfg.seed);
    let mut optimizer = make_optimizer(cfg.optimizer);
    let base_lr = optimizer.learning_rate();
    let k = ds.num_classes;

    // Algorithm 1, line 1: q_f from majority voting
    let view = ds.annotation_view();
    let mv = MajorityVote.infer(&view);
    let mut qf = FlatPosteriors::zeros(&ds.train, k);
    let mut cursor = vec![0usize; ds.train.len()];
    for (u, post) in mv.posteriors.iter().enumerate() {
        let i = view.unit_instance[u];
        qf.instance_slice_mut(i)[cursor[i] * k..(cursor[i] + 1) * k].copy_from_slice(post);
        cursor[i] += 1;
    }

    let sequence_task = ds.task == TaskKind::SequenceTagging;
    let (mut loss_history, mut dev_history) = (Vec::new(), Vec::new());
    let mut best_dev = f32::NEG_INFINITY;
    let mut best_model = None;
    let mut without_improvement = 0usize;
    for epoch in 0..cfg.epochs {
        if let Some((factor, every)) = cfg.lr_decay {
            optimizer.set_learning_rate(base_lr * factor.powi((epoch / every) as i32));
        }
        let imitation_k = cfg.imitation.strength(epoch).clamp(0.0, 1.0);

        // pseudo-M-step
        let mut order: Vec<usize> = (0..ds.train.len()).collect();
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for batch in order.chunks(cfg.batch_size) {
            let t = Instant::now();
            model.zero_grad();
            sp.optimizer += secs(t);
            let mut batch_loss = 0.0f32;
            for &i in batch {
                let inst = &ds.train[i];
                let t = Instant::now();
                let mut tape = Tape::new();
                let mut binding = Binding::new();
                let logits = model.forward_logits(&mut tape, &mut binding, &inst.tokens, true, &mut rng);
                let mut loss = tape.softmax_cross_entropy(logits, qf.instance_matrix(i));
                if cfg.objective == MStepObjective::AnnotationWeighted {
                    loss = tape.scale(loss, inst.num_annotations().max(1) as f32);
                }
                batch_loss += tape.scalar(loss);
                sp.forward += secs(t);
                let t = Instant::now();
                tape.backward(loss);
                sp.backward += secs(t);
                let t = Instant::now();
                binding.accumulate(&tape, model.params_mut());
                drop((tape, binding));
                sp.accumulate += secs(t);
                sp.instances += 1;
            }
            let t = Instant::now();
            model.scale_grads(1.0 / batch.len() as f32);
            if let Some(clip) = cfg.grad_clip {
                model.clip_grad_norm(clip);
            }
            let mut params = model.params_mut();
            optimizer.step(&mut params);
            sp.optimizer += secs(t);
            epoch_loss += batch_loss / batch.len() as f32;
            batches += 1;
            sp.batches += 1;
        }
        loss_history.push(epoch_loss / batches.max(1) as f32);

        // pseudo-E-step: Eq. 13, Eq. 15, Eq. 9, then Eq. 12
        let t = Instant::now();
        let predictions: Vec<_> = ds.train.iter().map(|inst| model.predict_proba(&inst.tokens)).collect();
        sp.estep_predict += secs(t);
        let calls = Cell::new(0u64);
        let clause = |tokens: &[usize]| {
            calls.set(calls.get() + 1);
            model.predict_proba(tokens).row(0).to_vec()
        };
        let mut new_qf = FlatPosteriors::zeros(&ds.train, k);
        for (i, inst) in ds.train.iter().enumerate() {
            let t = Instant::now();
            infer_qa_into(inst, &predictions[i], &annotators, new_qf.instance_slice_mut(i));
            sp.eq13 += secs(t);
            let t = Instant::now();
            let qa = new_qf.instance_matrix(i);
            let qb = infer_qb(&qa, &inst.tokens, &rules, cfg.regularization_c, &clause);
            sp.project += secs(t);
            if qa.as_slice().iter().zip(qb.as_slice()).any(|(a, b)| a.to_bits() != b.to_bits()) {
                sp.rule_hits += 1;
            }
            for ((f, &a), &b) in new_qf.instance_slice_mut(i).iter_mut().zip(qa.as_slice()).zip(qb.as_slice()) {
                *f = (1.0 - imitation_k) * a + imitation_k * b;
            }
            sp.e_instances += 1;
        }
        sp.clause_calls += calls.get();
        qf = new_qf;
        let t = Instant::now();
        annotators.update_from_qf(ds, &qf, 0.01);
        sp.eq12 += secs(t);

        // development evaluation
        let dev_split = if ds.dev.is_empty() { &ds.test } else { &ds.dev };
        let t = Instant::now();
        let dev_metrics =
            evaluate_split(&model, dev_split, ds.task, PredictionMode::Student, &rules, cfg.regularization_c);
        sp.dev_eval += secs(t);
        let dev_metric = dev_metrics.headline(sequence_task);
        dev_history.push(dev_metric);
        if dev_metric > best_dev {
            best_dev = dev_metric;
            without_improvement = 0;
            best_model = Some(model.clone());
        } else {
            without_improvement += 1;
            if without_improvement > cfg.early_stopping_patience {
                break;
            }
        }
    }
    if let Some(best) = best_model {
        model = best;
    }
    let inference = inference_metrics(ds, &qf);
    Replayed { model, qf, loss_history, dev_history, inference }
}

/// `LogicLncl::inference_metrics` from the public API.
fn inference_metrics(ds: &CrowdDataset, qf: &FlatPosteriors) -> EvalMetrics {
    let predictions: Vec<Vec<usize>> = (0..qf.num_instances()).map(|i| qf.instance_argmax(i)).collect();
    let gold: Vec<Vec<usize>> = ds.train.iter().map(|i| i.gold.clone()).collect();
    match ds.task {
        TaskKind::Classification => {
            let flat_pred: Vec<usize> = predictions.iter().map(|p| p[0]).collect();
            let flat_gold: Vec<usize> = gold.iter().map(|g| g[0]).collect();
            EvalMetrics::from_accuracy(metrics::accuracy(&flat_pred, &flat_gold))
        }
        TaskKind::SequenceTagging => {
            let prf = metrics::span_f1(&predictions, &gold);
            EvalMetrics {
                accuracy: metrics::token_accuracy(&predictions, &gold),
                precision: prf.precision,
                recall: prf.recall,
                f1: prf.f1,
            }
        }
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn metric_bits(m: &EvalMetrics) -> [u32; 4] {
    [m.accuracy, m.precision, m.recall, m.f1].map(f32::to_bits)
}

fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let dseed = dataset_seeds(args.seed)[0];
    let tasks = [Task::Sent, Task::Ner];
    let mut spans: Vec<Vec<Spans>> = vec![Vec::new(); tasks.len()];
    let mut walls: Vec<Vec<(f64, f64)>> = vec![Vec::new(); tasks.len()];
    let start = Instant::now();
    loop {
        for (t_idx, &task) in tasks.iter().enumerate() {
            let ds = dataset(task, dseed, args.tiny);
            let cfg = config(&ds, dseed, args.tiny);
            let ctx = RunContext::for_dataset(&ds, cfg.clone());
            let rules = paper_rules(&ds);

            let t = Instant::now();
            let mut trainer =
                LogicLncl::builder(ctx.model(cfg.seed)).rules(paper_rules(&ds)).config(cfg.clone()).build(&ds);
            let report = trainer.train(&ds);
            let untraced_s = secs(t);

            let mut sp = Spans::default();
            let t = Instant::now();
            let replayed = replay(&ds, &ctx, &cfg, &mut sp);
            let traced_s = secs(t);

            let name = task.name();
            out.check(bits(&report.loss_history) == bits(&replayed.loss_history), || {
                format!("{name}: loss_history differs: {:?} vs {:?}", report.loss_history, replayed.loss_history)
            });
            out.check(bits(&report.dev_history) == bits(&replayed.dev_history), || {
                format!("{name}: dev_history differs: {:?} vs {:?}", report.dev_history, replayed.dev_history)
            });
            out.check(bits(trainer.qf().data().as_slice()) == bits(replayed.qf.data().as_slice()), || {
                format!("{name}: final q_f differs")
            });
            out.check(metric_bits(&report.inference) == metric_bits(&replayed.inference), || {
                format!("{name}: inference metrics differ")
            });
            for mode in [PredictionMode::Student, PredictionMode::Teacher] {
                let direct = trainer.evaluate(&ds.test, ds.task, mode);
                let replay_metrics =
                    evaluate_split(&replayed.model, &ds.test, ds.task, mode, &rules, cfg.regularization_c);
                out.check(metric_bits(&direct) == metric_bits(&replay_metrics), || {
                    format!("{name}: {mode:?} test metrics differ: {direct:?} vs {replay_metrics:?}")
                });
            }
            spans[t_idx].push(sp);
            walls[t_idx].push((untraced_s, traced_s));
        }
        if secs(start) * (1.0 + 1.0 / spans[0].len() as f64) > args.seconds {
            break;
        }
    }

    for (t_idx, &task) in tasks.iter().enumerate() {
        let prefix = task.name();
        let runs = &spans[t_idx];
        for (i, (name, _)) in runs[0].timed().iter().enumerate() {
            let samples: Vec<f64> = runs.iter().map(|s| s.timed()[i].1).collect();
            out.timing(&format!("{prefix}.{name}"), &samples, "s");
        }
        let last = runs.last().expect("at least one traced pass");
        out.metric(format!("{prefix}.m_step.instances"), last.instances as f64, "count");
        out.metric(format!("{prefix}.m_step.batches"), last.batches as f64, "count");
        out.metric(format!("{prefix}.logic.clause_calls"), last.clause_calls as f64, "count");
        out.metric(
            format!("{prefix}.logic.rule_hit_share"),
            last.rule_hits as f64 / last.e_instances.max(1) as f64,
            "ratio",
        );
        let uncovered: Vec<f64> = runs
            .iter()
            .zip(&walls[t_idx])
            .map(|(s, &(_, traced))| 1.0 - s.timed().iter().map(|x| x.1).sum::<f64>() / traced)
            .collect();
        let overhead: Vec<f64> = walls[t_idx].iter().map(|&(plain, traced)| traced / plain - 1.0).collect();
        summarize(&format!("{prefix}.train_untraced_s"), &walls[t_idx].iter().map(|w| w.0).collect::<Vec<_>>(), "s");
        out.metric(format!("{prefix}.trace.uncovered_share"), median(&uncovered), "ratio");
        out.metric(format!("{prefix}.trace.overhead"), median(&overhead), "ratio");
        let covered = 1.0 - median(&uncovered);
        out.check(covered >= 0.9, || format!("{prefix}: spans cover only {:.1}% of the replay", covered * 100.0));
    }
    out
}
