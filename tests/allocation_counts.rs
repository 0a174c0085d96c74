//! Heap-allocation pins of Logic-LNCL training on the `Scale::Tiny`
//! sentiment and NER datasets, and of crowd-layer (`cl-mw`) training on
//! the sentiment one, 2 epochs each (seed 1, as
//! `tests/training_determinism.rs`).
//!
//! A counting global allocator counts the allocations and reallocations
//! made by the calling thread only, so tests running in parallel do not
//! see each other's.  Unlike wall-clock time the counts do not drift
//! between machines or runs, and they do not depend on the kernel tier.
//!
//! * The whole training must make exactly the pinned number of
//!   allocations; a change that moves a count updates the pin and says
//!   why.
//! * After the first mini-batch, an M-step instance trained through
//!   [`Workspace::instance`] — the entry point `MStep::epoch` uses — may
//!   allocate only the target matrix its loss closure builds.
//! * After a first evaluation pass over the training split, each sentence
//!   of the next pass through [`Workspace::eval`] — the evaluator every
//!   E-step, rule-clause and dev evaluation runs — may allocate only the
//!   probabilities it returns.

use lncl_bench::Scale;
use lncl_crowd::CrowdDataset;
use lncl_nn::optim::{Optimizer, Sgd};
use lncl_nn::{Module, Workspace};
use lncl_tensor::TensorRng;
use logic_lncl::baselines::two_stage::gold_targets;
use logic_lncl::baselines::{CrowdLayerKind, CrowdLayerTrainer};
use logic_lncl::{paper_rules, LogicLncl, RunContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const EPOCHS: usize = 2;
const SEED: u64 = 1;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting every allocation and reallocation of the calling
/// thread.
struct Counting;

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.  The process-wide lazy settings
/// (thread count, kernel tier) are read first, so whichever test runs
/// first does not pay for them.
fn allocations(f: impl FnOnce()) -> u64 {
    lncl_tensor::par::max_threads();
    lncl_tensor::simd::detected_tier();
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations of one `logic-lncl` training (`LogicLncl::train`, built as
/// in `tests/training_determinism.rs`).
fn training_allocations(dataset: &CrowdDataset) -> u64 {
    let config = Scale::Tiny.train_config_with_epochs(dataset.task, SEED, EPOCHS);
    let ctx = RunContext::for_dataset(dataset, config);
    let mut trainer = LogicLncl::builder(ctx.model(ctx.config.seed))
        .rules(paper_rules(dataset))
        .config(ctx.config.clone())
        .build(dataset);
    allocations(|| {
        trainer.train(dataset);
    })
}

#[test]
fn tiny_sentiment_training_allocations_are_pinned() {
    assert_eq!(
        training_allocations(&Scale::Tiny.sentiment_dataset(SEED)),
        4_294,
        "sentiment training allocations moved"
    );
}

#[test]
fn tiny_ner_training_allocations_are_pinned() {
    assert_eq!(training_allocations(&Scale::Tiny.ner_dataset(SEED)), 8_511, "NER training allocations moved");
}

/// The registry's `cl-mw` construction (no pre-training), its training
/// alone counted.
#[test]
fn tiny_crowd_layer_training_allocations_are_pinned() {
    let dataset = Scale::Tiny.sentiment_dataset(SEED);
    let config = Scale::Tiny.train_config_with_epochs(dataset.task, SEED, EPOCHS);
    let ctx = RunContext::for_dataset(&dataset, config);
    let model = ctx.model(ctx.config.seed);
    let mut trainer = CrowdLayerTrainer::new(model, &dataset, CrowdLayerKind::MatrixWeight, ctx.config.clone(), 0);
    let n = allocations(|| {
        trainer.train(&dataset);
    });
    assert_eq!(n, 12_988, "crowd-layer training allocations moved");
}

/// Runs the M-step's mini-batch loop over `dataset` with the gold labels as
/// targets and returns, per batch, the allocations of each instance.
fn instance_allocations(dataset: &CrowdDataset) -> Vec<Vec<u64>> {
    let config = Scale::Tiny.train_config_with_epochs(dataset.task, SEED, EPOCHS);
    let ctx = RunContext::for_dataset(dataset, config.clone());
    let mut model = ctx.model(SEED);
    let targets = gold_targets(dataset);
    let mut rng = TensorRng::seed_from_u64(SEED);
    let mut optimizer = Sgd::new(0.05);
    let mut workspace = Workspace::new();
    workspace.reserve_tokens(dataset.train.iter().map(|inst| inst.tokens.len()).max().unwrap_or(0));
    let mut counts = Vec::new();
    for _ in 0..EPOCHS {
        let mut order: Vec<usize> = (0..dataset.train.len()).collect();
        rng.shuffle(&mut order);
        for batch in order.chunks(config.batch_size) {
            model.zero_grad();
            workspace.begin_batch(&model);
            let batch_counts = batch
                .iter()
                .map(|&i| {
                    let tokens = &dataset.train[i].tokens;
                    allocations(|| {
                        workspace.instance(&mut model, &mut [], tokens, &mut rng, |tape, _, _, logits| {
                            Some(tape.softmax_cross_entropy(logits, targets[i].clone()))
                        });
                    })
                })
                .collect();
            counts.push(batch_counts);
            model.scale_grads(1.0 / batch.len() as f32);
            optimizer.step(&mut model.params_mut());
        }
    }
    counts
}

#[test]
fn m_step_instances_allocate_only_their_target_after_the_first_batch() {
    for dataset in [Scale::Tiny.sentiment_dataset(SEED), Scale::Tiny.ner_dataset(SEED)] {
        let counts = instance_allocations(&dataset);
        assert!(counts.len() > 2, "{:?}: too few batches to check", dataset.task);
        for (b, batch) in counts.iter().enumerate().skip(1) {
            for (i, &n) in batch.iter().enumerate() {
                assert!(
                    n <= 1,
                    "{:?}: instance {i} of batch {b} made {n} allocations, only its target allowed",
                    dataset.task
                );
            }
        }
    }
}

/// Allocations of each sentence of a second evaluation pass over the
/// training split, through the workspace a first pass warmed up.
fn eval_allocations(dataset: &CrowdDataset) -> Vec<u64> {
    let config = Scale::Tiny.train_config_with_epochs(dataset.task, SEED, EPOCHS);
    let model = RunContext::for_dataset(dataset, config).model(SEED);
    let mut workspace = Workspace::new();
    let mut evaluator = workspace.eval(&model);
    for inst in &dataset.train {
        evaluator.proba(&inst.tokens);
    }
    let mut evaluator = workspace.eval(&model);
    dataset
        .train
        .iter()
        .map(|inst| {
            allocations(|| {
                evaluator.proba(&inst.tokens);
            })
        })
        .collect()
}

#[test]
fn eval_sentences_allocate_only_their_output_after_a_warm_up_pass() {
    for dataset in [Scale::Tiny.sentiment_dataset(SEED), Scale::Tiny.ner_dataset(SEED)] {
        let counts = eval_allocations(&dataset);
        assert_eq!(counts.len(), dataset.train.len());
        for (i, &n) in counts.iter().enumerate() {
            assert!(n <= 1, "{:?}: sentence {i} made {n} allocations, only its output allowed", dataset.task);
        }
    }
}
