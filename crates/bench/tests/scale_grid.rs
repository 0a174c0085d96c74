//! Coverage for [`Scale`] parsing and the scale grid: `LNCL_SCALE`
//! round-trips and the cross-scale determinism the scale-predictivity
//! study rests on (one config at two scales → distinct corpora; each
//! scale individually bitwise reproducible).

use lncl_bench::experiments::scenario_sweep_configs;
use lncl_bench::predictivity::normalized_scenario_name;
use lncl_bench::scale::Scale;
use lncl_crowd::scenario::generate_scenario;
use lncl_crowd::TaskKind;

#[test]
fn parse_and_name_round_trip_every_tier() {
    for scale in Scale::ALL {
        assert_eq!(Scale::parse(scale.name()), Some(scale), "{}", scale.name());
        // parsing is case- and whitespace-tolerant
        assert_eq!(Scale::parse(&format!("  {}  ", scale.name().to_uppercase())), Some(scale));
    }
    // "huge" is not a tier: it warns and falls back like any unknown name
    for raw in ["", "gigantic", "smal", "paper-scale", "0", "huge"] {
        assert_eq!(Scale::parse(raw), None, "{raw:?} must not parse");
    }
}

#[test]
fn lncl_scale_env_round_trips_and_bad_values_default() {
    // one test owns the variable: the process environment is global and
    // the harness runs tests concurrently
    for scale in Scale::ALL {
        std::env::set_var("LNCL_SCALE", scale.name());
        assert_eq!(Scale::from_env(), scale);
    }
    std::env::set_var("LNCL_SCALE", "enormous");
    assert_eq!(Scale::from_env(), Scale::Small, "invalid value falls back to the default");
    std::env::remove_var("LNCL_SCALE");
    assert_eq!(Scale::from_env(), Scale::Small, "unset is the silent default");
}

#[test]
fn tiers_are_ordered_by_size() {
    let train = |scale: Scale, task| scale.scenario_base(task, 29).train_size;
    for task in [TaskKind::Classification, TaskKind::SequenceTagging] {
        for pair in Scale::ALL.windows(2) {
            assert!(
                train(pair[0], task) < train(pair[1], task),
                "{} must be smaller than {} for {task:?}",
                pair[0].name(),
                pair[1].name()
            );
        }
    }
    for pair in Scale::ALL.windows(2) {
        assert!(pair[0].default_epochs() <= pair[1].default_epochs());
    }
}

#[test]
fn sweep_grid_names_align_across_scales_once_pool_size_is_normalized() {
    // grid names embed the scale's annotator count (`…/j8/…` at tiny,
    // `…/j60/…` at paper), so the predictivity join matches cells by the
    // `j*`-normalized name; after normalization the two grids must be the
    // same list of distinct cells
    let names = |scale: Scale| -> Vec<String> {
        scenario_sweep_configs(scale, 29).iter().map(|c| normalized_scenario_name(&c.name)).collect()
    };
    let tiny = names(Scale::Tiny);
    let paper = names(Scale::Paper);
    assert_eq!(tiny, paper, "normalized grid cells must line up across scales");
    let distinct: std::collections::BTreeSet<&String> = tiny.iter().collect();
    assert_eq!(distinct.len(), tiny.len(), "normalization must not alias two grid cells");
}

#[test]
fn same_cell_at_two_scales_has_distinct_hash_and_corpus() {
    let tiny = Scale::Tiny.scenario_base(TaskKind::Classification, 29);
    let paper = Scale::Paper.scenario_base(TaskKind::Classification, 29);
    assert_ne!(tiny.content_hash(), paper.content_hash(), "one cell at two scales must never hash alike");
    let tiny_data = generate_scenario(&tiny);
    let paper_data = generate_scenario(&paper);
    assert_ne!(tiny_data.train.len(), paper_data.train.len());
}

#[test]
fn each_scale_is_bitwise_reproducible() {
    for scale in [Scale::Tiny, Scale::Small] {
        for task in [TaskKind::Classification, TaskKind::SequenceTagging] {
            let config = scale.scenario_base(task, 41);
            let (a, b) = (generate_scenario(&config), generate_scenario(&config));
            assert_eq!(a.train, b.train, "{} {task:?} train split must regenerate bitwise", scale.name());
            assert_eq!(a.dev, b.dev);
            assert_eq!(a.test, b.test);
        }
    }
}
