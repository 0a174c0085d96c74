//! Method selection for the paper's tables.
//!
//! Every compared method is constructed and run through the
//! [`MethodRegistry`] — there are no per-method
//! runner functions any more.  This module only names *which* registry keys
//! each table reports, in the paper's row order; the generic execution loop
//! lives in [`crate::experiments`].

use logic_lncl::MethodRegistry;

/// Registry keys of the Table-II (sentiment) rows, in table order.
pub const TABLE2_METHODS: &[&str] = &[
    "mv-classifier",
    "glad-classifier",
    "aggnet",
    "cl-vw",
    "cl-vw-b",
    "cl-mw",
    "logic-lncl",
    "mv",
    "dawid-skene",
    "glad",
    "pm",
    "catd",
    "ibcc",
    "gold",
];

/// Registry keys of the Table-III (NER) rows, in table order.
pub const TABLE3_METHODS: &[&str] = &[
    "mv-classifier",
    "aggnet",
    "cl-vw+pre2",
    "cl-vw-b+pre2",
    "cl-mw+pre2",
    "cl-mw",
    "logic-lncl",
    "dl-dn",
    "mv",
    "dawid-skene",
    "ibcc",
    "bsc-seq",
    "hmm-crowd",
    "gold",
];

/// Registry keys of the Table-IV (ablation) rows, in table order.  `w/o-Rule`
/// is a row of the `aggnet` entry and `MV-t` a row of the `mv-classifier`
/// entry, so the table also prints their `AggNet` and `MV-Classifier`
/// rows.
pub const TABLE4_METHODS: &[&str] = &["mv-rule", "glad-rule", "aggnet", "mv-classifier", "other-rules", "logic-lncl"];

/// Checks a method list against a registry, panicking on unknown keys —
/// run at the top of every table binary so a typo fails fast.
pub fn validate_methods(registry: &MethodRegistry, names: &[&str]) {
    for &name in names {
        assert!(registry.get(name).is_some(), "method {name:?} is not in the registry (known: {:?})", registry.names());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_method_lists_resolve_in_the_standard_registry() {
        let registry = MethodRegistry::standard();
        validate_methods(&registry, TABLE2_METHODS);
        validate_methods(&registry, TABLE3_METHODS);
        validate_methods(&registry, TABLE4_METHODS);
    }

    #[test]
    fn table_four_prints_every_ablation_row() {
        use crate::{table_timed, Scale};
        for (dataset, seed) in [(Scale::sentiment_dataset as fn(&Scale, u64) -> _, 7), (Scale::ner_dataset, 11)] {
            let rows = table_timed(Scale::Tiny, 1, TABLE4_METHODS, dataset, seed).rows;
            let labels: Vec<&str> = rows.iter().map(|r| r.method.as_str()).collect();
            for label in [
                "MV-Rule",
                "GLAD-Rule",
                "w/o-Rule",
                "MV-t",
                "our-other-rules-student",
                "our-other-rules-teacher",
                "Logic-LNCL-student",
                "Logic-LNCL-teacher",
            ] {
                assert!(labels.contains(&label), "Table IV lacks {label:?}: {labels:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unknown_method_key_fails_fast() {
        validate_methods(&MethodRegistry::standard(), &["no-such-method"]);
    }

    #[test]
    fn table_methods_support_their_task() {
        let registry = MethodRegistry::standard();
        for &name in TABLE2_METHODS {
            assert!(registry.get(name).unwrap().descriptor().supports(lncl_crowd::TaskKind::Classification), "{name}");
        }
        for &name in TABLE3_METHODS {
            assert!(registry.get(name).unwrap().descriptor().supports(lncl_crowd::TaskKind::SequenceTagging), "{name}");
        }
    }
}
