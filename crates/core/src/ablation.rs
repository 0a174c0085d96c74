//! Ablation variants of Table IV.
//!
//! Every variant is a re-configuration of the main trainer; this module
//! names them and builds the rule sets they train with, so the bench
//! harness and the tests construct exactly the variants the paper
//! evaluates.

use crate::distill::TaskRules;
use lncl_crowd::{CrowdDataset, TaskKind};
use lncl_logic::rules::ner_transition::{ner_bad_rules, ner_transition_rules};
use lncl_logic::rules::sentiment_but::SentimentContrastRule;

/// The Table-IV ablation variants that need a training of their own.
/// `w/o-Rule` is the `aggnet` entry's second row and `MV-t` the
/// `mv-classifier` entry's teacher row, both read from the same training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationVariant {
    /// `MV-Rule`: q_a frozen to the majority-voting estimate, rules kept.
    MvRule,
    /// `GLAD-Rule`: q_a frozen to the GLAD estimate (AggNet estimate on the
    /// NER dataset, where GLAD is not applicable), rules kept.
    GladRule,
    /// `our-other-rules-*`: the deliberately weaker rules ("however" /
    /// single-transition assumption).
    OtherRules,
}

impl AblationVariant {
    /// Display name matching Table IV.
    pub fn name(&self) -> &'static str {
        match self {
            AblationVariant::MvRule => "MV-Rule",
            AblationVariant::GladRule => "GLAD-Rule",
            AblationVariant::OtherRules => "our-other-rules",
        }
    }

    /// All variants in table order.
    pub fn all() -> [AblationVariant; 3] {
        [AblationVariant::MvRule, AblationVariant::GladRule, AblationVariant::OtherRules]
    }
}

/// Builds the paper's task rules for a dataset (the *A-but-B* rule for
/// sentiment, the Eq. 18/19 transition rules for NER).
pub fn paper_rules(dataset: &CrowdDataset) -> TaskRules {
    match dataset.task {
        TaskKind::Classification => {
            let but =
                dataset.but_token.expect("classification dataset must expose a 'but' token for the contrast rule");
            TaskRules::Classification(vec![Box::new(SentimentContrastRule::but_rule(but))])
        }
        TaskKind::SequenceTagging => TaskRules::Sequence(ner_transition_rules(0.8, 0.2)),
    }
}

/// Builds the "other rules" of the ablation: the weaker "however" contrast
/// rule for sentiment, and the unrealistic single-transition rule for NER.
pub fn other_rules(dataset: &CrowdDataset) -> TaskRules {
    match dataset.task {
        TaskKind::Classification => {
            let however = dataset
                .however_token
                .expect("classification dataset must expose a 'however' token for the ablation rule");
            TaskRules::Classification(vec![Box::new(SentimentContrastRule::however_rule(however))])
        }
        TaskKind::SequenceTagging => TaskRules::Sequence(ner_bad_rules()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_crowd::datasets::{generate_ner, generate_sentiment, NerDatasetConfig, SentimentDatasetConfig};

    #[test]
    fn names_cover_table_four() {
        let names: Vec<&str> = AblationVariant::all().iter().map(|v| v.name()).collect();
        assert_eq!(names, ["MV-Rule", "GLAD-Rule", "our-other-rules"]);
    }

    #[test]
    fn sentiment_rules_use_the_right_tokens() {
        let data = generate_sentiment(&SentimentDatasetConfig::tiny());
        match paper_rules(&data) {
            TaskRules::Classification(rules) => assert_eq!(rules[0].name(), "A-but-B"),
            _ => panic!("expected classification rules"),
        }
        match other_rules(&data) {
            TaskRules::Classification(rules) => assert_eq!(rules[0].name(), "A-however-B"),
            _ => panic!("expected classification rules"),
        }
    }

    #[test]
    fn ner_rules_are_transition_sets() {
        let data = generate_ner(&NerDatasetConfig::tiny());
        match paper_rules(&data) {
            TaskRules::Sequence(set) => assert_eq!(set.num_classes(), 9),
            _ => panic!("expected sequence rules"),
        }
        match other_rules(&data) {
            TaskRules::Sequence(set) => assert!(set.name.contains("bad")),
            _ => panic!("expected sequence rules"),
        }
    }
}
