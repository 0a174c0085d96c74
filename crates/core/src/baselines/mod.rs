//! The compared methods of Tables II and III.
//!
//! * [`two_stage`] — MV-Classifier, GLAD-Classifier, DS-Classifier and the
//!   Gold upper bound (truth inference → supervised training);
//! * [`crowd_layer`] — CL(MW), CL(VW), CL(VW-B) of Rodrigues & Pereira
//!   (2018), the deep "crowd layer" trained end-to-end on raw crowd labels;
//! * [`dl_dn`] — DL-DN / DL-WDN of Guan et al. (2018), one network per
//!   annotator with uniform and weighted prediction averaging of one
//!   trained ensemble;
//! * Raykar / AggNet / w-o-Rule are the [`crate::trainer::LogicLncl`] trainer
//!   with [`crate::distill::TaskRules::None`] (see the trainer docs).

pub mod crowd_layer;
pub mod dl_dn;
pub mod two_stage;

pub use crowd_layer::{CrowdLayerKind, CrowdLayerTrainer};
pub use dl_dn::{train_dl_dn, train_dl_dn_posteriors, DlDnConfig};
pub use two_stage::{train_supervised, SupervisedReport};
