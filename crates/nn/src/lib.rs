//! # lncl-nn
//!
//! Neural-network building blocks for the Logic-LNCL reproduction:
//!
//! * [`module`] — [`Param`], parameter/tape [`Binding`]
//!   and the [`Module`] trait;
//! * [`workspace`] — the [`Workspace`] the M-step trains every instance in
//!   and every evaluation pass runs its [`Evaluator`] on: one reused tape,
//!   the parameters bound once per mini-batch or pass;
//! * [`layers`] — embeddings, linear layers, text convolutions, GRU and
//!   dropout;
//! * [`optim`] — SGD, Adam and Adadelta plus learning-rate schedules and
//!   early stopping (matching the paper's Table I configuration);
//! * [`models`] — the paper's two architectures
//!   ([`SentimentCnn`](models::SentimentCnn), [`NerConvGru`](models::NerConvGru))
//!   behind the [`InstanceClassifier`] trait.
//!
//! (Where this sits in the workspace: `ARCHITECTURE.md` at the repository
//! root.)
//!
//! ```
//! use lncl_nn::models::{InstanceClassifier, SentimentCnn, SentimentCnnConfig};
//! use lncl_tensor::TensorRng;
//!
//! let mut rng = TensorRng::seed_from_u64(0);
//! let model = SentimentCnn::new(SentimentCnnConfig { vocab_size: 50, ..Default::default() }, &mut rng);
//! let probs = model.predict_proba(&[1, 2, 3, 4, 5]);
//! assert_eq!(probs.shape(), (1, 2));
//! ```

pub mod layers;
pub mod models;
pub mod module;
pub mod optim;
pub mod workspace;

pub use models::InstanceClassifier;
pub use module::{Binding, Module, Param};
pub use workspace::{Evaluator, Workspace};
