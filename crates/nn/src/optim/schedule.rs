//! Learning-rate step decay and early stopping.

/// Step decay: the learning rate is multiplied by `factor` every `every`
/// epochs.  The paper's sentiment configuration halves the Adadelta learning
/// rate every 5 epochs (`StepDecay::new(1.0, 0.5, 5)`).
#[derive(Debug, Clone, Copy)]
pub struct StepDecay {
    initial: f32,
    factor: f32,
    every: usize,
}

impl StepDecay {
    /// Creates a step-decay schedule.
    pub fn new(initial: f32, factor: f32, every: usize) -> Self {
        assert!(every > 0, "StepDecay: `every` must be positive");
        Self { initial, factor, every }
    }

    /// Learning rate to use during `epoch` (0-based).
    pub fn learning_rate(&self, epoch: usize) -> f32 {
        self.initial * self.factor.powi((epoch / self.every) as i32)
    }
}

/// What [`EarlyStopping::update`] decided about one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The metric beat every earlier epoch: keep this epoch's model.
    Improved,
    /// No improvement, but still within the patience.
    Stale,
    /// No improvement for more than `patience` epochs: stop training.
    Stop,
}

/// Early stopping on a validation metric where **larger is better**
/// (accuracy / F1).  The paper uses patience 5 on the development split.
#[derive(Debug, Clone)]
pub struct EarlyStopping {
    patience: usize,
    best: f32,
    best_epoch: usize,
    epochs_since_best: usize,
}

impl EarlyStopping {
    /// Creates an early-stopping monitor with the given patience.
    pub fn new(patience: usize) -> Self {
        Self { patience, best: f32::NEG_INFINITY, best_epoch: 0, epochs_since_best: 0 }
    }

    /// Records the metric for `epoch`: [`Verdict::Improved`] when it is the
    /// best so far, [`Verdict::Stop`] after more than `patience` epochs
    /// without improvement, [`Verdict::Stale`] otherwise.
    pub fn update(&mut self, epoch: usize, metric: f32) -> Verdict {
        if metric > self.best {
            self.best = metric;
            self.best_epoch = epoch;
            self.epochs_since_best = 0;
            Verdict::Improved
        } else {
            self.epochs_since_best += 1;
            if self.epochs_since_best > self.patience {
                Verdict::Stop
            } else {
                Verdict::Stale
            }
        }
    }

    /// Best metric seen so far.
    pub fn best(&self) -> f32 {
        self.best
    }

    /// Epoch at which the best metric was observed.
    pub fn best_epoch(&self) -> usize {
        self.best_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_decay_halves_every_five_epochs() {
        let s = StepDecay::new(1.0, 0.5, 5);
        assert_eq!(s.learning_rate(0), 1.0);
        assert_eq!(s.learning_rate(4), 1.0);
        assert_eq!(s.learning_rate(5), 0.5);
        assert_eq!(s.learning_rate(10), 0.25);
        assert_eq!(s.learning_rate(14), 0.25);
    }

    #[test]
    fn early_stopping_triggers_after_patience() {
        let mut es = EarlyStopping::new(2);
        assert_eq!(es.update(0, 0.5), Verdict::Improved);
        assert_eq!(es.update(1, 0.6), Verdict::Improved);
        assert_eq!(es.update(2, 0.55), Verdict::Stale);
        assert_eq!(es.update(3, 0.6), Verdict::Stale); // a tie is no improvement
        assert_eq!(es.update(4, 0.57), Verdict::Stop); // third epoch without improvement > patience=2
        assert_eq!(es.best_epoch(), 1);
        assert!((es.best() - 0.6).abs() < 1e-6);
    }
}
