//! Checkpoint/resume test helpers: a store that keeps every checkpoint a
//! run saves, and the semantic equality a resumed run must meet against
//! the uninterrupted one.

use std::cell::RefCell;

use ppatuner::{Checkpoint, CheckpointError, CheckpointStore, TuneResult};

/// A checkpoint store that keeps every checkpoint ever saved, so a test
/// can resume from any earlier boundary — as if the process had died
/// right after that save. [`CheckpointStore::load`] returns the newest.
#[derive(Debug, Default)]
pub struct CaptureStore {
    all: RefCell<Vec<Checkpoint>>,
}

impl CaptureStore {
    /// Every checkpoint saved so far, oldest first.
    pub fn checkpoints(&self) -> Vec<Checkpoint> {
        self.all.borrow().clone()
    }
}

impl CheckpointStore for CaptureStore {
    fn save(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        self.all.borrow_mut().push(checkpoint.clone());
        Ok(())
    }

    fn load(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        Ok(self.all.borrow().last().cloned())
    }
}

/// Semantic equality of two tuning results: every field except the
/// wall-clock timings, with the history compared on its count columns.
///
/// # Errors
///
/// The names of the fields that differ.
pub fn same_outcome(a: &TuneResult, b: &TuneResult) -> Result<(), String> {
    let history = |r: &TuneResult| -> Vec<[usize; 6]> {
        r.history
            .iter()
            .map(|h| {
                [
                    h.iteration,
                    h.undecided,
                    h.pareto,
                    h.dropped,
                    h.quarantined,
                    h.runs,
                ]
            })
            .collect()
    };
    let fields = [
        ("pareto_indices", a.pareto_indices == b.pareto_indices),
        ("evaluated", a.evaluated == b.evaluated),
        ("runs", a.runs == b.runs),
        (
            "verification_runs",
            a.verification_runs == b.verification_runs,
        ),
        ("iterations", a.iterations == b.iterations),
        ("delta", a.delta == b.delta),
        ("quarantined", a.quarantined == b.quarantined),
        (
            "failure counters",
            (a.eval_failures, a.eval_retries) == (b.eval_failures, b.eval_retries),
        ),
        ("degraded_fits", a.degraded_fits == b.degraded_fits),
        ("history", history(a) == history(b)),
    ];
    let diverged: Vec<&str> = fields
        .iter()
        .filter(|(_, same)| !same)
        .map(|(name, _)| *name)
        .collect();
    if diverged.is_empty() {
        Ok(())
    } else {
        Err(format!("diverged in {}", diverged.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> TuneResult {
        TuneResult {
            pareto_indices: vec![1, 2],
            evaluated: vec![(1, vec![0.5, 1.0]), (2, vec![1.0, 0.5])],
            runs: 2,
            verification_runs: 0,
            iterations: 1,
            history: vec![ppatuner::IterationRecord {
                iteration: 0,
                undecided: 3,
                pareto: 2,
                dropped: 1,
                quarantined: 0,
                runs: 2,
                duration_s: 0.5,
                gp_fit_s: 0.25,
                predict_s: 0.125,
            }],
            delta: vec![0.01, 0.01],
            quarantined: Vec::new(),
            eval_failures: 0,
            eval_retries: 0,
            degraded_fits: 0,
        }
    }

    #[test]
    fn timings_are_ignored_and_every_other_field_counts() {
        let a = result();
        let mut b = result();
        b.history[0].duration_s = 9.0;
        b.history[0].gp_fit_s = 9.0;
        b.history[0].predict_s = 9.0;
        assert_eq!(same_outcome(&a, &b), Ok(()));

        let mut c = result();
        c.verification_runs = 1;
        c.degraded_fits = 1;
        c.history[0].dropped = 0;
        assert_eq!(
            same_outcome(&a, &c),
            Err("diverged in verification_runs, degraded_fits, history".into())
        );
    }
}
