//! Instruments wrapped around the tuner's public seams: the oracle
//! traits, the checkpoint store trait and the observer. None of them
//! changes what the tuner computes; they only record when it called out.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

use obs::{Event, Observer};
use ppatuner::{
    Checkpoint, CheckpointError, CheckpointStore, ConcurrentOracle, EvalError, QorOracle, Recovery,
};

/// One oracle call, as seen from outside the tuner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// When the call entered the oracle.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Whether it returned an error.
    pub failed: bool,
}

/// Times every call into an oracle. Implements the serial and the
/// concurrent oracle trait, whichever the wrapped oracle implements.
#[derive(Debug)]
pub struct TimedOracle<O> {
    inner: O,
    calls: Mutex<Vec<Call>>,
}

impl<O> TimedOracle<O> {
    /// Wraps `inner` with an empty call log.
    pub fn new(inner: O) -> Self {
        TimedOracle {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// The calls made so far, ordered by start time.
    pub fn calls(&self) -> Vec<Call> {
        let mut calls = self.calls.lock().expect("call log lock poisoned").clone();
        calls.sort_by_key(|c| c.start);
        calls
    }
}

fn log_call(calls: &Mutex<Vec<Call>>, start: Instant, out: &Result<Vec<f64>, EvalError>) {
    let end = Instant::now();
    calls.lock().expect("call log lock poisoned").push(Call {
        start,
        end,
        failed: out.is_err(),
    });
}

impl<O: QorOracle> QorOracle for TimedOracle<O> {
    fn evaluate(&mut self, index: usize) -> Result<Vec<f64>, EvalError> {
        let start = Instant::now();
        let out = self.inner.evaluate(index);
        log_call(&self.calls, start, &out);
        out
    }

    fn evaluate_at(&mut self, index: usize, x: &[f64]) -> Result<Vec<f64>, EvalError> {
        let start = Instant::now();
        let out = self.inner.evaluate_at(index, x);
        log_call(&self.calls, start, &out);
        out
    }

    fn runs(&self) -> usize {
        self.inner.runs()
    }
}

impl<O: ConcurrentOracle> ConcurrentOracle for TimedOracle<O> {
    fn evaluate(&self, index: usize) -> Result<Vec<f64>, EvalError> {
        let start = Instant::now();
        let out = self.inner.evaluate(index);
        log_call(&self.calls, start, &out);
        out
    }

    fn evaluate_at(&self, index: usize, x: &[f64]) -> Result<Vec<f64>, EvalError> {
        let start = Instant::now();
        let out = self.inner.evaluate_at(index, x);
        log_call(&self.calls, start, &out);
        out
    }

    fn runs(&self) -> usize {
        self.inner.runs()
    }
}

/// Think-time samples of one tuning call: for every search iteration
/// that called the oracle, the time from the moment no call was in flight
/// to its first call.
///
/// `calls` are the call's live oracle calls ordered by start; the first
/// of them is the run's `first_global`-th tool run (non-zero for a
/// resumed run, whose replayed prefix never reaches the oracle).
/// `iteration_starts` holds, per iteration, the run count before it
/// (cumulative, initialization included) and `search_end` the run count
/// after the last iteration. Calls outside the iterations — the
/// initialization design and the closing verification pass — start no
/// sample, and neither does an iteration whose first call is the first
/// live call (that gap is set-up or replay, not a decision).
pub fn decision_gaps(
    calls: &[Call],
    first_global: usize,
    iteration_starts: &[usize],
    search_end: usize,
) -> Vec<f64> {
    let mut gaps = Vec::new();
    for (t, &first) in iteration_starts.iter().enumerate() {
        let next = iteration_starts.get(t + 1).copied().unwrap_or(search_end);
        if next <= first || first <= first_global {
            continue;
        }
        let local = first - first_global;
        let Some(call) = calls.get(local) else { break };
        let idle_since = calls[..local]
            .iter()
            .map(|c| c.end)
            .max()
            .expect("an earlier live call exists");
        gaps.push(
            call.start
                .saturating_duration_since(idle_since)
                .as_secs_f64(),
        );
    }
    gaps
}

/// What a [`TimedStore`] saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreStats {
    /// Successful saves.
    pub saves: u64,
    /// Seconds inside `save`.
    pub save_s: f64,
    /// Seconds inside `load` and `recover`.
    pub recover_s: f64,
}

/// Times every call into a checkpoint store.
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: S,
    stats: RefCell<StoreStats>,
}

impl<S> TimedStore<S> {
    /// Wraps `inner` with zeroed statistics.
    pub fn new(inner: S) -> Self {
        TimedStore {
            inner,
            stats: RefCell::new(StoreStats::default()),
        }
    }

    /// The statistics so far.
    pub fn stats(&self) -> StoreStats {
        *self.stats.borrow()
    }
}

impl<S: CheckpointStore> CheckpointStore for TimedStore<S> {
    fn save(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        let start = Instant::now();
        let out = self.inner.save(checkpoint);
        let mut s = self.stats.borrow_mut();
        s.save_s += start.elapsed().as_secs_f64();
        s.saves += u64::from(out.is_ok());
        out
    }

    fn load(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        self.recover().map(|r| r.checkpoint)
    }

    fn recover(&self) -> Result<Recovery, CheckpointError> {
        let start = Instant::now();
        let out = self.inner.recover();
        let mut s = self.stats.borrow_mut();
        s.recover_s += start.elapsed().as_secs_f64();
        out
    }
}

/// An event together with the moment the observer received it.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamped {
    /// Receipt time.
    pub at: Instant,
    /// The event.
    pub event: Event,
}

/// An observer that keeps every event in memory, stamped on receipt.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<Stamped>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the recorded events out.
    pub fn into_events(self) -> Vec<Stamped> {
        self.events.into_inner().expect("recorder lock poisoned")
    }
}

impl Observer for Recorder {
    fn emit(&self, event: &Event) {
        let at = Instant::now();
        self.events
            .lock()
            .expect("recorder lock poisoned")
            .push(Stamped {
                at,
                event: event.clone(),
            });
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    fn call(epoch: Instant, start_ms: u64, end_ms: u64) -> Call {
        Call {
            start: epoch + Duration::from_millis(start_ms),
            end: epoch + Duration::from_millis(end_ms),
            failed: false,
        }
    }

    #[test]
    fn gaps_skip_initialization_and_verification() {
        let e = Instant::now();
        // Two init calls, iterations of 1, 0 and 2 calls, one verification.
        let calls = [
            call(e, 0, 1),
            call(e, 1, 2),
            call(e, 10, 11),
            call(e, 30, 31),
            call(e, 31, 32),
            call(e, 50, 51),
        ];
        let gaps = decision_gaps(&calls, 0, &[2, 3, 3], 5);
        assert_eq!(gaps.len(), 2);
        assert!((gaps[0] - 0.008).abs() < 1e-9);
        assert!((gaps[1] - 0.019).abs() < 1e-9);
    }

    #[test]
    fn gaps_wait_for_the_last_call_in_flight() {
        let e = Instant::now();
        // A wave of two overlapping calls; the later end bounds the gap.
        let calls = [call(e, 0, 9), call(e, 1, 4), call(e, 20, 21)];
        let gaps = decision_gaps(&calls, 0, &[0, 2], 3);
        assert_eq!(gaps.len(), 1);
        assert!((gaps[0] - 0.011).abs() < 1e-9);
    }

    #[test]
    fn resumed_runs_start_sampling_after_their_first_live_call() {
        let e = Instant::now();
        // Runs 0..4 were replayed; iteration starts at 4 is the first
        // live call (no sample), the next one at 5 is a decision.
        let calls = [call(e, 100, 101), call(e, 110, 111)];
        let gaps = decision_gaps(&calls, 4, &[2, 3, 4, 5], 6);
        assert_eq!(gaps.len(), 1);
        assert!((gaps[0] - 0.009).abs() < 1e-9);
    }
}
