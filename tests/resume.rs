//! Workspace integration tests for checkpoint/resume: a run interrupted at
//! an arbitrary checkpoint and resumed from disk must finish with exactly
//! the same `TuneResult` as the uninterrupted run — fault-free or under
//! deterministic fault injection with a fresh oracle process.

use benchgen::Scenario;
use pdsim::{FaultPlan, ObjectiveSpace};
use ppatuner::{
    CheckpointStore, FileCheckpointStore, PpaTuner, PpaTunerConfig, SourceData, VecOracle,
};
use testkit::chaos::FaultyVecOracle;
use testkit::resume::{same_outcome, CaptureStore};

struct Setup {
    candidates: Vec<Vec<f64>>,
    truth: Vec<Vec<f64>>,
    source: SourceData,
    config: PpaTunerConfig,
}

fn setup() -> Setup {
    let scenario = Scenario::two_with_counts(9, 120, 100).with_source_budget(60);
    let space = ObjectiveSpace::PowerDelay;
    let (sx, sy) = scenario.source_xy(space);
    Setup {
        candidates: scenario.target_candidates(),
        truth: scenario.target_table(space),
        source: SourceData::new(sx, sy).expect("scenario source data"),
        config: PpaTunerConfig {
            initial_samples: 10,
            max_iterations: 15,
            seed: testkit::test_seed(),
            threads: 1,
            ..Default::default()
        },
    }
}

/// Every checkpoint of a fault-free run is a valid crash point: resuming
/// from each — through an on-disk store, like a real restart would — lands
/// on the identical final result.
#[test]
fn resume_from_every_checkpoint_matches_the_uninterrupted_run() {
    let s = setup();
    let store = CaptureStore::default();
    let mut oracle = VecOracle::new(s.truth.clone());
    let full = PpaTuner::new(s.config.clone())
        .run_checkpointed(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &store,
        )
        .expect("uninterrupted run succeeds");

    let checkpoints = store.checkpoints();
    assert!(
        checkpoints.len() >= 2,
        "run too short to exercise resume ({} checkpoints)",
        checkpoints.len()
    );
    let dir = std::env::temp_dir().join(format!("ppatuner_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (k, ckpt) in checkpoints.iter().enumerate() {
        let file = FileCheckpointStore::new(dir.join(format!("crash_at_{k}.json")));
        file.save(ckpt).expect("checkpoint persists");
        let mut oracle = VecOracle::new(s.truth.clone());
        let resumed = PpaTuner::new(s.config.clone())
            .resume(
                &s.source,
                &s.candidates,
                &mut oracle,
                &obs::NULL_SINK,
                &file,
            )
            .unwrap_or_else(|e| panic!("resume from checkpoint {k} failed: {e}"));
        same_outcome(&full, &resumed).unwrap_or_else(|e| panic!("checkpoint {k}: {e}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Resume also replays through injected failures: a fresh faulty oracle
/// (attempt counters reset, as after a real process crash) regenerates the
/// same fault stream, and the resumed run matches the original exactly —
/// retries, quarantines, and all.
#[test]
fn resume_replays_faithfully_under_fault_injection() {
    let s = setup();
    let plan = FaultPlan {
        seed: 1009,
        crash_prob: 0.12,
        timeout_prob: 0.06,
        nan_prob: 0.04,
        outlier_prob: 0.03,
        flaky_max_failures: 2,
        always_fail: vec![27, 56],
        ..FaultPlan::default()
    };
    let config = PpaTunerConfig {
        max_eval_attempts: plan.flaky_max_failures + 2,
        ..s.config.clone()
    };

    let store = CaptureStore::default();
    let mut oracle = FaultyVecOracle::new(s.truth.clone(), plan.clone());
    let full = PpaTuner::new(config.clone())
        .run_checkpointed(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &store,
        )
        .expect("chaotic run completes");
    assert!(full.eval_failures > 0, "the plan should have injected");

    let checkpoints = store.checkpoints();
    assert!(checkpoints.len() >= 2);
    for k in [0, checkpoints.len() / 2, checkpoints.len() - 1] {
        let crash_point = CaptureStore::default();
        crash_point.save(&checkpoints[k]).unwrap();
        let mut fresh = FaultyVecOracle::new(s.truth.clone(), plan.clone());
        let resumed = PpaTuner::new(config.clone())
            .resume(
                &s.source,
                &s.candidates,
                &mut fresh,
                &obs::NULL_SINK,
                &crash_point,
            )
            .unwrap_or_else(|e| panic!("faulty resume from checkpoint {k} failed: {e}"));
        same_outcome(&full, &resumed).unwrap_or_else(|e| panic!("faulty checkpoint {k}: {e}"));
    }
}

/// Mid-run resume of a q-batch concurrent run: checkpoints land on whole
/// batch boundaries, and resuming from any of them replays the earlier
/// waves silently, then re-emits the remaining ones with the *same batch
/// composition and span IDs* as the uninterrupted run — the resumed
/// trace's batch events are an exact suffix of the full trace's.
#[test]
fn concurrent_resume_replays_whole_batches_with_identical_spans() {
    use ppatuner::SharedOracle;

    let s = setup();
    let config = PpaTunerConfig {
        batch_size: 4,
        eval_workers: 4,
        ..s.config.clone()
    };
    // Only the events that pin batch structure: which members each wave
    // took, and the causal span IDs of the fan-out.
    let batch_shape = |events: &[obs::Event]| -> Vec<String> {
        events
            .iter()
            .filter_map(|e| match e {
                obs::Event::BatchSelect {
                    iteration,
                    q,
                    chosen,
                    ..
                } => Some(format!("select it={iteration} q={q} chosen={chosen:?}")),
                obs::Event::SpanStart { id, parent, name }
                    if name == "batch_eval" || name == "eval_attempt" =>
                {
                    Some(format!("span {name} id={id} parent={parent:?}"))
                }
                _ => None,
            })
            .collect()
    };

    let store = CaptureStore::default();
    let oracle = SharedOracle::new(VecOracle::new(s.truth.clone()));
    let full_sink = obs::RecordingSink::new();
    let full = PpaTuner::new(config.clone())
        .run_concurrent_checkpointed(&s.source, &s.candidates, &oracle, &full_sink, &store)
        .expect("uninterrupted batch run succeeds");
    let full_shape = batch_shape(&full_sink.events());
    assert!(
        full_shape.iter().any(|l| l.starts_with("select")),
        "run never batch-selected: {full_shape:?}"
    );

    let checkpoints = store.checkpoints();
    assert!(checkpoints.len() >= 2);
    for (k, ckpt) in checkpoints.iter().enumerate() {
        let crash_point = CaptureStore::default();
        crash_point.save(ckpt).unwrap();
        let fresh = SharedOracle::new(VecOracle::new(s.truth.clone()));
        let resumed_sink = obs::RecordingSink::new();
        let resumed = PpaTuner::new(config.clone())
            .resume_concurrent(
                &s.source,
                &s.candidates,
                &fresh,
                &resumed_sink,
                &crash_point,
            )
            .unwrap_or_else(|e| panic!("batch resume from checkpoint {k} failed: {e}"));
        same_outcome(&full, &resumed).unwrap_or_else(|e| panic!("batch checkpoint {k}: {e}"));
        let resumed_shape = batch_shape(&resumed_sink.events());
        assert!(
            resumed_shape.len() <= full_shape.len(),
            "checkpoint {k}: resumed trace has extra batch events"
        );
        assert_eq!(
            resumed_shape.as_slice(),
            &full_shape[full_shape.len() - resumed_shape.len()..],
            "checkpoint {k}: resumed batch events are not a suffix of the full trace"
        );
    }
}

/// Resume of a q-batch concurrent run under fault injection: waves carry
/// retries (flaky members) and quarantines (hard-failing members), and
/// resuming from every checkpoint with a fresh faulty oracle reproduces
/// the uninterrupted result, with a canonical trace that is an exact
/// suffix of the uninterrupted one.
#[test]
fn concurrent_resume_replays_failing_waves() {
    use ppatuner::SharedOracle;
    use testkit::trace::canonical_jsonl;

    let s = setup();
    let plan = FaultPlan {
        seed: 2027,
        crash_prob: 0.15,
        timeout_prob: 0.08,
        nan_prob: 0.04,
        outlier_prob: 0.03,
        flaky_max_failures: 2,
        always_fail: (0..s.candidates.len()).step_by(6).collect(),
        ..FaultPlan::default()
    };
    let config = PpaTunerConfig {
        batch_size: 4,
        eval_workers: 2,
        max_eval_attempts: plan.flaky_max_failures + 1,
        ..s.config.clone()
    };

    let store = CaptureStore::default();
    let oracle = SharedOracle::new(FaultyVecOracle::new(s.truth.clone(), plan.clone()));
    let full_sink = obs::RecordingSink::new();
    let full = PpaTuner::new(config.clone())
        .run_concurrent_checkpointed(&s.source, &s.candidates, &oracle, &full_sink, &store)
        .expect("chaotic batch run completes");
    let full_events = full_sink.events();
    let in_loop = |e: &obs::Event, kind: &str| match e {
        obs::Event::EvalRetry { iteration, .. } => kind == "retry" && *iteration > 0,
        obs::Event::CandidateQuarantined { iteration, .. } => {
            kind == "quarantine" && *iteration > 0
        }
        _ => false,
    };
    for kind in ["retry", "quarantine"] {
        assert!(
            full_events.iter().any(|e| in_loop(e, kind)),
            "no {kind} inside a selection wave"
        );
    }
    let full_trace = canonical_jsonl(&full_events);
    let full_lines: Vec<&str> = full_trace.lines().collect();

    let checkpoints = store.checkpoints();
    assert!(checkpoints.len() >= 2);
    for (k, ckpt) in checkpoints.iter().enumerate() {
        let crash_point = CaptureStore::default();
        crash_point.save(ckpt).unwrap();
        let fresh = SharedOracle::new(FaultyVecOracle::new(s.truth.clone(), plan.clone()));
        let resumed_sink = obs::RecordingSink::new();
        let resumed = PpaTuner::new(config.clone())
            .resume_concurrent(
                &s.source,
                &s.candidates,
                &fresh,
                &resumed_sink,
                &crash_point,
            )
            .unwrap_or_else(|e| panic!("faulty batch resume from checkpoint {k} failed: {e}"));
        same_outcome(&full, &resumed)
            .unwrap_or_else(|e| panic!("faulty batch checkpoint {k}: {e}"));
        let resumed_trace = canonical_jsonl(&resumed_sink.events());
        let resumed_lines: Vec<&str> = resumed_trace.lines().collect();
        assert!(
            full_lines.ends_with(&resumed_lines),
            "checkpoint {k}: resumed trace is not a suffix of the full trace"
        );
    }
}

/// A checkpoint from a different configuration (different seed, so a
/// different config digest) is refused instead of silently producing a
/// diverged run.
#[test]
fn resume_refuses_a_checkpoint_from_another_run() {
    let s = setup();
    let store = CaptureStore::default();
    let mut oracle = VecOracle::new(s.truth.clone());
    PpaTuner::new(s.config.clone())
        .run_checkpointed(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &store,
        )
        .expect("run succeeds");

    let other = PpaTunerConfig {
        seed: s.config.seed + 1,
        ..s.config.clone()
    };
    let mut oracle = VecOracle::new(s.truth.clone());
    let err = PpaTuner::new(other)
        .resume(
            &s.source,
            &s.candidates,
            &mut oracle,
            &obs::NULL_SINK,
            &store,
        )
        .expect_err("foreign checkpoint must be rejected");
    assert!(
        matches!(err, ppatuner::TunerError::Checkpoint { .. }),
        "unexpected error: {err}"
    );
}
