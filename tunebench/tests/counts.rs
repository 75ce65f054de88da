//! The counts the benchmark reports must repeat exactly: across two runs
//! at one seed, and across thread settings. A reduced Scenario Two keeps
//! this fast; the code path is the benchmark's own.
//!
//! One test function on purpose: the GP and linalg counters are
//! process-global, so concurrent tests in this binary would leak into
//! each other's deltas.

use std::path::{Path, PathBuf};

use benchgen::Scenario;
use pdsim::ObjectiveSpace;
use tunebench::metrics::{end_to_end, per_layer};
use tunebench::workload::{pass, run_input, Inputs, Workload};

const COUNTED: [&str; 5] = [
    "tool_runs",
    "linalg.chol_flops",
    "gp.fit_evals",
    "checkpoint.saves",
    "oracle.calls",
];

fn counts(workload: Workload, threads: usize, scratch: &Path) -> Vec<(&'static str, f64)> {
    let scenario = Scenario::two_with_counts(17, 240, 160).with_source_budget(40);
    let runs = [17, 29]
        .into_iter()
        .map(|seed| {
            let mut run = run_input(
                &scenario,
                ObjectiveSpace::AreaPowerDelay,
                seed,
                threads,
                workload,
            );
            run.config.initial_samples = 10;
            run.config.max_iterations = 8;
            run.config.refit_every = 4;
            run.config.fit_budget.evals_per_restart = 20;
            run
        })
        .collect();
    let inputs = Inputs {
        workload,
        runs,
        generate_s: 0.0,
        flow_runs: 0,
    };
    let p = pass(&inputs, true, scratch);
    assert_eq!(p.failed, 0, "{:?}", p.failures);
    let mut metrics = end_to_end(&[&p], &[0.0]);
    metrics.extend(per_layer(&[&p], &[&p], &[0.0], 0));
    COUNTED
        .iter()
        .map(|&name| {
            let m = metrics.iter().find(|m| m.name == name).expect(name);
            (name, m.value)
        })
        .collect()
}

#[test]
fn counts_repeat_across_runs_and_thread_settings() {
    let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-counts-{}", std::process::id()));
    for workload in [Workload::Table3, Workload::BatchResume] {
        let first = counts(workload, 1, &scratch);
        assert_eq!(counts(workload, 1, &scratch), first, "{workload:?} rerun");
        assert_eq!(counts(workload, 2, &scratch), first, "{workload:?} threads");
        let get = |name| first.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(get("linalg.chol_flops") > 0.0 && get("gp.fit_evals") > 0.0);
        assert_eq!(
            get("checkpoint.saves") > 0.0,
            workload == Workload::BatchResume
        );
    }
    std::fs::remove_dir_all(&scratch).ok();
}
