//! `trace_report` on a trace holding two runs: each run gets its own
//! header and its own classification trajectory, identical to the report
//! of that run recorded alone.

use bench::fleet::parse_jsonl;
use bench::report::{render, split_runs};
use obs::{Event, JsonlSink};
use ppatuner::{PpaTuner, PpaTunerConfig, SourceData, VecOracle};

/// Records one small tuning run per seed, all into the trace at `path`.
fn record(path: &std::path::Path, seeds: &[u64]) -> Vec<Event> {
    let scenario = benchgen::Scenario::two_with_counts(5, 80, 60).with_source_budget(40);
    let space = pdsim::ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("source");
    let sink = JsonlSink::create(path).expect("create trace");
    for &seed in seeds {
        let config = PpaTunerConfig {
            initial_samples: 8,
            max_iterations: 4,
            seed,
            ..Default::default()
        };
        let mut oracle = VecOracle::new(scenario.target_table(space));
        PpaTuner::new(config)
            .run_observed(&source, &candidates, &mut oracle, &sink)
            .expect("tuning run");
    }
    sink.try_flush().expect("trace flushes cleanly");
    let text = std::fs::read_to_string(path).expect("read trace");
    parse_jsonl(&text, false).expect("trace parses").events
}

/// The deterministic parts of a run's report: its `run:` header line
/// and its classification trajectory block (timings vary between
/// recordings, so the rest of the body is left out).
fn run_summary(report: &str) -> String {
    let header = report
        .lines()
        .find(|l| l.starts_with("run:"))
        .expect("run header");
    let trajectory: Vec<&str> = report
        .lines()
        .skip_while(|l| !l.starts_with("classification trajectory"))
        .take_while(|l| !l.is_empty())
        .collect();
    assert!(!trajectory.is_empty(), "no trajectory in {report}");
    format!("{header}\n{}", trajectory.join("\n"))
}

#[test]
fn two_run_trace_reports_each_run_separately() {
    let dir = std::env::temp_dir().join(format!("ppatuner-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let both = record(&dir.join("both.jsonl"), &[1, 2]);
    let alone: Vec<Vec<Event>> = [1, 2]
        .iter()
        .map(|&seed| record(&dir.join(format!("seed-{seed}.jsonl")), &[seed]))
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    let runs = split_runs(&both);
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0].len() + runs[1].len(), both.len());
    assert!(matches!(runs[1][0], Event::RunStart { seed: 2, .. }));

    let report = render("both.jsonl", &both);
    assert!(
        report.starts_with(&format!(
            "trace report: both.jsonl ({} events, 2 runs)",
            both.len()
        )),
        "{report}"
    );
    let sections: Vec<&str> = report.split("\n=== run ").skip(1).collect();
    assert_eq!(sections.len(), 2, "{report}");
    for (k, section) in sections.iter().enumerate() {
        // The section header, then the report of that run alone.
        let (header, rest) = section.split_once('\n').expect("section header");
        assert_eq!(
            header,
            format!("{}/2 ({} events) ===", k + 1, runs[k].len())
        );
        assert_eq!(rest.matches("run:").count(), 1, "{rest}");
        assert!(rest.contains(&format!("seed {}", k + 1)), "{rest}");
        assert_eq!(rest.matches("classification trajectory").count(), 1);
        let single = render("alone.jsonl", &alone[k]);
        assert_eq!(run_summary(rest), run_summary(&single), "run {}", k + 1);
    }
}

#[test]
fn single_run_trace_keeps_the_one_report_layout() {
    let events = vec![Event::Message {
        text: "no run".into(),
    }];
    assert_eq!(split_runs(&events).len(), 1);
    let report = render("t.jsonl", &events);
    assert!(report.starts_with("trace report: t.jsonl (1 events)\n"));
    assert!(!report.contains("=== run"));
}
