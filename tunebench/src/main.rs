//! Runs one benchmark workload for a fixed time and reports its metrics.
//!
//! ```text
//! tunebench --workload <table3|wide_pool|batch_resume> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures untraced passes and reports the end-to-end
//! metrics. `--trace 1` alternates untraced and traced passes and reports
//! the per-layer metrics, including the tracing overhead. Human-readable
//! lines go first; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. A report with the
//! host block and per-run layer split is written under `out/` in the
//! benchmark's directory, and the first traced pass's events to
//! `out/<workload>.trace.jsonl`, each tuning call introduced by a
//! `Message` event naming it.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use obs::Event;
use serde_json::{json, Value};

use tunebench::metrics::{decisions, end_to_end, per_layer};
use tunebench::stats::tail;
use tunebench::workload::{self, Pass, Workload};
use tunebench::{host, trace};

const USAGE: &str = "usage: tunebench --workload <table3|wide_pool|batch_resume> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups before each pass; `setup_s` is the median over the run.
const SETUPS_PER_PASS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tunebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("tunebench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &out_dir, &scratch);
    std::fs::remove_dir_all(&scratch).ok();
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tunebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload and returns the result line.
fn run(args: &Args, out_dir: &Path, scratch: &Path) -> Result<String, String> {
    let threads = host::available_parallelism();
    let host = host::block(args.seed, threads, workload::FIT_RESTARTS);
    println!("host {}", text(&host));

    // Every pass runs on inputs set up just before it, so the set-up
    // times sample the whole run rather than its first moments. Whole
    // passes repeat until the time is up, ending within half a pass of it.
    let begin = Instant::now();
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut flow_runs;
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let started = Instant::now();
        let mut inputs = None;
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            let i = workload::setup(args.workload, args.seed, threads);
            setup_s.push(t.elapsed().as_secs_f64());
            generate_s.push(i.generate_s);
            inputs = Some(i);
        }
        let inputs = inputs.expect("at least one set-up");
        flow_runs = inputs.flow_runs;
        let traced = args.trace && passes.len() % 2 == 1;
        passes.push(workload::pass(&inputs, traced, scratch));
        let last = started.elapsed().as_secs_f64();
        let have_both = !args.trace || passes.len() >= 2;
        if have_both && begin.elapsed().as_secs_f64() + 0.5 * last >= args.seconds {
            break;
        }
    }
    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| p.traced);

    let mut attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    // Every pass computes the same answers: tracing and repetition must
    // not change what the tuner returns.
    for p in &passes[1..] {
        attempted += 1;
        if p.outcomes != passes[0].outcomes {
            failed += 1;
            failures.push("a later pass returned different results".into());
        }
    }

    let metrics = if args.trace {
        per_layer(&traced, &untraced, &generate_s, flow_runs)
    } else {
        end_to_end(&untraced, &setup_s)
    };

    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let decision_tail = tail(&decisions(&untraced));
    if let Some(t) = &decision_tail {
        println!(
            "decision_s_tail is p{} of {} decisions per pass, each the median over {} passes ({} beyond)",
            t.percentile,
            t.samples,
            untraced.len(),
            t.beyond
        );
    }
    println!(
        "passes: {} untraced, {} traced; {} operations, {} failed",
        untraced.len(),
        traced.len(),
        attempted,
        failed
    );
    for f in &failures {
        println!("FAILED {f}");
    }

    let metric_map = Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect(),
    );
    let report = json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "setup_s": setup_s,
        "tune_s": passes.iter().map(|p| p.tune_s).collect::<Vec<_>>(),
        "traced": passes.iter().map(|p| p.traced).collect::<Vec<_>>(),
        "decision_tail": decision_tail
            .map(|t| json!({"percentile": t.percentile, "samples": t.samples, "beyond": t.beyond})),
        "runs": traced.first().map(|p| per_run_layers(p)).unwrap_or_default(),
        "failures": failures,
        "metrics": metric_map.clone(),
    });
    write_outputs(args, out_dir, &report, traced.first().copied())?;
    Ok(text(&json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_map,
    })))
}

fn text(v: &Value) -> String {
    serde_json::to_string(v).expect("a JSON value always serializes")
}

/// Layer split of every run segment of a traced pass.
fn per_run_layers(p: &Pass) -> Vec<Value> {
    let mut out = Vec::new();
    for (label, events) in &p.events {
        for (i, seg) in trace::segment_runs(events).into_iter().enumerate() {
            let l = trace::layers(seg);
            out.push(json!({
                "call": label,
                "segment": i,
                "gp_fit_s": l.fit_s,
                "predict_s": l.predict_s,
                "classify_s": l.classify_s,
                "select_s": l.select_s,
                "iteration_self_s": l.iteration_self_s,
                "iterations": l.iterations,
                "fit_evals": l.fit_evals,
                "events": l.events,
            }));
        }
    }
    out
}

fn write_outputs(
    args: &Args,
    out_dir: &Path,
    report: &Value,
    traced: Option<&Pass>,
) -> Result<(), String> {
    let name = args.workload.name();
    let write = |path: PathBuf, text: String| {
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(
        out_dir.join(format!(
            "{name}-seed{}-trace{}.json",
            args.seed,
            u8::from(args.trace)
        )),
        serde_json::to_string_pretty(report).map_err(|e| e.to_string())?,
    )?;
    let Some(p) = traced else { return Ok(()) };
    let path = out_dir.join(format!("{name}.trace.jsonl"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for (label, events) in &p.events {
        let marker = Event::Message {
            text: format!("tunebench call {label}"),
        };
        for event in std::iter::once(&marker).chain(events.iter().map(|s| &s.event)) {
            let line = serde_json::to_string(event).map_err(|e| e.to_string())?;
            writeln!(w, "{line}").map_err(|e| e.to_string())?;
        }
    }
    w.flush().map_err(|e| format!("{}: {e}", path.display()))
}
