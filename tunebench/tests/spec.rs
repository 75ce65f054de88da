//! `BENCHMARK.json` at the repository root names exactly the metrics the
//! benchmark prints, with the same units, in the same order.

use serde_json::Value;
use tunebench::metrics::{end_to_end, per_layer};
use tunebench::workload::{Pass, Workload};

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_units(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_array)
        .expect(key)
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn spec_lists_the_printed_metrics() {
    let spec = spec();
    let pass = Pass::default();
    let printed = |ms: Vec<tunebench::metrics::Metric>| -> Vec<(String, String)> {
        ms.into_iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(
        names_units(&spec, "end_to_end"),
        printed(end_to_end(&[&pass], &[0.0]))
    );
    assert_eq!(
        names_units(&spec, "per_layer"),
        printed(per_layer(&[&pass], &[&pass], &[0.0], 0))
    );
}

#[test]
fn spec_lists_every_workload() {
    let spec = spec();
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}
