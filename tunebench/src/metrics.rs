//! Turns measured passes into the named metrics the benchmark prints.
//!
//! A pass yields one value per metric; a run reports the median over its
//! passes. The decision times are the exception: each decision is first
//! reduced to its median over the passes, and the percentiles are read
//! off those. End-to-end metrics come from untraced passes, per-layer
//! ones from traced passes.

use crate::stats::{median, tail};
use crate::trace;
use crate::workload::Pass;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn mean_count(v: &[usize]) -> f64 {
    v.iter().sum::<usize>() as f64 / v.len().max(1) as f64
}

/// The end-to-end figures of one untraced pass, apart from the decision
/// times (see [`decisions`]).
fn pass_end_to_end(p: &Pass) -> Vec<Metric> {
    vec![
        m("tune_s", p.tune_s, "s"),
        m("hv_error", mean(&p.hv_error), "ratio"),
        m("adrs", mean(&p.adrs), "ratio"),
        m("tool_runs", mean_count(&p.tool_runs), "count"),
        m(
            "verification_runs",
            mean_count(&p.verification_runs),
            "count",
        ),
    ]
}

/// The per-layer figures of one traced pass.
fn pass_per_layer(p: &Pass) -> Vec<Metric> {
    let mut layers = trace::Layers::default();
    for (_, events) in &p.events {
        layers.add(&trace::summarize(events));
    }
    let c = &p.counters;
    let lookups = c.predict_cache_hits + c.predict_cache_misses;
    let hit_ratio = if lookups == 0 {
        0.0
    } else {
        c.predict_cache_hits as f64 / lookups as f64
    };
    vec![
        m("gp.fit_s", layers.fit_s, "s"),
        m("gp.fits", layers.fits as f64, "count"),
        m("gp.refits", layers.refits as f64, "count"),
        m("gp.fit_evals", layers.fit_evals as f64, "count"),
        m("gp.fitcache_hits", c.fitcache_hits as f64, "count"),
        m("gp.fitcache_misses", c.fitcache_misses as f64, "count"),
        m("gp.kernel_assemblies", c.kernel_assemblies as f64, "count"),
        m("linalg.chol_flops", c.linalg.chol_flops as f64, "flop"),
        m("linalg.chol_panels", c.linalg.chol_panels as f64, "count"),
        m(
            "linalg.tri_solve_rhs",
            c.linalg.tri_solve_rhs as f64,
            "count",
        ),
        m(
            "linalg.tri_solve_tail_rows",
            c.linalg.tri_solve_tail_rows as f64,
            "count",
        ),
        m("gp.predict_s", layers.predict_s, "s"),
        m(
            "gp.predict_cache_hits",
            c.predict_cache_hits as f64,
            "count",
        ),
        m(
            "gp.predict_cache_misses",
            c.predict_cache_misses as f64,
            "count",
        ),
        m("gp.predict_cache_hit_ratio", hit_ratio, "ratio"),
        m("gp.predict_chunks", c.predict_chunks as f64, "count"),
        m("ppatuner.classify_s", layers.classify_s, "s"),
        m("ppatuner.select_s", layers.select_s, "s"),
        m("ppatuner.iteration_self_s", layers.iteration_self_s, "s"),
        m("ppatuner.iterations", layers.iterations as f64, "count"),
        m("checkpoint.saves", p.store.saves as f64, "count"),
        m("checkpoint.bytes", p.checkpoint_bytes as f64, "B"),
        m("checkpoint.save_s", p.store.save_s, "s"),
        m("checkpoint.recover_s", p.store.recover_s, "s"),
        m("resume_s", median(&p.resume_s).unwrap_or(0.0), "s"),
        m("oracle.calls", p.oracle_calls as f64, "count"),
        m("oracle.busy_s", p.oracle_busy_s, "s"),
        m("oracle.failed", p.oracle_failed as f64, "count"),
        m(
            "failed_ops",
            p.failed as f64 / p.attempted.max(1) as f64,
            "ratio",
        ),
        m("pareto.score_s", p.score_s, "s"),
        m("obs.events", layers.events as f64, "count"),
    ]
}

/// Each decision's median over the passes. The inputs are fixed, so the
/// k-th decision of every pass makes the same selection with the same
/// data; a host stall that slows it in a minority of the passes does not
/// reach its median. Passes that disagree in length are cut to the
/// shortest (they also fail the check that every pass returns the same
/// results).
pub fn decisions(passes: &[&Pass]) -> Vec<f64> {
    let n = passes.iter().map(|p| p.decisions.len()).min().unwrap_or(0);
    (0..n)
        .map(|k| {
            let samples: Vec<f64> = passes.iter().map(|p| p.decisions[k]).collect();
            median(&samples).expect("at least one pass")
        })
        .collect()
}

/// The end-to-end metrics of a run: medians over its untraced passes,
/// the percentiles of their per-decision medians, and the median set-up
/// time.
pub fn end_to_end(untraced: &[&Pass], setup_s: &[f64]) -> Vec<Metric> {
    let per_pass: Vec<Vec<Metric>> = untraced.iter().map(|p| pass_end_to_end(p)).collect();
    let medians = median_by_name(&per_pass);
    let decisions = decisions(untraced);
    // In the order of BENCHMARK.json: tune_s, the decision times, the
    // rest of the per-pass medians, set-up.
    let mut out = Vec::new();
    out.extend(medians.iter().take(1).cloned());
    out.push(m(
        "decision_s_p50",
        median(&decisions).unwrap_or(f64::NAN),
        "s",
    ));
    out.push(m(
        "decision_s_tail",
        tail(&decisions).map_or(f64::NAN, |t| t.value),
        "s",
    ));
    out.extend(medians.iter().skip(1).cloned());
    out.push(m("setup_s", median(setup_s).unwrap_or(f64::NAN), "s"));
    out
}

/// The per-layer metrics of a run: medians over its traced passes, plus
/// scenario generation and the tracing overhead (median traced over
/// median untraced `tune_s`).
pub fn per_layer(
    traced: &[&Pass],
    untraced: &[&Pass],
    generate_s: &[f64],
    flow_runs: usize,
) -> Vec<Metric> {
    let per_pass: Vec<Vec<Metric>> = traced.iter().map(|p| pass_per_layer(p)).collect();
    let tune = |passes: &[&Pass]| {
        median(&passes.iter().map(|p| p.tune_s).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let mut out = median_by_name(&per_pass);
    out.extend([
        m(
            "benchgen.generate_s",
            median(generate_s).unwrap_or(f64::NAN),
            "s",
        ),
        m("benchgen.flow_runs", flow_runs as f64, "count"),
        m("obs.trace_overhead", tune(traced) / tune(untraced), "ratio"),
    ]);
    out
}

/// Per metric name, the median over `per_pass` (each inner list holds
/// the same names in the same order).
fn median_by_name(per_pass: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = per_pass.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, proto)| {
            let values: Vec<f64> = per_pass.iter().map(|p| p[i].value).collect();
            m(proto.name, median(&values).unwrap_or(f64::NAN), proto.unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_are_taken_per_name() {
        let pass = |t: f64, n: f64| vec![m("a", t, "s"), m("b", n, "count")];
        let med = median_by_name(&[pass(3.0, 7.0), pass(1.0, 7.0), pass(2.0, 7.0)]);
        assert_eq!(med, vec![m("a", 2.0, "s"), m("b", 7.0, "count")]);
        assert!(median_by_name(&[]).is_empty());
    }

    #[test]
    fn decisions_are_medians_per_position() {
        let pass = |decisions: Vec<f64>| Pass {
            decisions,
            ..Pass::default()
        };
        // The stall at position 1 of the second pass does not survive.
        let (a, b, c) = (
            pass(vec![1.0, 2.0, 3.0]),
            pass(vec![1.5, 9.0, 3.5]),
            pass(vec![0.5, 2.5, 2.5]),
        );
        assert_eq!(decisions(&[&a, &b, &c]), vec![1.0, 2.5, 3.0]);
        // Two passes: the mean of each pair; a longer pass is cut.
        let d = pass(vec![2.0, 4.0, 5.0, 7.0]);
        assert_eq!(decisions(&[&a, &d]), vec![1.5, 3.0, 4.0]);
        assert!(decisions(&[]).is_empty());
    }
}
