//! The single-trace report of `trace_report`: where the wall-clock went
//! per phase and causal span, how the δ-dominance classification
//! progressed, how the GP fits behaved, and what resources the hot paths
//! consumed.
//!
//! A trace may hold several tuning runs (the table bins record every
//! space × seed into one file). [`render`] splits the events at each
//! `RunStart` and prints the report once per run, so headers and
//! classification trajectories never mix runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use obs::Event;

#[derive(Default)]
struct Phase {
    count: usize,
    seconds: f64,
}

impl Phase {
    fn add(&mut self, secs: f64) {
        self.count += 1;
        self.seconds += secs;
    }
}

/// Splits a trace into its runs: a new run begins at every `RunStart`.
/// Events before the first `RunStart` belong to the first run, so a
/// trace with at most one `RunStart` is a single run.
pub fn split_runs(events: &[Event]) -> Vec<&[Event]> {
    let later_starts = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::RunStart { .. }))
        .map(|(i, _)| i)
        .skip(1);
    let starts: Vec<usize> = std::iter::once(0).chain(later_starts).collect();
    starts
        .iter()
        .enumerate()
        .map(|(k, &a)| &events[a..starts.get(k + 1).copied().unwrap_or(events.len())])
        .collect()
}

/// Renders the report of the trace at `path`: one header line, then the
/// report body of each run in [`split_runs`] order.
pub fn render(path: &str, events: &[Event]) -> String {
    let mut out = String::new();
    let runs = split_runs(events);
    if runs.len() == 1 {
        let _ = writeln!(out, "trace report: {path} ({} events)", events.len());
        render_run(events, &mut out);
        return out;
    }
    let _ = writeln!(
        out,
        "trace report: {path} ({} events, {} runs)",
        events.len(),
        runs.len()
    );
    for (k, run) in runs.iter().enumerate() {
        let _ = writeln!(
            out,
            "\n=== run {}/{} ({} events) ===",
            k + 1,
            runs.len(),
            run.len()
        );
        render_run(run, &mut out);
    }
    out
}

/// The report body of one run.
fn render_run(events: &[Event], out: &mut String) {
    let mut phases: BTreeMap<String, Phase> = BTreeMap::new();
    let mut iterations: Vec<(usize, usize, usize, usize, usize, f64)> = Vec::new();
    let mut gp_evals = 0usize;
    let mut gp_cached_evals = 0usize;
    let mut gp_fresh_evals = 0usize;
    let mut gp_restarts = 0usize;
    let mut gp_refits = 0usize;
    let mut gp_jittered = 0usize;
    let mut predict_seconds = 0.0f64;
    let mut lambda_by_objective: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut run_start: Option<String> = None;
    let mut run_end: Option<String> = None;
    let mut failures_by_kind: BTreeMap<String, usize> = BTreeMap::new();
    let mut retries = 0usize;
    let mut quarantined: Vec<usize> = Vec::new();
    let mut checkpoints = 0usize;
    let mut last_checkpoint: Option<(usize, usize)> = None;
    let mut batch_selects = 0usize;
    let mut batch_members = 0usize;
    let mut batch_q = 0usize;
    let mut spans: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    let mut slowest: Vec<(f64, u64, String)> = Vec::new();
    let mut resources = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut predict_resources = (0u64, 0u64, 0u64, 0u64);
    let mut pool_refines: Vec<(usize, usize, usize, usize, f64)> = Vec::new();
    let mut pool_splits_total = 0usize;
    let mut degraded_by_mode: BTreeMap<String, usize> = BTreeMap::new();
    let mut degraded_max_streak = 0usize;
    let mut recovery_scans = 0usize;
    let mut recovery_skipped = 0usize;
    let mut watchdog_firings = 0usize;

    for e in events {
        match e {
            Event::RunStart {
                candidates,
                objectives,
                dim,
                initial_samples,
                max_iterations,
                seed,
            } => {
                run_start = Some(format!(
                    "{candidates} candidates, {objectives} objectives, dim {dim}, \
                     {initial_samples} initial samples, cap {max_iterations} iters, seed {seed}"
                ));
            }
            Event::GpFit {
                objective,
                refit,
                lambda,
                restarts,
                evals,
                cached_evals,
                fresh_evals,
                jitter,
                duration_s,
                ..
            } => {
                phases.entry("gp-fit".into()).or_default().add(*duration_s);
                gp_evals += evals;
                gp_cached_evals += cached_evals;
                gp_fresh_evals += fresh_evals;
                gp_restarts += restarts;
                gp_refits += usize::from(*refit);
                gp_jittered += usize::from(*jitter > 0.0);
                lambda_by_objective
                    .entry(*objective)
                    .and_modify(|(_, last)| *last = *lambda)
                    .or_insert((*lambda, *lambda));
            }
            Event::ToolEval { duration_s, .. } => {
                phases
                    .entry("tool-eval".into())
                    .or_default()
                    .add(*duration_s);
            }
            Event::Stage {
                stage, duration_s, ..
            } => {
                phases
                    .entry(format!("flow/{stage}"))
                    .or_default()
                    .add(*duration_s);
            }
            Event::IterationEnd {
                iteration,
                runs,
                pareto,
                dropped,
                undecided,
                hypervolume,
                duration_s,
                predict_s,
                ..
            } => {
                phases
                    .entry("iteration".into())
                    .or_default()
                    .add(*duration_s);
                predict_seconds += predict_s;
                iterations.push((
                    *iteration,
                    *runs,
                    *pareto,
                    *dropped,
                    *undecided,
                    *hypervolume,
                ));
            }
            Event::RunEnd {
                iterations: it,
                runs,
                verification_runs,
                pareto,
                duration_s,
            } => {
                run_end = Some(format!(
                    "{it} iterations, {runs} runs (+{verification_runs} verification), \
                     {pareto} pareto points, {duration_s:.3} s total"
                ));
            }
            Event::EvalFailed { kind, .. } => {
                *failures_by_kind.entry(kind.clone()).or_default() += 1;
            }
            Event::EvalRetry { .. } => retries += 1,
            Event::CandidateQuarantined { candidate, .. } => quarantined.push(*candidate),
            Event::Checkpoint {
                iteration, runs, ..
            } => {
                checkpoints += 1;
                last_checkpoint = Some((*iteration, *runs));
            }
            Event::SpanEnd {
                id,
                name,
                duration_s,
            } => {
                let entry = spans.entry(name.clone()).or_default();
                entry.0 += 1;
                entry.1 += duration_s;
                slowest.push((*duration_s, *id, name.clone()));
            }
            Event::ResourceSample {
                chol_flops,
                chol_panels,
                tri_solve_rhs,
                fitcache_hits,
                fitcache_misses,
                kernel_assemblies,
                predict_cache_hits,
                predict_cache_misses,
                predict_cache_evictions,
                predict_chunks,
                ..
            } => {
                resources.0 += chol_flops;
                resources.1 += chol_panels;
                resources.2 += tri_solve_rhs;
                resources.3 += fitcache_hits;
                resources.4 += fitcache_misses;
                resources.5 += kernel_assemblies;
                predict_resources.0 += predict_cache_hits;
                predict_resources.1 += predict_cache_misses;
                predict_resources.2 += predict_cache_evictions;
                predict_resources.3 += predict_chunks;
            }
            Event::BatchSelect { q, chosen, .. } => {
                batch_selects += 1;
                batch_members += chosen.len();
                batch_q = batch_q.max(*q);
            }
            Event::PoolRefine {
                iteration,
                splits,
                leaves,
                pool_size,
                effective_pool,
            } => {
                pool_splits_total += splits;
                pool_refines.push((*iteration, *splits, *leaves, *pool_size, *effective_pool));
            }
            Event::DegradedFit {
                mode, consecutive, ..
            } => {
                *degraded_by_mode.entry(mode.clone()).or_default() += 1;
                degraded_max_streak = degraded_max_streak.max(*consecutive);
            }
            Event::RecoveryScan { skipped, .. } => {
                recovery_scans += 1;
                recovery_skipped += skipped;
            }
            Event::WatchdogFired { .. } => watchdog_firings += 1,
            Event::Classify { .. }
            | Event::RegionSnapshot { .. }
            | Event::Select { .. }
            | Event::SpanStart { .. }
            | Event::Message { .. } => {}
        }
    }

    if let Some(s) = &run_start {
        let _ = writeln!(out, "run:   {s}");
    }
    if let Some(s) = &run_end {
        let _ = writeln!(out, "done:  {s}");
    }

    let _ = writeln!(out, "\nwhere the time went:");
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>12} {:>12}",
        "phase", "count", "total s", "mean ms"
    );
    for (name, p) in &phases {
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>12.3} {:>12.2}",
            name,
            p.count,
            p.seconds,
            if p.count == 0 {
                0.0
            } else {
                p.seconds / p.count as f64 * 1e3
            }
        );
    }

    if gp_refits > 0 || gp_evals > 0 {
        let _ =
            writeln!(out,
            "\ngp fitting: {gp_refits} full refits ({gp_restarts} restarts, {gp_evals} objective \
             evals), {gp_jittered} fits needed Cholesky jitter"
        );
        let _ =
            writeln!(out,
            "  objective evals: {gp_cached_evals} distance-cached, {gp_fresh_evals} fresh model \
             builds; box prediction {predict_seconds:.3} s total"
        );
        for (k, (first, last)) in &lambda_by_objective {
            let _ = writeln!(out, "  objective {k}: lambda {first:.3} -> {last:.3}");
        }
    }

    if !iterations.is_empty() {
        let _ = writeln!(
            out,
            "\nclassification trajectory (iteration: runs, pareto/dropped/undecided, hv):"
        );
        let stride = (iterations.len() / 12).max(1);
        for (n, (it, runs, pareto, dropped, undecided, hv)) in iterations.iter().enumerate() {
            if n % stride == 0 || n + 1 == iterations.len() {
                let _ =
                    writeln!(out,
                    "  {it:>4}: runs {runs:>5}  P {pareto:>4}  D {dropped:>4}  U {undecided:>4}  \
                     hv {hv:.4}"
                );
            }
        }
        let (first, last) = (&iterations[0], &iterations[iterations.len() - 1]);
        let _ = writeln!(
            out,
            "  undecided {} -> {}, hypervolume {:.4} -> {:.4}",
            first.4, last.4, first.5, last.5
        );
    }

    if batch_selects > 0 {
        let _ =
            writeln!(out,
            "\nbatch selection: {batch_selects} waves at q = {batch_q}, {batch_members} members \
             total (mean {:.1} per wave)",
            batch_members as f64 / batch_selects as f64
        );
    }

    if !pool_refines.is_empty() {
        let last = pool_refines[pool_refines.len() - 1];
        let _ = writeln!(
            out,
            "\nadaptive pool: {pool_splits_total} splits over {} refinement passes",
            pool_refines.len()
        );
        let _ = writeln!(
            out,
            "  final: {} leaves, {} candidates, effective pool {:.0}",
            last.2, last.3, last.4
        );
        let stride = (pool_refines.len() / 12).max(1);
        let _ = writeln!(
            out,
            "  refinement trajectory (iteration: splits, leaves, pool, effective):"
        );
        for (n, (it, splits, leaves, pool, eff)) in pool_refines.iter().enumerate() {
            if n % stride == 0 || n + 1 == pool_refines.len() {
                let _ =
                    writeln!(out,
                    "  {it:>4}: +{splits:<3} leaves {leaves:>6}  pool {pool:>6}  eff {eff:>10.0}"
                );
            }
        }
    }

    let total_failures: usize = failures_by_kind.values().sum();
    if total_failures > 0 || !quarantined.is_empty() {
        let _ = writeln!(out, "\nevaluation failures:");
        for (kind, count) in &failures_by_kind {
            let _ = writeln!(out, "  {kind:<12} {count:>5}");
        }
        let _ = writeln!(out, "  {retries} retries issued");
        if quarantined.is_empty() {
            let _ = writeln!(
                out,
                "  no candidates quarantined (every failure recovered on retry)"
            );
        } else {
            let _ = writeln!(
                out,
                "  {} candidates quarantined: {:?}",
                quarantined.len(),
                quarantined
            );
        }
    }
    if checkpoints > 0 {
        let (it, runs) = last_checkpoint.expect("count implies a checkpoint was seen");
        let _ = writeln!(
            out,
            "\ncheckpoints: {checkpoints} written, last at iteration {it} ({runs} runs)"
        );
    }

    let degraded_total: usize = degraded_by_mode.values().sum();
    if degraded_total + recovery_scans + watchdog_firings > 0 {
        let _ = writeln!(out, "\nresilience:");
        if degraded_total > 0 {
            let modes: Vec<String> = degraded_by_mode
                .iter()
                .map(|(mode, count)| format!("{count} {mode}"))
                .collect();
            let _ = writeln!(
                out,
                "  {degraded_total} degraded fits ({}), longest streak {degraded_max_streak}",
                modes.join(", ")
            );
        }
        if recovery_scans > 0 {
            let _ = writeln!(
                out,
                "  {recovery_scans} recovery scans skipped {recovery_skipped} damaged \
                 checkpoint(s)"
            );
        }
        if watchdog_firings > 0 {
            let _ = writeln!(out, "  {watchdog_firings} watchdog deadline firings");
        }
    }

    if !spans.is_empty() {
        let _ = writeln!(out, "\ncausal spans:");
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>12} {:>12}",
            "span", "count", "total s", "mean ms"
        );
        for (name, (count, secs)) in &spans {
            let _ = writeln!(
                out,
                "{:<14} {:>8} {:>12.3} {:>12.2}",
                name,
                count,
                secs,
                secs / (*count).max(1) as f64 * 1e3
            );
        }
        slowest.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let _ = writeln!(out, "  slowest:");
        for (secs, id, name) in slowest.iter().take(5) {
            let _ = writeln!(out, "  {:>10.1} ms  {name:<12} #{id}", secs * 1e3);
        }
    }

    let (flops, panels, rhs, hits, misses, kernels) = resources;
    if flops + panels + rhs + hits + misses + kernels > 0 {
        let _ = writeln!(
            out,
            "\nresources: {flops} Cholesky flops in {panels} panels, {rhs} triangular-solve \
             rhs, fitcache {hits} hits / {misses} misses, {kernels} kernel assemblies"
        );
    }
    let (p_hits, p_misses, p_evict, p_chunks) = predict_resources;
    if p_hits + p_misses + p_evict + p_chunks > 0 {
        let served = p_hits + p_misses;
        let rate = if served > 0 {
            100.0 * p_hits as f64 / served as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "predict sweep: cache {p_hits} hits / {p_misses} misses ({rate:.1}% hit), \
             {p_evict} evictions, {p_chunks} chunks dispatched"
        );
    }
}
