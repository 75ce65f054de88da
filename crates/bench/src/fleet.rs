//! Trace ingestion and fleet-view aggregation for `trace_report`.
//!
//! A *fleet* is a directory of JSONL traces — one file per tuning run,
//! e.g. a seed sweep or a nightly farm. This module parses each trace
//! (strictly by default, skip-and-count under `--lenient`), reduces it
//! to a [`RunSummary`], and renders cross-run aggregates: hypervolume
//! convergence quantiles, evaluation failure/retry/quarantine rates, a
//! per-phase wall-clock breakdown from the causal spans, and the
//! slowest spans across the whole fleet.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use obs::Event;

/// A malformed trace line: where it is and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// The parser's complaint.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// One parsed JSONL trace.
#[derive(Debug, Default)]
pub struct ParsedTrace {
    /// Events in file order.
    pub events: Vec<Event>,
    /// Malformed lines skipped (always 0 in strict mode).
    pub skipped: usize,
}

/// Parses a JSONL trace. Blank lines are ignored. In strict mode
/// (`lenient == false`) the first malformed line aborts the parse with
/// its line number; in lenient mode malformed lines are skipped and
/// counted.
///
/// # Errors
///
/// Returns the first [`ParseError`] in strict mode.
pub fn parse_jsonl(text: &str, lenient: bool) -> Result<ParsedTrace, ParseError> {
    let mut out = ParsedTrace::default();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Event>(line) {
            Ok(e) => out.events.push(e),
            Err(e) if lenient => {
                let _ = e;
                out.skipped += 1;
            }
            Err(e) => {
                return Err(ParseError {
                    line: idx + 1,
                    message: format!("unparseable event: {e}"),
                });
            }
        }
    }
    Ok(out)
}

/// One span's closing record, kept for the fleet-wide slowest-span view.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The trace (file stem) the span belongs to.
    pub run: String,
    /// Span name (`run`, `iteration`, `gp_fit`, ...).
    pub name: String,
    /// Causal span id within its run.
    pub id: u64,
    /// Wall-clock duration.
    pub duration_s: f64,
}

/// Everything the fleet view needs from one run's trace.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Display name (file stem).
    pub name: String,
    /// Total events in the trace.
    pub events: usize,
    /// Iterations completed (`IterationEnd` count).
    pub iterations: usize,
    /// Accepted evaluations (`ToolEval` count).
    pub tool_evals: usize,
    /// Failed attempts (`EvalFailed` count).
    pub failures: usize,
    /// Retries issued (`EvalRetry` count).
    pub retries: usize,
    /// Candidates quarantined.
    pub quarantines: usize,
    /// Checkpoints written.
    pub checkpoints: usize,
    /// Hypervolume after each iteration, in order.
    pub hv_trajectory: Vec<f64>,
    /// Per-span-name wall clock: name → (count, total seconds).
    pub phase_seconds: BTreeMap<String, (usize, f64)>,
    /// Every closed span, for the slowest-span ranking.
    pub spans: Vec<SpanRecord>,
    /// Summed resource counters across the run's `ResourceSample`s:
    /// (chol_flops, kernel_assemblies, fitcache_hits, fitcache_misses).
    pub resources: (u64, u64, u64, u64),
    /// Summed predict-sweep counters across the run's `ResourceSample`s:
    /// (cache hits, cache misses, cache evictions, chunks dispatched).
    /// All zero for traces predating the predict cache.
    pub predict_resources: (u64, u64, u64, u64),
    /// Adaptive-pool splits across all `PoolRefine` passes.
    pub pool_splits: usize,
    /// Final (pool size, effective pool) from the last `PoolRefine`,
    /// `None` when the run used a fixed pool.
    pub pool_final: Option<(usize, f64)>,
    /// Degraded surrogate calibrations (`DegradedFit` count).
    pub degraded_fits: usize,
    /// Checkpoint-chain recovery scans that skipped damaged entries
    /// (`RecoveryScan` count).
    pub recovery_scans: usize,
    /// Watchdog deadline firings (`WatchdogFired` count).
    pub watchdog_firings: usize,
}

impl RunSummary {
    /// The run's final hypervolume, when it iterated at all.
    pub fn final_hv(&self) -> Option<f64> {
        self.hv_trajectory.last().copied()
    }
}

/// Reduces one trace to its [`RunSummary`].
pub fn summarize_run(name: &str, events: &[Event]) -> RunSummary {
    let mut s = RunSummary {
        name: name.to_string(),
        events: events.len(),
        ..RunSummary::default()
    };
    for e in events {
        match e {
            Event::IterationEnd { hypervolume, .. } => {
                s.iterations += 1;
                s.hv_trajectory.push(*hypervolume);
            }
            Event::ToolEval { .. } => s.tool_evals += 1,
            Event::EvalFailed { .. } => s.failures += 1,
            Event::EvalRetry { .. } => s.retries += 1,
            Event::CandidateQuarantined { .. } => s.quarantines += 1,
            Event::Checkpoint { .. } => s.checkpoints += 1,
            Event::SpanEnd {
                id,
                name: span_name,
                duration_s,
            } => {
                let entry = s.phase_seconds.entry(span_name.clone()).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += duration_s;
                s.spans.push(SpanRecord {
                    run: name.to_string(),
                    name: span_name.clone(),
                    id: *id,
                    duration_s: *duration_s,
                });
            }
            Event::ResourceSample {
                chol_flops,
                kernel_assemblies,
                fitcache_hits,
                fitcache_misses,
                predict_cache_hits,
                predict_cache_misses,
                predict_cache_evictions,
                predict_chunks,
                ..
            } => {
                s.resources.0 += chol_flops;
                s.resources.1 += kernel_assemblies;
                s.resources.2 += fitcache_hits;
                s.resources.3 += fitcache_misses;
                s.predict_resources.0 += predict_cache_hits;
                s.predict_resources.1 += predict_cache_misses;
                s.predict_resources.2 += predict_cache_evictions;
                s.predict_resources.3 += predict_chunks;
            }
            Event::PoolRefine {
                splits,
                pool_size,
                effective_pool,
                ..
            } => {
                s.pool_splits += splits;
                s.pool_final = Some((*pool_size, *effective_pool));
            }
            Event::DegradedFit { .. } => s.degraded_fits += 1,
            Event::RecoveryScan { .. } => s.recovery_scans += 1,
            Event::WatchdogFired { .. } => s.watchdog_firings += 1,
            _ => {}
        }
    }
    s
}

/// Nearest-rank quantile of an unsorted, non-empty sample.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Cross-run aggregates over a fleet of [`RunSummary`]s.
#[derive(Debug, Default)]
pub struct FleetReport {
    /// One summary per ingested trace, in directory order.
    pub runs: Vec<RunSummary>,
}

impl FleetReport {
    /// Renders the fleet view as plain text: header, hv-convergence
    /// quantiles, evaluation health, per-phase time breakdown, and the
    /// `top_k` slowest spans.
    pub fn render(&self, top_k: usize) -> String {
        let mut out = String::new();
        let total_events: usize = self.runs.iter().map(|r| r.events).sum();
        let _ = writeln!(
            out,
            "fleet report: {} runs, {} events",
            self.runs.len(),
            total_events
        );
        for r in &self.runs {
            let _ = writeln!(
                out,
                "  {:<24} {:>6} events  {:>3} iters  {:>4} evals  hv {}",
                r.name,
                r.events,
                r.iterations,
                r.tool_evals,
                r.final_hv()
                    .map_or_else(|| "   -".into(), |h| format!("{h:.4}")),
            );
        }

        let finals: Vec<f64> = self.runs.iter().filter_map(RunSummary::final_hv).collect();
        if !finals.is_empty() {
            let _ = writeln!(out, "\nhypervolume convergence ({} runs):", finals.len());
            let _ = writeln!(
                out,
                "  final hv   min {:.4}  p25 {:.4}  median {:.4}  p75 {:.4}  max {:.4}",
                quantile(&finals, 0.0),
                quantile(&finals, 0.25),
                quantile(&finals, 0.5),
                quantile(&finals, 0.75),
                quantile(&finals, 1.0),
            );
            let iters: Vec<f64> = self
                .runs
                .iter()
                .filter(|r| r.iterations > 0)
                .map(|r| r.iterations as f64)
                .collect();
            let _ = writeln!(
                out,
                "  iterations min {:.0}  median {:.0}  max {:.0}",
                quantile(&iters, 0.0),
                quantile(&iters, 0.5),
                quantile(&iters, 1.0),
            );
        }

        let attempts: usize = self.runs.iter().map(|r| r.tool_evals + r.failures).sum();
        let failures: usize = self.runs.iter().map(|r| r.failures).sum();
        let retries: usize = self.runs.iter().map(|r| r.retries).sum();
        let quarantines: usize = self.runs.iter().map(|r| r.quarantines).sum();
        let checkpoints: usize = self.runs.iter().map(|r| r.checkpoints).sum();
        let _ = writeln!(out, "\nevaluation health:");
        let pct = |n: usize| {
            if attempts == 0 {
                0.0
            } else {
                100.0 * n as f64 / attempts as f64
            }
        };
        let _ = writeln!(
            out,
            "  {attempts} attempts: {failures} failed ({:.1}%), {retries} retries ({:.1}%), \
             {quarantines} quarantined; {checkpoints} checkpoints",
            pct(failures),
            pct(retries),
        );

        let degraded: usize = self.runs.iter().map(|r| r.degraded_fits).sum();
        let scans: usize = self.runs.iter().map(|r| r.recovery_scans).sum();
        let watchdogs: usize = self.runs.iter().map(|r| r.watchdog_firings).sum();
        if degraded + scans + watchdogs > 0 {
            let affected = self
                .runs
                .iter()
                .filter(|r| r.degraded_fits + r.recovery_scans + r.watchdog_firings > 0)
                .count();
            let _ = writeln!(
                out,
                "\nresilience ({affected} of {} runs affected):",
                self.runs.len()
            );
            let _ = writeln!(
                out,
                "  {degraded} degraded fits, {scans} recovery scans past damaged checkpoints, \
                 {watchdogs} watchdog firings"
            );
        }

        let mut phases: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for r in &self.runs {
            for (name, (count, secs)) in &r.phase_seconds {
                let entry = phases.entry(name).or_insert((0, 0.0));
                entry.0 += count;
                entry.1 += secs;
            }
        }
        if !phases.is_empty() {
            // Shares are against the summed leaf-ish phases; the `run`
            // span double-counts its children, so report raw totals and
            // leave interpretation to the reader.
            let _ = writeln!(out, "\nper-phase time (causal spans, all runs):");
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>12} {:>12}",
                "span", "count", "total s", "mean ms"
            );
            for (name, (count, secs)) in &phases {
                let _ = writeln!(
                    out,
                    "  {:<14} {:>8} {:>12.3} {:>12.2}",
                    name,
                    count,
                    secs,
                    secs / (*count).max(1) as f64 * 1e3
                );
            }
        }

        let mut slowest: Vec<&SpanRecord> = self.runs.iter().flat_map(|r| r.spans.iter()).collect();
        slowest.sort_by(|a, b| {
            b.duration_s
                .partial_cmp(&a.duration_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if !slowest.is_empty() && top_k > 0 {
            let _ = writeln!(out, "\nslowest spans (top {top_k}):");
            for rec in slowest.iter().take(top_k) {
                let _ = writeln!(
                    out,
                    "  {:>10.1} ms  {:<12} #{:<5} {}",
                    rec.duration_s * 1e3,
                    rec.name,
                    rec.id,
                    rec.run
                );
            }
        }

        let adaptive: Vec<&RunSummary> = self
            .runs
            .iter()
            .filter(|r| r.pool_final.is_some())
            .collect();
        if !adaptive.is_empty() {
            let splits: usize = adaptive.iter().map(|r| r.pool_splits).sum();
            let effs: Vec<f64> = adaptive
                .iter()
                .filter_map(|r| r.pool_final.map(|(_, e)| e))
                .collect();
            let sizes: Vec<f64> = adaptive
                .iter()
                .filter_map(|r| r.pool_final.map(|(n, _)| n as f64))
                .collect();
            let _ = writeln!(
                out,
                "\nadaptive pools ({} of {} runs): {splits} splits total",
                adaptive.len(),
                self.runs.len()
            );
            let _ = writeln!(
                out,
                "  final pool size   min {:.0}  median {:.0}  max {:.0}",
                quantile(&sizes, 0.0),
                quantile(&sizes, 0.5),
                quantile(&sizes, 1.0),
            );
            let _ = writeln!(
                out,
                "  effective pool    min {:.0}  median {:.0}  max {:.0}",
                quantile(&effs, 0.0),
                quantile(&effs, 0.5),
                quantile(&effs, 1.0),
            );
        }

        let flops: u64 = self.runs.iter().map(|r| r.resources.0).sum();
        let kernels: u64 = self.runs.iter().map(|r| r.resources.1).sum();
        let hits: u64 = self.runs.iter().map(|r| r.resources.2).sum();
        let misses: u64 = self.runs.iter().map(|r| r.resources.3).sum();
        if flops + kernels + hits + misses > 0 {
            let _ = writeln!(
                out,
                "\nresources: {flops} Cholesky flops, {kernels} kernel assemblies, \
                 fitcache {hits} hits / {misses} misses"
            );
        }
        let p_hits: u64 = self.runs.iter().map(|r| r.predict_resources.0).sum();
        let p_misses: u64 = self.runs.iter().map(|r| r.predict_resources.1).sum();
        let p_evict: u64 = self.runs.iter().map(|r| r.predict_resources.2).sum();
        let p_chunks: u64 = self.runs.iter().map(|r| r.predict_resources.3).sum();
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
                 {p_evict} evictions, {p_chunks} chunks"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_run(hv_final: f64, slow_ms: f64) -> Vec<Event> {
        vec![
            Event::SpanStart {
                id: 1,
                parent: None,
                name: "run".into(),
            },
            Event::SpanStart {
                id: 2,
                parent: Some(1),
                name: "gp_fit".into(),
            },
            Event::SpanEnd {
                id: 2,
                name: "gp_fit".into(),
                duration_s: slow_ms / 1e3,
            },
            Event::ToolEval {
                iteration: 0,
                candidate: 0,
                qor: vec![1.0, 2.0],
                duration_s: 0.01,
            },
            Event::EvalFailed {
                iteration: 0,
                candidate: 1,
                attempt: 1,
                kind: "timeout".into(),
                detail: "x".into(),
            },
            Event::ResourceSample {
                iteration: 0,
                chol_flops: 100,
                chol_panels: 1,
                tri_solve_rhs: 5,
                fitcache_hits: 3,
                fitcache_misses: 1,
                kernel_assemblies: 2,
                predict_cache_hits: 9,
                predict_cache_misses: 4,
                predict_cache_evictions: 2,
                predict_chunks: 6,
            },
            Event::IterationEnd {
                iteration: 0,
                runs: 1,
                pareto: 0,
                dropped: 0,
                undecided: 1,
                hypervolume: hv_final,
                duration_s: 0.1,
                gp_fit_s: 0.05,
                predict_s: 0.01,
            },
            Event::SpanEnd {
                id: 1,
                name: "run".into(),
                duration_s: slow_ms / 1e3 + 0.001,
            },
        ]
    }

    #[test]
    fn strict_parse_reports_line_numbers() {
        let text = "{\"Message\":{\"text\":\"ok\"}}\n\nnot json\n";
        let err = parse_jsonl(text, false).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unparseable"), "{err}");
    }

    #[test]
    fn lenient_parse_skips_and_counts() {
        let text = "{\"Message\":{\"text\":\"ok\"}}\nnot json\n{\"Message\":{\"text\":\"ok2\"}}\n";
        let parsed = parse_jsonl(text, true).expect("lenient never errors");
        assert_eq!(parsed.events.len(), 2);
        assert_eq!(parsed.skipped, 1);
    }

    #[test]
    fn summarize_run_extracts_everything() {
        let s = summarize_run("a", &mini_run(0.5, 40.0));
        assert_eq!(s.iterations, 1);
        assert_eq!(s.tool_evals, 1);
        assert_eq!(s.failures, 1);
        assert_eq!(s.final_hv(), Some(0.5));
        assert_eq!(s.phase_seconds["gp_fit"].0, 1);
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.resources, (100, 2, 3, 1));
        assert_eq!(s.predict_resources, (9, 4, 2, 6));
    }

    #[test]
    fn fleet_report_renders_aggregate_sections() {
        let runs = vec![
            summarize_run("seed-1", &mini_run(0.40, 10.0)),
            summarize_run("seed-2", &mini_run(0.50, 80.0)),
            summarize_run("seed-3", &mini_run(0.60, 30.0)),
        ];
        let text = FleetReport { runs }.render(2);
        assert!(text.contains("fleet report: 3 runs"), "{text}");
        assert!(text.contains("hypervolume convergence (3 runs)"), "{text}");
        assert!(text.contains("median 0.5000"), "{text}");
        assert!(text.contains("evaluation health"), "{text}");
        assert!(text.contains("6 attempts: 3 failed (50.0%)"), "{text}");
        assert!(text.contains("per-phase time"), "{text}");
        assert!(text.contains("gp_fit"), "{text}");
        assert!(text.contains("slowest spans (top 2)"), "{text}");
        // The fleet-wide slowest span is seed-2's 80 ms gp_fit.
        let slow_line = text
            .lines()
            .skip_while(|l| !l.contains("slowest spans"))
            .nth(1)
            .expect("a slowest-span line");
        assert!(slow_line.contains("seed-2"), "{slow_line}");
        assert!(text.contains("300 Cholesky flops"), "{text}");
        // 3 runs × (9 hits, 4 misses): 27/39 served from cache = 69.2%.
        assert!(
            text.contains("predict sweep: cache 27 hits / 12 misses (69.2% hit)"),
            "{text}"
        );
        assert!(text.contains("6 evictions, 18 chunks"), "{text}");
    }

    #[test]
    fn pool_events_reach_the_fleet_view() {
        let mut events = mini_run(0.5, 10.0);
        events.push(Event::PoolRefine {
            iteration: 0,
            splits: 3,
            leaves: 12,
            pool_size: 12,
            effective_pool: 64.0,
        });
        let s = summarize_run("pool-run", &events);
        assert_eq!(s.pool_splits, 3);
        assert_eq!(s.pool_final, Some((12, 64.0)));
        let fixed = summarize_run("fixed-run", &mini_run(0.4, 5.0));
        assert_eq!(fixed.pool_final, None);
        let text = FleetReport {
            runs: vec![s, fixed],
        }
        .render(2);
        assert!(
            text.contains("adaptive pools (1 of 2 runs): 3 splits total"),
            "{text}"
        );
        assert!(text.contains("effective pool"), "{text}");
    }

    #[test]
    fn resilience_events_reach_the_fleet_view() {
        let mut events = mini_run(0.5, 10.0);
        events.push(Event::DegradedFit {
            iteration: 3,
            objective: 0,
            cause: "kernel matrix factorization failed".into(),
            mode: "refit-reused-hypers".into(),
            consecutive: 1,
        });
        events.push(Event::RecoveryScan {
            scanned: 3,
            skipped: 2,
            next_iteration: Some(4),
        });
        events.push(Event::WatchdogFired {
            iteration: 5,
            candidate: 7,
            attempt: 1,
            deadline_s: 30.0,
        });
        let s = summarize_run("chaos-run", &events);
        assert_eq!(s.degraded_fits, 1);
        assert_eq!(s.recovery_scans, 1);
        assert_eq!(s.watchdog_firings, 1);
        let clean = summarize_run("clean-run", &mini_run(0.4, 5.0));
        assert_eq!(clean.degraded_fits, 0);
        let text = FleetReport {
            runs: vec![s, clean],
        }
        .render(2);
        assert!(text.contains("resilience (1 of 2 runs affected)"), "{text}");
        assert!(
            text.contains(
                "1 degraded fits, 1 recovery scans past damaged checkpoints, 1 watchdog firings"
            ),
            "{text}"
        );
        // Clean fleets keep their report unchanged.
        let quiet = FleetReport {
            runs: vec![summarize_run("q", &mini_run(0.4, 5.0))],
        }
        .render(2);
        assert!(!quiet.contains("resilience"), "{quiet}");
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 2.0);
        assert_eq!(quantile(&xs, 1.0), 3.0);
    }
}
