//! The benchmark's workloads and one measured pass over each.
//!
//! Every workload is a closed loop: the tuner waits for each tool run,
//! answered from the golden QoR table of the target benchmark. Inputs
//! are the paper's Scenario Two at full scale (Source2 1440 → Target2,
//! source budget 200) with the Table 3 harness seeds, so a run's work is
//! fixed; the benchmark seed only orders the runs of a pass (see
//! `README.md` for why).

use std::path::Path;
use std::time::Instant;

use benchgen::Scenario;
use gp::optimize::FitBudget;
use gp::GpCounters;
use obs::{Observer, NULL_SINK};
use pareto::hypervolume::{hypervolume_error, reference_point};
use pareto::metrics::adrs;
use pdsim::ObjectiveSpace;
use ppatuner::{
    ChainCheckpointStore, PpaTuner, PpaTunerConfig, SharedOracle, SourceData, TuneResult, VecOracle,
};

use crate::probe::{decision_gaps, Call, Recorder, Stamped, StoreStats, TimedOracle, TimedStore};

/// Tuner seeds of every workload: the `table3` harness defaults
/// (17, 17 + 12, 17 + 26).
const TUNER_SEEDS: [u64; 3] = [17, 29, 43];
/// Scenario seed (source-subset draw) of every workload.
const SCENARIO_SEED: u64 = 17;
/// Target points of the wide-pool workload (Target1's pool size).
const WIDE_POOL: usize = 5000;
/// Diverse-batch width of the batch_resume workload.
const BATCH: usize = 4;
/// Restarts per hyper-parameter search (`bench::run_method`'s budget).
pub const FIT_RESTARTS: usize = 2;
/// Chain entries kept by batch_resume's store: more than a run saves, so
/// the whole chain survives for the rewind to its middle entry.
const CHAIN_KEEP: usize = 64;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scenario Two at paper scale: three objective spaces × three seeds
    /// through serial `PpaTuner::run`.
    Table3,
    /// Target2's design family over a 5000-candidate pool,
    /// Area-Power-Delay, three seeds.
    WidePool,
    /// Scenario Two, Area-Power-Delay: q = 4 checkpointed concurrent runs,
    /// each resumed from its mid-run checkpoint.
    BatchResume,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Table3, Workload::WidePool, Workload::BatchResume];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3 => "table3",
            Workload::WidePool => "wide_pool",
            Workload::BatchResume => "batch_resume",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one tuning run needs, prepared before timing starts.
#[derive(Debug)]
pub struct RunInput {
    /// `space/seed`, for reports.
    pub label: String,
    /// Source-task history.
    pub source: SourceData,
    /// Encoded target candidates.
    pub candidates: Vec<Vec<f64>>,
    /// Golden QoR table answering the oracle.
    pub table: Vec<Vec<f64>>,
    /// Golden Pareto front the result is scored against.
    pub golden: Vec<Vec<f64>>,
    /// Hypervolume reference point.
    pub reference: Vec<f64>,
    /// Tuner configuration.
    pub config: PpaTunerConfig,
}

/// A workload's prepared inputs.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Runs of one pass, in the seed's order.
    pub runs: Vec<RunInput>,
    /// Seconds spent generating the scenario (benchgen flow runs).
    pub generate_s: f64,
    /// Flow runs the scenario generation made.
    pub flow_runs: usize,
}

/// The paper-scale PPATuner configuration of `bench::run_method`, with
/// every thread knob set to `threads`.
fn tuner_config(seed: u64, threads: usize) -> PpaTunerConfig {
    let budgets = bench::Budgets::scenario_two();
    PpaTunerConfig {
        initial_samples: budgets.ppatuner_init,
        max_iterations: budgets.ppatuner_iters,
        refit_every: 25,
        fit_budget: FitBudget {
            restarts: FIT_RESTARTS,
            evals_per_restart: 80,
        },
        seed,
        threads,
        predict_workers: threads,
        eval_workers: threads,
        ..Default::default()
    }
}

/// A permutation of `0..n` drawn from `seed` (splitmix64 Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The inputs of one tuning run of `workload` on `scenario`.
///
/// # Panics
///
/// When the scenario is degenerate (an empty QoR table or inconsistent
/// source data), which is a defect of the generator.
pub fn run_input(
    scenario: &Scenario,
    space: ObjectiveSpace,
    tuner_seed: u64,
    threads: usize,
    workload: Workload,
) -> RunInput {
    let table = scenario.target_table(space);
    let reference = reference_point(&table, 1.1).expect("non-empty target table");
    let (sx, sy) = scenario.source_xy(space);
    let mut config = tuner_config(tuner_seed, threads);
    if workload == Workload::BatchResume {
        config.batch_size = BATCH;
    }
    RunInput {
        label: format!("{}/{tuner_seed}", space.label()),
        source: SourceData::new(sx, sy).expect("generated source data is consistent"),
        candidates: scenario.target_candidates(),
        golden: scenario.target().golden_front(space),
        table,
        reference,
        config,
    }
}

/// Generates a workload's inputs: the set-up a tuning user pays before
/// the first tool run.
pub fn setup(workload: Workload, seed: u64, threads: usize) -> Inputs {
    let started = Instant::now();
    let scenario = match workload {
        Workload::WidePool => Scenario::two_with_counts(SCENARIO_SEED, 1440, WIDE_POOL),
        Workload::Table3 | Workload::BatchResume => Scenario::two(SCENARIO_SEED),
    };
    let generate_s = started.elapsed().as_secs_f64();
    let flow_runs = scenario.source().len() + scenario.target().len();
    let spaces: &[ObjectiveSpace] = match workload {
        Workload::Table3 => &ObjectiveSpace::ALL,
        Workload::WidePool | Workload::BatchResume => &[ObjectiveSpace::AreaPowerDelay],
    };
    let mut runs = Vec::new();
    for &space in spaces {
        for tuner_seed in TUNER_SEEDS {
            runs.push(run_input(&scenario, space, tuner_seed, threads, workload));
        }
    }
    let order = permutation(runs.len(), seed);
    let mut slots: Vec<Option<RunInput>> = runs.into_iter().map(Some).collect();
    let runs = order
        .iter()
        .map(|&i| slots[i].take().expect("a permutation visits each run once"))
        .collect();
    Inputs {
        workload,
        runs,
        generate_s,
        flow_runs,
    }
}

/// One run's answer, kept to check that every pass computes the same.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Run label.
    pub label: String,
    /// Search tool runs.
    pub runs: usize,
    /// Verification tool runs.
    pub verification_runs: usize,
    /// The reported Pareto set.
    pub pareto_indices: Vec<usize>,
}

/// Everything measured in one pass over a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Whether the tuner's events were recorded.
    pub traced: bool,
    /// Wall seconds inside tuning calls.
    pub tune_s: f64,
    /// Think-time samples, seconds.
    pub decisions: Vec<f64>,
    /// Seconds from each resume call to its first live oracle call.
    pub resume_s: Vec<f64>,
    /// Hypervolume error of each run.
    pub hv_error: Vec<f64>,
    /// ADRS of each run.
    pub adrs: Vec<f64>,
    /// Search tool runs of each run.
    pub tool_runs: Vec<usize>,
    /// Verification tool runs of each run.
    pub verification_runs: Vec<usize>,
    /// Operations attempted: oracle calls, tuning calls, output checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why the failed checks and calls failed.
    pub failures: Vec<String>,
    /// GP and linalg counter increments inside tuning calls.
    pub counters: GpCounters,
    /// Oracle calls.
    pub oracle_calls: u64,
    /// Seconds inside oracle calls.
    pub oracle_busy_s: f64,
    /// Oracle calls that returned an error.
    pub oracle_failed: u64,
    /// Checkpoint store statistics.
    pub store: StoreStats,
    /// Bytes of the checkpoint files written.
    pub checkpoint_bytes: u64,
    /// Seconds spent scoring results against the golden fronts.
    pub score_s: f64,
    /// Per tuning call: its label and the events it emitted (traced
    /// passes only).
    pub events: Vec<(String, Vec<Stamped>)>,
    /// The runs' answers.
    pub outcomes: Vec<Outcome>,
}

impl Pass {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Books one finished tuning call.
    fn tuning_call(
        &mut self,
        label: &str,
        call: &Timed<Result<TuneResult, ppatuner::TunerError>>,
        calls: &[Call],
        init_runs: usize,
        recorder: Option<Recorder>,
    ) {
        self.tune_s += call.elapsed_s;
        add_counters(&mut self.counters, &call.counters);
        self.oracle_calls += calls.len() as u64;
        self.oracle_busy_s += calls
            .iter()
            .map(|c| c.end.duration_since(c.start).as_secs_f64())
            .sum::<f64>();
        let oracle_failed = calls.iter().filter(|c| c.failed).count() as u64;
        self.oracle_failed += oracle_failed;
        self.attempted += calls.len() as u64;
        self.failed += oracle_failed;
        if oracle_failed > 0 {
            self.failures
                .push(format!("{label}: {oracle_failed} oracle calls failed"));
        }
        if let Some(recorder) = recorder {
            self.events
                .push((label.to_string(), recorder.into_events()));
        }
        match &call.out {
            Ok(r) => {
                self.attempted += 1;
                let total = r.runs + r.verification_runs;
                let first_global = total.saturating_sub(calls.len());
                let mut starts = vec![init_runs];
                starts.extend(r.history.iter().map(|h| h.runs));
                starts.pop();
                self.decisions
                    .extend(decision_gaps(calls, first_global, &starts, r.runs));
                if first_global > 0 {
                    if let Some(first) = calls.first() {
                        self.resume_s
                            .push(first.start.duration_since(call.started).as_secs_f64());
                    }
                }
            }
            Err(e) => self.check(false, || format!("{label}: tuning failed: {e}")),
        }
    }

    /// Scores a fresh run's result against its golden front and checks
    /// its outputs.
    fn score(&mut self, run: &RunInput, r: &TuneResult) {
        let started = Instant::now();
        let predicted: Vec<Vec<f64>> = r
            .pareto_indices
            .iter()
            .filter_map(|&i| run.table.get(i).cloned())
            .collect();
        let hv = hypervolume_error(&run.golden, &predicted, &run.reference);
        let dist = adrs(&run.golden, &predicted);
        self.score_s += started.elapsed().as_secs_f64();
        let label = &run.label;
        let n = run.candidates.len();
        self.check(
            r.pareto_indices.iter().all(|&i| i < n) && !r.pareto_indices.is_empty(),
            || format!("{label}: Pareto set empty or out of range"),
        );
        self.check(r.runs <= n, || {
            format!("{label}: {} tool runs exceed the pool of {n}", r.runs)
        });
        match (hv, dist) {
            (Ok(hv), Ok(dist)) if hv.is_finite() && dist.is_finite() => {
                self.check(true, String::new);
                self.hv_error.push(hv);
                self.adrs.push(dist);
            }
            (hv, dist) => self.check(false, || {
                format!("{label}: unscorable result (hv {hv:?}, adrs {dist:?})")
            }),
        }
        self.tool_runs.push(r.runs);
        self.verification_runs.push(r.verification_runs);
        self.outcomes.push(Outcome {
            label: label.clone(),
            runs: r.runs,
            verification_runs: r.verification_runs,
            pareto_indices: r.pareto_indices.clone(),
        });
    }
}

/// A tuning call's result with its wall time and counter increments.
struct Timed<T> {
    out: T,
    started: Instant,
    elapsed_s: f64,
    counters: GpCounters,
}

fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let before = GpCounters::snapshot();
    let started = Instant::now();
    let out = f();
    let elapsed_s = started.elapsed().as_secs_f64();
    Timed {
        out,
        started,
        elapsed_s,
        counters: GpCounters::snapshot().since(&before),
    }
}

fn add_counters(acc: &mut GpCounters, d: &GpCounters) {
    acc.fitcache_hits += d.fitcache_hits;
    acc.fitcache_misses += d.fitcache_misses;
    acc.kernel_assemblies += d.kernel_assemblies;
    acc.predict_cache_hits += d.predict_cache_hits;
    acc.predict_cache_misses += d.predict_cache_misses;
    acc.predict_cache_evictions += d.predict_cache_evictions;
    acc.predict_chunks += d.predict_chunks;
    acc.linalg.chol_flops += d.linalg.chol_flops;
    acc.linalg.chol_panels += d.linalg.chol_panels;
    acc.linalg.tri_solve_rhs += d.linalg.tri_solve_rhs;
    acc.linalg.tri_solve_tail_rows += d.linalg.tri_solve_tail_rows;
}

/// Initialization tool runs of a run (no initialization call fails on
/// these workloads; a failure shows in the oracle failure count).
fn init_runs(run: &RunInput) -> usize {
    run.config.initial_samples.min(run.candidates.len())
}

/// Runs one pass over `inputs`. `scratch` is a directory the pass may
/// create and remove (batch_resume's checkpoint chains).
pub fn pass(inputs: &Inputs, traced: bool, scratch: &Path) -> Pass {
    let mut p = Pass {
        traced,
        ..Pass::default()
    };
    for run in &inputs.runs {
        match inputs.workload {
            Workload::Table3 | Workload::WidePool => serial(run, traced, &mut p),
            Workload::BatchResume => batch_resume(run, traced, scratch, &mut p),
        }
    }
    p
}

fn observer(recorder: &Option<Recorder>) -> &dyn Observer {
    match recorder {
        Some(r) => r,
        None => &NULL_SINK,
    }
}

fn serial(run: &RunInput, traced: bool, p: &mut Pass) {
    let tuner = PpaTuner::new(run.config.clone());
    let mut oracle = TimedOracle::new(VecOracle::new(run.table.clone()));
    let recorder = traced.then(Recorder::new);
    let call = timed(|| match &recorder {
        Some(r) => tuner.run_observed(&run.source, &run.candidates, &mut oracle, r),
        None => tuner.run(&run.source, &run.candidates, &mut oracle),
    });
    p.tuning_call(&run.label, &call, &oracle.calls(), init_runs(run), recorder);
    if let Ok(r) = &call.out {
        p.score(run, r);
    }
}

/// Sequence numbers and sizes of a chain directory's entries.
fn chain_entries(dir: &Path) -> Vec<(u64, u64)> {
    let Ok(read) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    read.filter_map(Result::ok)
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let seq = name
                .strip_prefix("ckpt-")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((seq, e.metadata().ok()?.len()))
        })
        .collect()
}

fn batch_resume(run: &RunInput, traced: bool, scratch: &Path, p: &mut Pass) {
    let dir = scratch.join("chain");
    // A fresh chain: leftovers of an earlier pass would turn the first
    // run into a resume.
    std::fs::remove_dir_all(&dir).ok();
    let tuner = PpaTuner::new(run.config.clone());
    let store = TimedStore::new(ChainCheckpointStore::new(&dir, CHAIN_KEEP));

    let oracle = TimedOracle::new(SharedOracle::new(VecOracle::new(run.table.clone())));
    let recorder = traced.then(Recorder::new);
    let call = timed(|| {
        tuner.run_concurrent_checkpointed(
            &run.source,
            &run.candidates,
            &oracle,
            observer(&recorder),
            &store,
        )
    });
    p.tuning_call(&run.label, &call, &oracle.calls(), init_runs(run), recorder);
    let Ok(full) = call.out else { return };
    p.score(run, &full);

    // Rewind the chain to its middle entry, as a crash after that save
    // would leave it, and resume from there.
    let entries = chain_entries(&dir);
    p.checkpoint_bytes += entries.iter().map(|&(_, len)| len).sum::<u64>();
    let keep = (entries.len() / 2) as u64;
    p.check(keep > 0, || format!("{}: no mid-run checkpoint", run.label));
    for &(seq, _) in entries.iter().filter(|&&(seq, _)| seq >= keep) {
        std::fs::remove_file(dir.join(format!("ckpt-{seq:08}.json"))).ok();
    }

    let oracle = TimedOracle::new(SharedOracle::new(VecOracle::new(run.table.clone())));
    let recorder = traced.then(Recorder::new);
    let label = format!("{}/resume", run.label);
    let call = timed(|| {
        tuner.resume_concurrent(
            &run.source,
            &run.candidates,
            &oracle,
            observer(&recorder),
            &store,
        )
    });
    p.tuning_call(&label, &call, &oracle.calls(), init_runs(run), recorder);
    p.checkpoint_bytes += chain_entries(&dir)
        .iter()
        .filter(|&&(seq, _)| seq >= keep)
        .map(|&(_, len)| len)
        .sum::<u64>();
    if let Ok(resumed) = &call.out {
        let same = resumed.pareto_indices == full.pareto_indices
            && resumed.evaluated == full.evaluated
            && resumed.runs == full.runs
            && resumed.iterations == full.iterations;
        p.check(same, || {
            format!("{label}: differs from the uninterrupted run")
        });
    }
    let s = store.stats();
    p.store.saves += s.saves;
    p.store.save_s += s.save_s;
    p.store.recover_s += s.recover_s;
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(9, 3);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        assert_eq!(a, permutation(9, 3));
        assert!((0..20).any(|s| permutation(9, s) != a));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("table2"), None);
    }
}
