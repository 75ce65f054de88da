//! Criterion micro-benchmarks of the reproduction's building blocks:
//! GP fit/predict scaling, transfer-GP fitting, hypervolume, LHS
//! sampling, one PD-flow run, and one tuner decision pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::Rng;

fn gp_benches(c: &mut Criterion) {
    use gp::kernel::SquaredExponential;
    use gp::GpRegressor;
    use rand::SeedableRng;

    let mut group = c.benchmark_group("gp");
    for &n in &[50usize, 100, 200] {
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..8).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let y: Vec<f64> = x.iter().map(|p| p.iter().sum::<f64>().sin()).collect();
        group.bench_with_input(BenchmarkId::new("fit", n), &n, |b, _| {
            b.iter(|| {
                let kernel = SquaredExponential::isotropic(8, 1.0, 0.5).unwrap();
                GpRegressor::fit(x.clone(), y.clone(), kernel, 1e-4).unwrap()
            })
        });
        let kernel = SquaredExponential::isotropic(8, 1.0, 0.5).unwrap();
        let model = GpRegressor::fit(x.clone(), y.clone(), kernel, 1e-4).unwrap();
        let q: Vec<f64> = (0..8).map(|i| i as f64 / 8.0).collect();
        group.bench_with_input(BenchmarkId::new("predict", n), &n, |b, _| {
            b.iter(|| model.predict(&q).unwrap())
        });
    }
    group.finish();
}

fn transfer_gp_bench(c: &mut Criterion) {
    use gp::{TaskData, TransferGp, TransferGpConfig};
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(2);
    let mk = |n: usize, rng: &mut StdRng| -> TaskData {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..8).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let y: Vec<f64> = x.iter().map(|p| p.iter().sum::<f64>().cos()).collect();
        TaskData::new(x, y)
    };
    let source = mk(150, &mut rng);
    let target = mk(60, &mut rng);
    c.bench_function("transfer_gp/fit_150s_60t", |b| {
        b.iter(|| {
            TransferGp::fit(
                source.clone(),
                target.clone(),
                TransferGpConfig::default_for_dim(8),
            )
            .unwrap()
        })
    });
}

fn hypervolume_bench(c: &mut Criterion) {
    use pareto::hypervolume::hypervolume;
    use rand::SeedableRng;

    let mut group = c.benchmark_group("hypervolume");
    for &(d, n) in &[(2usize, 100usize), (3, 60)] {
        let mut rng = StdRng::seed_from_u64(3);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let reference = vec![1.2; d];
        group.bench_with_input(BenchmarkId::new(format!("{d}d"), n), &n, |b, _| {
            b.iter(|| hypervolume(&pts, &reference).unwrap())
        });
    }
    group.finish();
}

fn lhs_bench(c: &mut Criterion) {
    use benchgen::BenchmarkId as Bid;
    use doe::LatinHypercube;
    use rand::SeedableRng;

    let space = Bid::Target1.space();
    c.bench_function("lhs/target1_space_500", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(4);
            LatinHypercube::new().sample(&space, 500, &mut rng)
        })
    });
}

fn pdsim_bench(c: &mut Criterion) {
    use pdsim::{Design, PdFlow, ToolParams};

    let flow = PdFlow::new(Design::mac_small(42));
    let params = ToolParams::default();
    c.bench_function("pdsim/flow_run_small_mac", |b| b.iter(|| flow.run(&params)));

    c.bench_function("pdsim/generate_small_mac_netlist", |b| {
        b.iter(|| pdsim::MacConfig::small().generate().cell_count())
    });
}

fn tuner_decision_bench(c: &mut Criterion) {
    use ppatuner::{classify, Status, UncertaintyRegion};
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(5);
    let regions: Vec<UncertaintyRegion> = (0..500)
        .map(|_| {
            let lo: Vec<f64> = (0..2).map(|_| rng.gen::<f64>()).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen::<f64>() * 0.2).collect();
            let mut u = UncertaintyRegion::unbounded(2);
            u.intersect(&lo, &hi);
            u
        })
        .collect();
    c.bench_function("tuner/classify_500_candidates", |b| {
        b.iter(|| {
            let mut statuses = vec![Status::Undecided; regions.len()];
            classify(&regions, &mut statuses, &[0.01, 0.01])
        })
    });

    // The wide-pool shape: 5000 candidates in 3 objectives, a few
    // hundred evaluated points among wide undecided boxes, and a mix of
    // already-decided statuses.
    let regions: Vec<UncertaintyRegion> = (0..5000)
        .map(|i| {
            let lo: Vec<f64> = (0..3).map(|_| rng.gen::<f64>()).collect();
            if i % 16 == 0 {
                return UncertaintyRegion::point(&lo);
            }
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen::<f64>() * 0.5).collect();
            let mut u = UncertaintyRegion::unbounded(3);
            u.intersect(&lo, &hi);
            u
        })
        .collect();
    let initial: Vec<Status> = (0..regions.len())
        .map(|i| match i % 10 {
            0 => Status::Pareto,
            1 | 2 => Status::Dropped,
            _ => Status::Undecided,
        })
        .collect();
    c.bench_function("tuner/classify_5000x3", |b| {
        b.iter(|| {
            let mut statuses = initial.clone();
            classify(&regions, &mut statuses, &[0.01, 0.01, 0.01])
        })
    });
}

fn tuner_observability_bench(c: &mut Criterion) {
    use benchgen::Scenario;
    use obs::{RecordingSink, NULL_SINK};
    use pdsim::ObjectiveSpace;
    use ppatuner::{PpaTuner, PpaTunerConfig, SourceData, VecOracle};

    let scenario = Scenario::two_with_counts(42, 200, 160);
    let space = ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let table = scenario.target_table(space);
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("source");
    let config = PpaTunerConfig {
        initial_samples: 12,
        max_iterations: 4,
        seed: 9,
        ..Default::default()
    };

    // The null sink must be free: `run` and `run_observed(&NULL_SINK)` are
    // the same code path, and event construction is skipped when the
    // observer is disabled. These two benches should be within noise
    // (<2%); the recording variant shows the cost of actually tracing.
    let mut group = c.benchmark_group("tuner");
    group.bench_function("loop_null_sink", |b| {
        b.iter(|| {
            let mut oracle = VecOracle::new(table.clone());
            PpaTuner::new(config.clone())
                .run_observed(&source, &candidates, &mut oracle, &NULL_SINK)
                .expect("tuning succeeds")
                .runs
        })
    });
    group.bench_function("loop_recording_sink", |b| {
        b.iter(|| {
            let sink = RecordingSink::new();
            let mut oracle = VecOracle::new(table.clone());
            PpaTuner::new(config.clone())
                .run_observed(&source, &candidates, &mut oracle, &sink)
                .expect("tuning succeeds")
                .runs
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    gp_benches,
    transfer_gp_bench,
    hypervolume_bench,
    lhs_bench,
    pdsim_bench,
    tuner_decision_bench,
    tuner_observability_bench
);
criterion_main!(benches);
