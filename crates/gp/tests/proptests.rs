//! Property-based tests of the GP and transfer-GP invariants.

use gp::kernel::{Kernel, SquaredExponential, Task, TransferKernel};
use gp::standardize::Standardizer;
use gp::{GpRegressor, TaskData, TransferGp, TransferGpConfig, PREDICT_BLOCK};
use proptest::prelude::*;

fn points(n: usize, d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, d), n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernels_are_symmetric_and_bounded(a in points(1, 3), b in points(1, 3),
                                          sv in 0.1f64..5.0, ls in 0.05f64..2.0) {
        let k = SquaredExponential::isotropic(3, sv, ls).unwrap();
        let kab = k.eval(&a[0], &b[0]);
        let kba = k.eval(&b[0], &a[0]);
        prop_assert!((kab - kba).abs() < 1e-12);
        // |k(a,b)| <= k(x,x) = signal variance (Cauchy–Schwarz).
        prop_assert!(kab.abs() <= sv + 1e-12);
        prop_assert!((k.eval(&a[0], &a[0]) - sv).abs() < 1e-9);
    }

    #[test]
    fn gp_posterior_variance_never_exceeds_prior(x in points(12, 2), q in points(5, 2)) {
        let y: Vec<f64> = x.iter().map(|p| p[0] - p[1]).collect();
        let kernel = SquaredExponential::isotropic(2, 1.3, 0.4).unwrap();
        let gp = GpRegressor::fit(x, y.clone(), kernel, 1e-4).unwrap();
        let prior_var = 1.3 * Standardizer::fit(&y).scale().powi(2);
        for p in &q {
            let (_, v) = gp.predict(p).unwrap();
            prop_assert!(v <= prior_var * 1.001, "posterior {v} > prior {prior_var}");
        }
    }

    #[test]
    fn gp_mean_interpolates_with_tiny_noise(x in points(10, 2)) {
        let y: Vec<f64> = x.iter().map(|p| (3.0 * p[0]).sin() + p[1]).collect();
        let kernel = SquaredExponential::isotropic(2, 1.0, 0.5).unwrap();
        let gp = GpRegressor::fit(x.clone(), y.clone(), kernel, 1e-9).unwrap();
        for (p, &t) in x.iter().zip(&y) {
            let (m, _) = gp.predict(p).unwrap();
            prop_assert!((m - t).abs() < 1e-2, "mean {m} vs {t}");
        }
    }

    #[test]
    fn transfer_gp_variance_shrinks_with_source(xt in points(4, 2), xs in points(20, 2),
                                                 q in points(6, 2)) {
        // Same hyper-parameters: adding correlated source data can only
        // reduce the latent posterior variance.
        let f = |p: &[f64]| p[0] + 0.5 * p[1];
        let cfg = TransferGpConfig {
            lengthscales: vec![0.4; 2],
            signal_var: 1.0,
            lambda: 0.9,
            noise_source: 1e-3,
            noise_target: 1e-3,
        };
        let target = TaskData::new(xt.clone(), xt.iter().map(|p| f(p)).collect());
        let source = TaskData::new(xs.clone(), xs.iter().map(|p| f(p)).collect());
        let with = TransferGp::fit(source, target.clone(), cfg.clone()).unwrap();
        let without = TransferGp::fit(TaskData::default(), target, cfg).unwrap();
        for p in &q {
            let (_, v_with) = with.predict_latent(p).unwrap();
            let (_, v_without) = without.predict_latent(p).unwrap();
            prop_assert!(
                v_with <= v_without * 1.05 + 1e-9,
                "source must not inflate variance: {v_with} vs {v_without}"
            );
        }
    }

    #[test]
    fn predict_noise_exceeds_latent(xt in points(6, 2), q in points(4, 2)) {
        let cfg = TransferGpConfig {
            noise_target: 0.05,
            ..TransferGpConfig::default_for_dim(2)
        };
        let target = TaskData::new(xt.clone(), xt.iter().map(|p| p[0]).collect());
        let model = TransferGp::fit(TaskData::default(), target, cfg).unwrap();
        for p in &q {
            let (m1, v_obs) = model.predict(p).unwrap();
            let (m2, v_lat) = model.predict_latent(p).unwrap();
            prop_assert_eq!(m1, m2);
            prop_assert!(v_obs >= v_lat, "observation variance must include noise");
        }
    }

    #[test]
    fn transfer_kernel_factor_in_range(a in 0.001f64..50.0, b in 0.01f64..10.0) {
        let base = SquaredExponential::isotropic(1, 1.0, 0.5).unwrap();
        let tk = TransferKernel::from_gamma_prior(base, a, b).unwrap();
        prop_assert!(tk.lambda() > -1.0 && tk.lambda() <= 1.0);
        // Cross-task covariance magnitude never exceeds within-task.
        let x = [0.3];
        let y = [0.7];
        let within = tk.eval_task(&x, Task::Source, &y, Task::Source);
        let across = tk.eval_task(&x, Task::Source, &y, Task::Target);
        prop_assert!(across.abs() <= within.abs() + 1e-12);
    }

    #[test]
    fn parallel_predict_is_chunk_and_worker_invariant(
        xt in points(6, 2), xs in points(8, 2), q in points(13, 2),
        block in 1usize..20, workers in 1usize..9) {
        // 13 queries with block drawn from 1..20 covers block = 1,
        // non-divisor blocks, and block > pool; every (block, workers)
        // combination must return the serial sweep's exact bits.
        let f = |p: &[f64]| p[0] + 0.5 * p[1];
        let cfg = TransferGpConfig {
            lengthscales: vec![0.4; 2],
            signal_var: 1.0,
            lambda: 0.8,
            noise_source: 1e-3,
            noise_target: 1e-3,
        };
        let target = TaskData::new(xt.clone(), xt.iter().map(|p| f(p)).collect());
        let source = TaskData::new(xs.clone(), xs.iter().map(|p| f(p)).collect());
        let model = TransferGp::fit(source, target, cfg).unwrap();
        let base = model.predict_latent_batch_with_block(&q, PREDICT_BLOCK).unwrap();
        let par = model.predict_latent_batch_par(&q, block, workers).unwrap();
        prop_assert_eq!(base.len(), par.len());
        for ((bm, bv), (pm, pv)) in base.iter().zip(&par) {
            prop_assert!(bm.to_bits() == pm.to_bits() && bv.to_bits() == pv.to_bits(),
                "block={} workers={}: ({}, {}) vs ({}, {})", block, workers, bm, bv, pm, pv);
        }
    }

    #[test]
    fn standardizer_roundtrips(y in prop::collection::vec(-100.0f64..100.0, 2..30)) {
        let s = Standardizer::fit(&y);
        for &v in &y {
            prop_assert!((s.inverse(s.transform(v)) - v).abs() < 1e-9);
        }
        prop_assert!(s.scale() > 0.0);
    }
}
