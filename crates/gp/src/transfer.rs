use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use linalg::{Cholesky, Matrix};

use crate::kernel::{Kernel, SquaredExponential, Task, TransferKernel};
use crate::predict_cache::{CacheEntry, PredictCache};
use crate::standardize::Standardizer;
use crate::{GpError, Result};

/// Process-global fit-epoch source: every [`TransferGp::fit`] stamps the
/// model with a fresh, process-unique epoch, while the incremental
/// [`TransferGp::condition_on`] path keeps it (the old factor rows stay
/// bit-identical, so factor-space caches remain valid). A
/// [`PredictCache`] compares its stored epoch against the model's to
/// detect refits — including the full-refit fallback inside
/// `condition_on`, which goes through `fit` and is therefore stamped
/// automatically.
static FIT_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Default number of query columns handled per multi-RHS triangular
/// solve in [`TransferGp::predict_latent_batch`]. At 256 columns the
/// `K*` and `L⁻¹K*` panels for a table-2-sized factor fit in L2 cache;
/// larger panels thrash and erase the multi-RHS win. Per-query results
/// are independent of the block size; callers with unusual cache
/// geometries can override it through the `_with_block` entry points.
pub const PREDICT_BLOCK: usize = 256;

/// Training data of one task: inputs (unit-cube encoded parameter
/// configurations) and observed outputs (one QoR metric).
///
/// Inputs are held behind an [`Arc`] so the per-objective views of one
/// design table (same configurations, different QoR column) share a
/// single encoded copy: cloning a `TaskData` — which the tuner and the
/// hyper-parameter search do per objective and per refit — bumps a
/// reference count instead of deep-copying the whole input set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskData {
    /// Input points (shared; see the type-level docs).
    pub x: Arc<Vec<Vec<f64>>>,
    /// Observed outputs, parallel to `x`.
    pub y: Vec<f64>,
}

impl TaskData {
    /// Creates task data from parallel input/output lists.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<f64>) -> Self {
        TaskData { x: Arc::new(x), y }
    }

    /// Creates task data that shares an already-encoded input set —
    /// the zero-copy constructor for per-objective views.
    pub fn from_shared(x: Arc<Vec<Vec<f64>>>, y: Vec<f64>) -> Self {
        TaskData { x, y }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when the task has no observations.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// Hyper-parameters of a [`TransferGp`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransferGpConfig {
    /// ARD lengthscales of the shared base kernel.
    pub lengthscales: Vec<f64>,
    /// Signal variance of the base kernel (standardized output space).
    pub signal_var: f64,
    /// Cross-task correlation factor `λ = 2(1/(1+a))^b − 1 ∈ (−1, 1]`.
    pub lambda: f64,
    /// Source-task observation noise variance `β_s⁻¹` (standardized).
    pub noise_source: f64,
    /// Target-task observation noise variance `β_t⁻¹` (standardized).
    pub noise_target: f64,
}

impl TransferGpConfig {
    /// A reasonable default for unit-cube inputs: moderately smooth,
    /// strong positive transfer.
    pub fn default_for_dim(dim: usize) -> Self {
        TransferGpConfig {
            lengthscales: vec![0.4; dim.max(1)],
            signal_var: 1.0,
            lambda: 0.8,
            noise_source: 1e-3,
            noise_target: 1e-3,
        }
    }
}

/// The two-task transfer Gaussian process of PPATuner §3.1 (Eq. 8).
///
/// The joint prior over source and target observations uses the transfer
/// kernel `K̃` (Eq. 7) plus the per-task noise matrix
/// `Λ = diag(β_s⁻¹ I_N, β_t⁻¹ I_M)`. Inference for a target-task query is
/// standard GP inference against the joint training set:
///
/// `μ(x) = k(x, X)ᵀ (K̃ + Λ)⁻¹ y`,
/// `σ²(x) = k(x, x) + β_t⁻¹ − k(x, X)ᵀ (K̃ + Λ)⁻¹ k(x, X)`.
///
/// Outputs are standardized **per task**, so a source design with a
/// different output scale (e.g. 3× the power) still transfers its shape.
///
/// # Example
///
/// ```
/// use gp::{TransferGp, TransferGpConfig, TaskData};
///
/// # fn main() -> Result<(), gp::GpError> {
/// // Source: dense observations of f; target: few observations of a
/// // shifted copy of f.
/// let f = |x: f64| (5.0 * x).sin();
/// let source = TaskData::new(
///     (0..25).map(|i| vec![i as f64 / 24.0]).collect(),
///     (0..25).map(|i| f(i as f64 / 24.0)).collect(),
/// );
/// let target = TaskData::new(
///     vec![vec![0.1], vec![0.5], vec![0.9]],
///     vec![f(0.1) + 0.2, f(0.5) + 0.2, f(0.9) + 0.2],
/// );
/// let tgp = TransferGp::fit(source, target, TransferGpConfig::default_for_dim(1))?;
/// let (mean, var) = tgp.predict(&[0.3])?;
/// assert!((mean - (f(0.3) + 0.2)).abs() < 0.3);
/// assert!(var >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct TransferGp {
    kernel: TransferKernel<SquaredExponential>,
    x_source: Arc<Vec<Vec<f64>>>,
    x_target: Arc<Vec<Vec<f64>>>,
    /// Raw (unstandardized) outputs, kept so the model can re-fit itself
    /// from scratch when an incremental [`TransferGp::condition_on`]
    /// extension is numerically rejected.
    y_source: Vec<f64>,
    y_target: Vec<f64>,
    alpha: Vec<f64>,
    chol: Cholesky,
    std_target: Standardizer,
    noise_target: f64,
    z_joint: Vec<f64>,
    /// Log marginal likelihood of the source block alone (0 when empty).
    source_lml: f64,
    /// Diagonal jitter that `Cholesky::new_with_jitter` had to add to the
    /// joint kernel before factorization succeeded (0 when none).
    jitter: f64,
    /// Process-unique stamp of the factorization lineage (see
    /// [`FIT_EPOCH`]); preserved by incremental conditioning, refreshed
    /// by every full (re)fit.
    fit_epoch: u64,
    config: TransferGpConfig,
}

impl TransferGp {
    /// Fits the transfer GP on source + target data.
    ///
    /// The source may be empty, in which case the model degenerates to a
    /// plain GP on the target task (useful for no-transfer ablations).
    ///
    /// # Errors
    ///
    /// - [`GpError::InvalidTrainingData`] when the target task is empty,
    ///   input dimensions disagree, or values are non-finite;
    /// - [`GpError::InvalidHyperparameter`] for out-of-range
    ///   hyper-parameters;
    /// - [`GpError::Factorization`] when the joint kernel matrix cannot be
    ///   factored.
    pub fn fit(source: TaskData, target: TaskData, config: TransferGpConfig) -> Result<Self> {
        if target.is_empty() {
            return Err(GpError::InvalidTrainingData {
                reason: "target task needs at least one observation",
            });
        }
        if source.x.len() != source.y.len() || target.x.len() != target.y.len() {
            return Err(GpError::InvalidTrainingData {
                reason: "x and y lengths differ",
            });
        }
        for v in [config.noise_source, config.noise_target] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(GpError::InvalidHyperparameter {
                    name: "noise",
                    value: v,
                });
            }
        }
        let base = SquaredExponential::new(config.signal_var, config.lengthscales.clone())?;
        let dim = base.dim();
        for row in source.x.iter().chain(target.x.iter()) {
            if row.len() != dim {
                return Err(GpError::DimensionMismatch {
                    expected: dim,
                    got: row.len(),
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(GpError::InvalidTrainingData {
                    reason: "training inputs must be finite",
                });
            }
        }
        if source.y.iter().chain(&target.y).any(|v| !v.is_finite()) {
            return Err(GpError::InvalidTrainingData {
                reason: "training outputs must be finite",
            });
        }
        let kernel = TransferKernel::with_lambda(base, config.lambda)?;

        // Per-task standardization.
        let std_source = if source.is_empty() {
            Standardizer::identity()
        } else {
            Standardizer::fit(&source.y)
        };
        let std_target = Standardizer::fit(&target.y);
        let n = source.len();
        let m = target.len();
        let mut z_joint = Vec::with_capacity(n + m);
        z_joint.extend(source.y.iter().map(|&v| std_source.transform(v)));
        z_joint.extend(target.y.iter().map(|&v| std_target.transform(v)));

        // Joint kernel matrix K̃ + Λ.
        let task_of = |i: usize| if i < n { Task::Source } else { Task::Target };
        let point_of = |i: usize| -> &[f64] {
            if i < n {
                &source.x[i]
            } else {
                &target.x[i - n]
            }
        };
        crate::counters::add_fitcache_misses(1);
        crate::counters::add_kernel_assemblies(1);
        let mut k = Matrix::from_fn(n + m, n + m, |i, j| {
            kernel.eval_task(point_of(i), task_of(i), point_of(j), task_of(j))
        });
        for i in 0..(n + m) {
            let noise = if i < n {
                config.noise_source
            } else {
                config.noise_target
            };
            k[(i, i)] += noise;
        }
        let (chol, jitter) = Cholesky::new_with_jitter(&k, 1e-10, 12)?;
        let alpha = chol.solve_vec(&z_joint)?;

        // Source-block marginal likelihood, for the conditional objective.
        let source_lml = if n == 0 {
            0.0
        } else {
            let k_ss = k.submatrix(0, n, 0, n);
            let (chol_s, _) = Cholesky::new_with_jitter(&k_ss, 1e-10, 12)?;
            let z_s = &z_joint[..n];
            let alpha_s = chol_s.solve_vec(z_s)?;
            -0.5 * linalg::vecops::dot(z_s, &alpha_s)
                - 0.5 * chol_s.log_det()
                - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
        };

        Ok(TransferGp {
            kernel,
            x_source: source.x,
            x_target: target.x,
            y_source: source.y,
            y_target: target.y,
            alpha,
            chol,
            std_target,
            noise_target: config.noise_target,
            z_joint,
            source_lml,
            jitter,
            fit_epoch: FIT_EPOCH.fetch_add(1, Ordering::Relaxed) + 1,
            config,
        })
    }

    /// Conditions the fitted model on `k` additional target observations
    /// without re-optimizing hyper-parameters and without refactoring the
    /// joint kernel from scratch: the existing Cholesky factor is extended
    /// by the new rows (see [`Cholesky::extend`]), which costs
    /// O((N+M)²·k) instead of the O((N+M+k)³) full refit.
    ///
    /// The target standardizer is re-fitted over the full (extended)
    /// output set and the weight vector recomputed, so the result is the
    /// model [`TransferGp::fit`] would produce on the extended data, up
    /// to floating-point round-off in the factor (see
    /// [`Cholesky::extend`]). When the incremental extension is rejected
    /// (the extended matrix is not numerically positive definite at the
    /// stored jitter), the model transparently falls back to a full refit
    /// with jitter escalation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransferGp::fit`] on the new observations
    /// (dimension mismatches, non-finite values); `self` is unchanged on
    /// error.
    pub fn condition_on(&mut self, new_x: &[Vec<f64>], new_y: &[f64]) -> Result<()> {
        if new_x.len() != new_y.len() {
            return Err(GpError::InvalidTrainingData {
                reason: "x and y lengths differ",
            });
        }
        if new_x.is_empty() {
            return Ok(());
        }
        let dim = self.kernel.base().dim();
        for row in new_x {
            if row.len() != dim {
                return Err(GpError::DimensionMismatch {
                    expected: dim,
                    got: row.len(),
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(GpError::InvalidTrainingData {
                    reason: "training inputs must be finite",
                });
            }
        }
        if new_y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::InvalidTrainingData {
                reason: "training outputs must be finite",
            });
        }
        let n = self.x_source.len();
        let m = self.x_target.len();
        let k = new_x.len();

        // Covariance of every existing joint point with each new
        // (target-task) point, and of the new points among themselves
        // with the target noise — and the stored jitter, matching the
        // diagonal the existing factor was computed with.
        let cross = Matrix::from_fn(n + m, k, |i, j| {
            let (xi, ti) = if i < n {
                (&self.x_source[i], Task::Source)
            } else {
                (&self.x_target[i - n], Task::Target)
            };
            self.kernel.eval_task(xi, ti, &new_x[j], Task::Target)
        });
        let mut corner = Matrix::from_fn(k, k, |i, j| {
            self.kernel
                .eval_task(&new_x[i], Task::Target, &new_x[j], Task::Target)
        });
        for i in 0..k {
            corner[(i, i)] += self.config.noise_target + self.jitter;
        }

        let mut chol = self.chol.clone();
        if chol.extend(&cross, &corner).is_err() {
            // Numerically rejected: fall back to a full refit, which can
            // escalate jitter. Rebuild owned task data from stored state.
            let source = TaskData::from_shared(Arc::clone(&self.x_source), self.y_source.clone());
            let mut xt: Vec<Vec<f64>> = (*self.x_target).clone();
            xt.extend(new_x.iter().cloned());
            let mut yt = self.y_target.clone();
            yt.extend_from_slice(new_y);
            *self = TransferGp::fit(source, TaskData::new(xt, yt), self.config.clone())?;
            return Ok(());
        }

        // Every fallible step runs on locals first, so a failure leaves
        // `self` exactly as it was (the documented error contract), never
        // half-extended. Per-task standardization is over the *current*
        // target sample, so the whole target block of z is recomputed (the
        // source block and its marginal likelihood are untouched).
        let mut y_target = self.y_target.clone();
        y_target.extend_from_slice(new_y);
        let std_target = Standardizer::fit(&y_target);
        let mut z_joint = self.z_joint[..n].to_vec();
        z_joint.extend(y_target.iter().map(|&v| std_target.transform(v)));
        let alpha = chol.solve_vec(&z_joint)?;

        Arc::make_mut(&mut self.x_target).extend(new_x.iter().cloned());
        self.y_target = y_target;
        self.std_target = std_target;
        self.z_joint = z_joint;
        self.alpha = alpha;
        self.chol = chol;
        Ok(())
    }

    /// Refits on `source`/`target` with this model's hyper-parameters
    /// unchanged — no marginal-likelihood search, just a fresh joint
    /// factorization (with jitter escalation) over the given data. This is
    /// the degraded-mode recovery hook: when a full re-optimization fails
    /// numerically (jitter ladder exhausted, NaN in the hyper-parameter
    /// search), a run supervisor can fall back to the last-good
    /// hyper-parameters while still incorporating fresh observations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransferGp::fit`]. `self` is unchanged — the
    /// recovered model is returned by value so the caller decides whether
    /// to adopt it.
    pub fn refit_data_only(&self, source: TaskData, target: TaskData) -> Result<TransferGp> {
        TransferGp::fit(source, target, self.config.clone())
    }

    /// Number of source observations.
    pub fn source_len(&self) -> usize {
        self.x_source.len()
    }

    /// Number of target observations.
    pub fn target_len(&self) -> usize {
        self.x_target.len()
    }

    /// The cross-task factor λ in use.
    pub fn lambda(&self) -> f64 {
        self.kernel.lambda()
    }

    /// Diagonal jitter added so the joint kernel's Cholesky factorization
    /// succeeded (0 when the matrix was well-conditioned as-is). Useful as
    /// a conditioning diagnostic in traces.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Process-unique stamp of this model's factorization lineage: fresh
    /// after every full (re)fit, preserved across incremental
    /// [`TransferGp::condition_on`] extensions (whose appended rows leave
    /// the old factor rows bit-identical). [`PredictCache`] keys its
    /// validity on this.
    pub fn fit_epoch(&self) -> u64 {
        self.fit_epoch
    }

    /// The hyper-parameter configuration in use.
    pub fn config(&self) -> &TransferGpConfig {
        &self.config
    }

    /// Predictive mean and variance for a **target-task** query, in the
    /// target task's natural units (Eq. 8). The variance includes the
    /// target observation noise `β_t⁻¹`, i.e. it predicts a tool
    /// measurement, not the latent function.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] for queries of the wrong
    /// dimension.
    pub fn predict(&self, x: &[f64]) -> Result<(f64, f64)> {
        let (mean, var_latent) = self.predict_latent(x)?;
        Ok((
            mean,
            var_latent + self.std_target.inverse_var(self.noise_target),
        ))
    }

    /// Predictive mean and **latent-function** variance (no observation
    /// noise) for a target-task query. This is the variance the tuner's
    /// uncertainty regions use: it can shrink below the tool-noise floor
    /// as evidence accumulates, so classification converges.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] for queries of the wrong
    /// dimension.
    pub fn predict_latent(&self, x: &[f64]) -> Result<(f64, f64)> {
        if x.len() != self.kernel.base().dim() {
            return Err(GpError::DimensionMismatch {
                expected: self.kernel.base().dim(),
                got: x.len(),
            });
        }
        let mut k_star = Vec::with_capacity(self.x_source.len() + self.x_target.len());
        for xi in self.x_source.iter() {
            k_star.push(self.kernel.eval_task(xi, Task::Source, x, Task::Target));
        }
        for xi in self.x_target.iter() {
            k_star.push(self.kernel.eval_task(xi, Task::Target, x, Task::Target));
        }
        let mean_z = linalg::vecops::dot(&k_star, &self.alpha);
        let v = self.chol.solve_lower_only(&k_star)?;
        let c = self.kernel.eval_task(x, Task::Target, x, Task::Target);
        let var_z = (c - linalg::vecops::dot(&v, &v)).max(0.0);
        Ok((
            self.std_target.inverse(mean_z),
            self.std_target.inverse_var(var_z),
        ))
    }

    /// Batch prediction for target-task queries, via the multi-RHS path
    /// of [`TransferGp::predict_latent_batch`] plus the observation-noise
    /// floor of [`TransferGp::predict`].
    ///
    /// # Errors
    ///
    /// Fails on any dimension mismatch.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<(f64, f64)>> {
        self.predict_batch_with_block(xs, PREDICT_BLOCK)
    }

    /// [`TransferGp::predict_batch`] with an explicit solve block size.
    /// Results are bit-identical for every valid `block`; only the
    /// panel-at-a-time walk of the Cholesky factor changes.
    ///
    /// # Errors
    ///
    /// [`GpError::InvalidHyperparameter`] when `block` is 0, plus the
    /// dimension checks of [`TransferGp::predict_batch`].
    pub fn predict_batch_with_block(
        &self,
        xs: &[Vec<f64>],
        block: usize,
    ) -> Result<Vec<(f64, f64)>> {
        let noise = self.std_target.inverse_var(self.noise_target);
        Ok(self
            .predict_latent_batch_with_block(xs, block)?
            .into_iter()
            .map(|(mean, var)| (mean, var + noise))
            .collect())
    }

    /// Batch form of [`TransferGp::predict_latent`]: assembles the
    /// cross-covariance matrix `K*` for a block of queries at a time and
    /// runs one multi-RHS triangular solve per block instead of one
    /// forward substitution per query, so a candidate sweep walks the
    /// Cholesky factor once per block instead of once per point. Blocks
    /// are capped at [`PREDICT_BLOCK`] columns so `K*` and `L⁻¹K*` stay
    /// resident in cache even for very large sweeps.
    ///
    /// Per query the arithmetic (accumulation order of the mean dot
    /// product and of `‖L⁻¹k*‖²`) is exactly that of the scalar path, so
    /// results are bit-identical to calling [`TransferGp::predict_latent`]
    /// in a loop — and independent of how callers chunk `xs`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] for queries of the wrong
    /// dimension.
    pub fn predict_latent_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<(f64, f64)>> {
        self.predict_latent_batch_with_block(xs, PREDICT_BLOCK)
    }

    /// [`TransferGp::predict_latent_batch`] with an explicit solve block
    /// size. Results are bit-identical for every valid `block`.
    ///
    /// # Errors
    ///
    /// [`GpError::InvalidHyperparameter`] when `block` is 0;
    /// [`GpError::DimensionMismatch`] for queries of the wrong dimension.
    pub fn predict_latent_batch_with_block(
        &self,
        xs: &[Vec<f64>],
        block: usize,
    ) -> Result<Vec<(f64, f64)>> {
        self.check_batch_args(xs, block)?;
        let mut out = Vec::with_capacity(xs.len());
        for chunk in xs.chunks(block) {
            self.predict_latent_block(chunk, &mut out)?;
        }
        Ok(out)
    }

    /// One block of [`TransferGp::predict_latent_batch`]: assemble `K*`,
    /// solve `L V = K*` for all columns at once, then reduce each column
    /// with the exact scalar-path accumulation order.
    fn predict_latent_block(&self, xs: &[Vec<f64>], out: &mut Vec<(f64, f64)>) -> Result<()> {
        if xs.is_empty() {
            return Ok(());
        }
        let n = self.x_source.len();
        let p = n + self.x_target.len();
        let k_star = Matrix::from_fn(p, xs.len(), |i, q| {
            let (xi, ti) = if i < n {
                (&self.x_source[i], Task::Source)
            } else {
                (&self.x_target[i - n], Task::Target)
            };
            self.kernel.eval_task(xi, ti, &xs[q], Task::Target)
        });
        let v = self.chol.solve_lower_only_multi(&k_star)?;
        for (q, x) in xs.iter().enumerate() {
            let mut mean_z = 0.0;
            for (i, &a) in self.alpha.iter().enumerate() {
                mean_z += k_star[(i, q)] * a;
            }
            let mut vv = 0.0;
            for i in 0..p {
                let vi = v[(i, q)];
                vv += vi * vi;
            }
            let c = self.kernel.eval_task(x, Task::Target, x, Task::Target);
            let var_z = (c - vv).max(0.0);
            out.push((
                self.std_target.inverse(mean_z),
                self.std_target.inverse_var(var_z),
            ));
        }
        Ok(())
    }

    /// Data-parallel form of
    /// [`TransferGp::predict_latent_batch_with_block`]: the `block`-sized
    /// chunks are fanned out over at most `workers` scoped threads with
    /// an atomic-cursor work queue and merged in chunk order. Because the
    /// chunk decomposition is exactly the serial `xs.chunks(block)` walk
    /// and per-chunk arithmetic never crosses chunk boundaries, the
    /// output is **bitwise identical** for every worker count (including
    /// 1, which skips the fan-out) and every valid `block`.
    ///
    /// # Errors
    ///
    /// [`GpError::InvalidHyperparameter`] when `block` is 0;
    /// [`GpError::DimensionMismatch`] for queries of the wrong dimension.
    pub fn predict_latent_batch_par(
        &self,
        xs: &[Vec<f64>],
        block: usize,
        workers: usize,
    ) -> Result<Vec<(f64, f64)>> {
        self.check_batch_args(xs, block)?;
        let n_chunks = xs.len().div_ceil(block);
        crate::counters::add_predict_chunks(n_chunks as u64);
        let chunks = run_chunks_par(n_chunks, workers, |c| {
            let lo = c * block;
            let hi = (lo + block).min(xs.len());
            let mut out = Vec::with_capacity(hi - lo);
            self.predict_latent_block(&xs[lo..hi], &mut out)
                .map(|()| out)
        });
        let mut out = Vec::with_capacity(xs.len());
        for chunk in chunks {
            out.extend(chunk?);
        }
        Ok(out)
    }

    /// Cached-incremental predict sweep: like
    /// [`TransferGp::predict_latent_batch_par`], but candidate solve
    /// state (`k* = k(X, x*)`, `v = L⁻¹k*`) persists in `cache` between
    /// sweeps, keyed by the caller's stable candidate `ids`. When the
    /// model has only been *conditioned* since a candidate's last sweep
    /// (q appended target rows), the candidate pays q new kernel entries
    /// plus a q-row tail substitution instead of a from-scratch column —
    /// O(P·n·q) per sweep instead of O(P·n²) over P undecided candidates.
    ///
    /// Results are **bitwise identical** to
    /// [`TransferGp::predict_latent_batch_with_block`] at any worker
    /// count and any hit/miss mix: cached prefixes are bit-stable because
    /// [`Cholesky::extend`] never rewrites old factor rows, the tail
    /// substitution replays the exact from-scratch recurrence, and means
    /// and variances are reduced from factor-space state afresh each call
    /// with the current weights and standardizer (so conditioning's α and
    /// standardizer updates need no invalidation). A fit-epoch mismatch
    /// (any full refit) clears the cache wholesale before the sweep.
    ///
    /// Call [`PredictCache::begin_sweep`] once per tuner iteration before
    /// the first cached sweep so entries whose candidates were classified
    /// or pruned stop occupying memory.
    ///
    /// # Errors
    ///
    /// [`GpError::InvalidHyperparameter`] when `block` is 0;
    /// [`GpError::InvalidTrainingData`] when `ids` and `xs` disagree in
    /// length; [`GpError::DimensionMismatch`] for queries of the wrong
    /// dimension.
    pub fn predict_latent_batch_cached(
        &self,
        ids: &[u64],
        xs: &[Vec<f64>],
        block: usize,
        workers: usize,
        cache: &mut PredictCache,
    ) -> Result<Vec<(f64, f64)>> {
        self.check_batch_args(xs, block)?;
        if ids.len() != xs.len() {
            return Err(GpError::InvalidTrainingData {
                reason: "candidate ids and queries must have equal length",
            });
        }
        if cache.epoch != self.fit_epoch {
            cache.clear_stale(self.fit_epoch);
        }
        let p = self.x_source.len() + self.x_target.len();
        let n_chunks = xs.len().div_ceil(block);
        crate::counters::add_predict_chunks(n_chunks as u64);

        // Drain this sweep's entries from the map serially, pre-split
        // into per-chunk owned batches each worker takes whole. An entry
        // longer than the current factor cannot exist at a matching epoch;
        // drop it defensively as a miss.
        let mut taken = ids.iter().map(|id| {
            cache
                .entries
                .remove(id)
                .map(|(e, _)| e)
                .filter(|e| e.k_star.len() <= p)
        });
        let mut chunk_inputs: Vec<Mutex<Vec<Option<CacheEntry>>>> = Vec::with_capacity(n_chunks);
        for c in 0..n_chunks {
            let len = ((c + 1) * block).min(xs.len()) - c * block;
            chunk_inputs.push(Mutex::new(taken.by_ref().take(len).collect()));
        }

        let chunks = run_chunks_par(n_chunks, workers, |c| {
            let lo = c * block;
            let hi = (lo + block).min(xs.len());
            let entries = std::mem::take(
                &mut *chunk_inputs[c]
                    .lock()
                    .expect("predict chunk input poisoned"),
            );
            self.predict_chunk_cached(&xs[lo..hi], entries)
        });

        let sweep = cache.sweep();
        let mut out = Vec::with_capacity(xs.len());
        let (mut hits, mut misses) = (0u64, 0u64);
        for (c, chunk) in chunks.into_iter().enumerate() {
            let (chunk_out, entries, h, m) = chunk?;
            hits += h;
            misses += m;
            let lo = c * block;
            for (j, entry) in entries.into_iter().enumerate() {
                cache.entries.insert(ids[lo + j], (entry, sweep));
            }
            out.extend(chunk_out);
        }
        crate::counters::add_predict_cache_hits(hits);
        crate::counters::add_predict_cache_misses(misses);
        Ok(out)
    }

    /// One chunk of [`TransferGp::predict_latent_batch_cached`]: extend
    /// every hit's solve state by the factor's tail rows, compute all
    /// misses with one multi-RHS solve (per-column bit-identical to the
    /// scalar path, see [`linalg::solve::solve_lower_multi`]), then
    /// reduce every candidate with the exact scalar accumulation order of
    /// [`TransferGp::predict_latent_block`].
    #[allow(clippy::type_complexity)]
    fn predict_chunk_cached(
        &self,
        xs: &[Vec<f64>],
        entries: Vec<Option<CacheEntry>>,
    ) -> Result<(Vec<(f64, f64)>, Vec<CacheEntry>, u64, u64)> {
        let n = self.x_source.len();
        let p = n + self.x_target.len();
        let mut hits = 0u64;
        let mut updated: Vec<Option<CacheEntry>> = Vec::with_capacity(xs.len());
        for (x, maybe) in xs.iter().zip(entries) {
            if let Some(mut e) = maybe {
                // The cached rows cover the old factor; only appended
                // target rows are missing (conditioning never adds source
                // points).
                let start = e.k_star.len();
                for i in start..p {
                    e.k_star.push(self.kernel.eval_task(
                        &self.x_target[i - n],
                        Task::Target,
                        x,
                        Task::Target,
                    ));
                }
                self.chol
                    .solve_lower_only_tail(&e.k_star[start..], &mut e.v)?;
                hits += 1;
                updated.push(Some(e));
            } else {
                updated.push(None);
            }
        }
        let miss_idx: Vec<usize> = updated
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_none())
            .map(|(q, _)| q)
            .collect();
        if !miss_idx.is_empty() {
            let k_star = Matrix::from_fn(p, miss_idx.len(), |i, c| {
                let (xi, ti) = if i < n {
                    (&self.x_source[i], Task::Source)
                } else {
                    (&self.x_target[i - n], Task::Target)
                };
                self.kernel
                    .eval_task(xi, ti, &xs[miss_idx[c]], Task::Target)
            });
            let v = self.chol.solve_lower_only_multi(&k_star)?;
            for (c, &q) in miss_idx.iter().enumerate() {
                updated[q] = Some(CacheEntry {
                    k_star: k_star.col(c),
                    v: v.col(c),
                });
            }
        }
        let mut out = Vec::with_capacity(xs.len());
        let mut final_entries = Vec::with_capacity(xs.len());
        for (x, e) in xs.iter().zip(updated) {
            let e = e.expect("every cached chunk entry is filled");
            let mut mean_z = 0.0;
            for (i, &a) in self.alpha.iter().enumerate() {
                mean_z += e.k_star[i] * a;
            }
            let mut vv = 0.0;
            for &vi in &e.v {
                vv += vi * vi;
            }
            let c = self.kernel.eval_task(x, Task::Target, x, Task::Target);
            let var_z = (c - vv).max(0.0);
            out.push((
                self.std_target.inverse(mean_z),
                self.std_target.inverse_var(var_z),
            ));
            final_entries.push(e);
        }
        Ok((out, final_entries, hits, miss_idx.len() as u64))
    }

    /// Shared validation of the batch predict entry points.
    fn check_batch_args(&self, xs: &[Vec<f64>], block: usize) -> Result<()> {
        if block == 0 {
            return Err(GpError::InvalidHyperparameter {
                name: "predict_block",
                value: 0.0,
            });
        }
        let dim = self.kernel.base().dim();
        for x in xs {
            if x.len() != dim {
                return Err(GpError::DimensionMismatch {
                    expected: dim,
                    got: x.len(),
                });
            }
        }
        Ok(())
    }

    /// Log marginal likelihood of the joint (standardized) data.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.z_joint.len() as f64;
        let fit = -0.5 * linalg::vecops::dot(&self.z_joint, &self.alpha);
        let complexity = -0.5 * self.chol.log_det();
        fit + complexity - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    /// Log marginal likelihood of the **target** data conditioned on the
    /// source data, `log p(y_T | y_S, θ) = log p(y_T, y_S) − log p(y_S)`.
    ///
    /// This is the training objective the paper prescribes ("learned by
    /// maximizing the marginal likelihood of data of the target task"):
    /// it rewards hyper-parameters for predicting the *target* well given
    /// the source, instead of compromising them to also explain source
    /// regions the target never visits. Equals the plain target marginal
    /// likelihood when the source is empty.
    pub fn log_conditional_likelihood(&self) -> f64 {
        self.log_marginal_likelihood() - self.source_lml
    }
}

/// Runs `run(0..n_chunks)` across at most `workers` scoped threads with
/// an atomic-cursor work-stealing queue (the `run_concurrent` idiom from
/// the oracle fan-out), collecting results into preallocated per-chunk
/// slots and returning them in chunk order. Determinism: every chunk is
/// computed by exactly one worker from the same inputs a serial loop
/// would see, and the merge is by position — so the output is bitwise
/// independent of the worker count and of claim interleaving. With one
/// worker (or one chunk) the fan-out is skipped entirely.
fn run_chunks_par<T, F>(n_chunks: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n_chunks);
    if workers <= 1 {
        return (0..n_chunks).map(run).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let result = run(c);
                *slots[c].lock().expect("predict chunk slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("predict chunk slot poisoned")
                .expect("every predict chunk slot is filled")
        })
        .collect()
}

impl std::fmt::Debug for TransferGp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransferGp")
            .field("n_source", &self.x_source.len())
            .field("n_target", &self.x_target.len())
            .field("lambda", &self.kernel.lambda())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(x: f64) -> f64 {
        (5.0 * x).sin()
    }

    fn source_dense() -> TaskData {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| f(p[0])).collect();
        TaskData::new(x, y)
    }

    fn target_sparse(shift: f64) -> TaskData {
        let pts = [0.05, 0.35, 0.65, 0.95];
        TaskData::new(
            pts.iter().map(|&p| vec![p]).collect(),
            pts.iter().map(|&p| f(p) + shift).collect(),
        )
    }

    #[test]
    fn transfer_beats_target_only_gp() {
        let cfg = TransferGpConfig {
            lengthscales: vec![0.15],
            signal_var: 1.0,
            lambda: 0.95,
            noise_source: 1e-4,
            noise_target: 1e-4,
        };
        let with_source = TransferGp::fit(source_dense(), target_sparse(0.0), cfg.clone()).unwrap();
        let without_source = TransferGp::fit(TaskData::default(), target_sparse(0.0), cfg).unwrap();
        // Error at a point far from target observations but covered by the
        // source.
        let q = [0.2];
        let truth = f(0.2);
        let e_with = (with_source.predict(&q).unwrap().0 - truth).abs();
        let e_without = (without_source.predict(&q).unwrap().0 - truth).abs();
        assert!(
            e_with < e_without,
            "transfer {e_with} should beat no-transfer {e_without}"
        );
    }

    #[test]
    fn transfer_reduces_uncertainty() {
        let cfg = TransferGpConfig {
            lengthscales: vec![0.15],
            signal_var: 1.0,
            lambda: 0.95,
            noise_source: 1e-4,
            noise_target: 1e-4,
        };
        let with_source = TransferGp::fit(source_dense(), target_sparse(0.0), cfg.clone()).unwrap();
        let without_source = TransferGp::fit(TaskData::default(), target_sparse(0.0), cfg).unwrap();
        let q = [0.2];
        assert!(with_source.predict(&q).unwrap().1 < without_source.predict(&q).unwrap().1);
    }

    #[test]
    fn lambda_zero_ignores_source() {
        let cfg_zero = TransferGpConfig {
            lengthscales: vec![0.15],
            signal_var: 1.0,
            lambda: 1e-12,
            noise_source: 1e-4,
            noise_target: 1e-4,
        };
        // Source deliberately misleading (negated function).
        let mut bad_source = source_dense();
        for y in &mut bad_source.y {
            *y = -*y;
        }
        let tgp = TransferGp::fit(bad_source, target_sparse(0.0), cfg_zero.clone()).unwrap();
        let alone = TransferGp::fit(TaskData::default(), target_sparse(0.0), cfg_zero).unwrap();
        let q = [0.5];
        let (m1, _) = tgp.predict(&q).unwrap();
        let (m2, _) = alone.predict(&q).unwrap();
        assert!((m1 - m2).abs() < 1e-6, "λ≈0 must neutralize the source");
    }

    #[test]
    fn per_task_standardization_absorbs_scale_shift() {
        // Source outputs 100× larger than target: shape transfers anyway.
        let mut scaled_source = source_dense();
        for y in &mut scaled_source.y {
            *y *= 100.0;
        }
        let cfg = TransferGpConfig {
            lengthscales: vec![0.15],
            signal_var: 1.0,
            lambda: 0.95,
            noise_source: 1e-4,
            noise_target: 1e-4,
        };
        let tgp = TransferGp::fit(scaled_source, target_sparse(0.0), cfg).unwrap();
        let (m, _) = tgp.predict(&[0.2]).unwrap();
        assert!((m - f(0.2)).abs() < 0.25, "mean {m} vs {}", f(0.2));
    }

    #[test]
    fn rejects_empty_target_and_mismatches() {
        let cfg = TransferGpConfig::default_for_dim(1);
        assert!(TransferGp::fit(source_dense(), TaskData::default(), cfg.clone()).is_err());
        let bad_dim = TaskData::new(vec![vec![0.1, 0.2]], vec![1.0]);
        assert!(TransferGp::fit(TaskData::default(), bad_dim, cfg.clone()).is_err());
        let ragged = TaskData::new(vec![vec![0.1]], vec![1.0, 2.0]);
        assert!(TransferGp::fit(TaskData::default(), ragged, cfg).is_err());
    }

    #[test]
    fn likelihood_prefers_true_lambda() {
        // Target is an exact copy of the source function: high λ should
        // explain the joint data better than λ ≈ 0.
        let mk = |lambda: f64| TransferGpConfig {
            lengthscales: vec![0.15],
            signal_var: 1.0,
            lambda,
            noise_source: 1e-3,
            noise_target: 1e-3,
        };
        let high = TransferGp::fit(source_dense(), target_sparse(0.0), mk(0.95)).unwrap();
        let low = TransferGp::fit(source_dense(), target_sparse(0.0), mk(1e-6)).unwrap();
        assert!(high.log_marginal_likelihood() > low.log_marginal_likelihood());
    }

    #[test]
    fn condition_on_matches_full_refit() {
        let cfg = TransferGpConfig {
            lengthscales: vec![0.2],
            signal_var: 1.0,
            lambda: 0.9,
            noise_source: 1e-3,
            noise_target: 1e-3,
        };
        // Fit on a prefix, condition on the rest, compare against a
        // from-scratch fit of everything.
        let full_target = target_sparse(0.1);
        let prefix = TaskData::new(full_target.x[..2].to_vec(), full_target.y[..2].to_vec());
        let mut incremental = TransferGp::fit(source_dense(), prefix, cfg.clone()).unwrap();
        incremental
            .condition_on(&full_target.x[2..], &full_target.y[2..])
            .unwrap();
        let fresh = TransferGp::fit(source_dense(), full_target, cfg).unwrap();
        assert_eq!(incremental.target_len(), fresh.target_len());
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-10 * b.abs().max(1.0);
        for q in [[0.0], [0.22], [0.5], [0.77], [1.0]] {
            let (mi, vi) = incremental.predict_latent(&q).unwrap();
            let (mf, vf) = fresh.predict_latent(&q).unwrap();
            assert!(close(mi, mf), "mean at {q:?}: {mi} vs full refit {mf}");
            assert!(close(vi, vf), "variance at {q:?}: {vi} vs full refit {vf}");
        }
        assert!(close(
            incremental.log_marginal_likelihood(),
            fresh.log_marginal_likelihood()
        ));
        assert!(close(
            incremental.log_conditional_likelihood(),
            fresh.log_conditional_likelihood()
        ));
    }

    #[test]
    fn condition_on_validates_and_handles_empty_batches() {
        let cfg = TransferGpConfig::default_for_dim(1);
        let mut model = TransferGp::fit(source_dense(), target_sparse(0.0), cfg).unwrap();
        let before_len = model.target_len();
        // Empty batch: no-op.
        model.condition_on(&[], &[]).unwrap();
        assert_eq!(model.target_len(), before_len);
        // Mismatched lengths / dimensions / non-finite values are
        // rejected without touching the model.
        assert!(model.condition_on(&[vec![0.5]], &[]).is_err());
        assert!(model.condition_on(&[vec![0.5, 0.5]], &[1.0]).is_err());
        assert!(model.condition_on(&[vec![f64::NAN]], &[1.0]).is_err());
        assert!(model.condition_on(&[vec![0.5]], &[f64::INFINITY]).is_err());
        assert_eq!(model.target_len(), before_len);
    }

    #[test]
    fn condition_on_works_without_source() {
        let cfg = TransferGpConfig::default_for_dim(1);
        let mut model =
            TransferGp::fit(TaskData::default(), target_sparse(0.0), cfg.clone()).unwrap();
        model.condition_on(&[vec![0.5]], &[f(0.5)]).unwrap();
        let full = TaskData::new(
            vec![vec![0.05], vec![0.35], vec![0.65], vec![0.95], vec![0.5]],
            vec![f(0.05), f(0.35), f(0.65), f(0.95), f(0.5)],
        );
        let fresh = TransferGp::fit(TaskData::default(), full, cfg).unwrap();
        let (mi, vi) = model.predict(&[0.3]).unwrap();
        let (mf, vf) = fresh.predict(&[0.3]).unwrap();
        assert!((mi - mf).abs() <= 1e-10 * mf.abs().max(1.0));
        assert!((vi - vf).abs() <= 1e-10 * vf.abs().max(1.0));
    }

    #[test]
    fn batch_prediction_is_bitwise_identical_to_scalar() {
        let tgp = TransferGp::fit(
            source_dense(),
            target_sparse(0.1),
            TransferGpConfig::default_for_dim(1),
        )
        .unwrap();
        let queries: Vec<Vec<f64>> = (0..23).map(|i| vec![i as f64 / 22.0]).collect();
        let latent = tgp.predict_latent_batch(&queries).unwrap();
        let noisy = tgp.predict_batch(&queries).unwrap();
        for (q, query) in queries.iter().enumerate() {
            let (ms, vs) = tgp.predict_latent(query).unwrap();
            assert_eq!(latent[q].0, ms, "latent mean #{q}");
            assert_eq!(latent[q].1, vs, "latent variance #{q}");
            let (mn, vn) = tgp.predict(query).unwrap();
            assert_eq!(noisy[q].0, mn, "noisy mean #{q}");
            assert_eq!(noisy[q].1, vn, "noisy variance #{q}");
        }
        // Chunking cannot change results.
        let halves: Vec<(f64, f64)> = queries
            .chunks(5)
            .flat_map(|c| tgp.predict_latent_batch(c).unwrap())
            .collect();
        assert_eq!(halves, latent);
        // Empty and invalid input handling.
        assert!(tgp.predict_latent_batch(&[]).unwrap().is_empty());
        assert!(tgp.predict_latent_batch(&[vec![0.1, 0.2]]).is_err());
    }

    #[test]
    fn block_size_is_invariant_bit_for_bit() {
        let tgp = TransferGp::fit(
            source_dense(),
            target_sparse(0.1),
            TransferGpConfig::default_for_dim(1),
        )
        .unwrap();
        let queries: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 49.0]).collect();
        let reference = tgp.predict_latent_batch(&queries).unwrap();
        for block in [1, 3, 64, 256, 1000] {
            let got = tgp
                .predict_latent_batch_with_block(&queries, block)
                .unwrap();
            assert_eq!(got, reference, "latent block {block} drifted");
            let noisy = tgp.predict_batch_with_block(&queries, block).unwrap();
            let noisy_ref = tgp.predict_batch(&queries).unwrap();
            assert_eq!(noisy, noisy_ref, "noisy block {block} drifted");
        }
        // Block 0 is rejected, not looped forever.
        assert!(tgp.predict_latent_batch_with_block(&queries, 0).is_err());
        assert!(tgp.predict_batch_with_block(&queries, 0).is_err());
    }

    #[test]
    fn parallel_predict_is_bitwise_worker_and_block_invariant() {
        let tgp = TransferGp::fit(
            source_dense(),
            target_sparse(0.1),
            TransferGpConfig::default_for_dim(1),
        )
        .unwrap();
        let queries: Vec<Vec<f64>> = (0..53).map(|i| vec![i as f64 / 52.0]).collect();
        let reference = tgp.predict_latent_batch(&queries).unwrap();
        for block in [1, 3, 7, 53, 200] {
            for workers in [1, 2, 4, 8] {
                let got = tgp
                    .predict_latent_batch_par(&queries, block, workers)
                    .unwrap();
                assert_eq!(got, reference, "block {block} workers {workers} drifted");
            }
        }
        // Validation still applies on the parallel entry points.
        assert!(tgp.predict_latent_batch_par(&queries, 0, 4).is_err());
        assert!(tgp
            .predict_latent_batch_par(&[vec![0.1, 0.2]], 8, 4)
            .is_err());
        assert!(tgp.predict_latent_batch_par(&[], 8, 4).unwrap().is_empty());
    }

    #[test]
    fn cached_predict_is_bitwise_identical_across_conditioning() {
        let cfg = TransferGpConfig {
            lengthscales: vec![0.2],
            signal_var: 1.0,
            lambda: 0.9,
            noise_source: 1e-3,
            noise_target: 1e-3,
        };
        let mut model = TransferGp::fit(source_dense(), target_sparse(0.1), cfg).unwrap();
        let queries: Vec<Vec<f64>> = (0..41).map(|i| vec![i as f64 / 40.0]).collect();
        let ids: Vec<u64> = (0..queries.len() as u64).collect();
        let mut cache = PredictCache::new();

        // Sweep 1: all misses. Must match the uncached path bit for bit.
        cache.begin_sweep();
        let got = model
            .predict_latent_batch_cached(&ids, &queries, 7, 4, &mut cache)
            .unwrap();
        let scratch = model.predict_latent_batch(&queries).unwrap();
        assert_eq!(got, scratch, "all-miss sweep drifted from scratch");
        assert_eq!(cache.len(), queries.len());

        // Condition on a few points, then sweep again: all hits (tail
        // path). Still bitwise identical to from-scratch on the extended
        // model, at every worker count (the persistent `cache` is
        // consumed by worker count 1 and rebuilt identically each round:
        // same (seed, q) state, same bits).
        model
            .condition_on(&[vec![0.11], vec![0.77]], &[f(0.11) + 0.1, f(0.77) + 0.1])
            .unwrap();
        let scratch = model.predict_latent_batch(&queries).unwrap();
        for workers in [1, 2, 4, 8] {
            cache.begin_sweep();
            let got = model
                .predict_latent_batch_cached(&ids, &queries, 7, workers, &mut cache)
                .unwrap();
            assert_eq!(got, scratch, "hit sweep (workers {workers}) drifted");
        }

        // A subset of candidates (evictions) plus new ones (misses) mixes
        // hit/miss within chunks; still exact.
        let sub_ids: Vec<u64> = ids.iter().copied().step_by(3).collect();
        let sub_q: Vec<Vec<f64>> = queries.iter().cloned().step_by(3).collect();
        cache.begin_sweep();
        let got = model
            .predict_latent_batch_cached(&sub_ids, &sub_q, 4, 2, &mut cache)
            .unwrap();
        let scratch = model.predict_latent_batch(&sub_q).unwrap();
        assert_eq!(got, scratch, "mixed sweep drifted");
        cache.begin_sweep();
        assert_eq!(cache.len(), sub_ids.len(), "untouched entries must evict");

        // Validation.
        assert!(model
            .predict_latent_batch_cached(&ids[..3], &queries, 7, 2, &mut cache)
            .is_err());
        assert!(model
            .predict_latent_batch_cached(&ids, &queries, 0, 2, &mut cache)
            .is_err());
    }

    #[test]
    fn refit_changes_epoch_and_clears_cache() {
        let cfg = TransferGpConfig::default_for_dim(1);
        let mut model = TransferGp::fit(source_dense(), target_sparse(0.1), cfg.clone()).unwrap();
        let epoch0 = model.fit_epoch();
        let queries: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0]).collect();
        let ids: Vec<u64> = (0..9).collect();
        let mut cache = PredictCache::new();
        cache.begin_sweep();
        model
            .predict_latent_batch_cached(&ids, &queries, 4, 1, &mut cache)
            .unwrap();
        assert_eq!(cache.len(), 9);

        // Incremental conditioning preserves the epoch.
        model.condition_on(&[vec![0.5]], &[f(0.5) + 0.1]).unwrap();
        assert_eq!(model.fit_epoch(), epoch0);

        // A full refit gets a fresh epoch, and the next cached sweep
        // against it starts from scratch yet still matches exactly.
        let refit = TransferGp::fit(
            source_dense(),
            TaskData::new((*model.x_target).clone(), model.y_target.clone()),
            cfg,
        )
        .unwrap();
        assert_ne!(refit.fit_epoch(), epoch0);
        cache.begin_sweep();
        let got = refit
            .predict_latent_batch_cached(&ids, &queries, 4, 1, &mut cache)
            .unwrap();
        let scratch = refit.predict_latent_batch(&queries).unwrap();
        assert_eq!(got, scratch, "post-refit sweep drifted");
    }

    #[test]
    fn accessors() {
        let tgp = TransferGp::fit(
            source_dense(),
            target_sparse(0.1),
            TransferGpConfig::default_for_dim(1),
        )
        .unwrap();
        assert_eq!(tgp.source_len(), 30);
        assert_eq!(tgp.target_len(), 4);
        assert!((tgp.lambda() - 0.8).abs() < 1e-12);
        let dbg = format!("{tgp:?}");
        assert!(dbg.contains("TransferGp"));
    }
}
