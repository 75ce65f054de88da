//! Gaussian-process regression and the transfer GP of PPATuner.
//!
//! This crate implements, from scratch on top of [`linalg`]:
//!
//! - [`kernel`]: the stationary squared-exponential kernel with ARD and
//!   the paper's **transfer kernel** (Eqs. 5–7): the
//!   cross-task correlation factor `λ = 2(1/(1+a))^b − 1` obtained by
//!   integrating a `Gamma(b, a)` prior over the task-dissimilarity
//!   parameter φ of `k(x,x')·(2e^{−ηφ} − 1)`;
//! - [`GpRegressor`]: exact GP regression (Eq. 1) with jittered Cholesky
//!   factorization, predictive mean/variance, and the exact log marginal
//!   likelihood;
//! - [`TransferGp`]: the two-task GP of §3.1 (Eq. 8), with per-task noise
//!   `β_s`, `β_t` and per-task output standardization so tasks of
//!   different output scale (e.g. a 3× larger design) remain comparable;
//! - [`optimize`]: a Nelder–Mead simplex minimizer and multi-start
//!   hyper-parameter fitting by maximizing the marginal likelihood.
//!
//! # Example
//!
//! ```
//! use gp::{GpRegressor, kernel::SquaredExponential};
//!
//! # fn main() -> Result<(), gp::GpError> {
//! let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
//! let y: Vec<f64> = x.iter().map(|p| (6.0 * p[0]).sin()).collect();
//! let kernel = SquaredExponential::isotropic(1, 1.0, 0.2)?;
//! let gp = GpRegressor::fit(x, y, kernel, 1e-6)?;
//! let (mean, var) = gp.predict(&[0.5])?;
//! assert!((mean - (3.0f64).sin()).abs() < 0.05);
//! assert!(var >= 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod counters;
mod error;
mod gp;
pub mod kernel;
pub mod optimize;
mod predict_cache;
pub mod standardize;
mod transfer;

pub use counters::GpCounters;
pub use error::GpError;
pub use gp::GpRegressor;
pub use predict_cache::PredictCache;
pub use transfer::{TaskData, TransferGp, TransferGpConfig, PREDICT_BLOCK};

/// Convenience alias for results returned by this crate.
pub type Result<T, E = GpError> = std::result::Result<T, E>;
