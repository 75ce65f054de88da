//! End-to-end PPATuner benchmark with per-layer attribution.
//!
//! The binary (`src/main.rs`) runs one workload for a fixed time and
//! prints every metric by name and unit; this library holds the pieces
//! its tests exercise. See `README.md` for the workloads and metrics.

pub mod host;
pub mod metrics;
pub mod probe;
pub mod stats;
pub mod trace;
pub mod workload;
