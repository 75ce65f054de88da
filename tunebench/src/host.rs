//! The host block printed with every result: what ran where, with which
//! settings. Everything is read from inside the checkout or from the
//! process itself.

use serde_json::{json, Value};

/// Hardware threads this process may use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Fit threads one hyper-parameter refit starts: the tuner fans the
/// objectives out when `threads > 1`, and each objective spreads its
/// restarts over `threads / objectives` workers (at least one).
pub fn fit_threads(threads: usize, objectives: usize, restarts: usize) -> usize {
    if threads <= 1 || objectives <= 1 {
        return threads.max(1).min(restarts.max(1));
    }
    objectives * (threads / objectives).max(1).min(restarts.max(1))
}

/// The processor's brand string, from `cpuid`.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports the highest extended leaf; the brand
    // string needs leaves up to 0x8000_0004.
    let max_leaf = __cpuid(0x8000_0000).eax;
    if max_leaf < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// The commit of the checkout, when it is a git work tree; `unknown`
/// otherwise (the benchmark may run from an exported tree).
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host block.
pub fn block(seed: u64, threads: usize, restarts: usize) -> Value {
    let default_threads = ppatuner::PpaTunerConfig::default().threads;
    json!({
        "available_parallelism": available_parallelism(),
        "cpu_model": cpu_model(),
        "rustflags": env!("TUNEBENCH_RUSTFLAGS"),
        "threads": threads,
        "predict_workers": threads,
        "eval_workers": threads,
        "fit_threads_max": fit_threads(threads, 3, restarts),
        "default_threads": default_threads,
        "default_fit_threads_max": fit_threads(default_threads, 3, restarts),
        // `predict_workers = 0` sizes the sweep to the parallelism, at most 8.
        "default_predict_workers": available_parallelism().min(8),
        "commit": commit(),
        "seed": seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_threads_follow_the_tuner_fan_out() {
        // Defaults on three objectives: 3 objectives × 2 restarts.
        assert_eq!(fit_threads(8, 3, 2), 6);
        assert_eq!(fit_threads(8, 2, 2), 4);
        assert_eq!(fit_threads(2, 3, 2), 3);
        assert_eq!(fit_threads(1, 3, 2), 1);
    }
}
