//! Small statistics and process helpers shared by the workloads.

use std::time::Instant;

/// Median of the samples (mean of the middle two for even counts); NaN
/// when empty, which the result writer turns into a failed check.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q`-quantile with linear interpolation between closest ranks.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Lowers the peak resident set size to the current one, so the next
/// [`rss_peak_mib`] covers only what runs in between. Where the kernel
/// refuses, the peak keeps covering the whole run.
pub fn reset_rss_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Times `batches` batches of `per_batch` calls of `f` and returns the
/// median nanoseconds per call over the batches. Batching keeps the clock's own
/// cost (tens of nanoseconds, more where it is a syscall) out of
/// sub-microsecond figures.
pub fn ns_per_call(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&per_call)
}
