//! Minimal wall-clock bench harness.
//!
//! The workspace is dependency-free (no criterion), so the `benches/`
//! binaries are plain `harness = false` mains built on this module: warm up
//! once, run a fixed iteration count, report mean/median/min/max.
//! Deterministic workloads make this adequate for the regressions the
//! benches guard — order-of-magnitude engine changes, not microarchitectural
//! noise.

use std::time::Instant;

/// Timing summary of one benchmark case.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Case label, e.g. `lower_bound/broadcast/64`.
    pub label: String,
    /// Measured iterations (excluding any warmup run).
    pub iters: u32,
    /// Mean wall-clock milliseconds per iteration.
    pub mean_ms: f64,
    /// Median wall-clock milliseconds per iteration.
    pub median_ms: f64,
    /// Fastest iteration.
    pub min_ms: f64,
    /// Slowest iteration.
    pub max_ms: f64,
}

/// Runs `f` once to warm up, then `iters` measured times.
///
/// With `iters == 1` the warmup run is skipped: a single-shot case (e.g. an
/// audited adversary run) would otherwise pay its full construction twice,
/// and a one-iteration measurement gains nothing from a warm cache.
pub fn bench<T>(label: &str, iters: u32, mut f: impl FnMut() -> T) -> BenchResult {
    assert!(iters > 0, "bench needs at least one iteration");
    if iters > 1 {
        let _warmup = f();
    }
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&out);
        samples.push(ms);
    }
    let total: f64 = samples.iter().sum();
    let mut sorted = samples.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    };
    BenchResult {
        label: label.to_owned(),
        iters,
        mean_ms: total / f64::from(iters),
        median_ms: median,
        min_ms: sorted[0],
        max_ms: sorted[sorted.len() - 1],
    }
}

/// One result as a JSON object with a stable key order. `iters` is always
/// present so a reader can tell a single-shot measurement (no warmup, no
/// spread) from an averaged one.
#[must_use]
pub fn json_row(r: &BenchResult) -> String {
    format!(
        concat!(
            "{{\"label\": \"{}\", \"iters\": {}, \"mean_ms\": {:.3}, ",
            "\"median_ms\": {:.3}, \"min_ms\": {:.3}, \"max_ms\": {:.3}}}"
        ),
        shm_obs::json::escape(&r.label),
        r.iters,
        r.mean_ms,
        r.median_ms,
        r.min_ms,
        r.max_ms,
    )
}

/// Prints one result line in a stable, grep-friendly format.
pub fn report(r: &BenchResult) {
    println!(
        "{:<44} {:>10.3} ms/iter  (median {:>9.3}, min {:>9.3}, max {:>9.3}, n={})",
        r.label, r.mean_ms, r.median_ms, r.min_ms, r.max_ms, r.iters
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn single_iteration_skips_warmup() {
        let calls = AtomicU32::new(0);
        let r = bench("one", 1, || calls.fetch_add(1, Ordering::SeqCst));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no warmup at iters == 1");
        assert_eq!(r.iters, 1);
        assert_eq!(r.median_ms, r.min_ms);
        assert_eq!(r.median_ms, r.max_ms);
    }

    #[test]
    fn json_row_reports_iters_and_stable_keys() {
        let r = BenchResult {
            label: "lower_bound/\"q\"/64".into(),
            iters: 1,
            mean_ms: 1.25,
            median_ms: 1.25,
            min_ms: 1.25,
            max_ms: 1.25,
        };
        assert_eq!(
            json_row(&r),
            concat!(
                "{\"label\": \"lower_bound/\\\"q\\\"/64\", \"iters\": 1, ",
                "\"mean_ms\": 1.250, \"median_ms\": 1.250, ",
                "\"min_ms\": 1.250, \"max_ms\": 1.250}"
            )
        );
    }

    #[test]
    fn multi_iteration_warms_up_and_orders_stats() {
        let calls = AtomicU32::new(0);
        let r = bench("five", 5, || calls.fetch_add(1, Ordering::SeqCst));
        assert_eq!(calls.load(Ordering::SeqCst), 6, "warmup + 5 measured");
        assert!(r.min_ms <= r.median_ms && r.median_ms <= r.max_ms);
        assert!(r.min_ms <= r.mean_ms && r.mean_ms <= r.max_ms);
    }
}
