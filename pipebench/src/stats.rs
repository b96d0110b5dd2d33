//! Order statistics and run provenance.

use crate::Args;

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty sample");
    let logs: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (logs / values.len() as f64).exp()
}

/// The `q`-quantile (nearest rank) of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The 99th percentile and the number of samples beyond it, or `None`
/// when fewer than ten samples lie beyond it (too few to read a tail).
pub fn p99_with_tail(values: &[f64]) -> Option<(f64, usize)> {
    if values.is_empty() {
        return None;
    }
    let p99 = quantile(values, 0.99);
    let beyond = values.iter().filter(|&&v| v > p99).count();
    (beyond >= 10).then_some((p99, beyond))
}

/// Runs `setup` `n` times back to back, before anything else of the run,
/// and returns the last result and the median time in seconds. Set-up is
/// allocation-heavy: a set-up made after a large solve reuses the pages
/// the solve left behind and runs twice as fast, so all of them are made
/// in the same fresh-process state.
pub fn timed_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        let t0 = std::time::Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Worker threads the benchmark may use: engine pools, client
/// connections and client threads never exceed this.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit being measured: `.git/HEAD` resolved when the working
/// directory is a git checkout, else `unknown`.
fn commit() -> String {
    let from_git = || -> Option<String> {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}"))
                .ok()
                .map(|s| s.trim().to_string())
                .or_else(|| {
                    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                    packed
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_string)
                }),
            None => Some(head.to_string()),
        }
    };
    from_git().unwrap_or_else(|| "unknown".into())
}

/// One line recording what was measured, where.
pub fn provenance(args: &Args) -> String {
    format!(
        "provenance workload={} seed={} seconds={} trace={} nproc={} cpu={:?} commit={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        nproc(),
        cpu_model(),
        commit()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p99_with_tail(&small), None);
        let large: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (p99, beyond) = p99_with_tail(&large).unwrap();
        assert_eq!(p99, 1980.0);
        assert_eq!(beyond, 20);
    }
}
