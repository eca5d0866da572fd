//! Order statistics and process facts.

/// Quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
}

/// Linear-interpolation quantile of an ascending, non-empty sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quartiles and p90 of `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    Summary {
        n: v.len(),
        q1: quantile(&v, 0.25),
        median: quantile(&v, 0.5),
        q3: quantile(&v, 0.75),
        p90: quantile(&v, 0.9),
    }
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

/// CPU time every live thread of this process has run, in ns (the first
/// field of each `/proc/self/task/*/schedstat`). With steal-time
/// accounting this leaves out time the host took the CPU away.
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert_eq!(summarize(&[7.0]).p90, 7.0);
    }
}
