//! Host-side measurement helpers: phase timers, the time-boxed repeat
//! loop, order statistics and peak RSS.

use std::time::{Duration, Instant};

/// Host seconds spent in each set-up phase of one simulated run — all the
/// work done before the first simulated event.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    /// `Workload::build`.
    pub build_s: f64,
    /// `LoadGen::arrivals*`.
    pub arrivals_s: f64,
    /// Server or dispatcher construction (VMA-table preallocation).
    pub new_s: f64,
    /// The `push_request` loop.
    pub push_s: f64,
}

impl Phases {
    /// Total set-up time.
    pub fn total(&self) -> f64 {
        self.build_s + self.arrivals_s + self.new_s + self.push_s
    }

    /// Adds another run's phases to this one.
    pub fn add(&mut self, o: &Phases) {
        self.build_s += o.build_s;
        self.arrivals_s += o.arrivals_s;
        self.new_s += o.new_s;
        self.push_s += o.push_s;
    }
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Calls `pass` at least `min` times, then for as long as another pass
/// is expected to end within `budget` (one more pass is started while at
/// least half a mean pass remains); returns every pass's result in order.
pub fn repeat<T>(budget: Duration, min: usize, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let elapsed = start.elapsed();
        if out.len() >= min.max(1) && elapsed + elapsed / (2 * out.len() as u32) >= budget {
            return out;
        }
        out.push(pass());
    }
}

/// Set-ups timed in a row at the start of a timed run; `setup_s` is
/// their median. The first ones read up to ten times slower while the
/// allocator grows its heap (on `soak-sanitize` for about fifteen), so the
/// median needs enough samples to sit well past them.
pub const SETUPS: usize = 81;

/// Calls `setup` [`SETUPS`] times and returns the seconds each call
/// reports.
pub fn setup_samples(setup: impl FnMut() -> f64) -> Vec<f64> {
    std::iter::repeat_with(setup).take(SETUPS).collect()
}

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value at quantile `q` of an ascending-sorted sample (nearest rank).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of p90, p99, p99.9 and p99.99 that leaves at least ten
/// samples beyond it in a sample of `n`, with its label; p50 when even p90
/// does not.
pub fn tail_quantile(n: usize) -> (f64, &'static str) {
    // (quantile, label, smallest sample with ten values beyond it)
    const TAILS: [(f64, &str, usize); 4] = [
        (0.9999, "p99.99", 100_000),
        (0.999, "p99.9", 10_000),
        (0.99, "p99", 1_000),
        (0.9, "p90", 100),
    ];
    TAILS
        .into_iter()
        .find(|&(_, _, min)| n >= min)
        .map_or((0.5, "p50"), |(q, label, _)| (q, label))
}

/// `num / den`, or 0 when `den` is 0 (a ratio over work that never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(50).1, "p50");
        assert_eq!(tail_quantile(100).1, "p90");
        assert_eq!(tail_quantile(11_317).1, "p99.9");
        assert_eq!(tail_quantile(100_000).1, "p99.99");
    }

    #[test]
    fn repeat_honours_the_minimum() {
        let runs = repeat(Duration::ZERO, 3, || 1);
        assert_eq!(runs.len(), 3);
    }
}
