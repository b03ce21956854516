//! # jord-bench — harnesses that regenerate the paper's tables and figures
//!
//! One bench target per evaluation artifact (run with `cargo bench`):
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `table4_op_latency` | Table 4 — VMA/PD operation latencies (simulator + FPGA models) |
//! | `fig9_performance` | Figure 9 — p99 latency vs load, Jord/Jord_NI/NightCore, 4 workloads |
//! | `fig10_service_cdf` | Figure 10 — CDF of function service time |
//! | `fig11_breakdown` | Figure 11 — service-time breakdown for the 8 selected functions |
//! | `fig12_vlb_sensitivity` | Figure 12 — I-VLB/D-VLB entry-count sensitivity |
//! | `fig13_btree` | Figure 13 — Jord_BT vs Jord (plus the §6.2 PrivLib time comparison) |
//! | `fig14_scalability` | Figure 14 — service/shootdown/dispatch latencies vs system scale |
//! | `host_vma_tables` | Criterion host-side microbenchmarks of the table data structures |
//!
//! Each harness prints the same rows/series the paper reports, next to the
//! paper's own numbers where the paper states them. Absolute values are not
//! expected to match a cycle-accurate simulator of different software — the
//! *shape* (who wins, by what factor, where crossovers fall) is the
//! reproduction target. `EXPERIMENTS.md` records paper-vs-measured for every
//! artifact.
//!
//! Runs are sized for a small machine; set `JORD_BENCH_REQUESTS` to raise or
//! lower the per-point request count (default 5000).

use jord_sim::SimDuration;
use jord_workloads::{runner::RunSpec, System, Workload};

/// Per-point measured request count (override with `JORD_BENCH_REQUESTS`).
pub fn requests_per_point() -> usize {
    std::env::var("JORD_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5_000)
}

/// Formats a duration as microseconds with two decimals.
pub fn us(d: SimDuration) -> String {
    format!("{:.2}", d.as_us_f64())
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Prints one aligned row.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" "));
}

/// A standard load sweep for a (system, workload) pair: returns
/// `(rate_rps, p99_us)` per point.
pub fn sweep(
    system: System,
    workload: &Workload,
    loads_mrps: &[f64],
    requests: usize,
) -> Vec<(f64, f64)> {
    loads_mrps
        .iter()
        .map(|&mrps| {
            let rep = RunSpec::new(system, mrps * 1e6)
                .requests(requests, requests / 10 + 100)
                .run(workload);
            (mrps, rep.p99().expect("completed requests").as_us_f64())
        })
        .collect()
}

/// The highest load (MRPS) in `points` whose p99 met `slo_us`.
pub fn best_under_slo(points: &[(f64, f64)], slo_us: f64) -> f64 {
    points
        .iter()
        .filter(|(_, p99)| *p99 <= slo_us)
        .map(|(r, _)| *r)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_under_slo_picks_highest_passing_load() {
        let pts = [(1.0, 5.0), (2.0, 8.0), (3.0, 40.0), (4.0, 400.0)];
        assert_eq!(best_under_slo(&pts, 10.0), 2.0);
        assert_eq!(best_under_slo(&pts, 4.0), 0.0);
        assert_eq!(best_under_slo(&pts, 1000.0), 4.0);
    }

    #[test]
    fn env_override_parses() {
        // Default path (no env set in tests).
        assert!(requests_per_point() >= 1);
    }
}
