//! Output checks: every simulated run's ledgers, a digest of its
//! simulated results, and the pins those digests must match at the
//! default seed.

use jord_core::{ClusterReport, MemoryLedger, RunReport};
use jord_sim::{LatencyHistogram, SimTime};

/// FNV-1a over a sequence of words: a digest that changes if any
/// simulated output in it moves.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn quantile_ps(h: &LatencyHistogram, q: f64) -> u64 {
    h.quantile(q).map_or(u64::MAX, |d| d.as_ps())
}

fn ledger_words(m: &MemoryLedger) -> [u64; 13] {
    [
        m.mapped_bytes,
        m.resident_bytes,
        m.reclaimed_bytes,
        m.peak_resident_bytes,
        m.pooled_pds,
        m.pooled_bytes,
        m.pool_evictions,
        m.evicted_bytes,
        m.journal_bytes,
        m.checkpoint_bytes,
        m.compactions,
        m.compacted_slots,
        m.pressure_transitions,
    ]
}

#[allow(clippy::too_many_arguments)]
fn digest_of(
    offered: u64,
    completed: u64,
    failed: u64,
    shed: u64,
    latency: &LatencyHistogram,
    finished_at: SimTime,
    trace_hash: u64,
    invocations: u64,
    memory: &MemoryLedger,
) -> u64 {
    let mut words = vec![
        offered,
        completed,
        failed,
        shed,
        quantile_ps(latency, 0.5),
        quantile_ps(latency, 0.99),
        finished_at.as_ps(),
        trace_hash,
        invocations,
    ];
    words.extend(ledger_words(memory));
    fnv1a(&words)
}

/// Digest of one worker-server run. `trace_hash` is the worker's
/// lifecycle-trace hash; NightCore has none and passes 0.
pub fn run_digest(rep: &RunReport, trace_hash: u64) -> u64 {
    digest_of(
        rep.offered,
        rep.completed,
        rep.faults.failed,
        rep.faults.sheds,
        &rep.latency,
        rep.finished_at,
        trace_hash,
        rep.invocations,
        &rep.memory,
    )
}

/// Invocations executed across a cluster's workers.
pub fn cluster_invocations(rep: &ClusterReport) -> u64 {
    rep.workers.iter().map(|w| w.invocations).sum()
}

/// Digest of one cluster run.
pub fn cluster_digest(rep: &ClusterReport) -> u64 {
    digest_of(
        rep.offered,
        rep.completed,
        rep.failed,
        rep.shed,
        &rep.latency,
        rep.finished_at,
        rep.trace_hash,
        cluster_invocations(rep),
        &rep.memory,
    )
}

/// Ledger problems of a worker-server run (empty when it is sound).
pub fn run_problems(rep: &RunReport) -> Vec<String> {
    let mut out = Vec::new();
    if !rep.balanced() {
        out.push(format!(
            "request ledger: offered {} != completed {} + failed {} + shed {}",
            rep.offered, rep.completed, rep.faults.failed, rep.faults.sheds
        ));
    }
    if !rep.memory.balanced() {
        out.push(memory_problem(&rep.memory));
    }
    if rep.completed == 0 || rep.invocations == 0 {
        out.push("no request completed".into());
    }
    out
}

/// Ledger problems of a cluster run (empty when it is sound).
pub fn cluster_problems(rep: &ClusterReport) -> Vec<String> {
    let mut out = Vec::new();
    if rep.offered != rep.completed + rep.failed + rep.shed || rep.failover.lost != 0 {
        out.push(format!(
            "request ledger: offered {} != completed {} + failed {} + shed {} (lost {})",
            rep.offered, rep.completed, rep.failed, rep.shed, rep.failover.lost
        ));
    }
    if !rep.memory.balanced() {
        out.push(memory_problem(&rep.memory));
    }
    if rep.completed == 0 {
        out.push("no request completed".into());
    }
    out
}

fn memory_problem(m: &MemoryLedger) -> String {
    format!(
        "memory ledger: mapped {} != resident {} + reclaimed {}",
        m.mapped_bytes, m.resident_bytes, m.reclaimed_bytes
    )
}

/// Counts simulated runs and the ones whose output check failed.
#[derive(Debug, Default)]
pub struct Checker {
    /// Simulated runs checked.
    pub attempted: u64,
    /// One line per failed run: its label and what went wrong.
    pub failures: Vec<String>,
}

impl Checker {
    /// Records one simulated run with the problems its checks found.
    pub fn record(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failures
                .push(format!("{label}: {}", problems.join("; ")));
        }
    }

    /// A problem if `got` differs from the reference digest `want`.
    pub fn same(what: &str, got: u64, want: u64) -> Option<String> {
        (got != want).then(|| format!("{what}: digest {got:#018x} != {want:#018x}"))
    }

    /// Runs whose output check failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}
