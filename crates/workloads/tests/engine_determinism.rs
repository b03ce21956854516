//! Engine-level golden determinism: a full autoscale campaign run —
//! cluster dispatch, hedged routing, autoscaler windows, failover ledger —
//! must be bit-identical to the schedule recorded under the pre-refactor
//! binary-heap event queue, on the sequential engine and on the
//! conservative parallel engine at 4 threads. This is the one golden
//! replay of the pinned campaign.
//!
//! The constants below were captured *before* the slab-backed calendar
//! queue replaced the heap in `jord-sim`, and still hold under the
//! slab-keyed heap that later replaced the calendar. They pin three independent
//! observables of the same run: the whole-stream FNV-1a lifecycle trace
//! hash, an FNV-1a digest over the debug rendering of every autoscaler
//! [`WindowRecord`], and the aggregate counters. A queue implementation is
//! only admissible if all three collide exactly — "same results, faster"
//! is the contract, and this test is the contract's teeth.

use std::fmt::Write;
use std::hash::Hasher;

use jord_core::{EngineConfig, WindowRecord};
use jord_sim::Fnv1a;
use jord_workloads::{AutoscaleCampaign, Workload, WorkloadKind};

/// Recorded under the BinaryHeap queue (commit lineage: PR 6 autoscaler,
/// pre-calendar-queue engine).
const PINNED_TRACE_HASH: u64 = 0x6dc108d71b0890cb;
const PINNED_WINDOW_DIGEST: u64 = 0x80300dcf4f0511fa;
const PINNED_WINDOWS: usize = 22;
const PINNED_COMPLETED: u64 = 1_500;

/// FNV-1a over the concatenated debug rendering of every window.
fn window_digest(windows: &[WindowRecord]) -> u64 {
    let mut h = Fnv1a::new();
    for w in windows {
        write!(h, "{w:?}").expect("hashing never fails");
    }
    h.finish()
}

#[test]
fn autoscale_campaign_schedule_is_pinned_across_queue_rebuilds() {
    let hotel = Workload::build(WorkloadKind::Hotel);
    // The sequential engine and the conservative parallel engine must
    // both reproduce the heap-era recording bit-for-bit.
    for engine in [None, Some(EngineConfig::threads(4))] {
        let mut campaign = AutoscaleCampaign::new(1.5e6, 1_500).seed(42);
        campaign.engine = engine;
        let (rep, windows) = campaign.run_cluster(&hotel, &campaign.crowd, true, |_, _| {});

        assert_eq!(rep.offered, 1_500, "{engine:?}");
        assert_eq!(rep.completed, PINNED_COMPLETED, "{engine:?}");
        assert_eq!(windows.len(), PINNED_WINDOWS, "{engine:?}");
        assert_eq!(
            rep.trace_hash, PINNED_TRACE_HASH,
            "{engine:?}: lifecycle trace hash drifted: the cluster event schedule changed"
        );
        assert_eq!(
            window_digest(&windows),
            PINNED_WINDOW_DIGEST,
            "{engine:?}: autoscaler window digest drifted: scaling decisions changed"
        );
    }
}

#[test]
fn autoscale_campaign_is_reproducible_within_a_process() {
    // Run-twice bit-identity: the trace hash is a function of the seed
    // alone, not of allocator state or queue geometry warm-up.
    let hotel = Workload::build(WorkloadKind::Hotel);
    let campaign = AutoscaleCampaign::new(1.5e6, 800).seed(7);
    let (a, wa) = campaign.run_cluster(&hotel, &campaign.crowd, true, |_, _| {});
    let (b, wb) = campaign.run_cluster(&hotel, &campaign.crowd, true, |_, _| {});
    assert_eq!(a.trace_hash, b.trace_hash);
    assert_eq!(a.completed, b.completed);
    assert_eq!(wa.len(), wb.len());
    assert_eq!(
        window_digest(&wa),
        window_digest(&wb),
        "two identically-seeded runs must be bit-identical"
    );
}
