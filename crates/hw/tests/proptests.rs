//! Property-based tests of the hardware model's invariants.
//!
//! The coherence protocol and the VTD/VLB machinery must hold their
//! invariants under *any* interleaving of accesses — exactly the kind of
//! guarantee unit tests under-sample.

use proptest::prelude::*;

use jord_hw::coherence::LineState;
use jord_hw::types::{CoreId, CoreSet, LineAddr, PdId, Perm, VlbEntry, VteAddr};
use jord_hw::{CoherenceModel, Machine, MachineConfig, Noc, Vlb, VlbKind};

#[derive(Debug, Clone, Copy)]
enum Access {
    Read { core: u8, line: u8 },
    Write { core: u8, line: u8 },
}

fn arb_access() -> impl Strategy<Value = Access> {
    prop_oneof![
        (0u8..32, 0u8..16).prop_map(|(core, line)| Access::Read { core, line }),
        (0u8..32, 0u8..16).prop_map(|(core, line)| Access::Write { core, line }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// MESI safety: a line is either invalid, owned by exactly one core
    /// (E/M), or shared read-only by a non-empty set; and after any write
    /// the writer is the sole owner.
    #[test]
    fn coherence_single_writer_invariant(ops in proptest::collection::vec(arb_access(), 1..200)) {
        let noc = Noc::new(MachineConfig::isca25());
        let mut m = CoherenceModel::new();
        for op in ops {
            match op {
                Access::Read { core, line } => {
                    let lat = m.read_line(&noc, CoreId(core as usize), LineAddr(line as u64));
                    prop_assert!(lat.as_ps() > 0);
                    // After a read, the reader must hold the line.
                    prop_assert!(m.cached_by(LineAddr(line as u64), CoreId(core as usize)));
                }
                Access::Write { core, line } => {
                    m.write_line(&noc, CoreId(core as usize), LineAddr(line as u64));
                    let state = m.probe(LineAddr(line as u64)).expect("written line tracked");
                    prop_assert_eq!(
                        state,
                        &LineState::Modified(CoreId(core as usize)),
                        "writer must own the line exclusively"
                    );
                }
            }
            // Global invariant: sharer sets of M/E lines are singletons.
            for l in 0..16u64 {
                if let Some(LineState::Modified(c)) | Some(LineState::Exclusive(c)) =
                    m.probe(LineAddr(l))
                {
                    prop_assert_eq!(m.sharers(LineAddr(l)).len(), 1);
                    prop_assert!(m.sharers(LineAddr(l)).contains(*c));
                }
            }
        }
    }

    /// Coherence latencies are physical: a hit is never slower than the
    /// miss that preceded it on the same core.
    #[test]
    fn repeat_access_is_never_slower(core in 0usize..32, line in 0u64..64) {
        let noc = Noc::new(MachineConfig::isca25());
        let mut m = CoherenceModel::new();
        let first = m.read_line(&noc, CoreId(core), LineAddr(line));
        let second = m.read_line(&noc, CoreId(core), LineAddr(line));
        prop_assert!(second <= first);
    }

    /// VLB: after any fill/invalidate sequence, occupancy never exceeds
    /// capacity, and a lookup hit always reflects the latest fill for that
    /// VTE.
    #[test]
    fn vlb_capacity_and_freshness(
        cap in 1usize..8,
        fills in proptest::collection::vec((0u64..12, 1u16..4), 1..64),
    ) {
        let mut vlb = Vlb::new(cap);
        let mut latest: std::collections::HashMap<(u64, u16), u8> = Default::default();
        for (i, &(vte, pd)) in fills.iter().enumerate() {
            let perm = Perm::from_bits((i % 3 + 1) as u8);
            vlb.fill(VlbEntry {
                vte: VteAddr(vte * 64),
                base: vte * 0x1000,
                len: 0x1000,
                pd: PdId(pd),
                global: false,
                perm,
                privileged: false,
            });
            latest.insert((vte, pd), perm.bits());
            prop_assert!(vlb.len() <= cap);
        }
        // Any hit must return the most recent permission for that (vte, pd).
        for (&(vte, pd), &bits) in &latest {
            if let Some(e) = vlb.lookup(vte * 0x1000, PdId(pd)) {
                prop_assert_eq!(e.perm.bits(), bits, "stale VLB entry survived a refill");
            }
        }
    }

    /// The machine-level security invariant behind §4.2: after a VTE write
    /// on ANY core, NO VLB anywhere still caches a translation tagged with
    /// that VTE (pessimistic union of VTD + directory sharers).
    #[test]
    fn vte_write_leaves_no_stale_vlb_entries(
        readers in proptest::collection::vec(0usize..32, 1..8),
        writer in 0usize..32,
        churn in proptest::collection::vec((0usize..32, 0u64..6), 0..40),
    ) {
        let mut m = Machine::new(MachineConfig::isca25());
        let vte = VteAddr(0x9_0000);
        // Arbitrary VTE traffic first (exercises VTD eviction paths).
        for &(core, other) in &churn {
            m.vte_read(CoreId(core), VteAddr(0xA_0000 + other * 64));
        }
        for &r in &readers {
            m.vte_read(CoreId(r), vte);
            m.vlb_fill(CoreId(r), VlbKind::Data, VlbEntry {
                vte,
                base: 0x500_000,
                len: 4096,
                pd: PdId(5),
                global: false,
                perm: Perm::RW,
                privileged: false,
            });
        }
        m.vte_write(CoreId(writer), vte);
        for c in 0..32 {
            prop_assert!(
                !m.vlb_caches(CoreId(c), VlbKind::Data, vte),
                "core {c} still caches the shot-down translation"
            );
        }
    }

    /// NoC latency is a metric-ish function: symmetric within a socket and
    /// strictly increased by payload size.
    #[test]
    fn noc_latency_properties(a in 0usize..32, b in 0usize..32, bytes in 1u64..4096) {
        use jord_hw::noc::Endpoint;
        let noc = Noc::new(MachineConfig::isca25());
        let ab = noc.message(Endpoint::Core(CoreId(a)), Endpoint::Core(CoreId(b)), bytes);
        let ba = noc.message(Endpoint::Core(CoreId(b)), Endpoint::Core(CoreId(a)), bytes);
        prop_assert_eq!(ab, ba);
        let bigger = noc.message(Endpoint::Core(CoreId(a)), Endpoint::Core(CoreId(b)), bytes + 4096);
        prop_assert!(bigger > ab);
    }

    /// `CoreSet::iter` walks set bits word by word; it must list exactly
    /// the members a scan of every core slot finds, in ascending order.
    #[test]
    fn coreset_iter_matches_naive_scan(
        members in proptest::collection::vec(0usize..CoreSet::CAPACITY, 0..80),
        removed in proptest::collection::vec(0usize..CoreSet::CAPACITY, 0..20),
    ) {
        let mut set: CoreSet = members.iter().map(|&c| CoreId(c)).collect();
        for &c in &removed {
            set.remove(CoreId(c));
        }
        let naive: Vec<CoreId> = (0..CoreSet::CAPACITY)
            .filter(|&c| set.contains(CoreId(c)))
            .map(CoreId)
            .collect();
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), naive.clone());
        prop_assert_eq!(set.iter().count(), set.len());
    }
}

#[test]
fn coreset_iter_crosses_word_boundaries() {
    let edges = [0usize, 63, 64, 127, 128, 191, 192, 255];
    let all: CoreSet = edges.iter().map(|&c| CoreId(c)).collect();
    assert_eq!(all.iter().map(|c| c.0).collect::<Vec<_>>(), edges);
    for &c in &edges {
        let one = CoreSet::singleton(CoreId(c));
        assert_eq!(one.iter().collect::<Vec<_>>(), vec![CoreId(c)]);
    }
    let full: CoreSet = (0..CoreSet::CAPACITY).map(CoreId).collect();
    assert!(full.iter().map(|c| c.0).eq(0..CoreSet::CAPACITY));
    assert_eq!(CoreSet::empty().iter().next(), None);
}
