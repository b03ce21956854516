//! Property-based tests for the VMA machinery.
//!
//! The two load-bearing invariants:
//! 1. the VA codec is a bijection on its domain (translation correctness
//!    depends on it), and
//! 2. the plain-list and B-tree tables are observationally equivalent under
//!    any operation sequence (Jord and Jord_BT differ only in cost, never
//!    in semantics), and the plain list's tombstone bookkeeping matches a
//!    model of the slots removed since they were last written.
//!
//! PD snapshot capture and diff are also checked against a model: the
//! whole-table, sorted, linear-scan formulation they replace.

use proptest::prelude::*;

use jord_hw::types::{PdId, Perm};
use jord_vma::{
    BTreeTable, PdSnapshot, PlainListTable, SizeClass, SnapshotDiff, SnapshotEntry, TableAccess,
    VaCodec, VmaTable, VteAttr,
};

fn arb_size_class() -> impl Strategy<Value = SizeClass> {
    (0u8..26).prop_map(|k| SizeClass::from_index(k).unwrap())
}

fn arb_perm() -> impl Strategy<Value = Perm> {
    (1u8..8).prop_map(Perm::from_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codec_roundtrip(sc in arb_size_class(), index in 0u32..4096, frac in 0.0f64..1.0) {
        let codec = VaCodec::isca25();
        let index = index % codec.capacity(sc);
        let offset = (frac * sc.bytes() as f64) as u64;
        let offset = offset.min(sc.bytes() - 1);
        let va = codec.encode(sc, index, offset).unwrap();
        prop_assert!(codec.matches(va));
        prop_assert_eq!(codec.decode(va), Some((sc, index, offset)));
    }

    #[test]
    fn codec_distinct_vmas_never_overlap(
        sc_a in arb_size_class(), ia in 0u32..64,
        sc_b in arb_size_class(), ib in 0u32..64,
    ) {
        let codec = VaCodec::isca25();
        prop_assume!((sc_a, ia) != (sc_b, ib));
        let a = codec.base_of(sc_a, ia).unwrap();
        let b = codec.base_of(sc_b, ib).unwrap();
        let a_end = a + sc_a.bytes();
        let b_end = b + sc_b.bytes();
        prop_assert!(a_end <= b || b_end <= a, "ranges overlap: [{a:#x},{a_end:#x}) vs [{b:#x},{b_end:#x})");
    }

    #[test]
    fn slot_function_injective(sc_a in arb_size_class(), ia in 0u32..4096,
                               sc_b in arb_size_class(), ib in 0u32..4096) {
        let codec = VaCodec::isca25();
        prop_assume!((sc_a, ia) != (sc_b, ib));
        prop_assert_ne!(codec.slot_of(sc_a, ia), codec.slot_of(sc_b, ib));
    }

    #[test]
    fn size_class_for_len_is_minimal_cover(len in 1u64..(4u64 << 30)) {
        let sc = SizeClass::for_len(len).unwrap();
        prop_assert!(sc.bytes() >= len);
        if let Some(smaller) = sc.index().checked_sub(1).and_then(SizeClass::from_index) {
            prop_assert!(smaller.bytes() < len);
        }
    }
}

/// One step of the table-equivalence state machine.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        slot: u8,
        len_frac: f64,
    },
    Remove {
        slot: u8,
    },
    SetPerm {
        slot: u8,
        pd: u16,
        perm: Perm,
    },
    Transfer {
        slot: u8,
        from: u16,
        to: u16,
        mv: bool,
    },
    SetLen {
        slot: u8,
        len_frac: f64,
    },
    SetAttr {
        slot: u8,
        global: bool,
        privileged: bool,
    },
    Lookup {
        slot: u8,
        off_frac: f64,
        pd: u16,
    },
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..24, 0.01f64..1.0).prop_map(|(slot, len_frac)| Op::Insert { slot, len_frac }),
        (0u8..24).prop_map(|slot| Op::Remove { slot }),
        (0u8..24, 1u16..6, arb_perm()).prop_map(|(slot, pd, perm)| Op::SetPerm { slot, pd, perm }),
        (0u8..24, 1u16..6, 1u16..6, any::<bool>()).prop_map(|(slot, from, to, mv)| Op::Transfer {
            slot,
            from,
            to,
            mv
        }),
        (0u8..24, 0.01f64..1.0).prop_map(|(slot, len_frac)| Op::SetLen { slot, len_frac }),
        (0u8..24, any::<bool>(), any::<bool>()).prop_map(|(slot, global, privileged)| {
            Op::SetAttr {
                slot,
                global,
                privileged,
            }
        }),
        (0u8..24, 0.0f64..1.0, 0u16..6).prop_map(|(slot, off_frac, pd)| Op::Lookup {
            slot,
            off_frac,
            pd
        }),
        Just(Op::Compact),
    ]
}

/// Maps the abstract slot id onto a concrete (class, index): three classes
/// × eight indices, so sequences collide on slots often enough to hit the
/// interesting transitions.
fn concrete(slot: u8) -> (SizeClass, u32) {
    let sc = SizeClass::from_index([0u8, 3, 7][(slot % 3) as usize]).unwrap();
    (sc, (slot / 3) as u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plain_list_and_btree_agree(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let codec = VaCodec::isca25();
        let mut plain = PlainListTable::new(codec, 0x4000_0000);
        let mut btree = BTreeTable::new(codec, 0x8000_0000, 0x9000_0000);
        let mut live = std::collections::HashSet::new();
        // Plain-list tombstones: slots removed and not since re-inserted
        // or compacted.
        let mut tombstones = std::collections::BTreeSet::new();
        let keys = |t: &dyn VmaTable| -> Vec<(SizeClass, u32)> {
            t.live_slots().into_iter().map(|(sc, index, _)| (sc, index)).collect()
        };
        let mut acc_p = Vec::new();
        let mut acc_b = Vec::new();

        for op in &ops {
            acc_p.clear();
            acc_b.clear();
            match *op {
                Op::Insert { slot, len_frac } => {
                    let (sc, index) = concrete(slot);
                    if live.contains(&slot) {
                        continue; // both tables would panic on double insert
                    }
                    let len = ((len_frac * sc.bytes() as f64) as u64).clamp(1, sc.bytes());
                    plain.insert(sc, index, len, 0, &mut acc_p);
                    btree.insert(sc, index, len, 0, &mut acc_b);
                    live.insert(slot);
                    tombstones.remove(&codec.slot_of(sc, index));
                }
                Op::Remove { slot } => {
                    let (sc, index) = concrete(slot);
                    let a = plain.remove(sc, index, &mut acc_p);
                    let b = btree.remove(sc, index, &mut acc_b);
                    prop_assert_eq!(a, b, "remove disagreement");
                    live.remove(&slot);
                    if a {
                        tombstones.insert(codec.slot_of(sc, index));
                    }
                }
                Op::SetPerm { slot, pd, perm } => {
                    let (sc, index) = concrete(slot);
                    let a = plain.set_perm(sc, index, PdId(pd), perm, &mut acc_p);
                    let b = btree.set_perm(sc, index, PdId(pd), perm, &mut acc_b);
                    prop_assert_eq!(a, b, "set_perm disagreement");
                }
                Op::Transfer { slot, from, to, mv } => {
                    let (sc, index) = concrete(slot);
                    let a = plain.transfer_perm(sc, index, PdId(from), PdId(to), Perm::RWX, mv, &mut acc_p);
                    let b = btree.transfer_perm(sc, index, PdId(from), PdId(to), Perm::RWX, mv, &mut acc_b);
                    prop_assert_eq!(a, b, "transfer disagreement");
                }
                Op::SetLen { slot, len_frac } => {
                    let (sc, index) = concrete(slot);
                    let len = ((len_frac * sc.bytes() as f64) as u64).clamp(1, sc.bytes());
                    let a = plain.set_len(sc, index, len, &mut acc_p);
                    let b = btree.set_len(sc, index, len, &mut acc_b);
                    prop_assert_eq!(a, b, "set_len disagreement");
                }
                Op::SetAttr { slot, global, privileged } => {
                    let (sc, index) = concrete(slot);
                    let attr = VteAttr { valid: true, global, privileged, global_perm: Perm::RX };
                    let a = plain.set_attr(sc, index, attr, &mut acc_p);
                    let b = btree.set_attr(sc, index, attr, &mut acc_b);
                    prop_assert_eq!(a, b, "set_attr disagreement");
                }
                Op::Lookup { slot, off_frac, pd } => {
                    let (sc, index) = concrete(slot);
                    let va = codec.base_of(sc, index).unwrap()
                        + (off_frac * sc.bytes() as f64) as u64 % sc.bytes();
                    let a = plain.lookup(va, PdId(pd), &mut acc_p);
                    let b = btree.lookup(va, PdId(pd), &mut acc_b);
                    // Records differ in VTE address (different storage), but
                    // must agree on semantics.
                    match (a, b) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            prop_assert_eq!(x.base, y.base);
                            prop_assert_eq!(x.len, y.len);
                            prop_assert_eq!(x.perm, y.perm);
                            prop_assert_eq!(x.global, y.global);
                            prop_assert_eq!(x.privileged, y.privileged);
                        }
                        (a, b) => prop_assert!(false, "lookup disagreement: {a:?} vs {b:?}"),
                    }
                }
                Op::Compact => {
                    // One VTE write per tombstone, in ascending slot order.
                    let want: Vec<_> = tombstones
                        .iter()
                        .map(|&s| {
                            let (sc, index) = codec.slot_to_vma(s);
                            TableAccess::VteWrite(plain.vte_addr(sc, index))
                        })
                        .collect();
                    prop_assert_eq!(plain.compact(&mut acc_p), tombstones.len());
                    prop_assert_eq!(&acc_p, &want);
                    tombstones.clear();
                    // The B-tree only releases trailing entries.
                    btree.compact(&mut acc_b);
                }
            }
            prop_assert_eq!(plain.live_mappings(), btree.live_mappings());
            prop_assert_eq!(plain.dead_slots(), tombstones.len());
            prop_assert_eq!(keys(&plain), keys(&btree));
        }
        btree.check_invariants();
    }

    #[test]
    fn pmove_is_conservative_pcopy_is_additive(
        perm in arb_perm(), from in 1u16..5, to in 5u16..9, mv in any::<bool>()
    ) {
        let codec = VaCodec::isca25();
        let mut t = PlainListTable::new(codec, 0x4000_0000);
        let sc = SizeClass::MIN;
        let mut acc = Vec::new();
        t.insert(sc, 0, 128, 0, &mut acc);
        t.set_perm(sc, 0, PdId(from), perm, &mut acc);
        let before = t.peek(sc, 0).unwrap().sharer_count();
        t.transfer_perm(sc, 0, PdId(from), PdId(to), Perm::RWX, mv, &mut acc).unwrap();
        let vte = t.peek(sc, 0).unwrap();
        prop_assert_eq!(vte.perm_for(PdId(to)), perm);
        if mv {
            prop_assert!(vte.perm_for(PdId(from)).is_none());
            prop_assert_eq!(vte.sharer_count(), before, "pmove conserves sharer count");
        } else {
            prop_assert_eq!(vte.perm_for(PdId(from)), perm);
            prop_assert_eq!(vte.sharer_count(), before + 1, "pcopy adds a sharer");
        }
    }
}

/// The PD whose snapshot the sanitization model takes.
const SNAP_PD: PdId = PdId(1);

/// One step of a PD's life between snapshot capture and teardown.
#[derive(Debug, Clone)]
enum Drift {
    /// Map a fresh VMA (if the slot is free) and grant `pd` on it.
    Map { slot: u8, pd: u16, perm: Perm },
    /// Change `pd`'s permission; `Perm::NONE` revokes.
    SetPerm { slot: u8, pd: u16, perm: Perm },
    /// Unmap the VMA.
    Unmap { slot: u8 },
    /// Flip the VMA's global bit.
    Global { slot: u8, global: bool },
}

fn arb_drift() -> impl Strategy<Value = Drift> {
    let perm = (0u8..8).prop_map(Perm::from_bits);
    prop_oneof![
        (0u8..48, 1u16..4, arb_perm()).prop_map(|(slot, pd, perm)| Drift::Map { slot, pd, perm }),
        (0u8..48, 1u16..4, perm).prop_map(|(slot, pd, perm)| Drift::SetPerm { slot, pd, perm }),
        (0u8..48).prop_map(|slot| Drift::Unmap { slot }),
        (0u8..48, any::<bool>()).prop_map(|(slot, global)| Drift::Global { slot, global }),
    ]
}

/// Sixteen indices in each of three classes.
fn snap_slot(slot: u8) -> (SizeClass, u32) {
    let sc = SizeClass::from_index([0u8, 2, 5][(slot % 3) as usize]).unwrap();
    (sc, (slot / 3) as u32)
}

fn apply_drift(t: &mut dyn VmaTable, step: &Drift) {
    let mut acc = Vec::new();
    match *step {
        Drift::Map { slot, pd, perm } => {
            let (sc, index) = snap_slot(slot);
            if t.peek(sc, index).is_none() {
                t.insert(sc, index, sc.bytes(), 0, &mut acc);
            }
            t.set_perm(sc, index, PdId(pd), perm, &mut acc);
        }
        Drift::SetPerm { slot, pd, perm } => {
            let (sc, index) = snap_slot(slot);
            t.set_perm(sc, index, PdId(pd), perm, &mut acc);
        }
        Drift::Unmap { slot } => {
            let (sc, index) = snap_slot(slot);
            t.remove(sc, index, &mut acc);
        }
        Drift::Global { slot, global } => {
            let (sc, index) = snap_slot(slot);
            let attr = VteAttr {
                valid: true,
                global,
                privileged: false,
                global_perm: if global { Perm::READ } else { Perm::NONE },
            };
            t.set_attr(sc, index, attr, &mut acc);
        }
    }
}

/// Model capture: every live VMA in class-then-index order, filtered.
fn model_capture(t: &dyn VmaTable, pd: PdId) -> Vec<SnapshotEntry> {
    t.live_slots()
        .into_iter()
        .filter(|(_, _, vte)| !vte.attr.global && !vte.perm_for(pd).is_none())
        .map(|(sc, index, vte)| SnapshotEntry {
            sc,
            index,
            base: vte.base,
            len: vte.len,
            perm: vte.perm_for(pd),
        })
        .collect()
}

/// Model diff: strays from a sorted whole-table scan with a linear
/// membership test, then drifted or lost entries in snapshot order.
fn model_diff(snap: &PdSnapshot, t: &dyn VmaTable) -> Vec<SnapshotDiff> {
    let mut repairs = Vec::new();
    for (sc, index, vte) in t.live_slots() {
        let held = snap.entries.iter().any(|e| e.sc == sc && e.index == index);
        if !vte.attr.global && !vte.perm_for(snap.pd).is_none() && !held {
            repairs.push(SnapshotDiff::Extra {
                sc,
                index,
                va: vte.base,
            });
        }
    }
    for e in &snap.entries {
        let (sc, index) = (e.sc, e.index);
        match t.peek(sc, index) {
            Some(vte) if vte.base == e.base && vte.perm_for(snap.pd) == e.perm => {}
            Some(vte) if vte.base == e.base => repairs.push(SnapshotDiff::PermDrift {
                sc,
                index,
                va: e.base,
                want: e.perm,
            }),
            _ => repairs.push(SnapshotDiff::Missing { sc, index }),
        }
    }
    repairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Capture and diff agree with the whole-table model on both table
    /// kinds, for random layouts (several PDs, global mappings) followed by
    /// random drift: strays, permission changes and revocations, unmapped
    /// and remapped slots.
    #[test]
    fn pd_snapshot_diff_matches_whole_table_model(
        layout in proptest::collection::vec(arb_drift(), 0..60),
        drift in proptest::collection::vec(arb_drift(), 0..40),
    ) {
        let codec = VaCodec::isca25();
        let mut plain = PlainListTable::new(codec, 0x4000_0000);
        let mut btree = BTreeTable::new(codec, 0x8000_0000, 0x9000_0000);
        let tables: [&mut dyn VmaTable; 2] = [&mut plain, &mut btree];
        for t in tables {
            for step in &layout {
                apply_drift(t, step);
            }
            let snap = PdSnapshot::capture(t, SNAP_PD);
            prop_assert_eq!(&snap.entries, &model_capture(t, SNAP_PD));
            prop_assert!(snap.diff(t).is_empty(), "a fresh snapshot has nothing to repair");
            for step in &drift {
                apply_drift(t, step);
            }
            prop_assert_eq!(snap.diff(t), model_diff(&snap, t));
        }
    }
}
