//! Hardware-model golden replay: a seeded random trace of every timed
//! `Machine` operation, on the four shipped machine shapes, folded into one
//! FNV-1a digest per configuration.
//!
//! The trace mixes bulk reads and writes (single lines up to 64 KiB, so the
//! pipelining term runs well past the short cycle counts messages produce),
//! atomic RMWs, VTE reads and writes with their VLB shootdowns, VLB
//! lookups/fills/flushes, `ucid` writes and raw core-to-core messages, over
//! a hot address set small enough that lines are shared by many cores at
//! once. Every returned `SimDuration`, shootdown victim count and VLB
//! lookup result is folded, and the final counters close the digest.
//!
//! The digests were recorded before the hardware model's hot path was
//! reworked (bit-walking core-set iteration, precomputed NoC and cache
//! latencies, the in-place line directory). Any host-side optimisation of
//! `jord-hw` must reproduce them exactly: a changed digest means a changed
//! simulated picosecond somewhere.

use std::fmt::Write as _;
use std::hash::Hasher;

use jord_hw::{CoreId, Csr, Machine, MachineConfig, PdId, Perm, VlbEntry, VlbKind, VteAddr};
use jord_sim::{Fnv1a, Rng, SimDuration};

const OPS: usize = 6_000;
/// Distinct data lines the trace touches.
const HOT_LINES: u64 = 96;
/// Distinct VTEs the trace walks and rewrites.
const HOT_VTES: u64 = 40;
const VTE_BASE: u64 = 0x4000_0000;
const DATA_BASE: u64 = 0x10_0000;
const LENS: [u64; 9] = [0, 1, 8, 64, 65, 960, 4096, 16 << 10, 64 << 10];

fn fold_duration(h: &mut Fnv1a, d: SimDuration) {
    h.write(&d.as_ps().to_le_bytes());
}

fn fold_count(h: &mut Fnv1a, n: u64) {
    h.write(&n.to_le_bytes());
}

fn replay(cfg: MachineConfig, seed: u64) -> u64 {
    let cores = cfg.cores as u64;
    let mut m = Machine::new(cfg);
    let mut rng = Rng::new(seed);
    let mut h = Fnv1a::new();
    for _ in 0..OPS {
        let core = CoreId(rng.next_below(cores) as usize);
        let data = DATA_BASE + rng.next_below(HOT_LINES) * 64 + rng.next_below(64);
        let vte = VteAddr(VTE_BASE + rng.next_below(HOT_VTES) * 64);
        let kind = if rng.chance(0.5) {
            VlbKind::Data
        } else {
            VlbKind::Instr
        };
        match rng.next_below(12) {
            0 | 1 => {
                let len = LENS[rng.choose_index(&LENS)];
                fold_duration(&mut h, m.read(core, data, len));
            }
            2 | 3 => {
                let len = LENS[rng.choose_index(&LENS)];
                fold_duration(&mut h, m.write(core, data, len));
            }
            4 => fold_duration(&mut h, m.atomic_rmw(core, data)),
            5 | 6 => fold_duration(&mut h, m.vte_read(core, vte)),
            7 => {
                let (lat, victims) = m.vte_write(core, vte);
                fold_duration(&mut h, lat);
                fold_count(&mut h, victims as u64);
            }
            8 => {
                let va = 0x1000_0000 + (vte.0 - VTE_BASE) / 64 * 0x1000 + rng.next_below(0x1000);
                let hit = m.vlb_lookup(core, kind, va);
                write!(h, "{hit:?}").expect("hashing never fails");
            }
            9 => {
                let slot = (vte.0 - VTE_BASE) / 64;
                let pd = PdId(rng.next_below(4) as u16);
                m.vlb_fill(
                    core,
                    kind,
                    VlbEntry {
                        vte,
                        base: 0x1000_0000 + slot * 0x1000,
                        len: 0x1000,
                        pd,
                        global: slot.is_multiple_of(7),
                        perm: Perm::from_bits(rng.next_below(8) as u8),
                        privileged: slot.is_multiple_of(5),
                    },
                );
            }
            10 => {
                if rng.chance(0.1) {
                    m.vlb_flush(core);
                } else {
                    let pd = rng.next_below(4);
                    let lat = m.csr_write(core, Csr::Ucid, pd, true).expect("privileged");
                    fold_duration(&mut h, lat);
                }
            }
            _ => {
                let to = CoreId(rng.next_below(cores) as usize);
                let bytes = LENS[rng.choose_index(&LENS)];
                fold_duration(&mut h, m.core_to_core(core, to, bytes));
            }
        }
    }
    let stats = m.stats();
    write!(
        h,
        "{:?} {:?} {:?} {:?} {} {:?} {:?}",
        stats.coherence,
        stats.vtd,
        stats.ivlb,
        stats.dvlb,
        stats.shootdown_ns.count(),
        stats.shootdown_ns.mean(),
        stats.shootdown_ns.max()
    )
    .expect("hashing never fails");
    h.finish()
}

#[test]
fn hardware_model_trace_is_pinned() {
    let cases = [
        ("isca25", MachineConfig::isca25(), 0x9c17_f657_8be0_baff),
        ("fpga", MachineConfig::fpga(), 0x7ce4_c5cd_5d95_a1cb),
        (
            "scaled256",
            MachineConfig::scaled(256),
            0xe99c_9c5f_20f7_bcdd,
        ),
        (
            "two_socket",
            MachineConfig::two_socket(),
            0x8052_32f2_e191_bc7b,
        ),
    ];
    let mut drifted = Vec::new();
    for (name, cfg, pinned) in cases {
        let got = replay(cfg, 42);
        if got != pinned {
            drifted.push(format!("{name}: got {got:#018x}, pinned {pinned:#018x}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "hardware-model digests drifted (a simulated latency changed):\n{}",
        drifted.join("\n")
    );
}

#[test]
fn replay_is_deterministic_and_seed_sensitive() {
    let a = replay(MachineConfig::isca25(), 7);
    assert_eq!(a, replay(MachineConfig::isca25(), 7));
    assert_ne!(a, replay(MachineConfig::isca25(), 8));
}
