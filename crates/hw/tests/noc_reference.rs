//! Differential checks of the NoC's precomputed latencies against the
//! closed-form model they replace.
//!
//! `Noc` computes tile positions and cycle spans once, at construction.
//! The reference below is the original per-message formula — division and
//! modulo on tile indices, a fresh `from_cycles` per message — kept only
//! here. Every endpoint pair of every shipped configuration must agree
//! with it exactly, for one-way messages and round trips alike.

use jord_hw::noc::Endpoint;
use jord_hw::{CoreId, Machine, MachineConfig, Noc};
use jord_sim::SimDuration;

const PAYLOADS: [u64; 6] = [0, 1, 16, 17, 64, 4096];

fn shipped_configs() -> Vec<MachineConfig> {
    let mut cfgs = vec![
        MachineConfig::isca25(),
        MachineConfig::fpga(),
        MachineConfig::two_socket(),
    ];
    cfgs.extend([16, 32, 64, 128, 256].map(MachineConfig::scaled));
    cfgs
}

/// The closed-form message latency: XY hops on the socket mesh plus link
/// serialization; cross-socket routes go through each socket's local
/// tile 0 and pay the inter-socket link.
fn reference_message(cfg: &MachineConfig, from: Endpoint, to: Endpoint, bytes: u64) -> SimDuration {
    let tile = |ep| match ep {
        Endpoint::Core(c) => c.0,
        Endpoint::LlcSlice(t) => t,
    };
    let per_socket = cfg.tiles_per_socket();
    let hops = |a: usize, b: usize| {
        let (ax, ay) = (a % cfg.mesh_w, a / cfg.mesh_w);
        let (bx, by) = (b % cfg.mesh_w, b / cfg.mesh_w);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    };
    let (a, b) = (tile(from), tile(to));
    let (local_a, local_b) = (a % per_socket, b % per_socket);
    let ser = bytes.div_ceil(cfg.link_bytes.max(1));
    if a / per_socket == b / per_socket {
        SimDuration::from_cycles(hops(local_a, local_b) * cfg.hop_cycles + ser, cfg.freq_ghz)
    } else {
        let h = hops(local_a, 0) + hops(0, local_b);
        SimDuration::from_cycles(h * cfg.hop_cycles + ser, cfg.freq_ghz)
            + SimDuration::from_ns_f64(cfg.inter_socket_ns)
    }
}

#[test]
fn every_endpoint_pair_matches_the_closed_form() {
    for cfg in shipped_configs() {
        let noc = Noc::new(cfg.clone());
        let endpoints: Vec<Endpoint> = (0..cfg.cores)
            .map(|c| Endpoint::Core(CoreId(c)))
            .chain((0..noc.total_tiles()).map(Endpoint::LlcSlice))
            .collect();
        for &from in &endpoints {
            for &to in &endpoints {
                for bytes in PAYLOADS {
                    let want = reference_message(&cfg, from, to, bytes);
                    assert_eq!(
                        noc.message(from, to, bytes),
                        want,
                        "{} cores: {from:?} -> {to:?}, {bytes} B",
                        cfg.cores
                    );
                    let back = reference_message(&cfg, to, from, bytes);
                    assert_eq!(
                        noc.round_trip(from, to, bytes),
                        reference_message(&cfg, from, to, 0) + back,
                        "{} cores: round trip {from:?} <-> {to:?}, {bytes} B",
                        cfg.cores
                    );
                }
            }
        }
    }
}

#[test]
fn cache_and_dram_latencies_match_the_config() {
    for cfg in shipped_configs() {
        let noc = Noc::new(cfg.clone());
        let f = cfg.freq_ghz;
        assert_eq!(noc.l1_latency(), SimDuration::from_cycles(cfg.l1_cycles, f));
        assert_eq!(
            noc.llc_latency(),
            SimDuration::from_cycles(cfg.llc_cycles, f)
        );
        assert_eq!(noc.dram_latency(), SimDuration::from_ns_f64(cfg.dram_ns));
    }
}

/// A 1 MiB read spans 16 384 lines: its pipelining term is far past the
/// precomputed cycle spans, so it takes the `from_cycles` fallback.
#[test]
fn large_bulk_read_takes_the_from_cycles_fallback() {
    const MIB: u64 = 1 << 20;
    for cfg in [MachineConfig::isca25(), MachineConfig::fpga()] {
        let mut m = Machine::new(cfg.clone());
        m.read(CoreId(1), 0x100_0000, MIB);
        // Warm: every line is an L1 hit, so the slowest line is one L1 access.
        let warm = m.read(CoreId(1), 0x100_0000, MIB);
        let lines = MIB / 64;
        let want = SimDuration::from_cycles(cfg.l1_cycles, cfg.freq_ghz)
            + SimDuration::from_cycles(cfg.pipeline_cycles * (lines - 1), cfg.freq_ghz);
        assert_eq!(warm, want);
        assert_eq!(
            m.cycles(lines),
            SimDuration::from_cycles(lines, cfg.freq_ghz)
        );
    }
}
