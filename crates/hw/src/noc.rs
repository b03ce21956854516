//! Network-on-chip topology and message latency.
//!
//! Each socket is a `mesh_w × mesh_h` 2D mesh of tiles; tile *i* hosts core
//! *i* (of that socket) and one LLC slice. Messages route XY with
//! `hop_cycles` per hop plus serialization over `link_bytes`-wide links
//! (Table 2: 3 cycles/hop, 16 B links). Crossing sockets adds the
//! `inter_socket_ns` one-way latency of §5 (260 ns, AMD Zen5 Turin).
//!
//! Cache lines are interleaved across all LLC slices of the machine by line
//! address, which is what spreads the VTD (co-located with the directory in
//! each slice) across the chip.
//!
//! Every latency the configuration fixes is computed once, at construction:
//! the L1, LLC, DRAM and inter-socket spans, each tile's (socket, x, y)
//! position, and `SimDuration::from_cycles` for the short cycle counts
//! messages and cache accesses produce. The per-line hot path then does no
//! floating-point work and no division. The tables grow with the tile count,
//! never with its square, so a 256-core machine costs a few KiB.

use jord_sim::SimDuration;

use crate::config::MachineConfig;
use crate::types::{CoreId, LineAddr};

/// Cycle counts below this bound come from the precomputed table; longer
/// spans (large bulk accesses' pipelining term) fall back to
/// `SimDuration::from_cycles`, which yields the same value.
const CYCLE_MEMO: usize = 512;

/// A tile endpoint in the NoC: either a core's L1 or an LLC slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The L1/core at this global core index.
    Core(CoreId),
    /// The LLC slice on the tile with this global tile index.
    LlcSlice(usize),
}

/// Where a tile sits: its socket and its mesh coordinates within it.
#[derive(Debug, Clone, Copy)]
struct TilePos {
    socket: u32,
    x: u32,
    y: u32,
}

impl TilePos {
    fn hops_to(self, other: TilePos) -> u64 {
        u64::from(self.x.abs_diff(other.x) + self.y.abs_diff(other.y))
    }

    /// Hops to the socket's I/O corner (local tile 0), where the
    /// inter-socket link attaches.
    fn hops_to_corner(self) -> u64 {
        u64::from(self.x + self.y)
    }
}

/// The NoC latency model.
#[derive(Debug, Clone)]
pub struct Noc {
    cfg: MachineConfig,
    tiles: Vec<TilePos>,
    /// `cycle_spans[c] == SimDuration::from_cycles(c, freq_ghz)`.
    cycle_spans: Vec<SimDuration>,
    l1: SimDuration,
    llc: SimDuration,
    dram: SimDuration,
    inter_socket: SimDuration,
}

impl Noc {
    /// Builds the NoC for a validated machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate().expect("invalid machine configuration");
        let per_socket = cfg.tiles_per_socket();
        let tiles = (0..per_socket * cfg.sockets)
            .map(|t| {
                let local = t % per_socket;
                TilePos {
                    socket: (t / per_socket) as u32,
                    x: (local % cfg.mesh_w) as u32,
                    y: (local / cfg.mesh_w) as u32,
                }
            })
            .collect();
        let cycle_spans = (0..CYCLE_MEMO as u64)
            .map(|c| SimDuration::from_cycles(c, cfg.freq_ghz))
            .collect();
        Noc {
            tiles,
            cycle_spans,
            l1: SimDuration::from_cycles(cfg.l1_cycles, cfg.freq_ghz),
            llc: SimDuration::from_cycles(cfg.llc_cycles, cfg.freq_ghz),
            dram: SimDuration::from_ns_f64(cfg.dram_ns),
            inter_socket: SimDuration::from_ns_f64(cfg.inter_socket_ns),
            cfg,
        }
    }

    /// The machine configuration this NoC was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Duration of `cycles` core cycles: exactly
    /// `SimDuration::from_cycles(cycles, freq_ghz)`, read from a table for
    /// short spans.
    pub fn cycles(&self, cycles: u64) -> SimDuration {
        match self.cycle_spans.get(cycles as usize) {
            Some(&d) => d,
            None => SimDuration::from_cycles(cycles, self.cfg.freq_ghz),
        }
    }

    /// L1 access latency (`l1_cycles`).
    pub fn l1_latency(&self) -> SimDuration {
        self.l1
    }

    /// LLC slice access latency (`llc_cycles`).
    pub fn llc_latency(&self) -> SimDuration {
        self.llc
    }

    /// DRAM access latency (`dram_ns`).
    pub fn dram_latency(&self) -> SimDuration {
        self.dram
    }

    /// Total number of tiles (== LLC slices) across all sockets.
    pub fn total_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// The home LLC slice (global tile index) of a cache line: lines are
    /// address-interleaved across every slice in the machine.
    pub fn home_slice(&self, line: LineAddr) -> usize {
        (line.0 % self.tiles.len() as u64) as usize
    }

    fn endpoint_tile(&self, ep: Endpoint) -> TilePos {
        match ep {
            Endpoint::Core(c) => {
                assert!(c.0 < self.cfg.cores, "core {} out of range", c.0);
                self.tiles[c.0]
            }
            Endpoint::LlcSlice(t) => {
                assert!(t < self.tiles.len(), "tile {t} out of range");
                self.tiles[t]
            }
        }
    }

    /// Socket index of a global tile.
    pub fn socket_of_tile(&self, tile: usize) -> usize {
        tile / self.cfg.tiles_per_socket()
    }

    /// Socket index of a core.
    pub fn socket_of_core(&self, core: CoreId) -> usize {
        self.socket_of_tile(core.0)
    }

    /// One-way message latency carrying `payload_bytes` of data (control
    /// headers ride for free in the first flit).
    pub fn message(&self, from: Endpoint, to: Endpoint, payload_bytes: u64) -> SimDuration {
        let a = self.endpoint_tile(from);
        let b = self.endpoint_tile(to);
        let ser_cycles = payload_bytes.div_ceil(self.cfg.link_bytes.max(1));
        if a.socket == b.socket {
            self.cycles(a.hops_to(b) * self.cfg.hop_cycles + ser_cycles)
        } else {
            // Route to the socket edge, cross the inter-socket link, route on.
            // Edge tile: local tile 0 (the I/O corner) on each socket.
            let hops = a.hops_to_corner() + b.hops_to_corner();
            self.cycles(hops * self.cfg.hop_cycles + ser_cycles) + self.inter_socket
        }
    }

    /// Round-trip latency: request (control) out, response with
    /// `payload_bytes` back.
    pub fn round_trip(&self, from: Endpoint, to: Endpoint, payload_bytes: u64) -> SimDuration {
        self.message(from, to, 0) + self.message(to, from, payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc() -> Noc {
        Noc::new(MachineConfig::isca25())
    }

    #[test]
    fn zero_hop_message_costs_only_serialization() {
        let n = noc();
        // Core 0 to LLC slice 0 share tile 0.
        let d = n.message(Endpoint::Core(CoreId(0)), Endpoint::LlcSlice(0), 0);
        assert_eq!(d, SimDuration::ZERO);
        let d64 = n.message(Endpoint::Core(CoreId(0)), Endpoint::LlcSlice(0), 64);
        // 64B over 16B links = 4 cycles = 1 ns at 4 GHz.
        assert_eq!(d64, SimDuration::from_ns(1));
    }

    #[test]
    fn hop_latency_matches_table2() {
        let n = noc();
        // Tiles 0 (0,0) and 1 (1,0): one hop = 3 cycles = 0.75 ns.
        let d = n.message(Endpoint::Core(CoreId(0)), Endpoint::Core(CoreId(1)), 0);
        assert_eq!(d, SimDuration::from_ps(750));
        // Tile 0 to tile 31 (7,3): 7+3 = 10 hops = 30 cycles = 7.5 ns.
        let far = n.message(Endpoint::Core(CoreId(0)), Endpoint::Core(CoreId(31)), 0);
        assert_eq!(far, SimDuration::from_ps(7500));
    }

    #[test]
    fn latency_is_symmetric_within_socket() {
        let n = noc();
        for (a, b) in [(0, 31), (5, 17), (12, 12)] {
            let ab = n.message(Endpoint::Core(CoreId(a)), Endpoint::Core(CoreId(b)), 64);
            let ba = n.message(Endpoint::Core(CoreId(b)), Endpoint::Core(CoreId(a)), 64);
            assert_eq!(ab, ba);
        }
    }

    #[test]
    fn home_slice_interleaves_all_slices() {
        let n = noc();
        let mut seen = vec![false; n.total_tiles()];
        for l in 0..1000u64 {
            seen[n.home_slice(LineAddr(l))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cross_socket_adds_link_latency() {
        let n = Noc::new(MachineConfig::two_socket());
        let same = n.message(Endpoint::Core(CoreId(0)), Endpoint::Core(CoreId(127)), 0);
        let cross = n.message(Endpoint::Core(CoreId(0)), Endpoint::Core(CoreId(128)), 0);
        assert!(cross.as_ns_f64() >= 260.0);
        assert!(cross > same);
        assert_eq!(n.socket_of_core(CoreId(128)), 1);
        assert_eq!(n.socket_of_core(CoreId(127)), 0);
    }

    #[test]
    fn round_trip_is_sum_of_ways() {
        let n = noc();
        let rt = n.round_trip(Endpoint::Core(CoreId(0)), Endpoint::LlcSlice(9), 64);
        let there = n.message(Endpoint::Core(CoreId(0)), Endpoint::LlcSlice(9), 0);
        let back = n.message(Endpoint::LlcSlice(9), Endpoint::Core(CoreId(0)), 64);
        assert_eq!(rt, there + back);
    }

    #[test]
    fn cycles_match_from_cycles_inside_and_past_the_table() {
        let n = noc();
        for c in (0..CYCLE_MEMO as u64 + 64).chain([1 << 20, u64::from(u32::MAX)]) {
            assert_eq!(n.cycles(c), SimDuration::from_cycles(c, 4.0), "{c} cycles");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_core_panics() {
        let n = noc();
        let _ = n.message(Endpoint::Core(CoreId(99)), Endpoint::LlcSlice(0), 0);
    }
}
