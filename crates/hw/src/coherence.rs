//! Directory-based MESI coherence timing model.
//!
//! The Table 2 machine keeps coherence with a directory in each LLC slice.
//! We model an exact per-line directory: every simulated access consults the
//! line's global state and pays the protocol's message sequence on the NoC.
//! This is what makes the paper's effects emerge rather than being hardcoded:
//! cross-core ArgBuf handoffs cost 3-hop transfers, JBSQ queue-length scans
//! cost one remote read per executor, VTE writes find their sharers here, and
//! everything stretches with mesh size and sockets (Figure 14).
//!
//! Capacity/conflict misses are not modelled (lines stay resident once
//! fetched); the workloads' hot state — queues, ArgBufs, VTEs — is small and
//! recycled, so coherence misses dominate, as in the paper.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use jord_sim::SimDuration;

use crate::noc::{Endpoint, Noc};
use crate::types::{CoreId, CoreSet, LineAddr};

/// MESI directory state of one cache line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineState {
    /// Cached read-only by a set of cores; the LLC holds a valid copy.
    Shared(CoreSet),
    /// Cached by exactly one core, clean (silent-upgrade candidate).
    Exclusive(CoreId),
    /// Cached by exactly one core, dirty.
    Modified(CoreId),
}

/// Counters exported by the coherence model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Accesses that hit in the requesting core's L1.
    pub l1_hits: u64,
    /// Accesses served by the home LLC slice (data or DRAM fill).
    pub llc_fills: u64,
    /// Accesses that required a cache-to-cache forward from another core.
    pub forwards: u64,
    /// Invalidation messages sent to sharers on writes.
    pub invalidations: u64,
    /// Lines filled from DRAM (first touch).
    pub dram_fills: u64,
}

/// Hashes the directory's `u64` line addresses: one 64×64→128-bit multiply
/// by an odd constant, the two halves folded together, so low and high
/// hash bits both depend on every address bit. Line addresses come from
/// the simulation itself, never from outside input, so the flooding
/// resistance of the default SipHash buys nothing here.
///
/// Hash order cannot reach simulated output: the directory is only ever
/// probed by key, never iterated. Keep it that way — anything that needs
/// to enumerate lines must sort them first.
#[derive(Debug, Default, Clone, Copy)]
struct LineHasher(u64);

impl LineHasher {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let wide = u128::from(self.0 ^ x) * u128::from(Self::MUL);
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The exact-directory MESI model.
#[derive(Debug)]
pub struct CoherenceModel {
    lines: HashMap<u64, LineState, BuildHasherDefault<LineHasher>>,
    stats: CoherenceStats,
}

impl CoherenceModel {
    /// Creates an empty model (all lines Invalid / in DRAM).
    pub fn new() -> Self {
        CoherenceModel {
            lines: HashMap::default(),
            stats: CoherenceStats::default(),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// Directory state of a line, if it is cached anywhere.
    pub fn probe(&self, line: LineAddr) -> Option<&LineState> {
        self.lines.get(&line.0)
    }

    /// The cores currently caching `line` (for the VTD victim fallback of
    /// §4.2: when a VTD entry was evicted, the coherence directory's sharer
    /// list pessimistically stands in for the translation sharers).
    pub fn sharers(&self, line: LineAddr) -> CoreSet {
        match self.lines.get(&line.0) {
            None => CoreSet::empty(),
            Some(LineState::Shared(s)) => *s,
            Some(LineState::Exclusive(c)) | Some(LineState::Modified(c)) => CoreSet::singleton(*c),
        }
    }

    /// True if `core` holds `line` in its L1 (any state).
    pub fn cached_by(&self, line: LineAddr, core: CoreId) -> bool {
        match self.lines.get(&line.0) {
            None => false,
            Some(LineState::Shared(s)) => s.contains(core),
            Some(LineState::Exclusive(c)) | Some(LineState::Modified(c)) => *c == core,
        }
    }

    /// Simulates a read of one line by `core`, returning its latency and
    /// updating directory state.
    pub fn read_line(&mut self, noc: &Noc, core: CoreId, line: LineAddr) -> SimDuration {
        let l1 = noc.l1_latency();
        let llc = noc.llc_latency();
        let home = Endpoint::LlcSlice(noc.home_slice(line));
        let me = Endpoint::Core(core);

        match self.lines.get_mut(&line.0) {
            // L1 hit paths: requester already caches the line.
            Some(LineState::Shared(s)) if s.contains(core) => {
                self.stats.l1_hits += 1;
                l1
            }
            Some(LineState::Exclusive(c)) | Some(LineState::Modified(c)) if *c == core => {
                self.stats.l1_hits += 1;
                l1
            }
            // Shared elsewhere: LLC has the data.
            Some(LineState::Shared(s)) => {
                s.insert(core);
                self.stats.llc_fills += 1;
                l1 + noc.message(me, home, 0) + llc + noc.message(home, me, 64)
            }
            // Owned by another core: 3-hop forward.
            Some(state @ (LineState::Exclusive(_) | LineState::Modified(_))) => {
                let owner = match *state {
                    LineState::Exclusive(c) | LineState::Modified(c) => c,
                    LineState::Shared(_) => unreachable!(),
                };
                let mut s = CoreSet::singleton(owner);
                s.insert(core);
                *state = LineState::Shared(s);
                self.stats.forwards += 1;
                l1 + noc.message(me, home, 0)
                    + llc
                    + noc.message(home, Endpoint::Core(owner), 0)
                    + l1
                    + noc.message(Endpoint::Core(owner), me, 64)
            }
            // Invalid: DRAM fill, granted Exclusive.
            None => {
                self.lines.insert(line.0, LineState::Exclusive(core));
                self.stats.llc_fills += 1;
                self.stats.dram_fills += 1;
                l1 + noc.message(me, home, 0) + llc + noc.dram_latency() + noc.message(home, me, 64)
            }
        }
    }

    /// Simulates a write of one line by `core`, returning its latency and
    /// updating directory state. Ends with the line `Modified(core)`.
    pub fn write_line(&mut self, noc: &Noc, core: CoreId, line: LineAddr) -> SimDuration {
        let l1 = noc.l1_latency();
        let llc = noc.llc_latency();
        let home = Endpoint::LlcSlice(noc.home_slice(line));
        let me = Endpoint::Core(core);

        // One probe: the entry is overwritten in place and the state it
        // held decides the cost.
        let prev = self.lines.insert(line.0, LineState::Modified(core));
        match prev {
            // Write hits: already exclusive owner (silent E→M) or modified.
            Some(LineState::Modified(c)) | Some(LineState::Exclusive(c)) if c == core => {
                self.stats.l1_hits += 1;
                l1
            }
            // Upgrade / invalidate sharers. The home slice sends parallel
            // invalidations; completion waits on the furthest sharer's ack.
            Some(LineState::Shared(s)) => {
                let had_copy = s.contains(core);
                let mut worst = SimDuration::ZERO;
                for sharer in s.iter() {
                    if sharer == core {
                        continue;
                    }
                    self.stats.invalidations += 1;
                    let rt = noc.round_trip(home, Endpoint::Core(sharer), 0) + l1;
                    worst = worst.max(rt);
                }
                let data_back = if had_copy {
                    // Upgrade: only an ack returns.
                    noc.message(home, me, 0)
                } else {
                    self.stats.llc_fills += 1;
                    noc.message(home, me, 64)
                };
                l1 + noc.message(me, home, 0) + llc + worst + data_back
            }
            // Another core owns it: forward with ownership transfer.
            Some(LineState::Exclusive(owner)) | Some(LineState::Modified(owner)) => {
                self.stats.forwards += 1;
                self.stats.invalidations += 1;
                l1 + noc.message(me, home, 0)
                    + llc
                    + noc.message(home, Endpoint::Core(owner), 0)
                    + l1
                    + noc.message(Endpoint::Core(owner), me, 64)
            }
            // Invalid: DRAM fill for ownership.
            None => {
                self.stats.llc_fills += 1;
                self.stats.dram_fills += 1;
                l1 + noc.message(me, home, 0) + llc + noc.dram_latency() + noc.message(home, me, 64)
            }
        }
    }

    /// Drops a core's copy of a line without timing (used when a VLB/VTD
    /// shootdown also invalidates the cached VTE data, and by tests).
    pub fn invalidate_copy(&mut self, line: LineAddr, core: CoreId) {
        if let Some(state) = self.lines.get_mut(&line.0) {
            match state {
                LineState::Shared(s) => {
                    s.remove(core);
                    if s.is_empty() {
                        self.lines.remove(&line.0);
                    }
                }
                LineState::Exclusive(c) | LineState::Modified(c) => {
                    if *c == core {
                        self.lines.remove(&line.0);
                    }
                }
            }
        }
    }

    /// Number of tracked (cached) lines; used by capacity sanity tests.
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }
}

impl Default for CoherenceModel {
    fn default() -> Self {
        CoherenceModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn setup() -> (Noc, CoherenceModel) {
        (Noc::new(MachineConfig::isca25()), CoherenceModel::new())
    }

    #[test]
    fn first_read_fills_from_dram_then_hits() {
        let (noc, mut m) = setup();
        let line = LineAddr(100);
        let cold = m.read_line(&noc, CoreId(0), line);
        let warm = m.read_line(&noc, CoreId(0), line);
        assert!(
            cold.as_ns_f64() >= 90.0,
            "cold read {cold} must include DRAM"
        );
        assert_eq!(
            warm,
            SimDuration::from_ps(500),
            "warm read is a 2-cycle L1 hit"
        );
        assert_eq!(m.stats().dram_fills, 1);
        assert_eq!(m.stats().l1_hits, 1);
    }

    #[test]
    fn read_after_remote_write_is_three_hop_forward() {
        let (noc, mut m) = setup();
        let line = LineAddr(5);
        m.write_line(&noc, CoreId(0), line);
        let before = m.stats().forwards;
        let fwd = m.read_line(&noc, CoreId(31), line);
        assert_eq!(m.stats().forwards, before + 1);
        // Must be slower than an LLC fill of a shared line by a third core.
        let shared_fill = m.read_line(&noc, CoreId(16), line);
        assert!(fwd > shared_fill);
        // Now all three cores share it.
        assert!(matches!(m.probe(line), Some(LineState::Shared(s)) if s.len() == 3));
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let (noc, mut m) = setup();
        let line = LineAddr(7);
        for c in [0usize, 3, 9, 27] {
            m.read_line(&noc, CoreId(c), line);
        }
        let inv_before = m.stats().invalidations;
        m.write_line(&noc, CoreId(3), line);
        assert_eq!(m.stats().invalidations, inv_before + 3);
        assert_eq!(m.probe(line), Some(&LineState::Modified(CoreId(3))));
        assert_eq!(m.sharers(line), CoreSet::singleton(CoreId(3)));
    }

    #[test]
    fn silent_exclusive_to_modified_upgrade() {
        let (noc, mut m) = setup();
        let line = LineAddr(11);
        m.read_line(&noc, CoreId(2), line); // E
        assert_eq!(m.probe(line), Some(&LineState::Exclusive(CoreId(2))));
        let w = m.write_line(&noc, CoreId(2), line);
        assert_eq!(w, SimDuration::from_ps(500), "silent upgrade is an L1 hit");
        assert_eq!(m.probe(line), Some(&LineState::Modified(CoreId(2))));
    }

    #[test]
    fn upgrade_from_shared_pays_invalidation_roundtrip() {
        let (noc, mut m) = setup();
        let line = LineAddr(13);
        m.read_line(&noc, CoreId(0), line);
        m.read_line(&noc, CoreId(31), line); // now Shared{0,31}
        let up = m.write_line(&noc, CoreId(0), line);
        // Must include the round trip to core 31 (the furthest sharer).
        let floor = noc.round_trip(
            Endpoint::LlcSlice(noc.home_slice(line)),
            Endpoint::Core(CoreId(31)),
            0,
        );
        assert!(up >= floor, "upgrade {up} must wait for inval ack {floor}");
    }

    #[test]
    fn sharers_reports_owner_and_readers() {
        let (noc, mut m) = setup();
        let line = LineAddr(17);
        assert!(m.sharers(line).is_empty());
        m.write_line(&noc, CoreId(4), line);
        assert_eq!(m.sharers(line), CoreSet::singleton(CoreId(4)));
        m.read_line(&noc, CoreId(6), line);
        let s = m.sharers(line);
        assert!(s.contains(CoreId(4)) && s.contains(CoreId(6)));
    }

    #[test]
    fn invalidate_copy_removes_one_core() {
        let (noc, mut m) = setup();
        let line = LineAddr(19);
        m.read_line(&noc, CoreId(1), line);
        m.read_line(&noc, CoreId(2), line);
        m.invalidate_copy(line, CoreId(1));
        assert!(!m.cached_by(line, CoreId(1)));
        assert!(m.cached_by(line, CoreId(2)));
        m.invalidate_copy(line, CoreId(2));
        assert_eq!(m.probe(line), None);
    }

    #[test]
    fn ownership_transfer_on_remote_write() {
        let (noc, mut m) = setup();
        let line = LineAddr(23);
        m.write_line(&noc, CoreId(0), line);
        let t = m.write_line(&noc, CoreId(31), line);
        assert_eq!(m.probe(line), Some(&LineState::Modified(CoreId(31))));
        // 3-hop: must exceed a pure local hit by a lot.
        assert!(t.as_ns_f64() > 5.0);
    }

    #[test]
    fn distance_increases_latency() {
        let (noc, mut m) = setup();
        // Two fresh lines homed at the same slice distance pattern: compare
        // a near and a far reader of a line owned by core 0.
        let line = LineAddr(32 * 8); // home slice 0 == tile of core 0
        m.write_line(&noc, CoreId(0), line);
        let near = m.read_line(&noc, CoreId(1), line);
        let line2 = LineAddr(32 * 9);
        m.write_line(&noc, CoreId(0), line2);
        let far = m.read_line(&noc, CoreId(31), line2);
        assert!(far > near, "far {far} should exceed near {near}");
    }
}
