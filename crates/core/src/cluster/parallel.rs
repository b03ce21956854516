//! The conservative parallel engine: shards advance concurrently to a
//! lower-bound-on-timestamp horizon, then one serial barrier phase
//! replays the dispatcher exactly as the sequential engine would.
//!
//! # Why this is bit-identical to the sequential engine
//!
//! The sequential engine ([`ClusterDispatcher::advance_once`]) has one
//! scheduling rule: the globally earliest event wins, a worker beats the
//! dispatcher on ties, and among tied workers the lowest index steps
//! first. The parallel engine preserves that rule by construction:
//!
//! 1. **Horizon** ([`jord_sim::lbts`]): each window's bound is
//!    `H = min(dispatcher_next, min_shard_next + lookahead)`. No
//!    dispatcher event exists before `H`, and any cross-shard message a
//!    worker step could originate is stamped at least `lookahead` after
//!    the step's pop time — so every worker event at `t ≤ H` is
//!    independent of every other shard, and shards may pop them in any
//!    interleaving (phase 1, concurrent).
//! 2. **Merge order**: phase 1 defers notice delivery into per-shard
//!    outboxes stamped with the producing pop time. At the barrier they
//!    are pushed into the dispatcher queue sorted by
//!    `(time, worker_id, seq)` — pop time, then shard index, then
//!    outbox order. That is exactly the chronological push order of the
//!    sequential engine (it steps tied workers lowest-index first), and
//!    the dispatcher queue breaks timestamp ties FIFO by push order, so
//!    delivery order is identical.
//! 3. **Serial phase**: dispatcher events at or before `H` are then
//!    processed by the *same* `advance_once` loop the sequential engine
//!    runs, bounded by `H`. Any worker events it injects (deliveries,
//!    failover re-routes) at times `≤ H` are caught up under the
//!    sequential tie rule before the next dispatcher action, and their
//!    notices are pushed immediately — again matching sequential push
//!    chronology, because those pops happen at the action time, after
//!    every earlier-stamped outbox notice is already queued.
//!
//! Worker state at any dispatcher action is also identical: an action at
//! time `t` always runs with every worker advanced through exactly the
//! events `≤ t` (`H ≤ dispatcher_next` guarantees the action sits at the
//! window edge). The one place a handler reaches *into* another shard
//! ahead of the window edge is a completion's `cancel_tagged` pullback:
//! sound only if no other shard advanced past the completion's
//! timestamp, i.e. if the completion landed at least `lookahead` after
//! its producing pop. The engine asserts that contract at merge time and
//! panics with a diagnosis rather than silently diverging.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

use jord_sim::{lbts, SimDuration, SimTime};

use super::shard::WorkerShard;
use super::{us_dur, ClusterDispatcher, ClusterEvent};
use crate::events::{NoticeOutcome, WorkerNotice};

/// Conservative parallel engine tuning ([`super::ClusterConfig::engine`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Threads advancing shards between barriers, counting the
    /// coordinating thread itself. `1` runs the full windowed engine
    /// (horizons, outbox merge, barrier phases) on one thread — the
    /// cheapest way to differential-test the machinery. Must be ≥ 1.
    pub threads: usize,
}

/// Minimum latency (µs of simulated time) of any cross-shard effect,
/// measured from the pop time of the worker step that originates it:
/// 50 ns. Sound for this model because a completion notice always trails
/// its final execution chunk by the teardown path (destroy-PD, notify,
/// ArgBuf free — see `WorkerServer` `finish`), and no other
/// worker-originated effect crosses shards at all. It is not a setting:
/// window horizons are capped by dispatcher events (every arrival is
/// one), so widening it barely widens windows. A workload that completes
/// faster is detected at merge time and panics rather than diverging.
const LOOKAHEAD_US: f64 = 0.05;

impl EngineConfig {
    /// An engine with `threads` threads.
    pub fn threads(threads: usize) -> Self {
        EngineConfig { threads }
    }
}

/// A unit of phase-1 work: one shard, advanced to one horizon.
///
/// Carries a raw pointer so the coordinating thread can deal disjoint
/// `&mut`-equivalent loans out of its `slots` vector without the borrow
/// checker seeing one `&mut` per element (which a growing `Vec` cannot
/// hand out across threads). Soundness is the dealing discipline, not
/// the type: see the safety argument at the use sites.
struct ShardTask {
    shard: *mut WorkerShard,
    horizon: SimTime,
}

// SAFETY: a ShardTask is only ever created from a live `&mut` borrow of
// the slots vector, for pairwise-distinct indices, and is consumed
// before that borrow ends (the phase-1 close barrier). The shard it
// points to is touched by exactly one thread per window.
unsafe impl Send for ShardTask {}

impl ClusterDispatcher {
    /// Runs the windowed conservative engine to completion (the
    /// parallel counterpart of the sequential `advance_once` loop).
    pub(super) fn run_conservative(&mut self, eng: EngineConfig) {
        let lookahead = us_dur(LOOKAHEAD_US);
        if eng.threads <= 1 {
            while let Some((h, runnable)) = self.next_window(lookahead) {
                for &w in &runnable {
                    self.slots[w].advance_to(h);
                }
                self.merge_window(h, &runnable);
                while self.advance_once(Some(h)) {}
            }
        } else {
            self.run_threaded(eng.threads, lookahead);
        }
    }

    /// Computes the next window: the LBTS horizon and the shards with
    /// work at or before it. `None` when the simulation is out of work
    /// (the sequential engine's termination condition, verbatim).
    fn next_window(&self, lookahead: SimDuration) -> Option<(SimTime, Vec<usize>)> {
        let shard_next = self
            .slots
            .iter()
            .filter(|s| !s.crashed)
            .filter_map(|s| s.server.next_event_time())
            .min();
        let h = lbts(self.events.peek_time(), shard_next, lookahead)?;
        let runnable = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.crashed)
            .filter(|(_, s)| s.server.next_event_time().is_some_and(|t| t <= h))
            .map(|(w, _)| w)
            .collect();
        Some((h, runnable))
    }

    /// Barrier phase 2: fold per-shard bookkeeping and push every
    /// outbox notice into the dispatcher queue in `(time, worker_id,
    /// seq)` order — the sequential engine's push chronology.
    fn merge_window(&mut self, h: SimTime, runnable: &[usize]) {
        let mut merged: Vec<(SimTime, usize, WorkerNotice)> = Vec::new();
        for &w in runnable {
            if let Some(t) = self.slots[w].advanced.take() {
                self.finished_at = self.finished_at.max(t);
            }
            if self.slots[w].outbox.is_empty() {
                continue;
            }
            let outbox = std::mem::take(&mut self.slots[w].outbox);
            merged.extend(outbox.into_iter().map(|(tau, n)| (tau, w, n)));
        }
        // Stable: equal (pop time, worker) keys keep their outbox order.
        merged.sort_by_key(|&(tau, w, _)| (tau, w));
        for (tau, w, n) in merged {
            // The lookahead contract, checked where it matters: a
            // completion inside the window (n.at ≤ h is fine — every
            // shard stopped at h) may pull back copies from shards that
            // advanced past its timestamp only if no such copy exists.
            if n.at < h && matches!(n.outcome, NoticeOutcome::Completed { .. }) {
                let copies = self.requests[(n.tag - 1) as usize].copies.len();
                assert!(
                    copies <= 1,
                    "the engine's cross-shard lookahead exceeds this workload's \
                     minimum completion latency: request {} completed at {} \
                     (produced by a pop at {tau}), inside a window advanced to \
                     {h}, while {copies} copies are live — the cancel pullback \
                     would reach into a shard's past",
                    n.tag,
                    n.at,
                );
            }
            self.events.push(n.at, ClusterEvent::Notice(w, n));
        }
    }

    /// The threaded engine: persistent helper threads for the whole run
    /// (spawning per window would dwarf the windows), two barriers per
    /// window, shards dealt round-robin.
    fn run_threaded(&mut self, threads: usize, lookahead: SimDuration) {
        let helpers = threads - 1;
        let barrier = Barrier::new(threads);
        let done = AtomicBool::new(false);
        // One work bay per helper. The mutexes never contend: the
        // coordinator fills bays while helpers sit at the open barrier,
        // helpers drain them before the close barrier.
        let bays: Vec<Mutex<Vec<ShardTask>>> =
            (0..helpers).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|scope| {
            for bay in &bays {
                let barrier = &barrier;
                let done = &done;
                scope.spawn(move || loop {
                    barrier.wait(); // window opens
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let mut tasks = bay.lock().expect("bay mutex");
                    for task in tasks.drain(..) {
                        // SAFETY: the coordinator dealt pairwise-distinct
                        // shard pointers this window and touches only its
                        // own share until the close barrier; the pointee
                        // outlives the window (no slot growth between the
                        // barriers).
                        unsafe { (*task.shard).advance_to(task.horizon) };
                    }
                    drop(tasks);
                    barrier.wait(); // window closes
                });
            }
            loop {
                let Some((h, runnable)) = self.next_window(lookahead) else {
                    done.store(true, Ordering::Release);
                    barrier.wait(); // release helpers into the exit check
                    break;
                };
                // Deal shards round-robin through one raw base pointer.
                // Between here and the close barrier nothing may create
                // a (safe) reference into `slots` — the coordinator's
                // own share goes through the same base pointer.
                let base = self.slots.as_mut_ptr();
                let mut mine: Vec<usize> = Vec::new();
                {
                    let mut guards: Vec<_> =
                        bays.iter().map(|b| b.lock().expect("bay mutex")).collect();
                    for (k, &w) in runnable.iter().enumerate() {
                        match k % threads {
                            0 => mine.push(w),
                            j => guards[j - 1].push(ShardTask {
                                // SAFETY: `w` is in bounds and `runnable`
                                // holds distinct indices.
                                shard: unsafe { base.add(w) },
                                horizon: h,
                            }),
                        }
                    }
                }
                barrier.wait(); // window opens: helpers advance their bays
                for &w in &mine {
                    // SAFETY: disjoint from every dealt pointer (round-
                    // robin over distinct indices), same provenance base.
                    unsafe { (*base.add(w)).advance_to(h) };
                }
                barrier.wait(); // window closes: helpers hold no pointers
                self.merge_window(h, &runnable);
                while self.advance_once(Some(h)) {}
            }
        });
    }
}
