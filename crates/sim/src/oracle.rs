//! The differential-test reference for [`EventQueue`](crate::EventQueue).
//!
//! [`HeapOracle`] is a deliberately naive implementation of the queue's
//! semantics: a `BinaryHeap` that owns whole `(time, seq, event)` entries,
//! with a `BTreeSet` of cancelled sequence numbers. It shares no code with
//! the production queue's slab, free list or generation-checked handles,
//! so the differential proptest in `crates/sim/tests/queue_differential.rs`
//! can drive both through identical schedule/pop/cancel/drain
//! interleavings and assert that the full `(time, seq, payload)` pop
//! sequence matches. It is not used outside tests.
//!
//! Cancellation goes through handles only: [`OracleId`] mirrors
//! [`EventId`](crate::EventId).

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

use crate::time::SimTime;

/// A min-heap keyed entry; `seq` breaks ties FIFO.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A handle to an event scheduled on a [`HeapOracle`] — the oracle-side
/// mirror of [`EventId`](crate::EventId). It is the event's globally unique
/// sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OracleId(u64);

/// An entry heap with id bookkeeping: supports the same schedule/cancel
/// surface as [`EventQueue`](crate::EventQueue) so the differential
/// proptest can drive both through identical op sequences. Cancellation is
/// modelled exactly like the queue's tombstones — the entry stays in the
/// heap and is skipped at pop, and surviving events keep their original
/// sequence numbers.
pub struct HeapOracle<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    last_popped: SimTime,
    /// Seqs cancelled but still physically in the heap. Every other heap
    /// entry is live, so the heap and this set together answer `len` and
    /// cancel staleness.
    tombstones: BTreeSet<u64>,
}

impl<E> HeapOracle<E> {
    /// Creates an empty oracle queue.
    pub fn new() -> Self {
        HeapOracle {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
            tombstones: BTreeSet::new(),
        }
    }

    /// Schedules `event`, returning its cancellation handle.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event time.
    pub fn schedule(&mut self, time: SimTime, event: E) -> OracleId {
        assert!(
            time >= self.last_popped,
            "event scheduled in the past: {time} < {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        OracleId(seq)
    }

    /// Cancels a pending event; a stale handle is a no-op returning `false`.
    pub fn cancel(&mut self, id: OracleId) -> bool {
        // Live means still in the heap and not yet tombstoned; a linear
        // scan is oracle simplicity over speed.
        !self.tombstones.contains(&id.0)
            && self.heap.iter().any(|e| e.seq == id.0)
            && self.tombstones.insert(id.0)
    }

    /// Removes and returns the earliest live event.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        // Tombstones are skipped without touching the clock: a fruitless
        // pop leaves `now` untouched, exactly like the production queue.
        while let Some(entry) = self.heap.pop() {
            if self.tombstones.remove(&entry.seq) {
                continue;
            }
            self.last_popped = entry.time;
            return Some((entry.time, entry.seq, entry.event));
        }
        None
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(t, _, e)| (t, e))
    }

    /// The timestamp of the earliest live event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .iter()
            .filter(|e| !self.tombstones.contains(&e.seq))
            .map(|e| (e.time, e.seq))
            .min()
            .map(|(t, _)| t)
    }

    /// Number of pending (live) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.tombstones.len()
    }

    /// True if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Empties the queue, returning every live event in pop order.
    pub fn drain(&mut self) -> Vec<(SimTime, E)> {
        let mut entries: Vec<Entry<E>> = std::mem::take(&mut self.heap).into_vec();
        entries.sort_by(|a, b| a.time.cmp(&b.time).then_with(|| a.seq.cmp(&b.seq)));
        let tombs = std::mem::take(&mut self.tombstones);
        entries
            .into_iter()
            .filter(|e| !tombs.contains(&e.seq))
            .map(|e| (e.time, e.event))
            .collect()
    }
}

impl<E> Default for HeapOracle<E> {
    fn default() -> Self {
        HeapOracle::new()
    }
}
