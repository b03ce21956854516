//! Criterion host-side microbenchmarks of the event-queue hot path.
//!
//! The calendar [`EventQueue`] against the recorded pre-refactor
//! [`BaselineHeap`], on the three operations the simulator spends its
//! time in: the hold model (pop front + schedule successor at steady
//! state), a schedule/drain burst, and `EventId` cancellation (calendar
//! only; the heap baseline has no cancel path). The gated
//! pass/fail comparison lives in `examples/engine_bench.rs`; this
//! harness is for profiling the same shapes under criterion's sampler.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use jord_sim::oracle::BaselineHeap;
use jord_sim::{EventQueue, Rng, SimTime};

/// Pop-gap upper bound, matching `jord_bench::engine::GAP_PS`: 10 µs.
const GAP_PS: u64 = 10_000_000;
const PREFILL: usize = 65_536;

fn bench_hold(c: &mut Criterion) {
    let mut group = c.benchmark_group("hold_64k_pending");
    let mut rng = Rng::new(42);
    let mut heap = BaselineHeap::new();
    let mut cal = EventQueue::new();
    for i in 0..PREFILL {
        let t = SimTime::from_ps(rng.next_below(GAP_PS));
        heap.push(t, i as u64);
        cal.push(t, i as u64);
    }
    group.bench_function("heap", |b| {
        b.iter(|| {
            let (t, e) = heap.pop().expect("held");
            heap.push(SimTime::from_ps(t.as_ps() + 1 + rng.next_below(GAP_PS)), e);
            black_box(t)
        })
    });
    group.bench_function("calendar", |b| {
        b.iter(|| {
            let (t, e) = cal.pop().expect("held");
            cal.push(SimTime::from_ps(t.as_ps() + 1 + rng.next_below(GAP_PS)), e);
            black_box(t)
        })
    });
    group.finish();
}

fn bench_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("burst_4k_schedule_drain");
    group.bench_function("heap", |b| {
        b.iter_batched_ref(
            || Rng::new(42),
            |rng| {
                let mut q = BaselineHeap::new();
                for i in 0..4_096u64 {
                    q.push(SimTime::from_ps(rng.next_below(GAP_PS * 100)), i);
                }
                let mut sum = 0u64;
                while let Some((t, _)) = q.pop() {
                    sum = sum.wrapping_add(t.as_ps());
                }
                black_box(sum)
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("calendar", |b| {
        b.iter_batched_ref(
            || Rng::new(42),
            |rng| {
                let mut q = EventQueue::new();
                for i in 0..4_096u64 {
                    q.push(SimTime::from_ps(rng.next_below(GAP_PS * 100)), i);
                }
                let mut sum = 0u64;
                while let Some((t, _)) = q.pop() {
                    sum = sum.wrapping_add(t.as_ps());
                }
                black_box(sum)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_cancel(c: &mut Criterion) {
    let mut group = c.benchmark_group("cancel_in_4k_pending");
    group.bench_function("calendar_tombstone", |b| {
        b.iter_batched_ref(
            || {
                let mut rng = Rng::new(42);
                let mut q = EventQueue::new();
                let ids: Vec<_> = (0..4_096u64)
                    .map(|i| q.schedule(SimTime::from_ps(rng.next_below(GAP_PS)), i))
                    .collect();
                (q, ids)
            },
            |(q, ids)| black_box(q.cancel(ids[2_048])),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_hold, bench_burst, bench_cancel);
criterion_main!(benches);
