//! Engine benchmark + determinism gate (see README "Engine bench").
//!
//! Runs an 8-worker cluster-scale campaign on the sequential and parallel
//! engines. The autoscale golden replay lives in
//! `crates/workloads/tests/engine_determinism.rs`; host cost per simulated
//! invocation is measured by `perfbench`.
//!
//! This is a CI gate, not just a report. It exits nonzero unless the
//! campaign pops the identical trace hash at every thread count in
//! {1, 2, 4, 8}, and — on machines with ≥ 4 cores — runs ≥ 2× faster at
//! 4 threads than sequentially (the gate self-skips with an annotation on
//! smaller runners; a 1-core box cannot demonstrate wall-clock
//! parallelism).
//!
//! Emits `BENCH_engine.json` with every number printed.
//!
//! ```sh
//! cargo run --release --example engine_bench
//! ```

use std::time::Instant;

use jord_core::{ClusterConfig, ClusterDispatcher, EngineConfig, RuntimeConfig, SystemVariant};
use jord_hw::MachineConfig;
use jord_workloads::{LoadGen, Workload, WorkloadKind};

/// Acceptance bar: 4 threads ≥ 2× sequential on the cluster-scale
/// campaign, enforced only where the hardware can express it.
const GATE_PARALLEL_SPEEDUP: f64 = 2.0;
/// Minimum cores for the parallel-speedup gate to be meaningful.
const GATE_PARALLEL_MIN_CORES: usize = 4;

/// One cluster-scale run: 8 workers, a burst far beyond their
/// instantaneous capacity (deep queues keep every shard busy between
/// barriers), on the sequential engine (`threads == None`) or the
/// conservative parallel engine.
fn cluster_scale(hotel: &Workload, threads: Option<usize>) -> (f64, u64, u64) {
    const WORKERS: usize = 8;
    const SEED: u64 = 42;
    const RATE_RPS: f64 = 8.0e6;
    const REQUESTS: usize = 12_000;
    let template =
        RuntimeConfig::variant_on(SystemVariant::Jord, MachineConfig::isca25()).with_seed(SEED);
    let mut cfg = ClusterConfig::new(WORKERS, SEED, template);
    cfg.engine = threads.map(EngineConfig::threads);
    let mut cluster =
        ClusterDispatcher::new(cfg, hotel.registry.clone()).expect("valid cluster config");
    let mut gen = LoadGen::new(hotel, SEED).expect("workload mix is sampleable");
    for (t, f, b) in gen.arrivals(RATE_RPS, REQUESTS) {
        cluster.push_request(t, f, b);
    }
    let start = Instant::now();
    let rep = cluster.run();
    (start.elapsed().as_secs_f64(), rep.trace_hash, rep.completed)
}

fn main() {
    println!("== cluster-scale campaign (8 workers, sequential vs parallel engine) ==");
    let hotel = Workload::build(WorkloadKind::Hotel);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (seq_wall, seq_trace, seq_completed) = cluster_scale(&hotel, None);
    println!(
        "sequential: {seq_completed} requests in {seq_wall:.2}s wall, trace 0x{seq_trace:016x}"
    );
    let mut scale_rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (wall, trace_t, completed_t) = cluster_scale(&hotel, Some(threads));
        assert_eq!(
            trace_t, seq_trace,
            "{threads}-thread cluster-scale run diverged from the sequential trace"
        );
        assert_eq!(completed_t, seq_completed);
        let speedup = seq_wall / wall;
        println!(
            "{threads:>2} threads: {completed_t} requests in {wall:.2}s wall \
             (speedup {speedup:>5.2}x), trace bit-identical"
        );
        scale_rows.push((threads, wall, speedup));
    }
    let speedup_4t = scale_rows
        .iter()
        .find(|&&(t, _, _)| t == 4)
        .map(|&(_, _, s)| s)
        .expect("4-thread row");
    let parallel_gate = if cores >= GATE_PARALLEL_MIN_CORES {
        assert!(
            speedup_4t >= GATE_PARALLEL_SPEEDUP,
            "4-thread cluster-scale speedup {speedup_4t:.2}x is below the \
             {GATE_PARALLEL_SPEEDUP:.1}x acceptance bar on a {cores}-core machine"
        );
        format!("\"enforced ({cores} cores)\"")
    } else {
        // Bit-identity was still gated above; only the wall-clock claim
        // needs real cores.
        println!(
            "parallel speedup gate SKIPPED: {cores} core(s) available, \
             need >= {GATE_PARALLEL_MIN_CORES} to measure wall-clock parallelism"
        );
        format!("\"skipped ({cores} core(s): cannot express parallelism)\"")
    };

    let json = format!(
        "{{\n  \"cluster_scale\": {{\n    \"workers\": 8,\n    \"requests\": {seq_completed},\n    \
         \"cores\": {cores},\n    \"sequential_wall_s\": {seq_wall:.3},\n    \
         \"speedup_gate\": {parallel_gate},\n    \"threads\": [\n{}\n    ]\n  }}\n}}\n",
        scale_rows
            .iter()
            .map(|(t, wall, speedup)| format!(
                "      {{ \"threads\": {t}, \"wall_s\": {wall:.3}, \"speedup\": {speedup:.3} }}"
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!();
    println!("wrote BENCH_engine.json");
}
