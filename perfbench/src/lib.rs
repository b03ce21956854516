//! End-to-end host-time benchmark of the Jord simulator.
//!
//! Two workloads drive the simulator through its public APIs and time it
//! on the host: [`worker`] (`worker-paper`) and [`soak`]
//! (`soak-sanitize`). A timed run reports host µs per simulated
//! invocation, set-up seconds and peak RSS; a separate traced run reports
//! per-layer counters and span times. Every
//! simulated run's outputs are checked: its request and memory ledgers
//! balance, its digest repeats across passes and across the traced run,
//! and at the default seed it equals the digest pinned in [`pins`].
//! See `README.md` in this directory for the metric definitions.

pub mod check;
pub mod measure;
pub mod pins;
pub mod soak;
pub mod trace;
pub mod worker;

use std::path::PathBuf;
use std::time::Duration;

use check::Checker;
use jord_core::{AutoscaleStats, FailoverStats, MemoryLedger, SanitizeStats};
use jord_sim::QueueProbe;
use measure::{ratio, Phases};

/// The seed the digests in [`pins`] were taken at.
pub const DEFAULT_SEED: u64 = 42;

/// The end-to-end metrics of the final JSON line of a timed run, with
/// units. Each is measured on every workload.
pub const END_TO_END: [(&str, &str); 3] = [
    ("host_us_per_inv", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics of the final JSON line of a traced run, with
/// units. Each is measured on every workload; on `worker-paper` the
/// counters are Jord's.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("workloads.build_s", "s"),
    ("workloads.arrivals_s", "s"),
    ("core.new_s", "s"),
    ("core.push_s", "s"),
    ("sim.queue.pops_per_inv", "count/inv"),
    ("sim.queue.rebucketed_per_pop", "count/pop"),
    ("sim.queue.sorts_per_pop", "count/pop"),
    ("sim.queue.overflowed_per_pop", "count/pop"),
    ("sanitize.per_inv", "count/inv"),
    ("sanitize.pooled_frac", "ratio"),
    ("sanitize.repairs_per_inv", "count/inv"),
    ("memory.pool_evictions_per_inv", "count/inv"),
    ("memory.compactions_per_inv", "count/inv"),
    ("memory.compacted_slots_per_inv", "count/inv"),
    ("memory.pressure_transitions", "count"),
    ("cluster.heartbeats_per_inv", "count/inv"),
    ("autoscale.windows", "count"),
    ("autoscale.scale_events", "count"),
    ("autoscale.peak_workers", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// One worker server per (app, system), four apps × four systems.
    WorkerPaper,
    /// A diurnal week with sanitize-and-pool, governor and autoscaler on,
    /// sequential and 2-thread.
    SoakSanitize,
}

impl WorkloadName {
    /// Every workload, in the order the docs list them.
    pub const ALL: [WorkloadName; 2] = [WorkloadName::WorkerPaper, WorkloadName::SoakSanitize];

    /// The name given on the command line.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadName::WorkerPaper => "worker-paper",
            WorkloadName::SoakSanitize => "soak-sanitize",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<WorkloadName> {
        WorkloadName::ALL.into_iter().find(|w| w.label() == s)
    }
}

/// How much simulated work one pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's size.
    Standard,
    /// A few requests per run, for the smoke test.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: WorkloadName,
    /// Seed of every generated input.
    pub seed: u64,
    /// Host time a timed run spends measuring.
    pub seconds: f64,
    /// Run the traced per-layer run instead of the timed one.
    pub trace: bool,
    /// Pass size.
    pub scale: Scale,
    /// Where the traced run writes its spans and step records.
    pub trace_dir: PathBuf,
}

impl Options {
    /// The time budget as a `Duration`.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }

    /// Whether this run's digests must equal the pinned ones.
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one benchmark invocation measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every metric, in the order measured.
    pub metrics: Vec<Metric>,
    /// The output checks of every simulated run.
    pub checker: Checker,
    /// Each simulated run's digest, by label, from the first pass.
    pub digests: Vec<(String, u64)>,
    /// Per-pass values behind each median, by metric name.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Where the traced run's records went, if written.
    pub trace_file: Option<PathBuf>,
}

impl Report {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records the median of per-pass `values` as a metric, keeping the
    /// values themselves.
    pub fn put_median(&mut self, name: impl Into<String>, values: Vec<f64>, unit: &'static str) {
        let name = name.into();
        self.put(name.clone(), measure::median(&values), unit);
        self.samples.push((name, values));
    }

    /// Records one simulated run's checks: its ledger `problems`, plus its
    /// digest against `reference` (an earlier run of the same inputs) or,
    /// without one, against the pin when running at the default seed.
    pub fn check_run(
        &mut self,
        opts: &Options,
        label: &str,
        mut problems: Vec<String>,
        digest: u64,
        reference: Option<u64>,
    ) {
        match reference {
            Some(want) => problems.extend(Checker::same("reference", digest, want)),
            None => {
                self.digests.push((label.to_string(), digest));
                if opts.pinned() {
                    problems.extend(pins::check(opts.scale, label, digest));
                }
            }
        }
        self.checker.record(label, problems);
    }

    /// Records `peak_rss_mib` the first time it is called: the peak RSS of
    /// one pass. Later passes reuse the heap but fragment it, so the peak
    /// at exit grows with the number of passes — that is, with host speed.
    pub fn note_peak_rss(&mut self) {
        if self.get("peak_rss_mib").is_none() {
            self.put("peak_rss_mib", measure::peak_rss_mib(), "MiB");
        }
    }

    /// The value of the metric called `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Simulated runs whose output check failed ÷ simulated runs attempted.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.checker.failed() as f64, self.checker.attempted as f64)
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checker.failures.is_empty() && self.checker.attempted > 0
    }

    /// The result object: `correct`, `attempted`, `failed` and the named
    /// metrics (`names`, with their units) as JSON on one line. A metric
    /// that was not measured is left out, which the caller treats as a
    /// failure.
    pub fn json_line(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .filter_map(|&(name, unit)| {
                self.get(name).map(|v| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        json_num(v)
                    )
                })
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checker.attempted,
            self.checker.failed(),
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (full precision); non-finite values become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Report {
    let mut report = match opts.workload {
        WorkloadName::WorkerPaper => worker::run(opts),
        WorkloadName::SoakSanitize => soak::run(opts),
    };
    if !opts.trace {
        report.put("peak_rss_mib.exit", measure::peak_rss_mib(), "MiB");
    }
    report.put("failed_frac", report.failed_frac(), "ratio");
    report
}

/// The per-layer counters every workload reports, summed over the runs
/// of one system (or one cluster run).
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Simulated invocations.
    pub invocations: u64,
    /// Event-queue op counters, where the server exposes them.
    pub probe: Option<QueueProbe>,
    /// Sanitization counters.
    pub sanitize: SanitizeStats,
    /// Memory-governor activity (from the sealed ledgers).
    pub memory: MemoryLedger,
    /// Failover counters (heartbeats).
    pub failover: FailoverStats,
    /// Autoscaler counters.
    pub autoscale: AutoscaleStats,
}

impl LayerCounts {
    /// Adds one worker run's counters.
    pub fn add_run(&mut self, rep: &jord_core::RunReport, probe: Option<QueueProbe>) {
        self.invocations += rep.invocations;
        if let Some(p) = probe {
            self.probe.get_or_insert_with(QueueProbe::default).merge(&p);
        }
        self.add_sanitize(&rep.sanitize);
        self.memory.merge(&rep.memory);
        self.failover.merge(&rep.failover);
        self.autoscale.merge_worker(&rep.autoscale);
    }

    /// The counters of a whole cluster run: fleet-merged ledgers and
    /// probe, workers' sanitization and the dispatcher's control plane.
    pub fn of_cluster(rep: &jord_core::ClusterReport) -> LayerCounts {
        let mut c = LayerCounts::default();
        for w in &rep.workers {
            c.invocations += w.invocations;
            c.add_sanitize(&w.sanitize);
        }
        c.probe = Some(rep.probe);
        c.memory = rep.memory;
        c.failover = rep.failover;
        c.autoscale = rep.autoscale;
        c
    }

    fn add_sanitize(&mut self, o: &SanitizeStats) {
        let s = &mut self.sanitize;
        s.pooled_setups += o.pooled_setups;
        s.full_setups += o.full_setups;
        s.sanitizations += o.sanitizations;
        s.repairs += o.repairs;
    }

    /// Records the event-queue counters, if the server exposes them,
    /// under their names + `suffix`.
    pub fn put_queue(&self, report: &mut Report, suffix: &str) {
        let inv = self.invocations as f64;
        let mut put = |name: &str, v: f64, unit| report.put(format!("{name}{suffix}"), v, unit);
        if let Some(p) = self.probe {
            let pops = p.popped as f64;
            put("sim.queue.pops_per_inv", ratio(pops, inv), "count/inv");
            put(
                "sim.queue.rebucketed_per_pop",
                ratio(p.rebucketed as f64, pops),
                "count/pop",
            );
            put(
                "sim.queue.sorts_per_pop",
                ratio(p.sorts as f64, pops),
                "count/pop",
            );
            put(
                "sim.queue.overflowed_per_pop",
                ratio(p.overflowed as f64, pops),
                "count/pop",
            );
        }
    }

    /// Records the [`PER_LAYER`] counters under their names + `suffix`.
    pub fn put(&self, report: &mut Report, suffix: &str) {
        self.put_queue(report, suffix);
        let inv = self.invocations as f64;
        let mut put = |name: &str, v: f64, unit| report.put(format!("{name}{suffix}"), v, unit);
        let s = &self.sanitize;
        put(
            "sanitize.per_inv",
            ratio(s.sanitizations as f64, inv),
            "count/inv",
        );
        put(
            "sanitize.pooled_frac",
            ratio(
                s.pooled_setups as f64,
                (s.pooled_setups + s.full_setups) as f64,
            ),
            "ratio",
        );
        put(
            "sanitize.repairs_per_inv",
            ratio(s.repairs as f64, inv),
            "count/inv",
        );
        let m = &self.memory;
        put(
            "memory.pool_evictions_per_inv",
            ratio(m.pool_evictions as f64, inv),
            "count/inv",
        );
        put(
            "memory.compactions_per_inv",
            ratio(m.compactions as f64, inv),
            "count/inv",
        );
        put(
            "memory.compacted_slots_per_inv",
            ratio(m.compacted_slots as f64, inv),
            "count/inv",
        );
        put(
            "memory.pressure_transitions",
            m.pressure_transitions as f64,
            "count",
        );
        put(
            "cluster.heartbeats_per_inv",
            ratio(self.failover.heartbeats_sent as f64, inv),
            "count/inv",
        );
        let a = &self.autoscale;
        put("autoscale.windows", a.windows as f64, "count");
        put(
            "autoscale.scale_events",
            (a.scale_ups + a.scale_downs) as f64,
            "count",
        );
        put("autoscale.peak_workers", a.peak_workers as f64, "count");
    }
}

/// Writes the tracer's records under the trace directory; a write error
/// is reported on stderr and does not fail the benchmark.
pub fn write_trace(tracer: &trace::Tracer, opts: &Options) -> Option<PathBuf> {
    let path = opts
        .trace_dir
        .join(format!("{}-seed{}.jsonl", opts.workload.label(), opts.seed));
    match tracer.write(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("perfbench: could not write {}: {e}", path.display());
            None
        }
    }
}

/// Records the set-up phase metrics of the traced pass.
pub fn put_phases(report: &mut Report, p: &Phases) {
    report.put("workloads.build_s", p.build_s, "s");
    report.put("workloads.arrivals_s", p.arrivals_s, "s");
    report.put("core.new_s", p.new_s, "s");
    report.put("core.push_s", p.push_s, "s");
}
