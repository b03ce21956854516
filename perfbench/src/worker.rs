//! `worker-paper`: one worker server per (app, system) — the four paper
//! apps at open-loop Poisson rates below their Figure 9 knees, on Jord,
//! Jord_NI, Jord_BT and enhanced NightCore. The per-invocation path with
//! shallow queues and no cluster code.

use jord_core::{RunReport, RuntimeConfig, SystemVariant, WorkerServer};
use jord_hw::MachineConfig;
use jord_nightcore::{NightCoreConfig, NightCoreServer};
use jord_privlib::OpKind;
use jord_sim::QueueProbe;
use jord_workloads::{LoadGen, System, Workload, WorkloadKind};

use crate::check::{run_digest, run_problems};
use crate::measure::{
    median, quantile_sorted, ratio, repeat, setup_samples, tail_quantile, timed, Phases,
};
use crate::trace::{phase, Counters, Ctx, Tracer};
use crate::{put_phases, write_trace, LayerCounts, Options, Report, Scale};

/// The apps and their offered loads (requests/second).
pub const APPS: [(WorkloadKind, f64); 4] = [
    (WorkloadKind::Hipster, 4.0e6),
    (WorkloadKind::Hotel, 2.0e6),
    (WorkloadKind::Media, 1.0e6),
    (WorkloadKind::Social, 0.4e6),
];

/// The systems, in metric order.
pub const SYSTEMS: [System; 4] = [
    System::Jord,
    System::JordNi,
    System::JordBt,
    System::NightCore,
];

/// Fewest rounds (one pass of every system) in a timed run.
const MIN_ROUNDS: usize = 3;

/// Metric-name suffix of a system.
pub fn suffix(sys: System) -> &'static str {
    match sys {
        System::Jord => "jord",
        System::JordNi => "jord_ni",
        System::JordBt => "jord_bt",
        System::NightCore => "nightcore",
    }
}

/// Measured requests per app in one pass of `sys`. The cheaper systems
/// simulate more requests so each system's pass costs a similar amount
/// of host time.
pub fn requests(sys: System, scale: Scale) -> usize {
    match (scale, sys) {
        (Scale::Tiny, _) => 6,
        (Scale::Standard, System::Jord | System::JordNi) => 10,
        (Scale::Standard, System::JordBt) => 100,
        (Scale::Standard, System::NightCore) => 1_000,
    }
}

enum Server {
    Jord(Box<WorkerServer>),
    Night(Box<NightCoreServer>),
}

impl Server {
    fn new(sys: System, seed: u64, w: &Workload) -> Server {
        let machine = MachineConfig::isca25();
        let variant = match sys {
            System::NightCore => {
                let mut cfg = NightCoreConfig::on(machine);
                cfg.seed = seed;
                let server = NightCoreServer::new(cfg, w.registry.clone())
                    .expect("the default NightCore configuration is valid");
                return Server::Night(Box::new(server));
            }
            System::Jord => SystemVariant::Jord,
            System::JordNi => SystemVariant::JordNi,
            System::JordBt => SystemVariant::JordBt,
        };
        let cfg = RuntimeConfig::variant_on(variant, machine).with_seed(seed);
        Server::Jord(Box::new(
            WorkerServer::new(cfg, w.registry.clone())
                .expect("the default Jord configuration is valid"),
        ))
    }
}

/// One simulated (app, system) run.
struct RunOut {
    phases: Phases,
    /// Host seconds of the simulation phase.
    run_s: f64,
    report: RunReport,
    digest: u64,
    /// Cumulative counters at the end of the run.
    counters: Counters,
    probe: Option<QueueProbe>,
}

fn label(kind: WorkloadKind, sys: System) -> String {
    format!("worker-paper/{}/{}", kind.name(), sys.label())
}

/// Builds one (app, system) server and pushes its arrivals into it, each
/// phase timed (and a span when tracing).
fn prepare(
    sys: System,
    kind: WorkloadKind,
    rate: f64,
    n: usize,
    seed: u64,
    ctx: &mut Ctx<'_>,
) -> (Server, Phases) {
    let (w, build_s) = phase(ctx, "build", || Workload::build(kind));
    let (arrivals, arrivals_s) = phase(ctx, "arrivals", || {
        LoadGen::new(&w, seed)
            .expect("the paper apps have sampleable mixes")
            .arrivals(rate, n)
    });
    let (mut server, new_s) = phase(ctx, "new", || Server::new(sys, seed, &w));
    let ((), push_s) = phase(ctx, "push", || {
        for (t, f, b) in arrivals {
            match &mut server {
                Server::Jord(s) => s.push_request(t, f, b),
                Server::Night(s) => s.push_request(t, f, b),
            }
        }
    });
    let phases = Phases {
        build_s,
        arrivals_s,
        new_s,
        push_s,
    };
    (server, phases)
}

/// Builds, loads and runs one (app, system) server. With a tracer, every
/// phase is a span under the run span and a Jord server is stepped.
fn run_one(
    sys: System,
    kind: WorkloadKind,
    rate: f64,
    n: usize,
    seed: u64,
    mut ctx: Ctx<'_>,
) -> RunOut {
    let (server, phases) = prepare(sys, kind, rate, n, seed, &mut ctx);
    match server {
        Server::Jord(mut s) => {
            let (report, run_s) = match ctx {
                Some((tracer, parent)) => timed(|| {
                    tracer.span("begin", parent, || s.begin());
                    tracer.step_all(&mut s, parent);
                    tracer.span("seal", parent, || s.seal()).0
                }),
                None => timed(|| s.run()),
            };
            RunOut {
                phases,
                run_s,
                digest: run_digest(&report, s.trace_hash()),
                report,
                counters: Counters::read(&s),
                probe: Some(s.queue_probe()),
            }
        }
        Server::Night(mut s) => {
            let (report, run_s) = phase(&mut ctx, "run", || s.run());
            RunOut {
                phases,
                run_s,
                digest: run_digest(&report, 0),
                report,
                counters: Counters::from_machine(&s.machine().stats()),
                probe: None,
            }
        }
    }
}

/// Set-up seconds of one pass of `sys` over the four apps, without
/// running the servers.
fn setup_only(sys: System, opts: &Options) -> f64 {
    let n = requests(sys, opts.scale);
    APPS.iter()
        .map(|&(kind, rate)| prepare(sys, kind, rate, n, opts.seed, &mut None).1.total())
        .sum()
}

/// One pass of `sys` over the four apps, untraced.
fn pass(sys: System, opts: &Options) -> Vec<RunOut> {
    let n = requests(sys, opts.scale);
    APPS.iter()
        .map(|&(kind, rate)| run_one(sys, kind, rate, n, opts.seed, None))
        .collect()
}

/// Simulation time and invocations summed over a pass.
fn totals(runs: &[RunOut]) -> (f64, u64) {
    runs.iter().fold((0.0, 0), |(r, i), o| {
        (r + o.run_s, i + o.report.invocations)
    })
}

/// Runs `worker-paper` as `opts` asks.
pub fn run(opts: &Options) -> Report {
    if opts.trace {
        traced(opts)
    } else {
        timed_run(opts)
    }
}

fn timed_run(opts: &Options) -> Report {
    let mut report = Report::default();
    let mut setup_s = 0.0;
    for sys in SYSTEMS {
        let setups = setup_samples(|| setup_only(sys, opts));
        setup_s += median(&setups);
        report.put_median(format!("setup_s.{}", suffix(sys)), setups, "s");
    }
    report.put("setup_s", setup_s, "s");
    // Passes go round-robin over the systems, so every system samples the
    // host across the whole run.
    let mut passes: [Vec<f64>; 4] = Default::default();
    let mut reference: [Vec<u64>; 4] = Default::default();
    repeat(opts.budget(), MIN_ROUNDS, || {
        for (i, sys) in SYSTEMS.into_iter().enumerate() {
            let runs = pass(sys, opts);
            for (j, (out, &(kind, _))) in runs.iter().zip(&APPS).enumerate() {
                report.check_run(
                    opts,
                    &label(kind, sys),
                    run_problems(&out.report),
                    out.digest,
                    reference[i].get(j).copied(),
                );
            }
            if reference[i].is_empty() {
                reference[i] = runs.iter().map(|o| o.digest).collect();
            }
            let (run_s, invocations) = totals(&runs);
            passes[i].push(run_s * 1e6 / invocations as f64);
        }
        report.note_peak_rss();
    });
    for (sys, passes) in SYSTEMS.into_iter().zip(passes) {
        let name = match sys {
            System::Jord => "host_us_per_inv".to_string(),
            _ => format!("host_us_per_inv.{}", suffix(sys)),
        };
        report.put_median(name, passes, "us");
    }
    report
}

fn traced(opts: &Options) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::default();
    let mut phases = Phases::default();
    for sys in SYSTEMS {
        let n = requests(sys, opts.scale);
        let untraced = pass(sys, opts);
        let first_step = tracer.steps.len();
        let mut runs = Vec::new();
        for (u, &(kind, rate)) in untraced.iter().zip(&APPS) {
            let label = label(kind, sys);
            report.check_run(opts, &label, run_problems(&u.report), u.digest, None);
            let root = tracer.open(format!("run {}/{}", kind.name(), sys.label()), None);
            let out = run_one(sys, kind, rate, n, opts.seed, Some((&mut tracer, root)));
            tracer.close(root);
            report.check_run(
                opts,
                &format!("{label} traced"),
                run_problems(&out.report),
                out.digest,
                Some(u.digest),
            );
            phases.add(&out.phases);
            runs.push(out);
        }
        put_system_layers(&mut report, sys, &runs, &tracer, first_step);
        let (untraced_s, _) = totals(&untraced);
        let (traced_s, _) = totals(&runs);
        let overhead = traced_s / untraced_s - 1.0;
        report.put(
            format!("trace.overhead_frac.{}", suffix(sys)),
            overhead,
            "ratio",
        );
        if sys == System::Jord {
            report.put("trace.overhead_frac", overhead, "ratio");
        }
    }
    put_phases(&mut report, &phases);
    report.trace_file = write_trace(&tracer, opts);
    report
}

/// The traced pass's per-layer metrics of one system, suffixed with its
/// name (and, for Jord, also unsuffixed: the JSON line's counters).
fn put_system_layers(
    report: &mut Report,
    sys: System,
    runs: &[RunOut],
    tracer: &Tracer,
    first_step: usize,
) {
    let sfx = suffix(sys);
    let mut layers = LayerCounts::default();
    let mut total = Counters::default();
    for out in runs {
        layers.add_run(&out.report, out.probe);
        total = total.plus(&out.counters);
    }
    let inv = layers.invocations as f64;
    let mut put = |name: String, v: f64, unit: &'static str| report.put(name, v, unit);

    if sys == System::NightCore {
        let run_s: f64 = runs.iter().map(|o| o.run_s).sum();
        put("nightcore.run_s".into(), run_s, "s");
    } else {
        let steps = &tracer.steps[first_step..];
        let mut us: Vec<f64> = steps.iter().map(|(_, r)| r.ns as f64 / 1e3).collect();
        us.sort_by(f64::total_cmp);
        let (q, tail) = tail_quantile(us.len());
        put(
            format!("core.steps_per_inv.{sfx}"),
            ratio(us.len() as f64, inv),
            "count/inv",
        );
        put(
            format!("core.step_us.p50.{sfx}"),
            quantile_sorted(&us, 0.5),
            "us",
        );
        put(
            format!("core.step_us.{tail}.{sfx}"),
            quantile_sorted(&us, q),
            "us",
        );
        put(
            format!("core.step_us.samples.{sfx}"),
            us.len() as f64,
            "count",
        );
        let mean_us = |keep: &dyn Fn(&Counters) -> bool| {
            let sel: Vec<f64> = steps
                .iter()
                .filter(|(_, r)| keep(&r.delta))
                .map(|(_, r)| r.ns as f64 / 1e3)
                .collect();
            ratio(sel.iter().sum(), sel.len() as f64)
        };
        put(
            format!("privlib.teardown_step_us.{sfx}"),
            mean_us(&|d| d.op(OpKind::Cput) > 0),
            "us",
        );
        put(
            format!("privlib.map_step_us.{sfx}"),
            mean_us(&|d| d.op(OpKind::Mmap) > 0),
            "us",
        );
        put(
            format!("core.quiet_step_us.{sfx}"),
            mean_us(&|d| !d.any_op()),
            "us",
        );
        put(
            format!("core.trace_events_per_inv.{sfx}"),
            ratio(total.trace as f64, inv),
            "count/inv",
        );
        for kind in OpKind::ALL {
            let name = format!("{kind:?}").to_lowercase();
            put(
                format!("privlib.ops_per_inv.{name}.{sfx}"),
                ratio(total.op(kind) as f64, inv),
                "count/inv",
            );
        }
    }
    put(
        format!("hw.coherence.accesses_per_inv.{sfx}"),
        ratio(total.coh_accesses as f64, inv),
        "count/inv",
    );
    put(
        format!("hw.coherence.invalidations_per_inv.{sfx}"),
        ratio(total.coh_invalidations as f64, inv),
        "count/inv",
    );
    let shootdowns = (total.vtd_exact + total.vtd_fallback) as f64;
    put(
        format!("hw.vtd.shootdowns_per_inv.{sfx}"),
        ratio(shootdowns, inv),
        "count/inv",
    );
    put(
        format!("hw.vtd.fallback_frac.{sfx}"),
        ratio(total.vtd_fallback as f64, shootdowns),
        "ratio",
    );
    put(
        format!("hw.vlb.i_hit_ratio.{sfx}"),
        ratio(
            total.ivlb_hits as f64,
            (total.ivlb_hits + total.ivlb_misses) as f64,
        ),
        "ratio",
    );
    put(
        format!("hw.vlb.d_hit_ratio.{sfx}"),
        ratio(
            total.dvlb_hits as f64,
            (total.dvlb_hits + total.dvlb_misses) as f64,
        ),
        "ratio",
    );
    layers.put_queue(report, &format!(".{sfx}"));
    if sys == System::Jord {
        layers.put(report, "");
    }
}
