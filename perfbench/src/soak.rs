//! `soak-sanitize`: one diurnal week of Hotel traffic through the soak
//! campaign's cluster — Jord with sanitize-and-pool on, 2 initial workers
//! autoscaled within 1..=6, amplitude 0.8, a 30 MiB/worker budget — once
//! on the sequential engine and once on the conservative parallel engine
//! with 2 threads. The only workload where PD snapshots, PD pools,
//! governor eviction and compaction, the pressure ladder and the
//! autoscaler run, and the one that drives `ClusterDispatcher`: JSQ
//! routing, heartbeats and the parallel engine.
//!
//! The timed run builds the campaign's cluster itself so that its set-up
//! phases can be timed apart; the traced run checks that this gives the
//! digest of [`SoakCampaign::run_cluster`].

use jord_core::{
    ClusterConfig, ClusterDispatcher, ClusterReport, EngineConfig, RecoveryPolicy, RuntimeConfig,
};
use jord_workloads::{LoadGen, SoakCampaign, Workload, WorkloadKind};

use crate::check::{cluster_digest, cluster_invocations, cluster_problems};
use crate::measure::{repeat, setup_samples, Phases};
use crate::trace::{phase, Ctx, Tracer};
use crate::{put_phases, write_trace, LayerCounts, Options, Report, Scale};

const RATE_RPS: f64 = 2.0e6;
/// A pass simulates the week twice (both engines), about 20 s of host
/// time at the standard size, so a timed run holds few passes.
const MIN_PASSES: usize = 2;
const SEQ: &str = "soak-sanitize";
const PAR2: &str = "soak-sanitize/par2";

/// Requests across the simulated week.
pub fn requests(scale: Scale) -> usize {
    match scale {
        Scale::Standard => 2_000,
        Scale::Tiny => 40,
    }
}

fn campaign(opts: &Options) -> SoakCampaign {
    SoakCampaign::new(RATE_RPS, requests(opts.scale)).seed(opts.seed)
}

/// One simulated cluster run.
struct ClusterOut {
    phases: Phases,
    /// Host seconds of `ClusterDispatcher::run`.
    run_s: f64,
    report: ClusterReport,
    digest: u64,
}

impl ClusterOut {
    /// Host µs per simulated invocation.
    fn us_per_inv(&self) -> f64 {
        self.run_s * 1e6 / cluster_invocations(&self.report) as f64
    }
}

/// A loaded dispatcher that has not run yet, with its set-up times.
struct Prepared {
    cluster: ClusterDispatcher,
    phases: Phases,
}

/// The campaign's cluster on `engine`, loaded phase by phase: the same
/// configuration and arrivals as [`SoakCampaign::run_cluster`].
fn prepare(c: &SoakCampaign, engine: Option<EngineConfig>, ctx: &mut Ctx<'_>) -> Prepared {
    let (w, build_s) = phase(ctx, "build", || Workload::build(WorkloadKind::Hotel));
    let (arrivals, arrivals_s) = phase(ctx, "arrivals", || {
        LoadGen::new(&w, c.seed)
            .expect("Hotel has a sampleable mix")
            .arrivals_with(&c.arrival(), c.rate_rps, c.requests)
    });
    let template = RuntimeConfig::variant_on(c.variant, c.machine.clone())
        .with_seed(c.seed)
        .with_sanitize(true)
        .with_recovery(RecoveryPolicy {
            shed_bound: Some(c.shed_bound),
            ..RecoveryPolicy::default()
        })
        .with_memory(c.memory);
    let mut cfg = ClusterConfig::new(c.workers, c.seed, template);
    cfg.autoscale = Some(c.autoscale);
    cfg.engine = engine;
    let (mut cluster, new_s) = phase(ctx, "new", || {
        ClusterDispatcher::new(cfg, w.registry.clone())
            .expect("the soak campaign's cluster config is valid")
    });
    let ((), push_s) = phase(ctx, "push", || {
        for (t, f, b) in arrivals {
            cluster.push_request(t, f, b);
        }
    });
    let phases = Phases {
        build_s,
        arrivals_s,
        new_s,
        push_s,
    };
    Prepared { cluster, phases }
}

fn run_one(c: &SoakCampaign, engine: Option<EngineConfig>, mut ctx: Ctx<'_>) -> ClusterOut {
    let Prepared {
        mut cluster,
        phases,
    } = prepare(c, engine, &mut ctx);
    let (report, run_s) = phase(&mut ctx, "run", || cluster.run());
    let (digest, _) = phase(&mut ctx, "report", || cluster_digest(&report));
    ClusterOut {
        phases,
        run_s,
        report,
        digest,
    }
}

/// Set-up seconds of one pass (both engines' dispatchers), without
/// running them.
fn setup_only(c: &SoakCampaign) -> f64 {
    [None, Some(EngineConfig::threads(2))]
        .into_iter()
        .map(|engine| prepare(c, engine, &mut None).phases.total())
        .sum()
}

/// Records one cluster run's checks (see [`Report::check_run`]).
fn check(
    report: &mut Report,
    opts: &Options,
    label: &str,
    out: &ClusterOut,
    reference: Option<u64>,
) {
    let problems = cluster_problems(&out.report);
    report.check_run(opts, label, problems, out.digest, reference);
}

/// Runs `soak-sanitize` as `opts` asks.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let c = campaign(opts);
    if opts.trace {
        traced(opts, &c, &mut report);
        return report;
    }
    report.put_median("setup_s", setup_samples(|| setup_only(&c)), "s");
    let mut reference = None;
    let passes = repeat(opts.budget(), MIN_PASSES, || {
        let seq = run_one(&c, None, None);
        check(&mut report, opts, SEQ, &seq, reference);
        let par = run_one(&c, Some(EngineConfig::threads(2)), None);
        // The parallel engine must reproduce the sequential run exactly.
        check(&mut report, opts, PAR2, &par, Some(seq.digest));
        reference.get_or_insert(seq.digest);
        report.note_peak_rss();
        (seq.us_per_inv(), par.us_per_inv())
    });
    report.put_median(
        "host_us_per_inv",
        passes.iter().map(|p| p.0).collect(),
        "us",
    );
    report.put_median(
        "host_us_per_inv.par2",
        passes.iter().map(|p| p.1).collect(),
        "us",
    );
    report
}

fn traced(opts: &Options, c: &SoakCampaign, report: &mut Report) {
    let mut tracer = Tracer::default();
    let untraced = run_one(c, None, None);
    check(report, opts, SEQ, &untraced, None);

    let root = tracer.open(format!("run {SEQ}"), None);
    let seq = run_one(c, None, Some((&mut tracer, root)));
    tracer.close(root);
    check(
        report,
        opts,
        &format!("{SEQ} traced"),
        &seq,
        Some(untraced.digest),
    );
    let root = tracer.open(format!("run {PAR2}"), None);
    let par = run_one(c, Some(EngineConfig::threads(2)), Some((&mut tracer, root)));
    tracer.close(root);
    check(
        report,
        opts,
        &format!("{PAR2} traced"),
        &par,
        Some(untraced.digest),
    );

    // The campaign's own entry point must simulate the same week.
    let root = tracer.open(format!("run {SEQ} run_cluster"), None);
    let w = Workload::build(WorkloadKind::Hotel);
    let ((rep, _), run_s) = tracer.span("run_cluster", root, || c.run_cluster(&w));
    tracer.close(root);
    let campaign_out = ClusterOut {
        phases: Phases::default(),
        run_s,
        digest: cluster_digest(&rep),
        report: rep,
    };
    check(
        report,
        opts,
        &format!("{SEQ} run_cluster"),
        &campaign_out,
        Some(untraced.digest),
    );

    let mut phases = seq.phases;
    phases.add(&par.phases);
    put_phases(report, &phases);
    LayerCounts::of_cluster(&seq.report).put(report, "");
    report.put("cluster.run_s.seq", seq.run_s, "s");
    report.put("cluster.run_s.par2", par.run_s, "s");
    report.put("cluster.par2_speedup", seq.run_s / par.run_s, "ratio");
    report.put(
        "trace.overhead_frac",
        seq.run_s / untraced.run_s - 1.0,
        "ratio",
    );
    report.trace_file = write_trace(&tracer, opts);
}
