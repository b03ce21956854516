//! Smoke test at tiny scale: every workload, timed and traced, at the
//! default seed (digests pinned) and at a second seed (only the
//! seed-independent checks), prints every named metric with its unit and
//! passes its output checks.

use std::path::PathBuf;
use std::process::Command;

use perfbench::{Options, Scale, WorkloadName, DEFAULT_SEED, END_TO_END, PER_LAYER};

const OTHER_SEED: u64 = 7;

fn opts(workload: WorkloadName, seed: u64, trace: bool) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    }
}

/// Metric names (with units) listed under `key` in the repository's
/// `BENCHMARK.json`.
fn benchmark_json_metrics(key: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("list closes")];
    let field = |obj: &str, name: &str| -> String {
        let at = obj.find(&format!("\"{name}\": \"")).expect("field present") + name.len() + 5;
        obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
    };
    section
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(benchmark_json_metrics("end_to_end"), owned(&END_TO_END));
    assert_eq!(benchmark_json_metrics("per_layer"), owned(&PER_LAYER));
}

const SYSTEMS: [&str; 4] = ["jord", "jord_ni", "jord_bt", "nightcore"];
const STEPPED: [&str; 3] = ["jord", "jord_ni", "jord_bt"];
const OP_KINDS: [&str; 9] = [
    "mmap",
    "munmap",
    "mprotect",
    "ptransfer",
    "cget",
    "cput",
    "cswitch",
    "walk",
    "compact",
];

/// Every metric a workload prints beyond its JSON line's, with units.
fn extras(workload: WorkloadName, trace: bool) -> Vec<(String, &'static str)> {
    let mut out = vec![("failed_frac".to_string(), "ratio")];
    let mut add = |name: String, unit| out.push((name, unit));
    match (workload, trace) {
        (WorkloadName::WorkerPaper, false) => {
            for sfx in SYSTEMS {
                add(format!("setup_s.{sfx}"), "s");
            }
            for sfx in &SYSTEMS[1..] {
                add(format!("host_us_per_inv.{sfx}"), "us");
            }
        }
        (WorkloadName::WorkerPaper, true) => {
            add("nightcore.run_s".into(), "s");
            for sfx in STEPPED {
                add(format!("core.steps_per_inv.{sfx}"), "count/inv");
                add(format!("core.step_us.p50.{sfx}"), "us");
                add(format!("core.step_us.samples.{sfx}"), "count");
                add(format!("privlib.teardown_step_us.{sfx}"), "us");
                add(format!("privlib.map_step_us.{sfx}"), "us");
                add(format!("core.quiet_step_us.{sfx}"), "us");
                add(format!("core.trace_events_per_inv.{sfx}"), "count/inv");
                for kind in OP_KINDS {
                    add(format!("privlib.ops_per_inv.{kind}.{sfx}"), "count/inv");
                }
                add(format!("sim.queue.pops_per_inv.{sfx}"), "count/inv");
                add(format!("sim.queue.rebucketed_per_pop.{sfx}"), "count/pop");
                add(format!("sim.queue.sorts_per_pop.{sfx}"), "count/pop");
                add(format!("sim.queue.overflowed_per_pop.{sfx}"), "count/pop");
            }
            for sfx in SYSTEMS {
                add(format!("hw.coherence.accesses_per_inv.{sfx}"), "count/inv");
                add(
                    format!("hw.coherence.invalidations_per_inv.{sfx}"),
                    "count/inv",
                );
                add(format!("hw.vtd.shootdowns_per_inv.{sfx}"), "count/inv");
                add(format!("hw.vtd.fallback_frac.{sfx}"), "ratio");
                add(format!("hw.vlb.i_hit_ratio.{sfx}"), "ratio");
                add(format!("hw.vlb.d_hit_ratio.{sfx}"), "ratio");
                add(format!("trace.overhead_frac.{sfx}"), "ratio");
            }
        }
        (WorkloadName::SoakSanitize, false) => add("host_us_per_inv.par2".into(), "us"),
        (WorkloadName::SoakSanitize, true) => {
            add("cluster.run_s.seq".into(), "s");
            add("cluster.run_s.par2".into(), "s");
            add("cluster.par2_speedup".into(), "ratio");
        }
    }
    out
}

/// Whether `report` holds a step-time tail percentile of `sfx` beyond p50.
fn has_step_tail(report: &perfbench::Report, sfx: &str) -> bool {
    report.metrics.iter().any(|m| {
        m.unit == "us"
            && m.name.starts_with("core.step_us.p9")
            && m.name.ends_with(&format!(".{sfx}"))
    })
}

fn smoke(workload: WorkloadName) {
    for seed in [DEFAULT_SEED, OTHER_SEED] {
        for trace in [false, true] {
            let report = perfbench::run(&opts(workload, seed, trace));
            let what = format!("{} seed {seed} trace {trace}", workload.label());
            assert!(report.correct(), "{what}: {:?}", report.checker.failures);
            assert!(report.checker.attempted > 0, "{what}: ran nothing");
            assert_eq!(report.get("failed_frac"), Some(0.0), "{what}");
            let listed = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let extras = extras(workload, trace);
            let named = listed.iter().map(|&(n, u)| (n.to_string(), u));
            for (name, unit) in named.chain(extras) {
                let m = report
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{what}: {name} not printed"));
                assert_eq!(m.unit, unit, "{what}: {name}");
                assert!(m.value.is_finite(), "{what}: {name} = {}", m.value);
            }
            if workload == WorkloadName::WorkerPaper && trace {
                for sfx in STEPPED {
                    assert!(has_step_tail(&report, sfx), "{what}: no step tail");
                }
            }
            let line = report.json_line(listed);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for &(name, unit) in listed {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{line}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
            }
        }
    }
}

#[test]
fn worker_paper_smoke() {
    smoke(WorkloadName::WorkerPaper);
}

#[test]
fn soak_sanitize_smoke() {
    smoke(WorkloadName::SoakSanitize);
}

#[test]
fn command_prints_the_result_last_and_rejects_bad_arguments() {
    let exe = env!("CARGO_BIN_EXE_perfbench");
    let out = Command::new(exe)
        .args([
            "--workload",
            "soak-sanitize",
            "--seed",
            "3",
            "--seconds",
            "0",
        ])
        .args(["--trace", "0", "--scale", "tiny", "--trace-dir"])
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    assert!(stdout.contains("metric host_us_per_inv "), "{stdout}");

    let bad = Command::new(exe)
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("benchmark binary runs");
    assert!(!bad.status.success());
    assert!(bad.stdout.is_empty() || !String::from_utf8_lossy(&bad.stdout).contains("\"correct\""));
}
