//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload worker-paper --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Prints every metric as `metric <name> <value> <unit>`, each run's
//! digest, any failed check, and as its last line the JSON result object.
//! Exits non-zero if any output check failed.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Options, Scale, WorkloadName, DEFAULT_SEED, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <worker-paper|soak-sanitize> \
[--seed N] [--seconds S] [--trace 0|1] [--scale standard|tiny] [--trace-dir DIR]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: WorkloadName::WorkerPaper,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Standard,
        trace_dir: PathBuf::from(".bench_trace"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadName::parse(value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--scale" => {
                opts.scale = match value.as_str() {
                    "standard" => Scale::Standard,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("scale")),
                }
            }
            "--trace-dir" => opts.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} scale={:?} available_parallelism={threads}",
        opts.workload.label(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.scale,
    );
    let report = perfbench::run(&opts);
    for (label, digest) in &report.digests {
        println!("digest {label} {digest:#018x}");
    }
    for (name, values) in &report.samples {
        let values: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
        println!("passes {name} {}", values.join(" "));
    }
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &report.trace_file {
        println!("trace written to {}", path.display());
    }
    for f in &report.checker.failures {
        println!("FAIL {f}");
    }
    let names: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> = names
        .iter()
        .map(|&(n, _)| n)
        .filter(|n| report.get(n).is_none())
        .collect();
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {}", missing.join(", "));
        return ExitCode::FAILURE;
    }
    println!("{}", report.json_line(names));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
