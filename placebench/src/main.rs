//! End-to-end placement benchmark.
//!
//! ```text
//! cargo run --release --manifest-path placebench/Cargo.toml -- \
//!     --workload exact-corpus|hybrid-deadline|serve-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints informational lines, then one JSON result as the last line of
//! standard output. With `--trace 0` the result holds every end-to-end
//! metric; with `--trace 1` every per-layer metric, and the spans are
//! written to `placebench/out/`. Exits non-zero on any wrong answer.
//! See README.md for the workloads and metric definitions.

mod calibrate;
mod closed;
mod inputs;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER, UNGATED};

/// How many times each workload sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured stream runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: placebench --workload <exact-corpus|hybrid-deadline|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The host and run, recorded with every result so runs can be paired
/// by host.
fn host_line(args: &Args, extra: &str) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "host: available_parallelism {parallelism}, cpu \"{cpu}\", commit {commit}, \
         workload {}, seed {}, seconds {}, trace {}{extra}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// Where the traced run writes its spans.
fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from("placebench/out").join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed))
}

/// Writes the traced run's spans, reporting (not failing on) I/O errors.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let path = trace_path(args);
    let header = format!(
        "{{\"run\":\"{}\"}}",
        host_line(args, "").replace('"', "\\\"")
    );
    match tracer.write(&path, &header) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn render(report: &Report, args: &Args) -> (String, bool) {
    if !args.trace {
        for &(name, unit) in UNGATED {
            if let Some(value) = report.metrics.get(name) {
                println!("ungated {name} = {value} {unit}");
            }
        }
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut ok = report.wrong == 0 && report.attempted > 0;
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            // A layer the workload does not exercise did no work.
            None if args.trace => 0.0,
            None => {
                eprintln!("metric {name} was not measured");
                ok = false;
                continue;
            }
        };
        if !value.is_finite() {
            eprintln!("metric {name} is not finite: {value}");
            ok = false;
            continue;
        }
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let json = format!(
        "{{\"correct\":{ok},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(",")
    );
    (json, ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "exact-corpus" => closed::run(closed::Kind::Exact, &args),
        "hybrid-deadline" => closed::run(closed::Kind::Hybrid, &args),
        "serve-mixed" => serve::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.set("fail_ratio", fail_ratio);
    let extra = if args.workload == "serve-mixed" {
        format!(
            ", offered rates {} and {} req/s",
            serve::LOW_RATE,
            serve::HIGH_RATE
        )
    } else {
        String::new()
    };
    println!("{}", host_line(&args, &extra));
    for line in &report.lines {
        println!("{line}");
    }
    for failure in &report.failures {
        println!("failure: {failure}");
    }
    let (json, ok) = render(&report, &args);
    println!("{json}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
