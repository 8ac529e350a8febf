//! The two closed-loop workloads: one caller, one request at a time,
//! through `qcp_place::execute_with`.
//!
//! * `exact-corpus`: `Strategy::Exact`, unlimited budget, certified by
//!   `qcp_verify::PlacementCertifier` inside the request (the path behind
//!   `qcp place --verify`).
//! * `hybrid-deadline`: `Strategy::Hybrid` under a 50 ms deadline on
//!   large devices, certified outside the timed region.
//!
//! The stream is a sequence of passes. Each pass is a seeded shuffle of
//! the whole pool with fresh seeded qubit relabellings, so every run sees
//! every pool entry equally often. A run ends with the first pass that
//! finishes after `--seconds`.

use std::time::{Duration, Instant};

use qcp_circuit::library::{
    grover_iteration, phase_estimation, pseudo_cat, qec5_benchmark, qft, random,
};
use qcp_circuit::Circuit;
use qcp_env::Environment;
use qcp_place::{
    execute_with, PlaceError, PlaceRequest, PlacementOutcome, PlacerConfig, Resolution,
    SearchBudget, Strategy,
};
use qcp_verify::{certify, PlacementCertifier, VerifyOptions};

use crate::inputs::{device, relabel, Rng};
use crate::report::{peak_rss_mb, Counters, Report};
use crate::stats::{self, Fingerprint};
use crate::trace::Tracer;
use crate::{calibrate, layers, Args, SETUP_REPEATS};

/// Which closed-loop workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `exact-corpus`.
    Exact,
    /// `hybrid-deadline`.
    Hybrid,
}

/// The hybrid workload's wall-clock deadline.
pub const HYBRID_DEADLINE_MS: u64 = 50;

const EXACT_DEVICES: &[&str] = &["grid:4x4", "heavy_hex:3", "grid:8x8"];
const HYBRID_DEVICES: &[&str] = &["grid:16x16", "heavy_hex:7", "grid:10x10"];

/// The traced phase stops once it has run this many times `--seconds`.
const TRACE_BUDGET_FACTOR: f64 = 2.0;

/// One pool entry: a circuit on a device.
#[derive(Clone)]
struct Entry {
    label: String,
    circuit: Circuit,
    device: usize,
}

/// One request of the stream: the QASM text the program receives.
struct Request {
    entry: usize,
    qasm: String,
}

/// What a request produced.
#[derive(Clone, Copy)]
struct Answer {
    runtime: f64,
    swaps: usize,
    stages: usize,
    resolution: Resolution,
}

impl Answer {
    fn of(outcome: &PlacementOutcome) -> Answer {
        Answer {
            runtime: outcome.runtime.units(),
            swaps: outcome.swap_count(),
            stages: outcome.subcircuit_count(),
            resolution: outcome.resolution,
        }
    }
}

struct Sample {
    entry: usize,
    pass: usize,
    latency_s: f64,
    /// Factor that converts this sample's wall time to the reference
    /// host speed (see `calibrate`); 1 where times are reported raw.
    host_scale: f64,
    answer: Option<Answer>,
}

fn corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        ("adder4", include_str!("../../tests/qasm/adder4.qasm")),
        (
            "random_cnot12",
            include_str!("../../tests/qasm/random_cnot12.qasm"),
        ),
        ("ising6", include_str!("../../tests/qasm/ising6.qasm")),
        ("ghz8", include_str!("../../tests/qasm/ghz8.qasm")),
    ]
}

/// The fixed exact-corpus pool: library and corpus circuits on grid:4x4
/// and heavy_hex:3, except the slowest on grid:4x4, which run on
/// heavy_hex:3 only; three staged circuits; and qft6 on grid:8x8.
fn exact_pool() -> Vec<Entry> {
    let mut circuits: Vec<(String, Circuit)> = vec![
        ("qft5".into(), qft(5)),
        ("qft6".into(), qft(6)),
        ("phaseest".into(), phase_estimation()),
        ("qec5".into(), qec5_benchmark()),
        ("grover5".into(), grover_iteration(5)),
        ("cat7".into(), pseudo_cat(7)),
    ];
    for (name, text) in corpus() {
        let circuit = Circuit::from_qasm(text)
            .unwrap_or_else(|e| panic!("corpus file {name} does not parse: {e}"));
        circuits.push((name.into(), circuit));
    }
    let mut pool = Vec::new();
    for (name, circuit) in &circuits {
        // random_cnot12 takes 0.9-1.3 s on grid:4x4, a quarter of a pass.
        let devices = if name == "random_cnot12" { 1..2 } else { 0..2 };
        for d in devices {
            let spec = EXACT_DEVICES[d];
            pool.push(Entry {
                label: format!("{name}@{spec}"),
                circuit: circuit.clone(),
                device: d,
            });
        }
    }
    // Staged circuits take 0.9-4.2 s each on grid:4x4.
    for n in [8, 12, 16] {
        pool.push(Entry {
            label: format!("staged{n}@{}", EXACT_DEVICES[1]),
            circuit: random::staged(n, n as u64).circuit,
            device: 1,
        });
    }
    pool.push(Entry {
        label: "qft6@grid:8x8".into(),
        circuit: qft(6),
        device: 2,
    });
    pool
}

/// The hybrid pool of one pass: staged circuits at 12, 32 and 64 qubits
/// drawn afresh from the seed, plus qft12, on each large device. The
/// fast entries (12 qubits) appear twice so that a run holds enough
/// samples for its 90th percentile.
fn hybrid_pool(rng: &mut Rng) -> Vec<Entry> {
    let mut pool = Vec::new();
    for (d, spec) in HYBRID_DEVICES.iter().enumerate() {
        for n in [12, 12, 32, 64] {
            pool.push(Entry {
                label: format!("staged{n}@{spec}"),
                circuit: random::staged(n, rng.next_u64()).circuit,
                device: d,
            });
        }
        for _ in 0..2 {
            pool.push(Entry {
                label: format!("qft12@{spec}"),
                circuit: qft(12),
                device: d,
            });
        }
    }
    pool
}

/// The workload's inputs and configuration.
struct Workload {
    kind: Kind,
    seed: u64,
    /// The fixed exact pool; empty for hybrid, whose pool is redrawn
    /// each pass.
    pool: Vec<Entry>,
    devices: Vec<Environment>,
}

impl Workload {
    fn new(kind: Kind, seed: u64) -> Workload {
        let pool = match kind {
            Kind::Exact => exact_pool(),
            Kind::Hybrid => Vec::new(),
        };
        Workload {
            kind,
            seed,
            pool,
            devices: Vec::new(),
        }
    }

    fn specs(&self) -> &'static [&'static str] {
        match self.kind {
            Kind::Exact => EXACT_DEVICES,
            Kind::Hybrid => HYBRID_DEVICES,
        }
    }

    fn config(&self, env: &Environment, strategy: Strategy) -> PlacerConfig {
        let threshold = env
            .connectivity_threshold()
            .unwrap_or_else(|| panic!("device {} is disconnected", env.name()));
        let config = PlacerConfig::with_threshold(threshold).strategy(strategy);
        match self.kind {
            Kind::Exact => config,
            Kind::Hybrid => config.budget(SearchBudget::from_millis(HYBRID_DEADLINE_MS)),
        }
    }

    fn strategy(&self) -> Strategy {
        match self.kind {
            Kind::Exact => Strategy::Exact,
            Kind::Hybrid => Strategy::Hybrid,
        }
    }

    /// Pass `pass` of the stream; deterministic in the seed and `pass`.
    fn pass(&self, pass: usize) -> (Vec<Entry>, Vec<Request>) {
        let mut rng = Rng::new(self.seed, pass as u64);
        let pool = match self.kind {
            Kind::Exact => self.pool.clone(),
            Kind::Hybrid => hybrid_pool(&mut rng),
        };
        let mut order: Vec<usize> = (0..pool.len()).collect();
        rng.shuffle(&mut order);
        let requests = order
            .into_iter()
            .map(|entry| Request {
                entry,
                qasm: relabel(&pool[entry].circuit, &mut rng).to_qasm(),
            })
            .collect();
        (pool, requests)
    }

    /// Builds the devices and places a fixed warm-up request on each.
    fn setup(&mut self) -> Result<(), String> {
        self.devices = self.specs().iter().map(|s| device(s)).collect();
        let warm = match self.kind {
            Kind::Exact => qft(5),
            Kind::Hybrid => qft(12),
        };
        for env in &self.devices {
            let request = PlaceRequest::new(&warm, env)
                .config(self.config(env, self.strategy()))
                .verify(true);
            execute_with(&request, None, Some(&PlacementCertifier))
                .map_err(|e| format!("warm-up on {}: {e}", env.name()))?;
        }
        Ok(())
    }

    /// One timed request: ingest the QASM text and execute.
    fn execute(&self, pool: &[Entry], request: &Request) -> (f64, Result<Answer, String>) {
        let env = &self.devices[pool[request.entry].device];
        let start = Instant::now();
        let placed = Circuit::from_qasm(&request.qasm)
            .map_err(|e| e.to_string())
            .and_then(|circuit| {
                let placed = PlaceRequest::new(&circuit, env)
                    .config(self.config(env, self.strategy()))
                    .verify(self.kind == Kind::Exact);
                match execute_with(&placed, None, Some(&PlacementCertifier)) {
                    Ok(report) => Ok((circuit, report.outcome)),
                    Err(PlaceError::VerificationFailed { violations }) => {
                        Err(format!("certification rejected: {}", violations.join("; ")))
                    }
                    Err(e) => Err(e.to_string()),
                }
            });
        let latency = start.elapsed().as_secs_f64();
        // Hybrid outcomes are certified here, outside the timed region.
        let answer = placed.and_then(|(circuit, outcome)| {
            if self.kind == Kind::Hybrid {
                let options = VerifyOptions::from_config(&self.config(env, self.strategy()));
                certify(&circuit, env, &options, &outcome)
                    .map_err(|v| format!("certification rejected: {} violation(s)", v.len()))?;
            }
            Ok(Answer::of(&outcome))
        });
        (latency, answer)
    }

    /// The traced re-execution of one request, followed by the replay
    /// of its pipeline through the layers' public functions.
    fn trace(
        &self,
        t: &mut Tracer,
        c: &mut Counters,
        pool: &[Entry],
        request: &Request,
    ) -> Result<(), String> {
        let env = &self.devices[pool[request.entry].device];
        let config = self.config(env, self.strategy());
        t.span("request", |t| {
            let circuit = t
                .span("ingest", |_| Circuit::from_qasm(&request.qasm))
                .map_err(|e| e.to_string())?;
            let placer = layers::new_placer(t, env, &config);
            let outcome = layers::place(t, &placer, &circuit)?;
            layers::certify_outcome(t, &circuit, &placer, &outcome)?;
            match self.kind {
                Kind::Exact => t.span("replay", |t| {
                    replay_exact(t, c, &placer, &circuit, &outcome)
                }),
                Kind::Hybrid => {
                    // The two halves of the hybrid chain, each under the
                    // same deadline. The exact half is expected to run
                    // out of budget.
                    for (name, strategy) in [
                        ("strategy.exact", Strategy::Exact),
                        ("strategy.anneal", Strategy::Anneal),
                    ] {
                        let half = self.config(env, strategy);
                        t.span(name, |t| {
                            let placer = layers::new_placer(t, env, &half);
                            let _ = placer.place(&circuit);
                        });
                    }
                    t.span("replay", |t| replay_transitions(t, c, &placer, &outcome))
                }
            }
        })
    }
}

/// Replays an exact request: workspaces, candidates per workspace, a
/// route to every candidate and along every committed transition, and
/// the outcome's cost.
fn replay_exact(
    t: &mut Tracer,
    c: &mut Counters,
    placer: &qcp_place::Placer<'_>,
    circuit: &Circuit,
    outcome: &PlacementOutcome,
) -> Result<(), String> {
    let workspaces = layers::workspaces(t, c, placer, circuit)?;
    let mut previous = None;
    for (workspace, stage) in workspaces.iter().zip(&outcome.stages) {
        let candidates = layers::candidates(t, c, placer, workspace, previous)?;
        if let Some(from) = previous {
            for candidate in &candidates {
                layers::route(t, c, placer, from, candidate)?;
            }
            layers::route(t, c, placer, from, &stage.placement)?;
        }
        previous = Some(&stage.placement);
    }
    layers::cost(t, placer, outcome);
    Ok(())
}

/// Routes every committed stage transition of an outcome.
fn replay_transitions(
    t: &mut Tracer,
    c: &mut Counters,
    placer: &qcp_place::Placer<'_>,
    outcome: &PlacementOutcome,
) -> Result<(), String> {
    for pair in outcome.stages.windows(2) {
        layers::route(t, c, placer, &pair[0].placement, &pair[1].placement)?;
    }
    Ok(())
}

/// The factor that converts this workload's wall times to the reference
/// host speed. exact-corpus is CPU-bound throughout, so its times are
/// scaled by the calibration kernel timed now; hybrid-deadline is partly
/// bounded by its wall-clock deadline, which host speed does not shorten,
/// so it is reported raw.
fn host_scale(kind: Kind) -> f64 {
    match kind {
        Kind::Exact => calibrate::REFERENCE_MS / calibrate::kernel_ms(),
        Kind::Hybrid => 1.0,
    }
}

/// Runs a closed-loop workload.
pub fn run(kind: Kind, args: &Args) -> Report {
    let mut report = Report::default();
    let mut workload = Workload::new(kind, args.seed);

    let mut setup_times = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let scale = host_scale(kind);
        let start = Instant::now();
        if let Err(e) = workload.setup() {
            report.fail(true, format!("setup: {e}"));
            return report;
        }
        setup_times.push(start.elapsed().as_secs_f64() * scale);
    }
    report.set("setup_s", stats::median(&setup_times));

    // The untraced, measured stream.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut labels: Vec<Vec<String>> = Vec::new();
    let mut pass = 0;
    let mut scales = Vec::new();
    while pass == 0 || started.elapsed() < budget {
        let host_scale = host_scale(kind);
        scales.push(host_scale);
        let (pool, requests) = workload.pass(pass);
        labels.push(pool.iter().map(|e| e.label.clone()).collect());
        for request in &requests {
            let (latency_s, answer) = workload.execute(&pool, request);
            let answer = match answer {
                Ok(a) => Some(a),
                Err(e) => {
                    report.fail(true, format!("{}: {e}", pool[request.entry].label));
                    None
                }
            };
            samples.push(Sample {
                entry: request.entry,
                pass,
                latency_s,
                host_scale,
                answer,
            });
        }
        pass += 1;
    }
    report.attempted = samples.len() as u64;
    report.set("peak_rss_mb", peak_rss_mb());
    report.lines.push(format!(
        "host-speed scale: median {} over {pass} passes",
        stats::median(&scales)
    ));
    summarize(kind, &mut report, &samples, &labels);

    if args.trace {
        let mut tracer = Tracer::new();
        let mut counters = Counters::default();
        let traced_start = Instant::now();
        let mut untraced_s = 0.0;
        let mut index = 0;
        'passes: for p in 0..pass {
            let (pool, requests) = workload.pass(p);
            for request in &requests {
                tracer.set_request(index as u64);
                if let Err(e) = workload.trace(&mut tracer, &mut counters, &pool, request) {
                    report.fail(true, format!("traced {}: {e}", pool[request.entry].label));
                }
                untraced_s += samples[index].latency_s;
                index += 1;
                if traced_start.elapsed().as_secs_f64() > TRACE_BUDGET_FACTOR * args.seconds {
                    break 'passes;
                }
            }
        }
        let traced_s = traced_start.elapsed().as_secs_f64();
        report.set("trace.overhead_ratio", traced_s / untraced_s);
        report.set_layers(&tracer, &counters);
        report
            .lines
            .push(format!("traced {index} of {} requests", samples.len()));
        crate::write_trace(args, &tracer);
    }
    report
}

/// End-to-end metrics, answer quality and per-entry rows.
fn summarize(kind: Kind, report: &mut Report, samples: &[Sample], labels: &[Vec<String>]) {
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_s * 1e3).collect();
    let scaled: Vec<f64> = samples
        .iter()
        .map(|s| s.latency_s * s.host_scale * 1e3)
        .collect();
    let busy_s: f64 = samples.iter().map(|s| s.latency_s * s.host_scale).sum();
    let ok = samples.iter().filter(|s| s.answer.is_some()).count();
    report.set("latency_p50_ms", stats::median(&scaled));
    report.set("latency_p90_ms", stats::percentile(&scaled, 90.0));
    report.set("latency_p99_ms", stats::percentile(&scaled, 99.0));
    report.set("throughput_per_s", samples.len() as f64 / busy_s);
    // A closed loop with one caller offers one load level, its highest.
    // Any failure here is a wrong answer that already fails the run, so on
    // a passing run this equals `throughput_per_s`: it is reported because
    // every gated metric must be present on every workload, and it adds
    // nothing on the closed loops.
    report.set("goodput_per_s.high", ok as f64 / busy_s);
    if kind == Kind::Exact {
        let raw_busy: f64 = samples.iter().map(|s| s.latency_s).sum();
        report.lines.push(format!(
            "unscaled: latency_p50_ms {} latency_p90_ms {} throughput_per_s {}",
            stats::median(&latencies),
            stats::percentile(&latencies, 90.0),
            samples.len() as f64 / raw_busy
        ));
    }
    let n = samples.len();
    report.lines.push(format!(
        "samples {n}: beyond p50 {}, beyond p90 {}, beyond p99 {}",
        stats::samples_beyond(n, 50.0),
        stats::samples_beyond(n, 90.0),
        stats::samples_beyond(n, 99.0)
    ));

    // Answer quality and the determinism fingerprint cover the first
    // pass only, which every run completes whatever its length.
    let first: Vec<(usize, Answer)> = samples
        .iter()
        .filter(|s| s.pass == 0)
        .filter_map(|s| s.answer.map(|a| (s.entry, a)))
        .collect();
    let runtimes: Vec<f64> = first.iter().map(|(_, a)| a.runtime).collect();
    let geomean = stats::geomean(&runtimes);
    let swaps = first.iter().map(|(_, a)| a.swaps as f64).sum::<f64>() / first.len().max(1) as f64;
    let stages =
        first.iter().map(|(_, a)| a.stages as f64).sum::<f64>() / first.len().max(1) as f64;
    let mut fp = Fingerprint::default();
    for (entry, a) in &first {
        fp.push(*entry as u64);
        fp.push(a.runtime.to_bits());
        fp.push(a.swaps as u64);
        fp.push(a.stages as u64);
        fp.push(a.resolution as u64);
    }
    report.set("outcome.runtime_geomean", geomean);
    report.set("outcome.swaps_per_placement", swaps);
    report.set("outcome.stages", stages);
    let resolved = |r: Resolution| {
        samples
            .iter()
            .filter(|s| s.answer.is_some_and(|a| a.resolution == r))
            .count() as f64
    };
    report.set("resolution.exact", resolved(Resolution::Exact));
    report.set("resolution.fallback", resolved(Resolution::Fallback));
    report.set("resolution.degraded", resolved(Resolution::BudgetExhausted));
    let deadline_ms = match kind {
        Kind::Exact => None,
        Kind::Hybrid => Some(HYBRID_DEADLINE_MS as f64),
    };
    let miss = deadline_ms.map_or(0.0, |d| {
        let pairs: Vec<(f64, f64)> = latencies.iter().map(|&l| (l, d)).collect();
        stats::miss_ratio(&pairs)
    });
    report.set("deadline.miss_ratio", miss);
    match kind {
        Kind::Exact => {
            report.set("placed_runtime_geomean", geomean);
            report.set("swaps_per_placement", swaps);
            report
                .lines
                .push(format!("first-pass fingerprint {}", fp.hex()));
        }
        Kind::Hybrid => {
            report.set("deadline_miss_ratio", miss);
            report.lines.push(format!(
                "first-pass fingerprint {} (deadline-dependent, not expected to repeat)",
                fp.hex()
            ));
        }
    }

    // One row per pool entry label.
    let mut rows: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in samples {
        rows.entry(labels[s.pass][s.entry].as_str())
            .or_default()
            .push(s.latency_s * 1e3);
    }
    for (label, lat) in rows {
        report.lines.push(format!(
            "row {label:<28} n {:>4}  median {:>10.3} ms  max {:>10.3} ms",
            lat.len(),
            stats::median(&lat),
            lat.iter().copied().fold(0.0, f64::max)
        ));
    }
}
