//! The `serve-mixed` workload: an open-loop load generator against an
//! in-process `qcp_serve::Server` over loopback HTTP.
//!
//! Requests are `POST /place` with QASM bodies. Each body is one of a few
//! seeded relabellings of a class drawn from a fixed working set of small
//! problem classes with Zipf popularity; the working set is larger than
//! the server's default cache, so isomorphic repeats (remapped hits) and
//! fresh misses both occur. Each request carries a `budget_nodes` cap so
//! its answer is deterministic.
//!
//! The stream is a warm-up prefix (sent closed-loop during set-up), then
//! [`LOW_RATE`] for [`LOW_SHARE`] of the run, a closed-loop saturation
//! phase for [`SATURATION_SHARE`], and [`HIGH_RATE`] for the rest.
//! Open-loop requests are due on a seeded schedule and are timed from
//! their due time, so a generator stall is charged to the requests it
//! delays.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use qcp_circuit::library::random;
use qcp_circuit::Circuit;
use qcp_env::Environment;
use qcp_place::{
    execute_with, CanonicalCircuit, PlaceRequest, PlacerConfig, SearchBudget, Strategy,
};
use qcp_serve::{ServeConfig, Server, StatsSnapshot};
use qcp_verify::PlacementCertifier;

use crate::inputs::{device, draw_cdf, relabel, zipf_cdf, Rng};
use crate::report::{peak_rss_mb, Counters, Report};
use crate::stats;
use crate::trace::Tracer;
use crate::Args;

/// The low offered rate, in requests per second: well under capacity.
pub const LOW_RATE: f64 = 60.0;
/// The high offered rate, in requests per second: near the point where
/// queueing begins, as located by the sweep in the README.
pub const HIGH_RATE: f64 = 300.0;
/// The share of `--seconds` spent at the low rate.
const LOW_SHARE: f64 = 0.6;
/// The share of `--seconds` spent in the closed-loop saturation phase.
const SATURATION_SHARE: f64 = 0.1;
/// Requests planned per second of the saturation phase: several times
/// the capacity of a 2-core host (about 600 req/s), so the phase ends on
/// time rather than by running out.
const SATURATION_PLAN_PER_S: f64 = 5_000.0;

/// Classes in the working set (the server's default cache holds 256).
const CLASSES: usize = 384;
/// Distinct relabellings per class.
const BODIES_PER_CLASS: usize = 2;
/// Zipf exponent of class popularity.
const ZIPF_S: f64 = 0.8;
/// Requests sent closed-loop during set-up to warm the cache.
const WARM_REQUESTS: usize = 200;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// The per-request node cap that makes each answer deterministic.
const BUDGET_NODES: u64 = 20_000;
/// The server's default base deadline, which the reference repeats.
const BASE_DEADLINE_MS: u64 = 2_000;
const DEVICES: &[&str] = &["line:9", "ring:9"];

/// One working-set class: a small circuit on a small device.
struct Class {
    circuit: Circuit,
    device: usize,
}

/// The fixed working set, independent of the workload seed.
fn working_set() -> Vec<Class> {
    (0..CLASSES)
        .map(|i| Class {
            circuit: random::staged(4, 0x5eed_0000 + i as u64).circuit,
            device: i % DEVICES.len(),
        })
        .collect()
}

/// A request body and the answer a direct placement gives for it.
struct Body {
    class: usize,
    qasm: String,
    path: String,
    runtime: f64,
    resolution: &'static str,
}

/// One planned request: which body, and when it is due (seconds after
/// its phase starts).
#[derive(Clone, Copy)]
struct Planned {
    body: usize,
    due: f64,
}

/// What the client saw for one request. Times are seconds after the
/// phase started.
#[derive(Clone, Debug, Default)]
struct Seen {
    body: usize,
    due: f64,
    sent: f64,
    done: f64,
    status: u16,
    cache: String,
    resolution: String,
    runtime: f64,
    elapsed_ms: f64,
    deadline_ms: f64,
    stages: f64,
    swaps: f64,
    error: Option<String>,
}

fn config(env: &Environment) -> PlacerConfig {
    let threshold = env
        .connectivity_threshold()
        .unwrap_or_else(|| panic!("device {} is disconnected", env.name()));
    PlacerConfig::with_threshold(threshold)
        .strategy(Strategy::Hybrid)
        .budget(
            SearchBudget::nodes(BUDGET_NODES)
                .with_deadline(Duration::from_millis(BASE_DEADLINE_MS)),
        )
}

/// Runs `f` over `items` on `threads` threads, each taking the next
/// unclaimed item, and returns the results in item order.
fn par_map<T: Sync, R: Send>(threads: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("benchmark thread panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Seeded relabellings of every class, with their certified reference
/// answers from a direct `execute_with`, computed on all cores.
fn bodies(
    classes: &[Class],
    devices: &[Environment],
    seed: u64,
    threads: usize,
) -> Result<Vec<Body>, String> {
    let mut rng = Rng::new(seed, 0x5e7e);
    let mut planned = Vec::new();
    for (c, class) in classes.iter().enumerate() {
        for _ in 0..BODIES_PER_CLASS {
            planned.push((c, relabel(&class.circuit, &mut rng)));
        }
    }
    par_map(threads, &planned, |(class, circuit)| {
        let spec = DEVICES[classes[*class].device];
        let env = &devices[classes[*class].device];
        let request = PlaceRequest::new(circuit, env)
            .config(config(env))
            .verify(true);
        let report = execute_with(&request, None, Some(&PlacementCertifier))
            .map_err(|e| format!("reference for class {class}: {e}"))?;
        Ok(Body {
            class: *class,
            qasm: circuit.to_qasm(),
            path: format!("/place?env={spec}&strategy=hybrid&budget_nodes={BUDGET_NODES}"),
            runtime: report.outcome.runtime.units(),
            resolution: report.outcome.resolution.name(),
        })
    })
    .into_iter()
    .collect()
}

/// The request stream: `count` bodies drawn by Zipf popularity, class
/// `i` of the working set being the `i`-th most popular. Request `i` is due at a random point of
/// the `i`-th interval of length `1 / rate`, so the offered rate is exact
/// while arrivals do not line up with any polling period in the server.
fn plan(rng: &mut Rng, cdf: &[f64], count: usize, rate: f64) -> Vec<Planned> {
    (0..count)
        .map(|i| {
            let class = draw_cdf(cdf, rng);
            Planned {
                body: class * BODIES_PER_CLASS + rng.below(BODIES_PER_CLASS),
                due: (i as f64 + rng.unit()) / rate,
            }
        })
        .collect()
}

/// Sends one request and reads the whole reply.
fn post(addr: SocketAddr, body: &Body) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "POST {} HTTP/1.1\r\nhost: placebench\r\ncontent-length: {}\r\n\r\n",
        body.path,
        body.qasm.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.qasm.as_bytes())?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    let text = String::from_utf8_lossy(&reply);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let json = text
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok((status, json))
}

/// The raw text of JSON field `key` in a flat response object.
fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &json[start..];
    let rest = rest.strip_prefix('"').map_or(rest, |r| r);
    let end = rest.find(['"', ',', '}'])?;
    Some(&rest[..end])
}

/// How a phase sends its requests.
#[derive(Clone, Copy)]
enum Loop {
    /// Each request no earlier than its due time.
    Open,
    /// Each thread sends as soon as its previous reply arrives, ignoring
    /// the schedule, and sends nothing more after this many seconds.
    Closed(f64),
}

/// Sends `planned` over `connections` threads, one connection each at a
/// time. Returns what each sent request saw, in planned order, and the
/// instant the phase started.
fn send_all(
    addr: SocketAddr,
    bodies: &[Body],
    planned: &[Planned],
    connections: usize,
    mode: Loop,
) -> (Instant, Vec<Seen>) {
    let start = Instant::now();
    let seen = par_map(connections, planned, |p| {
        let now = start.elapsed().as_secs_f64();
        match mode {
            Loop::Open if p.due > now => {
                std::thread::sleep(Duration::from_secs_f64(p.due - now));
            }
            Loop::Closed(until) if now >= until => return None,
            _ => {}
        }
        let sent = start.elapsed().as_secs_f64();
        let reply = post(addr, &bodies[p.body]);
        let done = start.elapsed().as_secs_f64();
        let mut s = Seen {
            body: p.body,
            due: match mode {
                Loop::Open => p.due,
                Loop::Closed(_) => sent,
            },
            sent,
            done,
            ..Seen::default()
        };
        match reply {
            Ok((status, json)) => {
                let num = |k| {
                    field(&json, k)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(f64::NAN)
                };
                s.status = status;
                s.runtime = num("runtime_units");
                s.elapsed_ms = num("elapsed_ms");
                s.deadline_ms = num("deadline_ms");
                s.stages = num("stages");
                s.swaps = num("swaps");
                s.cache = field(&json, "cache").unwrap_or("").to_string();
                s.resolution = field(&json, "resolution").unwrap_or("").to_string();
                if status != 200 {
                    s.error = Some(json);
                }
            }
            Err(e) => s.error = Some(e.to_string()),
        }
        Some(s)
    });
    (start, seen.into_iter().flatten().collect())
}

/// Checks every answer: a 200 must carry the reference answer of its own
/// body, or, for a cache hit, of one of its class's bodies (the one the
/// cache stored). Everything else is a failure; a 429 is a refusal, not
/// a wrong answer.
fn check(report: &mut Report, bodies: &[Body], seen: &[Seen]) {
    for s in seen {
        let body = &bodies[s.body];
        if let Some(error) = &s.error {
            report.fail(s.status != 429, format!("status {}: {error}", s.status));
            continue;
        }
        let matches = |b: &Body| b.runtime == s.runtime && b.resolution == s.resolution;
        let ok = if s.cache == "hit" {
            bodies[body.class * BODIES_PER_CLASS..(body.class + 1) * BODIES_PER_CLASS]
                .iter()
                .any(matches)
        } else {
            matches(body)
        };
        if !ok {
            report.fail(
                true,
                format!(
                    "class {} ({}): answered {} {} ({}), reference {} {}",
                    body.class,
                    body.path,
                    s.runtime,
                    s.resolution,
                    s.cache,
                    body.runtime,
                    body.resolution
                ),
            );
        }
    }
}

/// Cache counters accumulated between two snapshots, as the metrics
/// `[hit ratio, remapped, misses]`.
fn cache_delta(
    report: &mut Report,
    names: [&'static str; 3],
    before: &StatsSnapshot,
    after: &StatsSnapshot,
) {
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    report.set(names[0], hits / (hits + misses).max(1.0));
    report.set(
        names[1],
        (after.cache_remapped - before.cache_remapped) as f64,
    );
    report.set(names[2], misses);
}

/// Latency metrics of one phase, timed from the due time.
fn phase_latencies(seen: &[Seen]) -> Vec<f64> {
    seen.iter()
        .map(|s| stats::open_loop_latency(s.due, s.done) * 1e3)
        .collect()
}

/// Runs the serve-mixed workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let classes = working_set();
    let devices: Vec<Environment> = DEVICES.iter().map(|s| device(s)).collect();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let bodies = match bodies(&classes, &devices, args.seed, nproc) {
        Ok(b) => b,
        Err(e) => {
            report.fail(true, e);
            return report;
        }
    };
    let mut rng = Rng::new(args.seed, 0x57e4);
    let cdf = zipf_cdf(CLASSES, ZIPF_S);
    let low_s = args.seconds * LOW_SHARE;
    let saturation_s = args.seconds * SATURATION_SHARE;
    let high_s = args.seconds - low_s - saturation_s;
    let warm = plan(&mut rng, &cdf, WARM_REQUESTS, 1.0);
    let low = plan(&mut rng, &cdf, (LOW_RATE * low_s) as usize, LOW_RATE);
    let high = plan(&mut rng, &cdf, (HIGH_RATE * high_s) as usize, HIGH_RATE);
    let saturation = plan(
        &mut rng,
        &cdf,
        (SATURATION_PLAN_PER_S * saturation_s) as usize,
        1.0,
    );

    // Set-up: start a server and send the warm-up prefix, several times;
    // the last server carries on into the measured stream.
    let mut setup_times = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            old.drain();
            old.join();
        }
        let start = Instant::now();
        let started = Server::start(ServeConfig::default().addr("127.0.0.1:0").workers(2));
        let s = match started {
            Ok(s) => s,
            Err(e) => {
                report.fail(true, format!("server start: {e}"));
                return report;
            }
        };
        let closed = Loop::Closed(f64::INFINITY);
        let (_, seen) = send_all(s.local_addr(), &bodies, &warm, nproc, closed);
        setup_times.push(start.elapsed().as_secs_f64());
        check(&mut report, &bodies, &seen);
        server = Some(s);
    }
    let server = server.expect("at least one set-up ran");
    report.set("setup_s", stats::median(&setup_times));
    if report.failed > 0 {
        server.drain();
        server.join();
        return report;
    }

    // The measured stream: the low rate, saturation, then the high rate.
    // Well under capacity one connection suffices. Saturation and the
    // high rate use one connection per core. With no more connections than
    // workers, a request waits in the server's queue only when it arrives
    // before the worker that answered its connection's previous request is
    // back; requests no connection can take yet wait in the generator.
    let mut tracer = Tracer::new();
    let run_start = Instant::now();
    let addr = server.local_addr();
    let s0 = server.stats();
    let (low_start, seen_low) = send_all(addr, &bodies, &low, 1, Loop::Open);
    let s1 = server.stats();
    let closed = Loop::Closed(saturation_s);
    let (sat_start, seen_sat) = send_all(addr, &bodies, &saturation, nproc, closed);
    let s2 = server.stats();
    let (high_start, seen_high) = send_all(addr, &bodies, &high, nproc, Loop::Open);
    let s3 = server.stats();
    let run_s = run_start.elapsed().as_secs_f64();
    server.drain();
    server.join();

    for seen in [&seen_low, &seen_sat, &seen_high] {
        check(&mut report, &bodies, seen);
    }
    report.attempted = (seen_low.len() + seen_sat.len() + seen_high.len()) as u64;
    report.set("peak_rss_mb", peak_rss_mb());

    let lat_low = phase_latencies(&seen_low);
    let lat_high = phase_latencies(&seen_high);
    report.set("latency_p50_ms", stats::median(&lat_low));
    report.set("latency_p90_ms", stats::percentile(&lat_low, 90.0));
    report.set("latency_p99_ms", stats::percentile(&lat_low, 99.0));
    report.set("latency_p99_ms.high", stats::percentile(&lat_high, 99.0));
    // `200`s per second from the phase start to its last reply. In the
    // open-loop phases this equals the offered rate while the server keeps
    // up. Under saturation it is the server's capacity at `nproc`
    // connections, which moved with host contention far beyond the gates'
    // bounds, so it is printed but not gated.
    let goodput = |seen: &[Seen]| {
        let good = seen.iter().filter(|s| s.status == 200).count();
        good as f64 / seen.iter().map(|s| s.done).fold(0.0, f64::max)
    };
    report.set("throughput_per_s", goodput(&seen_low));
    report.set("capacity_per_s", goodput(&seen_sat));
    report.set("goodput_per_s.high", goodput(&seen_high));

    let all: Vec<&Seen> = seen_low.iter().chain(&seen_sat).chain(&seen_high).collect();
    let ok: Vec<&&Seen> = all.iter().filter(|s| s.status == 200).collect();
    let server_ms: Vec<f64> = ok.iter().map(|s| s.elapsed_ms).collect();
    let queue_io: Vec<f64> = ok
        .iter()
        .map(|s| (s.done - s.sent) * 1e3 - s.elapsed_ms)
        .collect();
    let lag: Vec<f64> = all
        .iter()
        .map(|s| stats::generator_lag(s.due, s.sent) * 1e3)
        .collect();
    // A refused or failed request misses any deadline.
    let pairs: Vec<(f64, f64)> = all
        .iter()
        .map(|s| {
            let wall = stats::open_loop_latency(s.due, s.done) * 1e3;
            if s.status == 200 {
                (wall, s.deadline_ms)
            } else {
                (f64::INFINITY, 0.0)
            }
        })
        .collect();
    let high_deadlines: Vec<f64> = seen_high
        .iter()
        .filter(|s| s.status == 200)
        .map(|s| s.deadline_ms)
        .collect();
    report.set("serve.server_ms", stats::median(&server_ms));
    report.set("serve.queue_io_ms", stats::median(&queue_io));
    report.set("serve.shed", (s3.shed - s0.shed) as f64);
    report.set("serve.deadline_ms", stats::mean(&high_deadlines));
    report.set("serve.gen_lag_ms", stats::percentile(&lag, 99.0));
    report.set("deadline.miss_ratio", stats::miss_ratio(&pairs));
    let low_names = [
        "cache.hit_ratio.low",
        "cache.remapped.low",
        "cache.misses.low",
    ];
    let high_names = [
        "cache.hit_ratio.high",
        "cache.remapped.high",
        "cache.misses.high",
    ];
    cache_delta(&mut report, low_names, &s0, &s1);
    cache_delta(&mut report, high_names, &s2, &s3);
    let runtimes: Vec<f64> = ok.iter().map(|s| s.runtime).collect();
    report.set("outcome.runtime_geomean", stats::geomean(&runtimes));
    let stages: Vec<f64> = ok.iter().map(|s| s.stages).collect();
    let swaps: Vec<f64> = ok.iter().map(|s| s.swaps).collect();
    report.set("outcome.stages", stats::mean(&stages));
    report.set("outcome.swaps_per_placement", stats::mean(&swaps));
    report.set(
        "resolution.exact",
        (s3.resolved_exact - s0.resolved_exact) as f64,
    );
    report.set(
        "resolution.fallback",
        (s3.resolved_fallback - s0.resolved_fallback) as f64,
    );
    report.set(
        "resolution.degraded",
        (s3.resolved_degraded - s0.resolved_degraded) as f64,
    );

    let mut fp = stats::Fingerprint::default();
    for s in &all {
        fp.push(s.body as u64);
        fp.push(s.runtime.to_bits());
    }
    let phases = [
        ("low rate", &seen_low),
        ("saturation", &seen_sat),
        ("high rate", &seen_high),
    ];
    for (name, seen) in phases {
        let n = seen.len();
        let shrunk = seen
            .iter()
            .filter(|s| s.deadline_ms < BASE_DEADLINE_MS as f64)
            .count();
        report.lines.push(format!(
            "{name}: {n} requests, beyond p99 {}, hits {}, misses {}, 429s {}, \
             shrunk deadlines {shrunk}",
            stats::samples_beyond(n, 99.0),
            seen.iter().filter(|s| s.cache == "hit").count(),
            seen.iter().filter(|s| s.cache == "miss").count(),
            seen.iter().filter(|s| s.status == 429).count(),
        ));
    }
    report.set("deadline_miss_ratio", stats::miss_ratio(&pairs));
    report
        .lines
        .push(format!("answers fingerprint {}", fp.hex()));

    if args.trace {
        // The client-side span of every request, then the in-process
        // replay: parse and canonicalize every body that was sent.
        let mut counters = Counters::default();
        let replay_start = Instant::now();
        let mut index = 0;
        let phases = [
            (low_start, &seen_low),
            (sat_start, &seen_sat),
            (high_start, &seen_high),
        ];
        for (phase_start, seen) in phases {
            let offset = phase_start.duration_since(tracer.origin()).as_secs_f64();
            for s in seen {
                tracer.set_request(index);
                tracer.record("http", offset + s.sent, offset + s.done);
                index += 1;
            }
        }
        for (i, s) in all.iter().enumerate() {
            tracer.set_request(i as u64);
            tracer.span("request", |t| {
                let circuit = t.span("ingest", |_| Circuit::from_qasm(&bodies[s.body].qasm));
                if let Ok(circuit) = circuit {
                    let canonical = t.span("canon", |_| CanonicalCircuit::of(&circuit));
                    if canonical.exhausted {
                        counters.add("canon.exhausted", 1.0);
                    }
                }
            });
        }
        let replay_s = replay_start.elapsed().as_secs_f64();
        report.set("trace.overhead_ratio", (run_s + replay_s) / run_s);
        report.set_layers(&tracer, &counters);
        crate::write_trace(args, &tracer);
    }
    report
}
