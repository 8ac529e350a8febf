//! Metric names, units and the result a workload hands back to `main`.

use std::collections::BTreeMap;

use crate::trace::Tracer;

/// End-to-end metrics, measured by the untraced run, with their units.
/// Every workload reports every one of them in its result (see README.md
/// for what each means on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("goodput_per_s.high", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics printed by the untraced run of the workloads they
/// apply to but kept out of the result: they are zero on some workload,
/// do not apply to every workload, or are too unsteady to gate on (see
/// README.md).
pub const UNGATED: &[(&str, &str)] = &[
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("latency_p99_ms.high", "ms"),
    ("fail_ratio", "ratio"),
    ("deadline_miss_ratio", "ratio"),
    ("placed_runtime_geomean", "units"),
    ("swaps_per_placement", "count"),
    ("capacity_per_s", "1/s"),
];

/// Per-layer metrics, measured by the traced run, with their units. A
/// layer a workload does not exercise reports zero calls.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingest.calls", "count"),
    ("ingest.us", "us"),
    ("canon.calls", "count"),
    ("canon.us", "us"),
    ("canon.exhausted", "count"),
    ("cache.hit_ratio.low", "ratio"),
    ("cache.hit_ratio.high", "ratio"),
    ("cache.remapped.low", "count"),
    ("cache.remapped.high", "count"),
    ("cache.misses.low", "count"),
    ("cache.misses.high", "count"),
    ("placer.new_calls", "count"),
    ("placer.new_ms", "ms"),
    ("placer.place_ms", "ms"),
    ("workspace.calls", "count"),
    ("workspace.ms", "ms"),
    ("workspace.count", "count"),
    ("embed.calls", "count"),
    ("embed.ms", "ms"),
    ("embed.candidates", "count"),
    ("router.calls", "count"),
    ("router.us_per_call", "us"),
    ("router.swaps", "count"),
    ("router.depth", "count"),
    ("cost.calls", "count"),
    ("cost.us", "us"),
    ("strategy.exact_attempt_ms", "ms"),
    ("strategy.anneal_ms", "ms"),
    ("resolution.exact", "count"),
    ("resolution.fallback", "count"),
    ("resolution.degraded", "count"),
    ("outcome.stages", "count"),
    ("outcome.runtime_geomean", "units"),
    ("outcome.swaps_per_placement", "count"),
    ("deadline.miss_ratio", "ratio"),
    ("certify.calls", "count"),
    ("certify.ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.queue_io_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.deadline_ms", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Named sums of work done, e.g. candidates enumerated.
#[derive(Debug, Default)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    /// The counter's value (`0` if never added to).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted in the measured stream.
    pub attempted: u64,
    /// Requests that failed: errors, certification rejects, reference
    /// mismatches and non-200 answers.
    pub failed: u64,
    /// The subset of failures that are wrong answers (everything but
    /// load shedding); any makes the run incorrect.
    pub wrong: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Informational lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed request; `wrong` marks a wrong answer rather
    /// than a refusal.
    pub fn fail(&mut self, wrong: bool, line: String) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
        self.failures.push(line);
    }

    /// Fills the per-layer metrics derivable from spans and counters:
    /// call counts and mean self time per call.
    pub fn set_layers(&mut self, tracer: &Tracer, c: &Counters) {
        let totals = tracer.totals();
        let get = |name: &str| totals.get(name).copied().unwrap_or_default();
        let per_call = |counter: &str, calls: usize| {
            if calls == 0 {
                0.0
            } else {
                c.get(counter) / calls as f64
            }
        };
        let timed: &[(&str, &'static str, &'static str, f64)] = &[
            ("ingest", "ingest.calls", "ingest.us", 1e6),
            ("canon", "canon.calls", "canon.us", 1e6),
            ("placer.new", "placer.new_calls", "placer.new_ms", 1e3),
            ("workspace", "workspace.calls", "workspace.ms", 1e3),
            ("embed", "embed.calls", "embed.ms", 1e3),
            ("router", "router.calls", "router.us_per_call", 1e6),
            ("cost", "cost.calls", "cost.us", 1e6),
            ("certify", "certify.calls", "certify.ms", 1e3),
        ];
        for &(span, calls, time, scale) in timed {
            let t = get(span);
            self.set(calls, t.calls as f64);
            self.set(time, t.mean_s() * scale);
        }
        self.set("placer.place_ms", get("placer.place").mean_s() * 1e3);
        self.set(
            "strategy.exact_attempt_ms",
            get("strategy.exact").mean_s() * 1e3,
        );
        self.set("strategy.anneal_ms", get("strategy.anneal").mean_s() * 1e3);
        self.set("canon.exhausted", c.get("canon.exhausted"));
        self.set(
            "workspace.count",
            per_call("workspace.count", get("workspace").calls),
        );
        self.set(
            "embed.candidates",
            per_call("embed.candidates", get("embed").calls),
        );
        self.set(
            "router.swaps",
            per_call("router.swaps", get("router").calls),
        );
        self.set(
            "router.depth",
            per_call("router.depth", get("router").calls),
        );
    }
}

/// Peak resident memory of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
