#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Scoring-layer parity suite: exact search with `search_jobs = N`
//! candidate-scoring workers must be **bit-identical** to the sequential
//! search — same candidates in the same order, same budget accounting,
//! same outcome or error — for every worker count. VF2 enumeration is
//! sequential; the placer charges the scoring phase up front and picks
//! the winner by (metric, candidate index), so this is a hard guarantee,
//! not a statistical one. These tests compare full outcome fingerprints
//! (runtime bits, every stage placement, every swap count, exhaustion
//! node counts) across worker counts 1/2/4/8 over the QASM corpus ×
//! grid/ring/heavy-hex — with and without tight node budgets.

use proptest::prelude::*;

use qcp_circuit::{qasm, Circuit};
use qcp_env::topologies::{self, Delays};
use qcp_env::Environment;
use qcp_place::{PlaceError, PlacementOutcome, Placer, PlacerConfig, SearchBudget, Strategy};

/// The committed 10-file QASM corpus, sorted for stable iteration.
fn corpus() -> Vec<(String, Circuit)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/qasm");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("qasm corpus directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "qasm"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 10, "expected the 10-file corpus at {dir}");
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("read corpus file");
            (name, qasm::parse(&text).expect("corpus parses").circuit)
        })
        .collect()
}

fn environments() -> Vec<Environment> {
    vec![
        topologies::grid(4, 4, Delays::default()),
        topologies::ring(16, Delays::default()),
        topologies::heavy_hex(3, Delays::default()),
    ]
}

fn place(
    circuit: &Circuit,
    env: &Environment,
    jobs: usize,
    budget: SearchBudget,
) -> Result<PlacementOutcome, PlaceError> {
    let config = PlacerConfig::with_threshold(env.connectivity_threshold().expect("connected"))
        .strategy(Strategy::Exact)
        .budget(budget)
        .search_jobs(jobs);
    Placer::new(env, config).place(circuit)
}

/// A complete textual fingerprint of an outcome (or error): any
/// divergence between worker counts — a different candidate winning, a
/// different exhaustion point, a different swap schedule — changes it.
fn fingerprint(result: &Result<PlacementOutcome, PlaceError>) -> String {
    match result {
        Ok(o) => {
            let mut s = format!(
                "ok runtime={:016x} resolution={:?} stages={}",
                o.runtime.units().to_bits(),
                o.resolution,
                o.stages.len(),
            );
            for stage in &o.stages {
                let placed: Vec<usize> = stage
                    .placement
                    .as_slice()
                    .iter()
                    .map(|p| p.index())
                    .collect();
                s.push_str(&format!(
                    " | placement={placed:?} swaps={:?} gates={}",
                    stage.swaps.levels(),
                    stage.subcircuit.gate_count(),
                ));
            }
            s
        }
        // The Debug form pins the exhaustion node count too: parallel
        // search must not merely fail the same way, it must fail at the
        // identical metered node.
        Err(e) => format!("err {e:?}"),
    }
}

#[test]
fn exact_parallel_matches_sequential_on_the_corpus() {
    for (name, circuit) in corpus() {
        for env in environments() {
            // The large cap lets every small circuit run to completion
            // (covering the full-search path) while bounding the
            // handful of adversarial corpus entries; the tight cap
            // forces mid-search exhaustion on everything.
            for budget in [SearchBudget::nodes(20_000), SearchBudget::nodes(2_000)] {
                let base = fingerprint(&place(&circuit, &env, 1, budget));
                for jobs in [2, 4, 8] {
                    let other = fingerprint(&place(&circuit, &env, jobs, budget));
                    assert_eq!(
                        other,
                        base,
                        "{name}@{}: jobs={jobs} diverged from sequential (budget {budget:?})",
                        env.name(),
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Budget exhaustion is deterministic: whatever node cap the budget
    /// lands on, every worker count trips it at the same metered node
    /// and reports the same error (or survives with the same outcome).
    #[test]
    fn budget_exhaustion_is_deterministic_across_worker_counts(
        file in 0usize..10,
        env_index in 0usize..3,
        nodes in 64u64..4_096,
    ) {
        let corpus = corpus();
        let envs = environments();
        let (name, circuit) = &corpus[file % corpus.len()];
        let env = &envs[env_index];
        let budget = SearchBudget::nodes(nodes);
        let base = fingerprint(&place(circuit, env, 1, budget));
        for jobs in [2, 4, 8] {
            let other = fingerprint(&place(circuit, env, jobs, budget));
            prop_assert_eq!(
                &other,
                &base,
                "{}@{}: jobs={} diverged at nodes={}",
                name,
                env.name(),
                jobs,
                nodes,
            );
        }
    }
}
