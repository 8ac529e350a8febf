#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Pins exact-search outcomes and budget exhaustion points.
//!
//! The placer charges each stage's scoring phase up front and picks the
//! winner by (metric, candidate index), so an exact search under a node
//! cap either completes with one fixed outcome or trips at one fixed
//! metered node. This test hashes full outcome fingerprints (runtime
//! bits, every stage placement, every swap schedule, the error's Debug
//! form with its exhaustion node count) over the QASM corpus ×
//! grid/ring/heavy-hex at a large and a tight node cap, and compares
//! against a constant. A refactor of the search or its metering must
//! keep the constant; a deliberate change must update it and say why.

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
    budget: SearchBudget,
) -> Result<PlacementOutcome, PlaceError> {
    let config = PlacerConfig::with_threshold(env.connectivity_threshold().expect("connected"))
        .strategy(Strategy::Exact)
        .budget(budget);
    Placer::new(env, config).place(circuit)
}

/// A complete textual fingerprint of an outcome (or error): a different
/// candidate winning, a different exhaustion point or a different swap
/// schedule changes it.
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
        // The Debug form pins the exhaustion node count too: the search
        // must not merely fail the same way, it must fail at the
        // identical metered node.
        Err(e) => format!("err {e:?}"),
    }
}

/// FNV-1a over the fingerprint bytes.
fn fold(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn exact_outcomes_and_exhaustion_points_are_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut exhausted = 0usize;
    for (_, circuit) in corpus() {
        for env in environments() {
            // The large cap lets most circuits run to completion
            // (covering the full-search path) and trips on 4 of the 30
            // pairs; the tight cap trips mid-search on 12, often below
            // the cap where an unaffordable up-front scoring charge stops.
            for budget in [SearchBudget::nodes(20_000), SearchBudget::nodes(2_000)] {
                let result = place(&circuit, &env, budget);
                if matches!(result, Err(PlaceError::BudgetExhausted { .. })) {
                    exhausted += 1;
                }
                fold(&mut hash, fingerprint(&result).as_bytes());
                fold(&mut hash, b"\n");
            }
        }
    }
    assert_eq!(
        (hash, exhausted),
        (0x4d2d_52ef_df93_815f, 16),
        "exact outcomes or exhaustion points changed"
    );
}
