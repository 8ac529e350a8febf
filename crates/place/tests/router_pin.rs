#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Pins the exact SWAP schedules of the §5.2 router.
//!
//! Routing feeds every stage cost, so any change to which swaps the router
//! emits — or in which level and order — moves placements. This test
//! hashes the complete `levels()` of seeded random permutations, some with
//! wildcard (don't-care) values, on a spread of graphs with the leaf–target
//! override both on and off, and compares against a constant. A refactor
//! of the router must keep the constant; a deliberate change of routing
//! behaviour must update it and say why.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use qcp_graph::{generate, Graph};
use qcp_place::router::{route_permutation, verify_schedule, RouterConfig, SwapSchedule};

/// Permutations routed per graph and router configuration.
const TRIALS: usize = 40;

/// FNV-1a over the schedule's level structure and swap endpoints.
fn fold(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn fold_schedule(hash: &mut u64, schedule: &SwapSchedule) {
    fold(hash, schedule.depth() as u64);
    for level in schedule.levels() {
        fold(hash, level.len() as u64);
        for &(a, b) in level {
            fold(hash, a.index() as u64);
            fold(hash, b.index() as u64);
        }
    }
}

/// A seeded permutation of `0..n`; every third trial leaves about a
/// quarter of the values as wildcards.
fn random_targets(n: usize, trial: usize, rng: &mut StdRng) -> Vec<Option<usize>> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    perm.into_iter()
        .map(|d| (trial % 3 != 2 || rng.gen_range(0..4) != 0).then_some(d))
        .collect()
}

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid4x4", generate::grid(4, 4)),
        ("grid8x8", generate::grid(8, 8)),
        ("ring9", generate::ring(9)),
        ("caterpillar5x2", generate::caterpillar(5, 2)),
        (
            "trans-crotonic-acid",
            qcp_env::molecules::trans_crotonic_acid().bond_graph(),
        ),
    ]
}

#[test]
fn router_schedules_are_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut swaps = 0usize;
    for (name, g) in graphs() {
        for leaf_override in [true, false] {
            let config = RouterConfig { leaf_override };
            let mut rng = StdRng::seed_from_u64(0x5eed_0000 + g.node_count() as u64);
            for trial in 0..TRIALS {
                let targets = random_targets(g.node_count(), trial, &mut rng);
                let s = route_permutation(&g, &targets, &config).unwrap();
                assert!(
                    verify_schedule(&g, &targets, &s),
                    "{name} leaf_override={leaf_override} trial {trial}"
                );
                swaps += s.swap_count();
                fold_schedule(&mut hash, &s);
            }
        }
    }
    assert_eq!(
        (hash, swaps),
        (0x850c_6f09_4dc3_f75c, 35_679),
        "router schedules changed"
    );
}
