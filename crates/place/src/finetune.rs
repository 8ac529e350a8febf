//! Fine tuning (§5.1): hill-climbing refinement of a placement.
//!
//! "For every qubit `q_i` from the circuit such that there exists a two
//! qubit gate … that operates on this qubit, try to map it to any of
//! `{v_1 … v_m}` and see if this new placement assignment is better than
//! the one provided by the initial matching. … Such an operation can be
//! repeated until no improvement can be found or for a set number of
//! iterations."

use qcp_circuit::Qubit;
use qcp_env::PhysicalQubit;

use crate::Placement;

/// Outcome of a fine-tuning run.
#[derive(Clone, Debug)]
pub struct FineTuneResult {
    /// The refined placement.
    pub placement: Placement,
    /// Its cost under the supplied objective.
    pub cost: f64,
    /// Number of accepted moves.
    pub moves: usize,
    /// Number of completed sweeps.
    pub rounds: usize,
}

/// Hill-climbs `initial` by single-qubit reassignments (moving a qubit to
/// a free nucleus, or exchanging assignments with the nucleus's current
/// occupant), scoring with `cost` (lower is better).
///
/// `movable` lists the qubits allowed to move — per the paper, the qubits
/// touched by two-qubit gates in the current workspace. `max_rounds`
/// bounds the number of full sweeps; the climb also stops as soon as a
/// sweep yields no improvement.
///
/// `cost` also receives the cost its placement must beat: a probe is
/// accepted only if its score plus `1e-9` lies below that value (the
/// first call, on `initial`, gets `f64::INFINITY`). Whenever an
/// admissible lower bound on the true cost already fails that test, the
/// scorer may return the bound instead of the cost — the probe is
/// rejected either way, so the result is the same.
pub fn fine_tune(
    initial: Placement,
    movable: &[Qubit],
    mut cost: impl FnMut(&Placement, f64) -> f64,
    max_rounds: usize,
) -> FineTuneResult {
    let mut current = initial;
    let mut best_cost = cost(&current, f64::INFINITY);
    let mut moves = 0usize;
    let mut rounds = 0usize;
    let m = current.physical_count();

    for _ in 0..max_rounds {
        let mut improved = false;
        rounds += 1;
        for &q in movable {
            let mut best_move: Option<(PhysicalQubit, f64)> = None;
            for v in (0..m).map(PhysicalQubit::new) {
                if current.physical(q) == v {
                    continue;
                }
                let cand = current.with_move(q, v);
                let to_beat = best_move.map_or(best_cost, |(_, bc)| bc);
                let c = cost(&cand, to_beat);
                if c + 1e-9 < to_beat {
                    best_move = Some((v, c));
                }
            }
            if let Some((v, c)) = best_move {
                current = current.with_move(q, v);
                best_cost = c;
                moves += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    FineTuneResult {
        placement: current,
        cost: best_cost,
        moves,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{placed_runtime, CostModel};
    use qcp_circuit::library::qec3_encoder;
    use qcp_env::molecules::acetyl_chloride;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }
    fn p(i: usize) -> PhysicalQubit {
        PhysicalQubit::new(i)
    }

    #[test]
    fn climbs_from_worst_to_optimal_on_acetyl_chloride() {
        // Start from Table 1's 770-unit mapping; the optimum is 136.
        let env = acetyl_chloride();
        let circuit = qec3_encoder();
        let model = CostModel::overlapped();
        let start = Placement::new(vec![p(0), p(2), p(1)], 3).unwrap();
        let result = fine_tune(
            start,
            &[q(0), q(1), q(2)],
            |pl, _| placed_runtime(&circuit, &env, pl, &model).units(),
            10,
        );
        assert_eq!(
            result.cost, 136.0,
            "hill climbing must reach the optimum here"
        );
        assert!(result.moves >= 1);
    }

    #[test]
    fn zero_rounds_is_identity() {
        let env = acetyl_chloride();
        let circuit = qec3_encoder();
        let model = CostModel::overlapped();
        let start = Placement::new(vec![p(0), p(2), p(1)], 3).unwrap();
        let result = fine_tune(
            start.clone(),
            &[q(0), q(1), q(2)],
            |pl, _| placed_runtime(&circuit, &env, pl, &model).units(),
            0,
        );
        assert!(result.placement.same_assignment(&start));
        assert_eq!(result.moves, 0);
    }

    #[test]
    fn immovable_qubits_stay() {
        let env = acetyl_chloride();
        let circuit = qec3_encoder();
        let model = CostModel::overlapped();
        let start = Placement::new(vec![p(0), p(2), p(1)], 3).unwrap();
        let result = fine_tune(
            start.clone(),
            &[q(1)], // only b may move (and may drag its swap partner)
            |pl, _| placed_runtime(&circuit, &env, pl, &model).units(),
            5,
        );
        // Cost can only go down or stay.
        assert!(result.cost <= 770.0);
    }

    #[test]
    fn bounded_scorer_matches_exact_scorer() {
        // A scorer may answer with an admissible lower bound (here half
        // the cost) whenever that bound cannot beat the given cost; the
        // climb must not tell the difference.
        let acetyl = acetyl_chloride();
        let crotonic = qcp_env::molecules::trans_crotonic_acid();
        let fixtures = [
            (
                &acetyl,
                qec3_encoder(),
                Placement::new(vec![p(0), p(2), p(1)], 3).unwrap(),
                vec![q(0), q(1), q(2)],
                10,
            ),
            (
                &acetyl,
                qec3_encoder(),
                Placement::new(vec![p(0), p(2), p(1)], 3).unwrap(),
                vec![q(1)],
                5,
            ),
            (
                &crotonic,
                qcp_circuit::library::qec5_benchmark(),
                Placement::identity(5, 7).unwrap(),
                (0..5).map(q).collect(),
                6,
            ),
        ];
        let model = CostModel::overlapped();
        let mut skipped = 0;
        for (env, circuit, start, movable, rounds) in fixtures {
            let exact = |pl: &Placement| placed_runtime(&circuit, env, pl, &model).units();
            let plain = fine_tune(start.clone(), &movable, |pl, _| exact(pl), rounds);
            let bounded = fine_tune(
                start,
                &movable,
                |pl, to_beat| {
                    let lb = exact(pl) / 2.0;
                    if lb + 1e-9 >= to_beat {
                        skipped += 1;
                        return lb;
                    }
                    exact(pl)
                },
                rounds,
            );
            assert!(bounded.placement.same_assignment(&plain.placement));
            assert_eq!(bounded.cost.to_bits(), plain.cost.to_bits());
            assert_eq!((bounded.moves, bounded.rounds), (plain.moves, plain.rounds));
        }
        assert!(skipped > 0, "no probe was answered with its bound");
    }

    #[test]
    fn never_worsens() {
        let env = qcp_env::molecules::trans_crotonic_acid();
        let circuit = qcp_circuit::library::qec5_benchmark();
        let model = CostModel::overlapped();
        let start = Placement::identity(5, 7).unwrap();
        let base = placed_runtime(&circuit, &env, &start, &model).units();
        let result = fine_tune(
            start,
            &(0..5).map(q).collect::<Vec<_>>(),
            |pl, _| placed_runtime(&circuit, &env, pl, &model).units(),
            6,
        );
        assert!(result.cost <= base);
    }
}
