//! Fidelity and refocusing diagnostics.
//!
//! The paper frames placement as timing optimization "under the natural
//! assumption that gate fidelities are inversely proportional to the
//! coupling strength/gate runtime, otherwise, a function of both may be
//! considered" (§1), and notes that unused drift couplings "get eliminated
//! via a technique called refocussing" (§2). This module quantifies the
//! exposure behind both costs for a timed placement:
//!
//! * [`ExposureReport`] — how long each nucleus sits idle (dephasing) and
//!   how long every *unused* coupling keeps evolving (needing refocusing
//!   pulses).

use qcp_circuit::Time;
use qcp_env::{Environment, PhysicalQubit};

use crate::timeline::{TimedGate, Timeline};

/// Idle/coupling exposure of one timed placement.
#[derive(Clone, Debug)]
pub struct ExposureReport {
    /// For each nucleus: total busy time (gates executing on it).
    pub busy: Vec<Time>,
    /// For each nucleus: makespan minus busy time.
    pub idle: Vec<Time>,
    /// For each unordered pair with a finite coupling: the time the pair
    /// spends *not* executing a joint gate — drift evolution that must be
    /// refocussed away. Entries are `(a, b, exposure)` with `a < b`.
    pub coupling_exposure: Vec<(PhysicalQubit, PhysicalQubit, Time)>,
    /// The experiment's makespan.
    pub makespan: Time,
}

impl ExposureReport {
    /// Computes the report for a timed schedule on `env`.
    pub fn from_timeline(timeline: &Timeline, env: &Environment) -> ExposureReport {
        let m = env.qubit_count();
        let makespan = timeline.makespan();
        let busy: Vec<Time> = (0..m)
            .map(|i| {
                timeline
                    .per_qubit(PhysicalQubit::new(i))
                    .iter()
                    .map(|e| e.duration())
                    .sum()
            })
            .collect();
        let idle: Vec<Time> = busy.iter().map(|&b| makespan - b).collect();

        let mut coupling_exposure = Vec::new();
        for i in 0..m {
            for j in i + 1..m {
                let (a, b) = (PhysicalQubit::new(i), PhysicalQubit::new(j));
                if !env.weight_units(a, b).is_finite() {
                    continue;
                }
                // Time this pair spends executing a *joint* gate.
                let joint: Time = timeline
                    .events()
                    .iter()
                    .filter(|e| (e.a == a && e.b == Some(b)) || (e.a == b && e.b == Some(a)))
                    .map(TimedGate::duration)
                    .sum();
                coupling_exposure.push((a, b, makespan - joint));
            }
        }
        ExposureReport {
            busy,
            idle,
            coupling_exposure,
            makespan,
        }
    }

    /// The couplings with the largest exposure, descending.
    pub fn worst_couplings(&self, k: usize) -> Vec<(PhysicalQubit, PhysicalQubit, Time)> {
        let mut v = self.coupling_exposure.clone();
        v.sort_by(|x, y| y.2.total_cmp(&x.2));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::{Placer, PlacerConfig};
    use qcp_circuit::library;
    use qcp_env::{molecules, Threshold};

    fn report_for_qec3() -> (ExposureReport, qcp_env::Environment) {
        let env = molecules::acetyl_chloride();
        let placer = Placer::new(&env, PlacerConfig::with_threshold(Threshold::new(100.0)));
        let outcome = placer.place(&library::qec3_encoder()).unwrap();
        let tl = Timeline::compute(&outcome.schedule, &env, &CostModel::overlapped());
        (ExposureReport::from_timeline(&tl, &env), env)
    }

    #[test]
    fn busy_plus_idle_equals_makespan() {
        let (report, env) = report_for_qec3();
        for v in env.qubits() {
            let total = report.busy[v.index()] + report.idle[v.index()];
            assert!((total.units() - report.makespan.units()).abs() < 1e-9);
        }
    }

    #[test]
    fn unused_coupling_is_exposed_for_the_whole_run() {
        let (report, env) = report_for_qec3();
        // The circuit uses M–C1 and C1–C2 under the optimal placement;
        // the slow M–C2 coupling is never used, so its exposure is the
        // whole makespan.
        let m = env.find_nucleus("M").unwrap();
        let c2 = env.find_nucleus("C2").unwrap();
        let (lo, hi) = if m < c2 { (m, c2) } else { (c2, m) };
        let entry = report
            .coupling_exposure
            .iter()
            .find(|&&(a, b, _)| a == lo && b == hi)
            .expect("pair present");
        assert_eq!(entry.2.units(), report.makespan.units());
    }

    #[test]
    fn used_couplings_have_reduced_exposure() {
        let (report, _) = report_for_qec3();
        let min = report
            .coupling_exposure
            .iter()
            .map(|&(_, _, t)| t.units())
            .fold(f64::INFINITY, f64::min);
        assert!(
            min < report.makespan.units(),
            "some coupling was actually used"
        );
    }

    #[test]
    fn worst_couplings_sorted() {
        let (report, _) = report_for_qec3();
        let worst = report.worst_couplings(3);
        for w in worst.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
    }
}
