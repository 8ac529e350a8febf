//! Timed pulse sequences.
//!
//! The last step before execution in the NMR workflow the paper describes
//! (§3: "the timing optimization is built into a compiler that takes in a
//! circuit and a refocusing scheme and outputs a sequence of (timed)
//! pulses ready to be executed"). Given a placed [`Schedule`] and an
//! environment, [`Timeline::compute`] assigns every gate its start and
//! finish instant under the runtime dynamic program and exposes the
//! result as an inspectable, renderable event list — the library's
//! equivalent of that pulse program.

use qcp_circuit::Time;
use qcp_env::{Environment, PhysicalQubit};

use crate::cost::{CostEngine, CostModel, ExecutionModel, Schedule};

/// One timed gate instance.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedGate {
    /// First (or only) nucleus.
    pub a: PhysicalQubit,
    /// Second nucleus for couplings.
    pub b: Option<PhysicalQubit>,
    /// Start instant.
    pub start: Time,
    /// Finish instant (`start` for zero-duration frame changes).
    pub finish: Time,
    /// Index of the schedule level the gate came from.
    pub level: usize,
}

impl TimedGate {
    /// Duration of the event.
    pub fn duration(&self) -> Time {
        self.finish - self.start
    }

    /// Returns `true` if the gate occupies nucleus `v`.
    pub fn occupies(&self, v: PhysicalQubit) -> bool {
        self.a == v || self.b == Some(v)
    }
}

/// A fully timed pulse sequence for one environment.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    events: Vec<TimedGate>,
    makespan: Time,
    qubit_count: usize,
}

impl Timeline {
    /// Times every gate of `schedule` on `env` under `model`.
    ///
    /// The per-gate times replay exactly the runtime dynamic program of
    /// §3, so `timeline.makespan()` always equals
    /// [`Schedule::runtime`](crate::Schedule::runtime).
    pub fn compute(schedule: &Schedule, env: &Environment, model: &CostModel) -> Timeline {
        let mut engine = CostEngine::new(env, *model);
        let mut events = Vec::with_capacity(schedule.gate_count());
        for (li, level) in schedule.levels().iter().enumerate() {
            if model.execution == ExecutionModel::Leveled {
                engine.barrier();
            }
            for g in level {
                let (start, finish) = engine.apply_gate(g);
                events.push(TimedGate {
                    a: g.a,
                    b: g.b,
                    start: Time::from_units(start),
                    finish: Time::from_units(finish),
                    level: li,
                });
            }
        }
        Timeline {
            events,
            makespan: engine.makespan(),
            qubit_count: env.qubit_count(),
        }
    }

    /// The timed events in schedule order.
    pub fn events(&self) -> &[TimedGate] {
        &self.events
    }

    /// Finish time of the busiest nucleus.
    pub fn makespan(&self) -> Time {
        self.makespan
    }

    /// Number of nuclei the timeline spans.
    pub fn qubit_count(&self) -> usize {
        self.qubit_count
    }

    /// Events occupying nucleus `v`, in start order.
    pub fn per_qubit(&self, v: PhysicalQubit) -> Vec<&TimedGate> {
        self.events.iter().filter(|e| e.occupies(v)).collect()
    }

    /// Renders a textual Gantt chart with `width` columns; nuclei are
    /// labelled by `names` (falling back to `p{i}`). Busy time shows as
    /// `#` for couplings and `=` for pulses.
    pub fn gantt(&self, names: &[String], width: usize) -> String {
        let width = width.max(10);
        let total = self.makespan.units();
        let mut out = String::new();
        for i in 0..self.qubit_count {
            let default = format!("p{i}");
            let name = names.get(i).unwrap_or(&default);
            let mut row = vec![b'.'; width];
            if total > 0.0 {
                for e in self.per_qubit(PhysicalQubit::new(i)) {
                    let s = ((e.start.units() / total) * width as f64).floor() as usize;
                    let f = ((e.finish.units() / total) * width as f64).ceil() as usize;
                    let ch = if e.b.is_some() { b'#' } else { b'=' };
                    for cell in row.iter_mut().take(f.min(width)).skip(s.min(width)) {
                        *cell = ch;
                    }
                }
            }
            out.push_str(&format!(
                "{:>6} |{}|\n",
                name,
                String::from_utf8_lossy(&row)
            ));
        }
        out.push_str(&format!("makespan: {}\n", self.makespan));
        out
    }

    /// Validates internal consistency: per-nucleus events never overlap
    /// and finishes never precede starts. Used by tests and debug builds.
    pub fn is_consistent(&self) -> bool {
        for e in &self.events {
            if e.finish < e.start {
                return false;
            }
        }
        for i in 0..self.qubit_count {
            let evs = self.per_qubit(PhysicalQubit::new(i));
            for w in evs.windows(2) {
                if w[1].start.units() + 1e-9 < w[0].finish.units() {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::PlacedGate;
    use crate::{Placer, PlacerConfig};
    use qcp_circuit::library;
    use qcp_env::{molecules, Threshold};

    fn p(i: usize) -> PhysicalQubit {
        PhysicalQubit::new(i)
    }

    #[test]
    fn makespan_matches_runtime_dp() {
        let env = molecules::acetyl_chloride();
        let circuit = library::qec3_encoder();
        let placer = Placer::new(&env, PlacerConfig::with_threshold(Threshold::new(100.0)));
        let outcome = placer.place(&circuit).unwrap();
        let model = CostModel::overlapped();
        let tl = Timeline::compute(&outcome.schedule, &env, &model);
        assert_eq!(tl.makespan().units(), outcome.runtime.units());
        assert!(tl.is_consistent());
        assert_eq!(tl.events().len(), outcome.schedule.gate_count());
    }

    #[test]
    fn event_times_follow_table_1() {
        // The 770-unit mapping: the ZZab coupling must run 8..680.
        let env = molecules::acetyl_chloride();
        let circuit = library::qec3_encoder();
        let placement = crate::Placement::new(vec![p(0), p(2), p(1)], 3).unwrap();
        let schedule = Schedule::from_placed_circuit(&circuit, &placement);
        let tl = Timeline::compute(&schedule, &env, &CostModel::overlapped());
        let zz_ab = tl
            .events()
            .iter()
            .find(|e| e.b.is_some() && e.occupies(p(0)))
            .expect("coupling on M present");
        assert_eq!(zz_ab.start.units(), 8.0);
        assert_eq!(zz_ab.finish.units(), 680.0);
    }

    #[test]
    fn free_gates_are_instantaneous() {
        let env = molecules::acetyl_chloride();
        let mut s = Schedule::new();
        s.push_level(vec![PlacedGate::one(p(0), 0.0)]);
        let tl = Timeline::compute(&s, &env, &CostModel::overlapped());
        assert_eq!(tl.events()[0].duration().units(), 0.0);
        assert!(tl.makespan().is_zero());
    }

    #[test]
    fn per_qubit_and_utilization() {
        let env = molecules::lnn_chain(3, 10.0);
        let mut s = Schedule::new();
        s.push_level(vec![PlacedGate::two(p(0), p(1), 1.0)]);
        s.push_level(vec![PlacedGate::two(p(1), p(2), 1.0)]);
        let tl = Timeline::compute(&s, &env, &CostModel::overlapped());
        assert_eq!(tl.per_qubit(p(1)).len(), 2);
        assert_eq!(tl.per_qubit(p(0)).len(), 1);
        assert!(tl.is_consistent());
    }

    #[test]
    fn gantt_renders_rows() {
        let env = molecules::acetyl_chloride();
        let circuit = library::qec3_encoder();
        let placer = Placer::new(&env, PlacerConfig::with_threshold(Threshold::new(100.0)));
        let outcome = placer.place(&circuit).unwrap();
        let tl = Timeline::compute(&outcome.schedule, &env, &CostModel::overlapped());
        let g = tl.gantt(&env.nucleus_names(), 40);
        assert_eq!(g.lines().count(), 4); // 3 nuclei + makespan
        assert!(g.contains('#'), "couplings visible");
        assert!(g.contains("makespan: 0.0136 sec"));
    }

    #[test]
    fn leveled_timeline_serializes_levels() {
        let env = molecules::lnn_chain(4, 10.0);
        let mut s = Schedule::new();
        s.push_level(vec![PlacedGate::two(p(0), p(1), 1.0)]);
        s.push_level(vec![PlacedGate::two(p(2), p(3), 1.0)]);
        let tl = Timeline::compute(&s, &env, &CostModel::leveled());
        // Second level starts only after the first finishes.
        assert_eq!(tl.events()[1].start.units(), 10.0);
        let tl_overlap = Timeline::compute(&s, &env, &CostModel::overlapped());
        assert_eq!(tl_overlap.events()[1].start.units(), 0.0);
    }

    #[test]
    fn swap_stages_visible_in_timeline() {
        let env = molecules::trans_crotonic_acid();
        let t = Threshold::new(200.0);
        let placer = Placer::new(&env, PlacerConfig::with_threshold(t));
        let outcome = placer.place(&library::qft(6)).unwrap();
        assert!(outcome.swap_count() > 0);
        let tl = Timeline::compute(&outcome.schedule, &env, &CostModel::overlapped());
        assert!(tl.is_consistent());
        assert_eq!(tl.makespan().units(), outcome.runtime.units());
    }
}
