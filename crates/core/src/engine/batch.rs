//! Sweeping one configured election across the instances of a graph family.
//!
//! The paper's experiments all have the same shape: fix a task and an algorithm, walk
//! a family of graphs (`G_{Δ,k}` members, `U_{Δ,k}` members, `J_{μ,k}` chains, or an
//! ad-hoc suite), and tabulate measured quantities next to the paper's closed-form
//! bounds. [`ElectionBuilder::sweep`] is that loop: it runs one configured election
//! on every instance of a [`GraphFamily`](anet_constructions::GraphFamily) and
//! collects uniform [`BatchRow`]s that `anet-bench` renders as
//! paper-bound-vs-measured tables.

use super::{ElectionBuilder, ElectionReport, EngineError};
use crate::tasks::Task;
use anet_constructions::FamilyInstance;

/// The result of one engine run inside a sweep.
#[derive(Debug)]
pub struct BatchRow {
    /// The family's display name.
    pub family: String,
    /// The instance's display name.
    pub instance: String,
    /// The family-specific instance parameter (member index / chain cap).
    pub param: u64,
    /// Number of nodes of the instance graph.
    pub nodes: usize,
    /// Maximum degree of the instance graph.
    pub max_degree: usize,
    /// The task that was run.
    pub task: Task,
    /// The engine report, or the engine error for this instance.
    pub report: Result<ElectionReport, EngineError>,
}

impl BatchRow {
    /// Did this instance solve the task?
    pub fn solved(&self) -> bool {
        self.report.as_ref().map(|r| r.solved()).unwrap_or(false)
    }

    /// Rounds used, if the run produced a report.
    pub fn rounds(&self) -> Option<usize> {
        self.report.as_ref().ok().map(|r| r.rounds)
    }

    /// Advice bits, if the run produced a report from an advice-based solver.
    pub fn advice_bits(&self) -> Option<usize> {
        self.report.as_ref().ok().and_then(|r| r.advice_bits)
    }

    /// Total bits put on the wire, if the run was metered (see
    /// [`ElectionReport::wire`]); `None` on unmetered runs and engine errors.
    pub fn wire_bits(&self) -> Option<u64> {
        self.report
            .as_ref()
            .ok()
            .and_then(|r| r.wire.as_ref())
            .map(|w| w.total_bits())
    }

    /// The heaviest single directed edge's total bits, if the run was metered.
    pub fn wire_max_edge_bits(&self) -> Option<u64> {
        self.report
            .as_ref()
            .ok()
            .and_then(|r| r.wire.as_ref())
            .map(|w| w.max_edge_bits())
    }
}

impl ElectionBuilder {
    /// Run the configured election on each of `instances`, in order, and return one
    /// [`BatchRow`] per instance, filed under the family name `family`.
    ///
    /// Every run borrows `&instance.graph`, so one materialisation
    /// ([`GraphFamily::instances`](anet_constructions::GraphFamily::instances)) can
    /// be swept across many tasks or backends without regenerating or cloning a
    /// graph. Every setting of the builder (backend, thread budget, metering,
    /// profiling, tracing, shared interner) applies to every run. A solver that needs
    /// per-instance data, such as the Lemma 4.8 solver built from its `J_{μ,k}`
    /// member, takes one builder per instance.
    pub fn sweep(&self, family: &str, instances: &[FamilyInstance]) -> Vec<BatchRow> {
        instances
            .iter()
            .map(|instance| BatchRow {
                family: family.to_string(),
                instance: instance.name.clone(),
                param: instance.param,
                nodes: instance.graph.num_nodes(),
                max_degree: instance.graph.max_degree(),
                task: self.task,
                report: self.run(&instance.graph),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AdviceSolver, Backend, CppeSolver, Election, MapSolver, ViewCodec};
    use anet_constructions::{GClass, GraphFamily, JClass};

    #[test]
    fn map_sweep_over_g_family_solves_every_task() {
        let class = GClass::new(4, 1).unwrap();
        let instances = class.instances(2);
        let rows: Vec<BatchRow> = Task::ALL
            .iter()
            .flat_map(|&task| {
                Election::task(task)
                    .solver(MapSolver::default())
                    .sweep(&class.family_name(), &instances)
            })
            .collect();
        assert_eq!(rows.len(), 2 * Task::ALL.len());
        for row in &rows {
            assert!(row.solved(), "{} {} failed", row.instance, row.task);
            assert!(row.rounds().is_some());
            assert!(row.advice_bits().is_none(), "map solver reports no bits");
        }
        // The hierarchy of Fact 1.1 shows up in the measured rounds per instance:
        // rows are grouped by task (weakest first), two instances per task.
        for instance in 0..2 {
            let per_task: Vec<usize> = (0..Task::ALL.len())
                .map(|t| rows[t * 2 + instance].rounds().unwrap())
                .collect();
            assert!(per_task.windows(2).all(|w| w[0] <= w[1]), "{per_task:?}");
        }
    }

    #[test]
    fn advice_sweep_records_bits() {
        let class = GClass::new(4, 1).unwrap();
        let rows = Election::task(Task::Selection)
            .solver(AdviceSolver::theorem_2_2())
            .backend(Backend::Parallel { threads: 2 })
            .sweep(&class.family_name(), &class.instances(2));
        for row in &rows {
            assert!(row.solved());
            assert!(row.advice_bits().unwrap() > 0);
        }
    }

    #[test]
    fn metered_sweep_rows_carry_wire_bits_without_changing_results() {
        let class = GClass::new(4, 1).unwrap();
        let instances = class.instances(2);
        let plain = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .sweep(&class.family_name(), &instances);
        let metered = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .metered(ViewCodec::Delta)
            .sweep(&class.family_name(), &instances);
        assert_eq!(plain.len(), metered.len());
        for (a, b) in plain.iter().zip(&metered) {
            assert!(a.wire_bits().is_none(), "unmetered rows carry no bits");
            assert!(b.wire_bits().unwrap() > 0, "{}", b.instance);
            assert!(b.wire_max_edge_bits().unwrap() <= b.wire_bits().unwrap());
            assert_eq!(a.rounds(), b.rounds());
            assert_eq!(
                a.report.as_ref().unwrap().outputs,
                b.report.as_ref().unwrap().outputs
            );
        }
    }

    #[test]
    fn cppe_sweep_rebuilds_members_from_params() {
        let class = JClass::new(2, 4).unwrap();
        let rows: Vec<BatchRow> = class
            .instances(2)
            .iter()
            .flat_map(|instance| {
                let member = class
                    .template(Some(instance.param as usize))
                    .expect("param is the chain cap");
                Election::task(Task::CompletePortPathElection)
                    .solver(CppeSolver::new(member, class.k))
                    .sweep(&class.family_name(), std::slice::from_ref(instance))
            })
            .collect();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.solved(), "{}", row.instance);
            assert_eq!(row.rounds(), Some(class.k));
        }
    }
}
