//! Sweeping one engine configuration across a family of graphs.
//!
//! The paper's experiments all have the same shape: fix a task and an algorithm, walk
//! a family of graphs (`G_{Δ,k}` members, `U_{Δ,k}` members, `J_{μ,k}` chains, or an
//! ad-hoc suite), and tabulate measured quantities next to the paper's closed-form
//! bounds. [`BatchRunner`] is that loop, factored out once: it drives the
//! [`Election`](super::Election) builder over every instance of a
//! [`GraphFamily`] and collects uniform [`BatchRow`]s that `anet-bench` renders as
//! paper-bound-vs-measured tables.

use super::{Backend, Election, ElectionReport, EngineError, Solver, ViewCodec};
use crate::tasks::Task;
use anet_constructions::{FamilyInstance, GraphFamily};

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

    /// Tree-codec size of the advice's encoded view, when the oracle reports it.
    pub fn advice_tree_bits(&self) -> Option<usize> {
        self.report.as_ref().ok().and_then(|r| r.advice_tree_bits)
    }

    /// Shared-DAG-codec size of the advice's encoded view, when the oracle reports
    /// it (compare with [`advice_tree_bits`](BatchRow::advice_tree_bits) to see the
    /// sharing collapse per instance).
    pub fn advice_dag_bits(&self) -> Option<usize> {
        self.report.as_ref().ok().and_then(|r| r.advice_dag_bits)
    }

    /// Quotient classes expanded by the map-side assignment search, if the run
    /// produced a report (zero for solvers that never search).
    pub fn classes_expanded(&self) -> Option<usize> {
        self.report.as_ref().ok().map(|r| r.search.classes_expanded)
    }

    /// Candidate paths explored by the map-side assignment search, if the run
    /// produced a report (zero for solvers that never search).
    pub fn paths_explored(&self) -> Option<usize> {
        self.report.as_ref().ok().map(|r| r.search.paths_explored)
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

/// Sweeps an election configuration across the instances of a [`GraphFamily`].
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner {
    backend: Backend,
    max_instances: usize,
    profiled: bool,
    wire: Option<ViewCodec>,
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new(Backend::Sequential)
    }
}

impl BatchRunner {
    /// A runner executing every instance on `backend`, visiting at most 8 instances
    /// per family (override with [`BatchRunner::max_instances`]).
    pub fn new(backend: Backend) -> Self {
        BatchRunner {
            backend,
            max_instances: 8,
            profiled: false,
            wire: None,
        }
    }

    /// Cap the number of instances visited per family.
    pub fn max_instances(mut self, n: usize) -> Self {
        self.max_instances = n;
        self
    }

    /// Meter every instance run through `codec` (see
    /// [`ElectionBuilder::metered`](super::ElectionBuilder::metered)): each row's
    /// report carries [`ElectionReport::wire`] with per-round / per-edge bit
    /// counts. Outputs and logical accounting are unchanged.
    pub fn metered(mut self, codec: ViewCodec) -> Self {
        self.wire = Some(codec);
        self
    }

    /// Record a round-level profile for every instance run (see
    /// [`ElectionBuilder::profiled`](super::ElectionBuilder::profiled)): each row's
    /// report carries a `round_profile`, which the sweep driver serialises into its
    /// trace artifact. Off by default — the disabled probe keeps sweep output
    /// byte-identical to an unprofiled run.
    pub fn profiled(mut self, on: bool) -> Self {
        self.profiled = on;
        self
    }

    /// Run `task` with a per-instance solver over up to
    /// [`max_instances`](BatchRunner::max_instances) members of `family`.
    ///
    /// `make_solver` builds the solver for each instance — families whose solvers
    /// need per-instance data (the Lemma 4.8 CPPE solver needs the `JMember` map, the
    /// Lemma 3.9 solver needs `k`) rebuild it from [`FamilyInstance::param`].
    ///
    /// Materialises the family's instances once and runs them borrowed; callers that
    /// already hold materialised instances (several sweeps over one family) should use
    /// [`sweep_instances`](BatchRunner::sweep_instances) directly.
    pub fn sweep<F>(&self, family: &dyn GraphFamily, task: Task, make_solver: F) -> Vec<BatchRow>
    where
        F: Fn(&FamilyInstance) -> Box<dyn Solver>,
    {
        let instances = family.instances(self.max_instances);
        self.sweep_instances(&family.family_name(), &instances, task, make_solver)
    }

    /// [`sweep`](BatchRunner::sweep) over already-materialised, *borrowed* instances:
    /// every engine run borrows `&instance.graph` directly, so sweeping the same
    /// instances across many tasks or backends never regenerates or clones a graph.
    /// At most [`max_instances`](BatchRunner::max_instances) instances are visited.
    pub fn sweep_instances<F>(
        &self,
        family_name: &str,
        instances: &[FamilyInstance],
        task: Task,
        make_solver: F,
    ) -> Vec<BatchRow>
    where
        F: Fn(&FamilyInstance) -> Box<dyn Solver>,
    {
        instances
            .iter()
            .take(self.max_instances)
            .map(|instance| {
                let mut builder = Election::task(task)
                    .solver_boxed(make_solver(instance))
                    .backend(self.backend);
                if self.profiled {
                    builder = builder.profiled();
                }
                if let Some(codec) = self.wire {
                    builder = builder.metered(codec);
                }
                let report = builder.run(&instance.graph);
                BatchRow {
                    family: family_name.to_string(),
                    instance: instance.name.clone(),
                    param: instance.param,
                    nodes: instance.graph.num_nodes(),
                    max_degree: instance.graph.max_degree(),
                    task,
                    report,
                }
            })
            .collect()
    }

    /// [`sweep`](BatchRunner::sweep) over several tasks (rows grouped by task). The
    /// family's instances are materialised once and shared, borrowed, by every task.
    pub fn sweep_tasks<F>(
        &self,
        family: &dyn GraphFamily,
        tasks: &[Task],
        make_solver: F,
    ) -> Vec<BatchRow>
    where
        F: Fn(&FamilyInstance) -> Box<dyn Solver>,
    {
        let instances = family.instances(self.max_instances);
        let name = family.family_name();
        tasks
            .iter()
            .flat_map(|&task| self.sweep_instances(&name, &instances, task, &make_solver))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AdviceSolver, CppeSolver, MapSolver};
    use anet_constructions::{GClass, JClass};

    #[test]
    fn map_sweep_over_g_family_solves_every_task() {
        let class = GClass::new(4, 1).unwrap();
        let runner = BatchRunner::default().max_instances(2);
        let rows = runner.sweep_tasks(&class, &Task::ALL, |_| Box::new(MapSolver::default()));
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
    fn sweep_over_borrowed_instances_matches_family_sweep() {
        let class = GClass::new(4, 1).unwrap();
        let runner = BatchRunner::default().max_instances(2);
        let direct = runner.sweep(&class, Task::Selection, |_| Box::new(MapSolver::default()));
        // Materialise once, sweep borrowed — same rows, graphs never rebuilt.
        let instances = class.instances(2);
        let borrowed =
            runner.sweep_instances(&class.family_name(), &instances, Task::Selection, |_| {
                Box::new(MapSolver::default())
            });
        assert_eq!(direct.len(), borrowed.len());
        for (a, b) in direct.iter().zip(&borrowed) {
            assert_eq!(a.family, b.family);
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.param, b.param);
            assert_eq!(a.rounds(), b.rounds());
            assert_eq!(
                a.report.as_ref().unwrap().outputs,
                b.report.as_ref().unwrap().outputs
            );
        }
        // The runner's cap still applies to an over-long borrowed slice.
        let capped = BatchRunner::default().max_instances(1).sweep_instances(
            &class.family_name(),
            &instances,
            Task::Selection,
            |_| Box::new(MapSolver::default()),
        );
        assert_eq!(capped.len(), 1);
    }

    #[test]
    fn advice_sweep_records_bits() {
        let class = GClass::new(4, 1).unwrap();
        let runner = BatchRunner::new(Backend::Parallel { threads: 2 }).max_instances(2);
        let rows = runner.sweep(&class, Task::Selection, |_| {
            Box::new(AdviceSolver::theorem_2_2())
        });
        for row in &rows {
            assert!(row.solved());
            assert!(row.advice_bits().unwrap() > 0);
        }
    }

    #[test]
    fn metered_sweep_rows_carry_wire_bits_without_changing_results() {
        let class = GClass::new(4, 1).unwrap();
        let plain = BatchRunner::default()
            .max_instances(2)
            .sweep(&class, Task::Selection, |_| Box::new(MapSolver::default()));
        let metered = BatchRunner::default()
            .max_instances(2)
            .metered(ViewCodec::Delta)
            .sweep(&class, Task::Selection, |_| Box::new(MapSolver::default()));
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
        let runner = BatchRunner::default().max_instances(2);
        let rows = runner.sweep(&class, Task::CompletePortPathElection, |instance| {
            let member = class
                .template(Some(instance.param as usize))
                .expect("param is the chain cap");
            Box::new(CppeSolver::new(member, class.k))
        });
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.solved(), "{}", row.instance);
            assert_eq!(row.rounds(), Some(class.k));
        }
    }
}
