//! The built-in [`Solver`] implementations: one per algorithm family of the paper.

use super::{EngineError, RunContext, Solver, SolverRun};
use crate::advice::{run_with_advice, AdviceAlgorithm, Oracle};
use crate::cppe::solve_cppe_on_j;
use crate::map_algorithms::solve_with_map;
use crate::port_election::solve_port_election_on_u;
use crate::selection::{SelectionAlgorithm, SelectionOracle};
use crate::tasks::Task;
use anet_constructions::j_class::JMember;
use anet_graph::PortGraph;

/// The minimum-time map-based baseline: solves any of the four shades on any feasible
/// graph in exactly its election index `ψ_Z(G)` rounds, assuming every node knows the
/// map (Lemmas 2.7 / 3.9 / 4.9, upper-bound halves).
#[derive(Debug, Clone, Copy)]
pub struct MapSolver {
    /// Budget for the search work per class behind the PPE / CPPE assignments.
    pub max_paths: usize,
}

impl MapSolver {
    /// A map solver with an explicit search budget.
    pub fn new(max_paths: usize) -> Self {
        MapSolver { max_paths }
    }
}

impl Default for MapSolver {
    /// The default budget (50 000 simple paths) used throughout the experiments.
    fn default() -> Self {
        MapSolver::new(50_000)
    }
}

impl Solver for MapSolver {
    fn name(&self) -> String {
        "map".to_string()
    }

    fn solve(
        &self,
        graph: &PortGraph,
        task: Task,
        ctx: &RunContext<'_>,
    ) -> Result<SolverRun, EngineError> {
        solve_with_map(graph, task, self.max_paths, ctx)
            .map_err(|e| EngineError::solver(self.name(), e))
    }
}

/// An oracle/algorithm pair run through the advice framework: the oracle sees the
/// whole graph and broadcasts one binary string, the algorithm decides from
/// `(advice, B^r(v))`. The engine records the advice size in the report.
///
/// The requested task is ignored by the solver itself — the pair produces whatever
/// shade its decision function outputs, and the engine weakens per Fact 1.1. A graph
/// the oracle has no advice for ([`Oracle::try_advise`] answers `None`) is a solver
/// error, not a panic.
pub struct AdviceSolver<O, A> {
    label: String,
    oracle: O,
    algorithm: A,
}

impl<O, A> AdviceSolver<O, A>
where
    O: Oracle,
    A: AdviceAlgorithm,
{
    /// Wrap an oracle/algorithm pair under a display label.
    pub fn new(label: impl Into<String>, oracle: O, algorithm: A) -> Self {
        AdviceSolver {
            label: label.into(),
            oracle,
            algorithm,
        }
    }
}

impl AdviceSolver<SelectionOracle, SelectionAlgorithm> {
    /// The Theorem 2.2 pair: Selection in minimum time `ψ_S(G)` with
    /// `O((Δ−1)^{ψ_S} log Δ)` advice bits (the encoded view ships in the paper's
    /// unfolded-tree format).
    ///
    /// On a graph with no unique view at any depth (infinite Selection index) the
    /// oracle has no advice, and [`Solver::solve`] returns an
    /// [`EngineError::Solver`].
    pub fn theorem_2_2() -> Self {
        AdviceSolver::new(
            "advice(thm-2.2)",
            SelectionOracle::tree(),
            SelectionAlgorithm::tree(),
        )
    }

    /// The Theorem 2.2 pair shipping the chosen view in the **shared-DAG** format:
    /// the same election (identical outputs, rounds, messages), but the advice costs
    /// `O(distinct subtrees)` bits instead of `Θ((Δ−1)^{ψ_S} log Δ)` — on
    /// near-symmetric graphs an exponential saving for the same information. Reports
    /// carry both sizes either way ([`super::ElectionReport::advice_tree_bits`] /
    /// [`super::ElectionReport::advice_dag_bits`]).
    pub fn theorem_2_2_dag() -> Self {
        AdviceSolver::new(
            "advice(thm-2.2, dag)",
            SelectionOracle::dag(),
            SelectionAlgorithm::dag(),
        )
    }
}

impl<O, A> Solver for AdviceSolver<O, A>
where
    O: Oracle,
    A: AdviceAlgorithm,
{
    fn name(&self) -> String {
        self.label.clone()
    }

    fn solve(
        &self,
        graph: &PortGraph,
        _task: Task,
        ctx: &RunContext<'_>,
    ) -> Result<SolverRun, EngineError> {
        // The oracle advises once; the pair then runs on that advice, which
        // broadcasts itself as an `Oracle`.
        let advice = self.oracle.try_advise(graph).ok_or_else(|| {
            EngineError::solver(
                self.name(),
                "unsolvable: the oracle has no advice for this graph",
            )
        })?;
        run_with_advice(graph, &advice, &self.algorithm, ctx)
            .map_err(|e| EngineError::solver(self.name(), e))
    }
}

/// The Lemma 3.9 Port Election algorithm: solves `PE` in exactly `k` rounds on every
/// member of `U_{Δ,k}`, given the map. Errors on graphs that are not `U` members.
#[derive(Debug, Clone, Copy)]
pub struct PortElectionSolver {
    /// The class parameter `k` (= `ψ_S` = `ψ_PE` of the member).
    pub k: usize,
}

impl PortElectionSolver {
    /// A Port Election solver for class parameter `k`.
    pub fn new(k: usize) -> Self {
        PortElectionSolver { k }
    }
}

impl Solver for PortElectionSolver {
    fn name(&self) -> String {
        format!("port-election(lemma-3.9, k={})", self.k)
    }

    fn solve(
        &self,
        graph: &PortGraph,
        _task: Task,
        ctx: &RunContext<'_>,
    ) -> Result<SolverRun, EngineError> {
        solve_port_election_on_u(graph, self.k, ctx)
            .map_err(|e| EngineError::solver(self.name(), e))
    }
}

/// The Lemma 4.8 Complete Port Path Election algorithm: solves `CPPE` in `k` rounds on
/// a member of `J_{μ,k}`, given the member handle (which plays the role of the map).
///
/// The solver owns its `JMember`; running the engine on any other graph is an error
/// (the map would not describe the network).
///
/// The paper's algorithm is a function of `B^k(v)`: the solver evaluates it once per
/// refinement class on the map and runs the `k` rounds under the [`RunContext`], like
/// every other solver.
pub struct CppeSolver {
    member: JMember,
    k: usize,
}

impl CppeSolver {
    /// A CPPE solver for one `J_{μ,k}` member with class parameter `k`.
    pub fn new(member: JMember, k: usize) -> Self {
        CppeSolver { member, k }
    }

    /// The member this solver's map describes.
    pub fn member(&self) -> &JMember {
        &self.member
    }
}

impl Solver for CppeSolver {
    fn name(&self) -> String {
        format!("cppe(lemma-4.8, k={})", self.k)
    }

    fn solve(
        &self,
        graph: &PortGraph,
        _task: Task,
        ctx: &RunContext<'_>,
    ) -> Result<SolverRun, EngineError> {
        if *graph != self.member.labeled.graph {
            return Err(EngineError::solver(
                self.name(),
                "the graph is not the J member this solver's map describes",
            ));
        }
        solve_cppe_on_j(&self.member, self.k, ctx).map_err(|e| EngineError::solver(self.name(), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Election;
    use anet_constructions::{JClass, UClass};

    #[test]
    fn port_election_solver_on_u_member_elects_a_cycle_root() {
        let class = UClass::new(4, 1).unwrap();
        let member = class.member(&[2u32; 9]).unwrap();
        let report = Election::task(Task::PortElection)
            .solver(PortElectionSolver::new(class.k))
            .run(&member.labeled.graph)
            .unwrap();
        assert!(report.solved(), "{}", report.summary());
        assert_eq!(report.rounds, class.k);
        assert!(member.cycle_roots().contains(&report.leader().unwrap()));
        // The same solver serves the weaker Selection shade via Fact 1.1.
        let s = Election::task(Task::Selection)
            .solver(PortElectionSolver::new(class.k))
            .run(&member.labeled.graph)
            .unwrap();
        assert!(s.solved());
    }

    #[test]
    fn port_election_solver_rejects_non_u_graphs() {
        let g = anet_graph::generators::star(3).unwrap();
        let err = Election::task(Task::PortElection)
            .solver(PortElectionSolver::new(1))
            .run(&g)
            .unwrap_err();
        assert!(matches!(err, EngineError::Solver { .. }));
    }

    #[test]
    fn cppe_solver_solves_all_four_shades_on_its_member() {
        let class = JClass::new(2, 4).unwrap();
        let member = class.template(Some(3)).unwrap();
        let graph = member.labeled.graph.clone();
        let rho0 = member.rho(0);
        for task in Task::ALL {
            let report = Election::task(task)
                .solver(CppeSolver::new(class.template(Some(3)).unwrap(), class.k))
                .run(&graph)
                .unwrap();
            assert!(report.solved(), "{task}: {}", report.summary());
            assert_eq!(report.leader(), Some(rho0), "{task}: the leader is ρ_0");
            assert_eq!(report.rounds, class.k);
        }
    }

    #[test]
    fn cppe_solver_rejects_foreign_graphs() {
        let class = JClass::new(2, 4).unwrap();
        let member = class.template(Some(3)).unwrap();
        let other = anet_graph::generators::star(4).unwrap();
        let err = Election::task(Task::CompletePortPathElection)
            .solver(CppeSolver::new(member, class.k))
            .run(&other)
            .unwrap_err();
        assert!(matches!(err, EngineError::Solver { .. }));
    }
}
