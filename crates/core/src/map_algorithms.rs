//! Minimum-time, map-based algorithms for all four tasks.
//!
//! The election index `ψ_Z(G)` is defined with respect to algorithms that know a map
//! of `G` (an isomorphic copy with all port numbers). This module provides the
//! canonical such algorithms: precompute, from the map, the minimum depth `h`, a
//! leader with a unique view at depth `h`, and a per-view-class output assignment that
//! satisfies the task; then every node elects/outputs by matching its own `B^h(v)`
//! against the map. The per-class assignments come from `anet-views`
//! ([`anet_views::election_index`]), so the number of rounds used is exactly `ψ_Z(G)`.
//!
//! These algorithms serve two purposes in the reproduction: they are the baseline that
//! *defines* minimum time in experiment E1, and they realise the upper-bound halves of
//! Lemmas 2.7 / 3.9 / 4.9 on arbitrary feasible graphs — since the class-quotient
//! assignment search, at 10⁴ nodes and beyond.

use crate::engine::{Backend, RunContext, SolverRun};
use crate::selection::elect_by_view;
use crate::tasks::{NodeOutput, Task};
use anet_graph::PortGraph;
use anet_views::election_index::{
    cppe_election, pe_election, ppe_election, psi_s_with, IndexError,
};
use anet_views::{QuotientSearch, Refinement, View, ViewCodec, ViewInterner};
use std::collections::HashMap;

/// Errors of the map-based solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapSolveError {
    /// The task is not solvable on this graph at any time bound (infeasible graph).
    Unsolvable(Task),
    /// The PPE search ran out of its path budget (`max_paths`) at the least depth
    /// it could not settle. The CPPE search never exhausts it.
    Budget(IndexError),
}

impl std::fmt::Display for MapSolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapSolveError::Unsolvable(task) => {
                write!(
                    f,
                    "task {task} is unsolvable on this graph (even knowing the map)"
                )
            }
            MapSolveError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MapSolveError {}

impl From<IndexError> for MapSolveError {
    fn from(e: IndexError) -> Self {
        MapSolveError::Budget(e)
    }
}

/// Solve `task` on `graph` in minimum time, assuming every node knows the map.
/// `max_paths` bounds the search work per class of the PPE / CPPE assignment search.
///
/// The depth, leader and assignment come from the least-depth loop that also defines
/// `ψ_Z` in [`anet_views::election_index`], so the run uses `ψ_Z(graph)` rounds
/// whenever `ψ_Z` resolves. [`MapSolveError::Budget`] is returned when some leader at
/// the least unsettled depth exhausted the budget and no leader there succeeded; the
/// remaining leaders of that depth are still tried, find-only, before the error is
/// returned. The returned [`SolverRun`] carries the rounds (the inflated physical
/// count under [`Backend::Capped`]) with the search counters and no advice.
///
/// Selection needs no assignment: refinement stops at `ψ_S`, the leader is the first
/// node with a unique view there, only the leader's view is built from the map, and
/// every node outputs `leader` iff its own view equals it — the Theorem 2.2 rule with
/// the map in place of the advice. No search runs, so its counters are zero.
///
/// The context picks the backend the full-information simulation runs on, and
/// optionally a process-wide [`anet_views::SharedViewInterner`] that files the
/// map-side views — the leader's view for Selection, every node's view and the
/// canonicalised collected views for the other shades — so concurrent runs on
/// overlapping graph families dedup their view DAGs against each other. It also
/// carries a trace sink for the simulated rounds (the map-side precomputation is not
/// traced) and a wire codec that meters every message. Outputs and message
/// accounting are the same under every context.
pub fn solve_with_map(
    graph: &PortGraph,
    task: Task,
    max_paths: usize,
    ctx: &RunContext<'_>,
) -> Result<SolverRun, MapSolveError> {
    let mut interner = ctx
        .shared_interner
        .map_or_else(ViewInterner::new, ViewInterner::shared);
    if task == Task::Selection {
        let refinement = Refinement::compute_until_unique(graph);
        let rounds = psi_s_with(&refinement).ok_or(MapSolveError::Unsolvable(task))?;
        let leader = refinement.unique_nodes_at(rounds)[0];
        let target = interner.build(graph, leader, rounds);
        let decide = |view: &View| elect_by_view(view, &target);
        return Ok(run_full_information_wired(graph, rounds, ctx, decide));
    }
    let refinement = Refinement::compute(graph, None);
    let mut search = QuotientSearch::new(graph, &refinement);
    // The minimum depth and a per-node output assignment computed from the map.
    let chosen = match task {
        Task::Selection => unreachable!("Selection returned above"),
        Task::PortElection => {
            pe_election(&mut search).map(|(h, _, a)| (h, outputs(a, NodeOutput::FirstPort)))
        }
        Task::PortPathElection => ppe_election(&mut search, max_paths)?
            .map(|(h, _, a)| (h, outputs(a, NodeOutput::PortPath))),
        Task::CompletePortPathElection => cppe_election(&mut search, max_paths)?
            .map(|(h, _, a)| (h, outputs(a, NodeOutput::FullPath))),
    };
    let (rounds, per_node) = chosen.ok_or(MapSolveError::Unsolvable(task))?;

    // Turn the per-node assignment into a genuine view-function and run it through the
    // simulator: the assignment is constant on view classes by construction, so the
    // map from view (at depth `rounds`) to output is well-defined. The map side is one
    // shared `build_all` pass (hash-consed handles). Collected views are canonicalized
    // through the *same* interner before lookup: interning costs the view's distinct
    // nodes (the collector's output is a shared DAG), after which the table hit is
    // pointer-equal — without this, a positive equality check would walk the full
    // unfolded Θ(Δ^rounds) tree, since collector- and map-built views share no Arcs.
    let views = interner.build_all(graph, rounds);
    let mut by_view: HashMap<View, NodeOutput> = HashMap::new();
    for v in graph.nodes() {
        by_view.insert(views[v as usize].clone(), per_node[v as usize].clone());
    }
    // The decision map is applied sequentially after the communication phase, so a
    // RefCell suffices for the interner's interior mutability.
    let interner = std::cell::RefCell::new(interner);
    let decide = |view: &View| {
        let canonical = interner.borrow_mut().intern(view);
        by_view
            .get(&canonical)
            .cloned()
            .expect("every view observed in the run appears in the map")
    };
    let run = run_full_information_wired(graph, rounds, ctx, decide);
    Ok(SolverRun {
        search: search.stats(),
        ..run
    })
}

/// Per-node outputs of an assignment: the one unassigned node is the leader.
fn outputs<T>(assignment: Vec<Option<T>>, wrap: fn(T) -> NodeOutput) -> Vec<NodeOutput> {
    assignment
        .into_iter()
        .map(|a| a.map_or(NodeOutput::Leader, wrap))
        .collect()
}

/// Collect `B^rounds(v)` on `ctx.backend`, apply `decide`, and report the run with
/// no advice and no search. Every message goes through the metered transport when
/// `ctx.wire` names a codec; a bandwidth-capped backend is only meaningful with bits
/// on the wire, so it forces metering under the default codec. The shared tail of
/// every simulating solver in this crate.
///
/// `rounds` of the result is the logical depth on every ordinary backend; under
/// [`Backend::Capped`] the simulator streams large views across several physical
/// rounds and reports the inflated physical count, which is the round number the
/// CONGEST-style accounting is about.
pub(crate) fn run_full_information_wired<D>(
    graph: &PortGraph,
    rounds: usize,
    ctx: &RunContext<'_>,
    decide: D,
) -> SolverRun
where
    D: Fn(&View) -> NodeOutput,
{
    let backend = ctx.backend;
    let sink = ctx.trace_sink();
    let codec = ctx
        .wire
        .or_else(|| matches!(backend, Backend::Capped { .. }).then(ViewCodec::default));
    let (outputs, report, wire) = match codec {
        Some(codec) => {
            let (outputs, report, stats) =
                anet_sim::run_full_information_metered(graph, rounds, backend, codec, sink, decide);
            (outputs, report, Some(stats))
        }
        None => {
            let (outputs, report) =
                anet_sim::run_full_information_traced(graph, rounds, backend, sink, decide);
            (outputs, report, None)
        }
    };
    SolverRun {
        rounds: report.rounds,
        outputs,
        messages_delivered: report.messages_delivered,
        advice_bits: None,
        advice_tree_bits: None,
        advice_dag_bits: None,
        search: anet_views::SearchStats::default(),
        wire,
    }
}

/// The minimum election time of every task on a graph, computed by actually running
/// the map-based algorithms (used by experiment E1 to cross-check the election
/// indices computed combinatorially in `anet-views`).
pub fn measured_indices(
    graph: &PortGraph,
    max_paths: usize,
) -> Result<[Option<usize>; 4], MapSolveError> {
    let mut out = [None, None, None, None];
    for (slot, task) in Task::ALL.iter().enumerate() {
        out[slot] = match solve_with_map(graph, *task, max_paths, &RunContext::default()) {
            Ok(run) => Some(run.rounds),
            Err(MapSolveError::Unsolvable(_)) => None,
            Err(e @ MapSolveError::Budget(_)) => return Err(e),
        };
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::verify;
    use anet_graph::generators;
    use anet_views::election_index;

    fn check_all_tasks(graph: &PortGraph) {
        for task in Task::ALL {
            match solve_with_map(graph, task, 20_000, &RunContext::default()) {
                Ok(run) => {
                    verify(task, graph, &run.outputs)
                        .unwrap_or_else(|e| panic!("{task} outputs invalid: {e}"));
                    // The number of rounds equals the election index computed
                    // combinatorially.
                    let expected = match task {
                        Task::Selection => election_index::psi_s(graph),
                        Task::PortElection => election_index::psi_pe(graph),
                        Task::PortPathElection => election_index::psi_ppe(graph, 20_000).unwrap(),
                        Task::CompletePortPathElection => {
                            election_index::psi_cppe(graph, 20_000).unwrap()
                        }
                    };
                    assert_eq!(Some(run.rounds), expected, "{task}");
                }
                Err(MapSolveError::Unsolvable(_)) => {
                    // Then the combinatorial index must also be undefined.
                    let expected = match task {
                        Task::Selection => election_index::psi_s(graph),
                        Task::PortElection => election_index::psi_pe(graph),
                        Task::PortPathElection => election_index::psi_ppe(graph, 20_000).unwrap(),
                        Task::CompletePortPathElection => {
                            election_index::psi_cppe(graph, 20_000).unwrap()
                        }
                    };
                    assert_eq!(expected, None, "{task}");
                }
                Err(e) => panic!("unexpected budget error: {e}"),
            }
        }
    }

    #[test]
    fn solves_every_task_on_the_paper_line() {
        let g = generators::paper_three_node_line();
        check_all_tasks(&g);
        // The paper quotes ψ_CPPE = 1 for this graph.
        let run = solve_with_map(
            &g,
            Task::CompletePortPathElection,
            100,
            &RunContext::default(),
        )
        .unwrap();
        assert_eq!(run.rounds, 1);
    }

    #[test]
    fn solves_every_task_on_feasible_rings_and_stars() {
        check_all_tasks(&generators::star(4).unwrap());
        check_all_tasks(&generators::oriented_ring(&[true, true, false, true, false]).unwrap());
    }

    #[test]
    fn reports_unsolvable_on_symmetric_graphs() {
        let g = generators::symmetric_ring(5).unwrap();
        for task in Task::ALL {
            assert_eq!(
                solve_with_map(&g, task, 100, &RunContext::default()).unwrap_err(),
                MapSolveError::Unsolvable(task)
            );
        }
        assert_eq!(measured_indices(&g, 100).unwrap(), [None; 4]);
    }

    #[test]
    fn measured_indices_satisfy_fact_1_1_on_random_graphs() {
        for seed in 0..6u64 {
            let g = generators::random_connected(10, 4, 3, seed).unwrap();
            let [s, pe, ppe, cppe] = measured_indices(&g, 20_000).unwrap();
            let key = |x: Option<usize>| x.unwrap_or(usize::MAX);
            assert!(key(cppe) >= key(ppe), "seed {seed}");
            assert!(key(ppe) >= key(pe), "seed {seed}");
            assert!(key(pe) >= key(s), "seed {seed}");
        }
    }

    #[test]
    fn map_run_reports_simulation_cost() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let run = solve_with_map(&g, Task::Selection, 100, &RunContext::default()).unwrap();
        assert_eq!(
            run.messages_delivered,
            2 * g.num_edges() * run.rounds,
            "full-information flooding sends on every edge in both directions each round"
        );
    }
}
