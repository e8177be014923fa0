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
//! Lemmas 2.7 / 3.9 / 4.9 on arbitrary (small) feasible graphs.

use crate::tasks::{NodeOutput, Task};
use anet_graph::PortGraph;
use anet_sim::{Backend, MessageCodec, RunReport, WireStats};
use anet_views::election_index::{
    cppe_assignment_with, pe_assignment_with, ppe_assignment_with, IndexError,
};
use anet_views::{
    InternerHandle, QuotientSearch, Refinement, SearchStats, SharedViewInterner, View,
};
use std::collections::HashMap;

/// Result of a map-based run.
#[derive(Debug, Clone)]
pub struct MapRun {
    /// Rounds used (= the election index of the task on this graph).
    pub rounds: usize,
    /// Per-node outputs.
    pub outputs: Vec<NodeOutput>,
    /// Messages delivered by the underlying full-information simulation.
    pub messages_delivered: usize,
    /// Cost counters of the map-side assignment search (classes expanded by the
    /// quotient BFS, candidate paths explored). Zero for algorithms that read the
    /// assignment off the map analytically instead of searching for it.
    pub search: SearchStats,
    /// Per-round / per-edge bits actually put on the wire, when the run went
    /// through the metered transport (an explicit codec request or a
    /// [`Backend::Capped`] backend). `None` for the zero-serialisation fast path
    /// and for analytic solvers that never simulate.
    pub wire: Option<anet_sim::WireStats>,
}

/// Errors of the map-based solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapSolveError {
    /// The task is not solvable on this graph at any time bound (infeasible graph).
    Unsolvable(Task),
    /// The simple-path enumeration budget was exhausted (PPE / CPPE on large graphs).
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
/// `max_paths` bounds the simple-path enumeration used for PPE / CPPE.
///
/// Convenience wrapper over [`solve_with_map_on`] with the sequential backend.
pub fn solve_with_map(
    graph: &PortGraph,
    task: Task,
    max_paths: usize,
) -> Result<MapRun, MapSolveError> {
    solve_with_map_on(graph, task, max_paths, Backend::Sequential)
}

/// [`solve_with_map`] on an explicit execution [`Backend`]: the full-information
/// simulation that realises the decision function runs on the chosen backend. Outputs,
/// rounds and message accounting are backend-independent.
pub fn solve_with_map_on(
    graph: &PortGraph,
    task: Task,
    max_paths: usize,
    backend: Backend,
) -> Result<MapRun, MapSolveError> {
    solve_with_map_shared(graph, task, max_paths, backend, None)
}

/// [`solve_with_map_on`] with an optional process-wide [`SharedViewInterner`]: when
/// given, the map-side `build_all` pass and the per-run canonicalization intern
/// through the shared table (via a per-run [`InternerHandle`] memo) instead of a
/// run-private [`anet_views::ViewInterner`]. Concurrent runs on isomorphic or
/// overlapping graph families then dedup their view DAGs against each other — the
/// cross-tenant sharing the election service measures as its interner hit-rate.
/// Outputs are identical either way; only allocation sharing changes.
pub fn solve_with_map_shared(
    graph: &PortGraph,
    task: Task,
    max_paths: usize,
    backend: Backend,
    shared: Option<&SharedViewInterner>,
) -> Result<MapRun, MapSolveError> {
    solve_with_map_traced(
        graph,
        task,
        max_paths,
        backend,
        shared,
        &anet_trace::NoopSink,
    )
}

/// [`solve_with_map_shared`] with a trace probe: the full-information simulation that
/// realises the decision function emits round-level [`anet_trace::TraceEvent`]s into
/// `sink` (the map-side precomputation is not simulated and therefore not traced).
/// With [`anet_trace::NoopSink`] this *is* `solve_with_map_shared`.
pub fn solve_with_map_traced(
    graph: &PortGraph,
    task: Task,
    max_paths: usize,
    backend: Backend,
    shared: Option<&SharedViewInterner>,
    sink: &dyn anet_trace::TraceSink,
) -> Result<MapRun, MapSolveError> {
    solve_with_map_wired(graph, task, max_paths, backend, shared, sink, None)
}

/// [`solve_with_map_traced`] with an optional wire codec: when `wire` is `Some`
/// (or the backend is [`Backend::Capped`], which is only meaningful when bits are
/// counted), the full-information simulation serialises every message through the
/// metered transport and the returned [`MapRun`] carries the resulting
/// [`anet_sim::WireStats`]. With `wire = None` on an ordinary backend this *is*
/// `solve_with_map_traced`: same outputs, same message accounting, no bit meter.
pub fn solve_with_map_wired(
    graph: &PortGraph,
    task: Task,
    max_paths: usize,
    backend: Backend,
    shared: Option<&SharedViewInterner>,
    sink: &dyn anet_trace::TraceSink,
    wire: Option<anet_sim::MessageCodec>,
) -> Result<MapRun, MapSolveError> {
    let refinement = Refinement::compute(graph, None);
    // One quotient search serves every (depth, leader) attempt: the class quotient
    // is cached per depth and the leader BFS per leader, so walking many candidate
    // leaders at one depth re-prepares in O(1) amortised instead of re-enumerating.
    let mut search = QuotientSearch::new(graph, &refinement);

    // Find the minimum depth and a per-node output assignment computed from the map.
    let mut chosen: Option<(usize, Vec<NodeOutput>)> = None;
    'depths: for h in 0..=refinement.stable_depth() {
        for leader in refinement.unique_nodes_at(h) {
            let outputs = match task {
                Task::Selection => Some(
                    graph
                        .nodes()
                        .map(|v| {
                            if v == leader {
                                NodeOutput::Leader
                            } else {
                                NodeOutput::NonLeader
                            }
                        })
                        .collect::<Vec<_>>(),
                ),
                Task::PortElection => {
                    pe_assignment_with(&mut search, h, leader).map(|assignment| {
                        graph
                            .nodes()
                            .map(|v| match assignment[v as usize] {
                                None => NodeOutput::Leader,
                                Some(p) => NodeOutput::FirstPort(p),
                            })
                            .collect()
                    })
                }
                Task::PortPathElection => ppe_assignment_with(&mut search, h, leader, max_paths)?
                    .map(|assignment| {
                        graph
                            .nodes()
                            .map(|v| match &assignment[v as usize] {
                                None => NodeOutput::Leader,
                                Some(seq) => NodeOutput::PortPath(seq.clone()),
                            })
                            .collect()
                    }),
                Task::CompletePortPathElection => {
                    cppe_assignment_with(&mut search, h, leader, max_paths)?.map(|assignment| {
                        graph
                            .nodes()
                            .map(|v| match &assignment[v as usize] {
                                None => NodeOutput::Leader,
                                Some(seq) => NodeOutput::FullPath(seq.clone()),
                            })
                            .collect()
                    })
                }
            };
            if let Some(outputs) = outputs {
                chosen = Some((h, outputs));
                break 'depths;
            }
        }
    }

    let (rounds, per_node) = chosen.ok_or(MapSolveError::Unsolvable(task))?;

    // Turn the per-node assignment into a genuine view-function and run it through the
    // simulator: the assignment is constant on view classes by construction, so the
    // map from view (at depth `rounds`) to output is well-defined. The map side is one
    // shared `build_all` pass (hash-consed handles). Collected views are canonicalized
    // through the *same* interner before lookup: interning costs the view's distinct
    // nodes (the collector's output is a shared DAG), after which the table hit is
    // pointer-equal — without this, a positive equality check would walk the full
    // unfolded Θ(Δ^rounds) tree, since collector- and map-built views share no Arcs.
    let mut interner = match shared {
        Some(table) => InternerHandle::shared(table),
        None => InternerHandle::own(),
    };
    let views = interner.build_all(graph, rounds);
    let mut by_view: HashMap<View, NodeOutput> = HashMap::new();
    for v in graph.nodes() {
        by_view.insert(views[v as usize].clone(), per_node[v as usize].clone());
    }
    // The decision map is applied sequentially after the communication phase, so a
    // RefCell suffices for the interner handle's interior mutability.
    let interner = std::cell::RefCell::new(interner);
    let decide = |view: &View| {
        let canonical = interner.borrow_mut().intern(view);
        by_view
            .get(&canonical)
            .cloned()
            .expect("every view observed in the run appears in the map")
    };
    let (outputs, report, wire_stats) =
        run_full_information_wired(graph, rounds, backend, sink, wire, decide);

    // `report.rounds` equals the logical depth on every ordinary backend; under
    // `Backend::Capped` the simulator streams large views across several physical
    // rounds and reports the inflated physical count — which is the round number
    // the CONGEST-style accounting is about, so it is what MapRun carries.
    Ok(MapRun {
        rounds: report.rounds,
        outputs,
        messages_delivered: report.messages_delivered,
        search: search.stats(),
        wire: wire_stats,
    })
}

/// Collect `B^rounds(v)` on `backend` and apply `decide`, serialising every
/// message through `wire` when it is `Some`. A bandwidth-capped backend is only
/// meaningful with bits on the wire, so it forces metering under the default
/// codec even without an explicit request. The shared tail of every `*_wired`
/// solver in this crate.
pub(crate) fn run_full_information_wired<O, D>(
    graph: &PortGraph,
    rounds: usize,
    backend: Backend,
    sink: &dyn anet_trace::TraceSink,
    wire: Option<MessageCodec>,
    decide: D,
) -> (Vec<O>, RunReport, Option<WireStats>)
where
    O: Clone + Send,
    D: Fn(&View) -> O,
{
    let codec =
        wire.or_else(|| matches!(backend, Backend::Capped { .. }).then(MessageCodec::default));
    match codec {
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
        out[slot] = match solve_with_map(graph, *task, max_paths) {
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
            match solve_with_map(graph, task, 20_000) {
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
        let run = solve_with_map(&g, Task::CompletePortPathElection, 100).unwrap();
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
                solve_with_map(&g, task, 100).unwrap_err(),
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
        let run = solve_with_map(&g, Task::Selection, 100).unwrap();
        assert_eq!(
            run.messages_delivered,
            2 * g.num_edges() * run.rounds,
            "full-information flooding sends on every edge in both directions each round"
        );
    }
}
