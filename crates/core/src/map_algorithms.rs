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
use anet_graph::{GraphError, NodeId, PortGraph};
use anet_views::election_index::{
    cppe_election, pe_election, ppe_election, psi_s_with, IndexError,
};
use anet_views::encoding::{DecodeError, MAX_DECODED_HEIGHT};
use anet_views::{QuotientSearch, Refinement, View, ViewClassifier, ViewCodec, ViewInterner};
use std::cell::RefCell;

/// Errors of the map-based solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapSolveError {
    /// The task is not solvable on this graph at any time bound (infeasible graph).
    Unsolvable(Task),
    /// The PPE search ran out of its path budget (`max_paths`) at the least depth
    /// it could not settle. The CPPE search never exhausts it.
    Budget(IndexError),
    /// The run is metered and its last round would ship a view taller than any
    /// decoder accepts ([`MAX_DECODED_HEIGHT`]); no round ran.
    Wire(DecodeError),
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
            MapSolveError::Wire(e) => write!(f, "the metered run cannot decode its views: {e}"),
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
/// returned. [`MapSolveError::Wire`] is returned, before any round runs, when the
/// run is metered and `ψ_Z` exceeds the rounds a message can be decoded after. The
/// returned [`SolverRun`] carries the rounds (the inflated physical count under
/// [`Backend::Capped`]) with the search counters and no advice.
///
/// Selection needs no assignment: refinement stops at `ψ_S`, the leader is the first
/// node with a unique view there, only the leader's view is built from the map, and
/// every node outputs `leader` iff its own view equals it — the Theorem 2.2 rule with
/// the map in place of the advice. No search runs, so its counters are zero.
///
/// The other shades decide by refinement class: two views of depth `h` are equal
/// exactly when the nodes' classes at depth `h` are, and the assignment is constant
/// on classes, so each collected view is read through a [`ViewClassifier`] built
/// from the same refinement and answered with its class's output. No node's view
/// is built from the map.
///
/// The context picks the backend the full-information simulation runs on, and
/// optionally a process-wide [`anet_views::SharedViewInterner`] that files the one
/// map-side view, Selection's leader view, so concurrent runs on overlapping graph
/// families share it; the stronger shades file nothing. It also carries a trace
/// sink for the simulated rounds (the map-side precomputation is not traced) and a
/// wire codec that meters every message. Outputs and message accounting are the
/// same under every context.
pub fn solve_with_map(
    graph: &PortGraph,
    task: Task,
    max_paths: usize,
    ctx: &RunContext<'_>,
) -> Result<SolverRun, MapSolveError> {
    if task == Task::Selection {
        let refinement = Refinement::compute_until_unique(graph);
        let rounds = psi_s_with(&refinement).ok_or(MapSolveError::Unsolvable(task))?;
        let leader = refinement.unique_nodes_at(rounds)[0];
        let target = ctx
            .shared_interner
            .map_or_else(ViewInterner::new, ViewInterner::shared)
            .build(graph, leader, rounds);
        let decide = |view: &View| elect_by_view(view, &target);
        return run_full_information_wired(graph, rounds, ctx, decide).map_err(MapSolveError::Wire);
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

    // The assignment is constant on view classes by construction, so one output per
    // class at depth `rounds` is the whole decision map.
    let mut by_class: Vec<Option<NodeOutput>> = vec![None; refinement.num_classes_at(rounds)];
    for (v, output) in per_node.into_iter().enumerate() {
        match &mut by_class[refinement.class_at(v as NodeId, rounds) as usize] {
            slot @ None => *slot = Some(output),
            Some(first) => debug_assert_eq!(*first, output, "the assignment is class-uniform"),
        }
    }
    let by_class = by_class
        .into_iter()
        .map(|output| output.expect("every class has a node"))
        .collect();
    let run =
        run_by_class(graph, &refinement, rounds, by_class, ctx).map_err(MapSolveError::Wire)?;
    Ok(SolverRun {
        search: search.stats(),
        ..run
    })
}

/// Run a rule that is a function of the map and `B^rounds(v)`: evaluate `rule` on
/// the first node of each refinement class at depth `rounds` (equal views are
/// exactly equal classes), before any round runs, and hand the class table to
/// [`run_by_class`]. A failing rule and a run too deep to meter are both a
/// [`GraphError`]. The paper solvers (Lemmas 3.9 and 4.8) call it.
pub(crate) fn run_rule_by_class(
    graph: &PortGraph,
    refinement: &Refinement,
    rounds: usize,
    rule: impl Fn(NodeId) -> Result<NodeOutput, GraphError>,
    ctx: &RunContext<'_>,
) -> Result<SolverRun, GraphError> {
    let mut first: Vec<Option<NodeId>> = vec![None; refinement.num_classes_at(rounds)];
    for v in graph.nodes() {
        first[refinement.class_at(v, rounds) as usize].get_or_insert(v);
    }
    let by_class = first
        .into_iter()
        .map(|v| rule(v.expect("every class has a node")))
        .collect::<Result<_, _>>()?;
    run_by_class(graph, refinement, rounds, by_class, ctx)
        .map_err(|e| GraphError::invalid(format!("the metered run cannot decode its views: {e}")))
}

/// Run a decision map given per refinement class: collect `B^rounds(v)` on
/// `ctx.backend` (see [`run_full_information_wired`]) and answer each collected
/// view with `by_class[c]`, where `c` is the view's class at depth `rounds`, read
/// through a [`ViewClassifier`] built from `refinement`. The classifier's walk is
/// memoised by view node, so the run's collected views, a shared DAG, cost one
/// lookup per distinct node. The one place this crate turns a class table into
/// decisions; `refinement` must be computed on `graph`.
pub(crate) fn run_by_class(
    graph: &PortGraph,
    refinement: &Refinement,
    rounds: usize,
    by_class: Vec<NodeOutput>,
    ctx: &RunContext<'_>,
) -> Result<SolverRun, DecodeError> {
    debug_assert_eq!(by_class.len(), refinement.num_classes_at(rounds));
    // The decision map is applied sequentially after the communication phase, so a
    // RefCell suffices for the classifier's memo.
    let classifier = RefCell::new(ViewClassifier::new(graph, refinement, rounds));
    let decide = |view: &View| {
        let class = classifier
            .borrow_mut()
            .class_of(view, rounds)
            .expect("every view observed in the run is some node's view");
        by_class[class as usize].clone()
    };
    run_full_information_wired(graph, rounds, ctx, decide)
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
/// on the wire, so it forces metering under the default codec. Where every
/// solver's rounds start.
///
/// Round `r` ships views of height `r − 1`, and no decoder accepts a height above
/// [`MAX_DECODED_HEIGHT`], so a metered run of more than `MAX_DECODED_HEIGHT + 1`
/// rounds is refused with [`DecodeError::HeightTooLarge`] before any round runs.
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
) -> Result<SolverRun, DecodeError>
where
    D: Fn(&View) -> NodeOutput,
{
    let backend = ctx.backend;
    let sink = ctx.trace_sink();
    let codec = ctx
        .wire
        .or_else(|| matches!(backend, Backend::Capped { .. }).then(ViewCodec::default));
    if codec.is_some() && rounds > MAX_DECODED_HEIGHT + 1 {
        return Err(DecodeError::HeightTooLarge {
            height: rounds as u64 - 1,
        });
    }
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
    Ok(SolverRun {
        rounds: report.rounds,
        outputs,
        messages_delivered: report.messages_delivered,
        advice_bits: None,
        advice_tree_bits: None,
        advice_dag_bits: None,
        search: anet_views::SearchStats::default(),
        wire,
    })
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
            Err(e) => return Err(e),
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
