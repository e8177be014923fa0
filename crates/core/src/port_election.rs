//! The Port Election algorithm of Lemma 3.9.
//!
//! On every member `G_σ` of `U_{Δ,k}`, Port Election is solvable in `k` rounds when
//! every node knows a map of the graph. The algorithm partitions nodes by degree:
//!
//! * **medium** nodes (degree `Δ+2`) are exactly the cycle roots: each compares its
//!   `B^k` with the lexicographically smallest `B^k` among the map's cycle roots
//!   (`r_min`); the unique match outputs `leader`, the others output port `Δ+1` (the
//!   first port of the simple path around the cycle towards the leader);
//! * **heavy** nodes (degree `2Δ−1`) are the roots `r_{j,1,1}`, `r_{j,1,2}`: each finds
//!   a map node with the same `B^k` and outputs the first port of a simple path from
//!   that map node towards the cycle — well defined because its two candidates are the
//!   two twins `r_{j,1,1}` / `r_{j,1,2}`, at which the *same* ports were swapped;
//! * **light** nodes (all other degrees): output the first port of a shortest path in
//!   their own view towards a medium node if one is visible, otherwise towards a heavy
//!   node (one of the two is always within distance `k`).
//!
//! The decision of every node is a function of the map and of `B^k(v)` only, and
//! nodes with equal `B^k` are exactly the nodes of one refinement class at depth
//! `k`. So the rule is evaluated once per class, on the map, and the class table is
//! run through the full-information simulator like the map solver's: each node
//! reads its collected view's class and outputs the class's entry. No view is built
//! from the map, and no view is searched or filed in a table.

use crate::engine::{RunContext, SolverRun};
use crate::map_algorithms::run_rule_by_class;
use crate::tasks::NodeOutput;
use anet_graph::{GraphError, NodeId, PortGraph};
use anet_views::Refinement;

/// Solve Port Election on a member of `U_{Δ,k}` in `k` rounds, given the map.
///
/// `graph` must be (port-isomorphic to) a member of `U_{Δ,k}`; `k` is the class
/// parameter (equal to `ψ_S = ψ_PE` of the graph, Lemma 3.9). The rule is read off
/// the map once per refinement class at depth `k`, so a map on which it is undefined
/// (no cycle node, a heavy node that cannot reach the cycle, a light node that sees
/// no medium or heavy node within `k`) is rejected before any round runs. The `k`
/// view-collection rounds run on `ctx.backend`, emit trace events into `ctx.trace`
/// and are metered when `ctx.wire` names a codec (or the backend is capped, which
/// also inflates `rounds` to the physical count); each node decides by its view's
/// class, so the context's shared view table is left untouched. Lemma 3.9 reads
/// the ports off the map's structure, so the run reports no advice and no search.
pub fn solve_port_election_on_u(
    graph: &PortGraph,
    k: usize,
    ctx: &RunContext<'_>,
) -> Result<SolverRun, GraphError> {
    let max_deg = graph.max_degree();
    if max_deg < 7 || max_deg.is_multiple_of(2) {
        return Err(GraphError::invalid(
            "the map does not look like a member of U_{Δ,k} (maximum degree must be 2Δ−1 ≥ 7)",
        ));
    }
    let delta = max_deg.div_ceil(2);
    let medium_degree = delta + 2;
    let heavy_degree = 2 * delta - 1;

    // Pre-processing on the map (all of this is information every node can derive from
    // the map it was given): `r_min` is the medium node whose `B^k` is smallest.
    let refinement = Refinement::compute(graph, Some(k));
    let r_min = graph
        .nodes()
        .filter(|&v| graph.degree(v) == medium_degree)
        .min_by(|&a, &b| refinement.view_cmp(graph, a, b, k))
        .ok_or_else(|| GraphError::invalid("no cycle (degree Δ+2) nodes in the map"))?;

    // The output of one node, which is the output of its whole class at depth `k`.
    let output_of = |v: NodeId| -> Result<NodeOutput, GraphError> {
        let degree = graph.degree(v);
        let port = if degree == 1 {
            // A leaf may be farther than `k` from every medium and heavy node; its
            // one port leads towards both.
            0
        } else if degree == medium_degree {
            if refinement.same_view(v, r_min, k) {
                return Ok(NodeOutput::Leader);
            }
            delta as u32 + 1
        } else if degree == heavy_degree {
            // Lemma 3.9 (Claim 1): the only other node with this view is the twin
            // r_{j,1,2}, at which the same swap was applied, so the ports agree.
            first_port_towards_degree(graph, v, medium_degree).ok_or_else(|| {
                GraphError::invalid("a heavy node cannot reach the cycle in the map")
            })?
        } else {
            // Light node: head towards a medium node within `k`, else a heavy one.
            first_port_within(graph, v, medium_degree, k)
                .or_else(|| first_port_within(graph, v, heavy_degree, k))
                .ok_or_else(|| {
                    GraphError::invalid("a light node sees no medium or heavy node within k")
                })?
        };
        Ok(NodeOutput::FirstPort(port))
    };
    run_rule_by_class(graph, &refinement, k, output_of, ctx)
}

/// First port of a shortest path (ties broken by port order) from `v` to the nearest
/// node of the given degree in the map. Public because the advice-lower-bound witness
/// machinery reuses it to read off the unique correct answer at the heavy roots.
pub fn first_port_towards_degree(graph: &PortGraph, v: NodeId, degree: usize) -> Option<u32> {
    first_port_within(graph, v, degree, usize::MAX)
}

/// [`first_port_towards_degree`] among the nodes within distance `radius` of `v`:
/// the first port of [`PortGraph::bfs_path`]'s path to the first such node, which
/// leaves `v` through the smallest first port of its shortest paths.
fn first_port_within(graph: &PortGraph, v: NodeId, degree: usize, radius: usize) -> Option<u32> {
    let path = graph.bfs_path(v, radius, |_| true, |u| u != v && graph.degree(u) == degree)?;
    graph.port_towards(v, path[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{verify, weaken_outputs, Task};
    use anet_constructions::UClass;
    use anet_views::election_index::psi_s;

    #[test]
    fn solves_pe_in_exactly_k_rounds_on_u_members() {
        let class = UClass::new(4, 1).unwrap();
        for sigma in [
            vec![1u32; 9],
            vec![3u32; 9],
            vec![1, 2, 3, 1, 2, 3, 1, 2, 3],
        ] {
            let member = class.member(&sigma).unwrap();
            let g = &member.labeled.graph;
            let run = solve_port_election_on_u(g, class.k, &RunContext::default()).unwrap();
            assert_eq!(run.rounds, class.k);
            let outcome = verify(Task::PortElection, g, &run.outputs)
                .unwrap_or_else(|e| panic!("σ = {sigma:?}: {e}"));
            // The leader is one of the cycle roots (Lemma 3.10).
            assert!(member.cycle_roots().contains(&outcome.leader));
            // Lemma 3.9: ψ_PE = ψ_S = k, so the map algorithm is time-optimal.
            assert_eq!(psi_s(g), Some(class.k));
        }
    }

    #[test]
    fn pe_solution_weakens_to_a_selection_solution() {
        let class = UClass::new(4, 1).unwrap();
        let member = class.member(&[2u32; 9]).unwrap();
        let g = &member.labeled.graph;
        let run = solve_port_election_on_u(g, class.k, &RunContext::default()).unwrap();
        let s = weaken_outputs(&run.outputs, Task::Selection).unwrap();
        assert!(verify(Task::Selection, g, &s).is_ok());
    }

    #[test]
    fn rejects_maps_that_are_not_u_members() {
        let g = anet_graph::generators::star(3).unwrap();
        assert!(solve_port_election_on_u(&g, 1, &RunContext::default()).is_err());
    }

    #[test]
    fn leader_is_deterministic_across_reruns() {
        let class = UClass::new(4, 1).unwrap();
        let member = class.member(&[1u32; 9]).unwrap();
        let g = &member.labeled.graph;
        let a = solve_port_election_on_u(g, class.k, &RunContext::default()).unwrap();
        let b = solve_port_election_on_u(g, class.k, &RunContext::default()).unwrap();
        assert_eq!(a.outputs, b.outputs);
    }
}
