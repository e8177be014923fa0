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
//! The decision of every node is a function of the map and of `B^k(v)` only, so the
//! algorithm is executed here exactly like every other algorithm in this crate:
//! through the full-information simulator, with a decision closure.

use crate::engine::{RunContext, SolverRun};
use crate::map_algorithms::run_full_information_wired;
use crate::tasks::NodeOutput;
use anet_graph::{GraphError, NodeId, PortGraph};
use anet_views::{View, ViewInterner};
use std::collections::HashMap;

/// Solve Port Election on a member of `U_{Δ,k}` in `k` rounds, given the map.
///
/// `graph` must be (port-isomorphic to) a member of `U_{Δ,k}`; `k` is the class
/// parameter (equal to `ψ_S = ψ_PE` of the graph, Lemma 3.9). The map's views and
/// the collected ones are interned through `ctx.shared_interner` when it is set. The
/// `k` view-collection rounds run on `ctx.backend`, emit trace events into
/// `ctx.trace` and are metered when `ctx.wire` names a codec (or the backend is
/// capped, which also inflates `rounds` to the physical count). Lemma 3.9 reads the
/// ports off the map's structure, so the run reports no advice and no search.
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
    // the map it was given).
    let medium_nodes: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| graph.degree(v) == medium_degree)
        .collect();
    if medium_nodes.is_empty() {
        return Err(GraphError::invalid(
            "no cycle (degree Δ+2) nodes in the map",
        ));
    }
    // One shared pass builds every node's B^k (hash-consed, so on the highly
    // repetitive U members most subtrees collapse to one representative each),
    // through the context's shared table when there is one.
    let mut interner = ctx
        .shared_interner
        .map_or_else(ViewInterner::new, ViewInterner::shared);
    let views = interner.build_all(graph, k);
    let r_min_view = medium_nodes
        .iter()
        .map(|&v| views[v as usize].clone())
        .min()
        .expect("non-empty");

    // Heavy nodes: view → first port of a simple path towards the closest medium node.
    // Keys are View handles: hashing is O(1) (precomputed structural hash) and a map
    // entry holds a refcount, not a token vector.
    let mut heavy_port: HashMap<View, u32> = HashMap::new();
    for v in graph.nodes().filter(|&v| graph.degree(v) == heavy_degree) {
        let port = first_port_towards_degree(graph, v, medium_degree)
            .ok_or_else(|| GraphError::invalid("a heavy node cannot reach the cycle in the map"))?;
        let view = views[v as usize].clone();
        if let Some(&existing) = heavy_port.get(&view) {
            // Lemma 3.9 (Claim 1): the only other node with this view is the twin
            // r_{j,1,2}, at which the same swap was applied, so the ports agree.
            debug_assert_eq!(existing, port, "twin heavy nodes must agree on the port");
        }
        heavy_port.insert(view, port);
    }

    // Canonicalize collected views through the same interner before comparing: the
    // intern walk costs the view's distinct (shared) nodes, after which the r_min
    // comparison and the heavy-port lookup are pointer-equal instead of unfolding
    // Θ(Δ^k) walk-tree nodes. Decisions are applied sequentially after the run, so a
    // RefCell provides the interior mutability.
    let interner = std::cell::RefCell::new(interner);
    let decide = move |view: &View| -> NodeOutput {
        let degree = view.degree() as usize;
        if degree == 1 {
            return NodeOutput::FirstPort(0);
        }
        if degree == medium_degree {
            let view = interner.borrow_mut().intern(view);
            return if view == r_min_view {
                NodeOutput::Leader
            } else {
                NodeOutput::FirstPort(delta as u32 + 1)
            };
        }
        if degree == heavy_degree {
            let view = interner.borrow_mut().intern(view);
            let port = heavy_port
                .get(&view)
                .copied()
                .expect("every heavy view appears in the map");
            return NodeOutput::FirstPort(port);
        }
        // Light node: head towards a visible medium node, else towards a heavy node.
        let path = view
            .shortest_path_to_degree(medium_degree as u32)
            .or_else(|| view.shortest_path_to_degree(heavy_degree as u32))
            .expect("Lemma 3.9: every light node sees a medium or heavy node within k");
        NodeOutput::FirstPort(
            *path
                .first()
                .expect("a light node is never itself medium or heavy"),
        )
    };

    Ok(run_full_information_wired(graph, k, ctx, decide))
}

/// First port of a shortest path (ties broken by port order) from `v` to the nearest
/// node of the given degree in the map. Public because the advice-lower-bound witness
/// machinery reuses it to read off the unique correct answer at the heavy roots.
pub fn first_port_towards_degree(graph: &PortGraph, v: NodeId, degree: usize) -> Option<u32> {
    // BFS over nodes, remembering the first outgoing port of the path used to reach
    // each node.
    use std::collections::VecDeque;
    let mut first_port: Vec<Option<u32>> = vec![None; graph.num_nodes()];
    let mut visited = vec![false; graph.num_nodes()];
    visited[v as usize] = true;
    let mut queue = VecDeque::new();
    for (p, u, _) in graph.ports(v) {
        if graph.degree(u) == degree {
            return Some(p);
        }
        if !visited[u as usize] {
            visited[u as usize] = true;
            first_port[u as usize] = Some(p);
            queue.push_back(u);
        }
    }
    while let Some(x) = queue.pop_front() {
        for (_, u, _) in graph.ports(x) {
            if visited[u as usize] {
                continue;
            }
            visited[u as usize] = true;
            first_port[u as usize] = first_port[x as usize];
            if graph.degree(u) == degree {
                return first_port[u as usize];
            }
            queue.push_back(u);
        }
    }
    None
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
