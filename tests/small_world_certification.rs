//! Exhaustive certification of the paper's claims on every small world: every
//! connected port-labelled graph with at most four nodes, each edge set of `K_n`
//! under every permutation of every node's neighbours.
//!
//! On each graph:
//!
//! * Fact 1.1: `ψ_S ≤ ψ_PE ≤ ψ_PPE ≤ ψ_CPPE`;
//! * the election indices equal their BFS / enumeration oracles;
//! * minimum time: the map-based solver elects in exactly `ψ_Z` rounds when
//!   `ψ_Z` exists, and reports the task unsolvable when it does not;
//! * every Port Election the solver reports as verified also passes the BFS
//!   reference predicate node by node;
//! * Theorem 2.2: when `ψ_S` exists, the oracle/algorithm pair solves Selection
//!   in exactly `ψ_S` rounds under both the tree and the DAG codec, with the
//!   same outputs; it elects the node whose view is lexicographically smallest
//!   among the unique views at depth `ψ_S`; and its advice stays within
//!   `selection_advice_upper_bound_bits(Δ, ψ_S)`.

use four_shades::election::selection::selection_advice_upper_bound_bits;
use four_shades::election::tasks::{NodeOutput, Task};
use four_shades::graph::{GraphBuilder, NodeId, PortGraph};
use four_shades::prelude::{AdviceSolver, Election, MapSolver};
use four_shades::views::election_index::{
    compute_all, pe_assignment_enumerated, psi_cppe_enumerated, psi_ppe_enumerated,
};
use four_shades::views::paths::pe_port_is_valid;
use four_shades::views::{Refinement, View};

/// The map solver's default path budget.
const BUDGET: usize = 50_000;

/// Every ordering of `items`.
fn permutations(items: &[NodeId]) -> Vec<Vec<NodeId>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let first = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first);
            out.push(tail);
        }
    }
    out
}

/// Every connected port-labelled graph on `2..=max_n` nodes: for each connected
/// edge subset of `K_n`, one graph per choice of a neighbour order at every node
/// (port `p` at `v` leads to the `p`-th neighbour in `v`'s order).
fn port_labelled_graphs(max_n: u32) -> Vec<PortGraph> {
    let mut out = Vec::new();
    for n in 2..=max_n {
        let pairs: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        for mask in 0u32..1 << pairs.len() {
            let mut neighbours = vec![Vec::new(); n as usize];
            for (i, &(u, v)) in pairs.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    neighbours[u as usize].push(v);
                    neighbours[v as usize].push(u);
                }
            }
            if neighbours.iter().any(Vec::is_empty) {
                continue;
            }
            let orders: Vec<Vec<Vec<NodeId>>> =
                neighbours.iter().map(|ns| permutations(ns)).collect();
            // Odometer over one order per node.
            let mut pick = vec![0usize; n as usize];
            loop {
                let order = |v: NodeId| &orders[v as usize][pick[v as usize]];
                let port =
                    |v: NodeId, u: NodeId| order(v).iter().position(|&w| w == u).unwrap() as u32;
                let mut b = GraphBuilder::with_nodes(n as usize);
                for &(u, v) in pairs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask >> i & 1 == 1)
                    .map(|(_, e)| e)
                {
                    b.add_edge(u, port(u, v), v, port(v, u)).unwrap();
                }
                // `build` rejects disconnected edge sets.
                if let Ok(g) = b.build() {
                    out.push(g);
                }
                let Some(v) = (0..n as usize).find(|&v| pick[v] + 1 < orders[v].len()) else {
                    break;
                };
                pick[v] += 1;
                pick[..v].fill(0);
            }
        }
    }
    out
}

/// `ψ_PE` from the BFS reference: the least depth at which some unique node has a
/// class-uniform assignment of ports that pass `pe_port_is_valid`.
fn psi_pe_reference(g: &PortGraph) -> Option<usize> {
    let r = Refinement::compute(g, None);
    (0..=r.stable_depth()).find(|&h| {
        r.unique_nodes_at(h)
            .into_iter()
            .any(|leader| pe_assignment_enumerated(g, &r, h, leader).is_some())
    })
}

/// The Theorem 2.2 pair on a graph with `ψ_S = h`, under both codecs.
fn certify_theorem_2_2(g: &PortGraph, h: usize) {
    let run = |solver| {
        Election::task(Task::Selection)
            .solver(solver)
            .run(g)
            .unwrap_or_else(|e| panic!("Theorem 2.2 on {g:?}: {e}"))
    };
    let tree = run(AdviceSolver::theorem_2_2());
    let dag = run(AdviceSolver::theorem_2_2_dag());
    for report in [&tree, &dag] {
        assert!(report.solved(), "{} on {g:?}", report.summary());
        assert_eq!(report.rounds, h, "Theorem 2.2 on {g:?}: not in ψ_S rounds");
    }
    assert_eq!(tree.outputs, dag.outputs, "codecs disagree on {g:?}");
    let r = Refinement::compute(g, None);
    let smallest = r
        .unique_nodes_at(h)
        .into_iter()
        .min_by_key(|&v| View::build(g, v, h))
        .expect("a unique view exists at ψ_S");
    assert_eq!(tree.leader(), Some(smallest), "leader on {g:?}");
    let bound = selection_advice_upper_bound_bits(g.max_degree(), h);
    let bits = tree.advice_bits.expect("advice is reported");
    assert!(bits <= bound, "{bits} advice bits exceed {bound} on {g:?}");
}

#[test]
fn every_port_labelled_graph_up_to_four_nodes_is_certified() {
    let graphs = port_labelled_graphs(4);
    // Port-labelled connected graphs on 2, 3 and 4 nodes.
    assert_eq!(graphs.len(), 1 + 14 + 2_568);
    let mut solvable_everywhere = 0;
    for g in &graphs {
        let idx = compute_all(g, BUDGET).unwrap();
        assert!(
            idx.satisfies_hierarchy(),
            "Fact 1.1 fails: {idx:?} on {g:?}"
        );
        assert_eq!(idx.pe, psi_pe_reference(g), "ψ_PE on {g:?}");
        assert_eq!(
            idx.ppe,
            psi_ppe_enumerated(g, BUDGET).unwrap(),
            "ψ_PPE on {g:?}"
        );
        assert_eq!(
            idx.cppe,
            psi_cppe_enumerated(g, BUDGET).unwrap(),
            "ψ_CPPE on {g:?}"
        );
        if let Some(h) = idx.s {
            certify_theorem_2_2(g, h);
        }
        let psi = [idx.s, idx.pe, idx.ppe, idx.cppe];
        for (task, psi) in Task::ALL.into_iter().zip(psi) {
            let run = Election::task(task).solver(MapSolver::default()).run(g);
            let Some(h) = psi else {
                assert!(run.is_err(), "{task} is infeasible yet solved on {g:?}");
                continue;
            };
            let report = run.unwrap_or_else(|e| panic!("{task} on {g:?}: {e}"));
            assert!(report.solved(), "{task} on {g:?}: {}", report.summary());
            assert_eq!(report.rounds, h, "{task} on {g:?}: not in ψ rounds");
            if task == Task::PortElection {
                let leader = report.leader().unwrap();
                for v in g.nodes().filter(|&v| v != leader) {
                    let NodeOutput::FirstPort(p) = report.outputs[v as usize] else {
                        panic!("node {v} has no PE output on {g:?}");
                    };
                    assert!(pe_port_is_valid(g, v, p, leader), "node {v} on {g:?}");
                }
            }
        }
        solvable_everywhere += usize::from(psi.iter().all(Option::is_some));
    }
    // The rest have a task (at least CPPE) that no time bound solves.
    assert_eq!(solvable_everywhere, 2_364);
}
