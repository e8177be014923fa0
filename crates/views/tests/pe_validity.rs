//! The linear-time Port Election table ([`PeValidity`]) against the BFS reference
//! ([`pe_port_is_valid`]): exhaustively on every connected simple graph with at most
//! six nodes, and at a scale where a recursive DFS would overflow the stack.

use anet_graph::{generators, GraphBuilder, PortGraph};
use anet_views::paths::{pe_port_is_valid, PeValidity};

/// Every connected simple graph on `2..=max_n` labelled nodes: one per edge subset
/// of `K_n` that connects all nodes, with ports assigned by `add_edge_auto` in
/// lexicographic edge order.
fn connected_graphs(max_n: u32) -> Vec<PortGraph> {
    let mut out = Vec::new();
    for n in 2..=max_n {
        let pairs: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        for mask in 0u32..1 << pairs.len() {
            let mut b = GraphBuilder::with_nodes(n as usize);
            for (i, &(u, v)) in pairs.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    b.add_edge_auto(u, v).unwrap();
                }
            }
            // `build` rejects disconnected subsets.
            if let Ok(g) = b.build() {
                out.push(g);
            }
        }
    }
    out
}

/// Port labelling does not change which neighbour reaches the leader avoiding
/// `v`, so one labelling per graph covers every port-labelled graph. Ports one past
/// the last are checked too: both sides must call them invalid.
#[test]
fn table_matches_the_bfs_reference_on_every_graph_up_to_six_nodes() {
    let graphs = connected_graphs(6);
    // Connected labelled graphs on 2, 3, 4, 5 and 6 nodes.
    assert_eq!(graphs.len(), 1 + 4 + 38 + 728 + 26_704);
    for g in &graphs {
        for leader in g.nodes() {
            let table = PeValidity::new(g, leader);
            for v in g.nodes() {
                for p in 0..=g.degree(v) as u32 {
                    assert_eq!(
                        table.is_valid(v, p),
                        pe_port_is_valid(g, v, p, leader),
                        "leader {leader}, node {v}, port {p} on {g:?}"
                    );
                }
            }
        }
    }
}

/// A path of 200 000 nodes rooted at one end drives the DFS 200 000 levels deep:
/// the explicit stack keeps that off the call stack. Every node but the leader has
/// exactly one valid port, the one towards node 0.
#[test]
fn long_path_builds_without_recursion() {
    let n = 200_000;
    let g = generators::path(n).unwrap();
    let table = PeValidity::new(&g, 0);
    let valid = g
        .nodes()
        .map(|v| {
            (0..=g.degree(v) as u32)
                .filter(|&p| table.is_valid(v, p))
                .count()
        })
        .sum::<usize>();
    assert_eq!(valid, n - 1);
    assert!(table.is_valid(n as u32 - 1, 0));
    assert!(!table.is_valid(n as u32, 0), "an unknown node is invalid");
}
