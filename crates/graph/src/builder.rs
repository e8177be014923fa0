//! Incremental construction of [`PortGraph`] values.

use crate::error::GraphError;
use crate::graph::{NodeId, Port, PortGraph};
use crate::Result;
use std::collections::BTreeMap;

/// Builder for [`PortGraph`].
///
/// Two styles of edge insertion are supported:
///
/// * [`GraphBuilder::add_edge`] — both port numbers are given explicitly. This is what
///   the paper's constructions use, since every port label matters there.
/// * [`GraphBuilder::add_edge_auto`] — the next free port is assigned at each endpoint.
///   This is convenient for generators and tests where the precise labels are
///   irrelevant (only the invariant "ports at `v` are `0..deg(v)`" matters).
///
/// `build` checks all model invariants and produces an immutable [`PortGraph`].
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    /// Sparse port maps per node; turned into dense `0..deg` vectors by `build`.
    ports: Vec<BTreeMap<Port, (NodeId, Port)>>,
}

impl GraphBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        GraphBuilder { ports: Vec::new() }
    }

    /// Create a builder with `n` isolated nodes (ids `0..n`).
    pub fn with_nodes(n: usize) -> Self {
        GraphBuilder {
            ports: vec![BTreeMap::new(); n],
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.ports.len()
    }

    /// Add one node and return its id.
    pub fn add_node(&mut self) -> NodeId {
        self.ports.push(BTreeMap::new());
        (self.ports.len() - 1) as NodeId
    }

    /// Add `count` nodes and return their ids.
    pub fn add_nodes(&mut self, count: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.add_node()).collect()
    }

    /// Current degree of a node (number of ports already assigned).
    pub fn degree(&self, v: NodeId) -> usize {
        self.ports.get(v as usize).map(|m| m.len()).unwrap_or(0)
    }

    /// Smallest port number not yet used at `v`.
    pub fn next_free_port(&self, v: NodeId) -> Port {
        let used = &self.ports[v as usize];
        let mut p = 0;
        while used.contains_key(&p) {
            p += 1;
        }
        p
    }

    /// Does the builder already contain an edge between `u` and `v`?
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.ports
            .get(u as usize)
            .map(|m| m.values().any(|&(w, _)| w == v))
            .unwrap_or(false)
    }

    /// Add the edge `{u, v}` with explicit port numbers `pu` at `u` and `pv` at `v`.
    pub fn add_edge(&mut self, u: NodeId, pu: Port, v: NodeId, pv: Port) -> Result<()> {
        let n = self.ports.len() as u32;
        if u >= n {
            return Err(GraphError::UnknownNode {
                node: u,
                num_nodes: n,
            });
        }
        if v >= n {
            return Err(GraphError::UnknownNode {
                node: v,
                num_nodes: n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.has_edge(u, v) {
            return Err(GraphError::ParallelEdge { u, v });
        }
        if self.ports[u as usize].contains_key(&pu) {
            return Err(GraphError::DuplicatePort { node: u, port: pu });
        }
        if self.ports[v as usize].contains_key(&pv) {
            return Err(GraphError::DuplicatePort { node: v, port: pv });
        }
        self.ports[u as usize].insert(pu, (v, pv));
        self.ports[v as usize].insert(pv, (u, pu));
        Ok(())
    }

    /// Add the edge `{u, v}` using the next free port at each endpoint; returns the
    /// assigned `(port_at_u, port_at_v)`.
    pub fn add_edge_auto(&mut self, u: NodeId, v: NodeId) -> Result<(Port, Port)> {
        let pu = self.next_free_port(u);
        let pv = self.next_free_port(v);
        self.add_edge(u, pu, v, pv)?;
        Ok((pu, pv))
    }

    /// Validate and freeze the graph.
    ///
    /// Validation errors:
    /// * ports at some node are not exactly `0..deg` ([`GraphError::NonContiguousPorts`]),
    /// * the graph is empty or disconnected.
    pub fn build(self) -> Result<PortGraph> {
        if self.ports.is_empty() {
            return Err(GraphError::Empty);
        }
        let mut adj: Vec<Vec<(NodeId, Port)>> = Vec::with_capacity(self.ports.len());
        for (v, m) in self.ports.iter().enumerate() {
            let deg = m.len() as u32;
            let mut row = Vec::with_capacity(m.len());
            for (expected, (&p, &(u, q))) in m.iter().enumerate() {
                if p != expected as u32 {
                    return Err(GraphError::NonContiguousPorts {
                        node: v as u32,
                        missing_port: expected as u32,
                        degree: deg,
                    });
                }
                row.push((u, q));
            }
            adj.push(row);
        }
        PortGraph::from_adjacency(adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_ports_build_a_ring() {
        // 4-ring with ports alternating 0/1 as in the paper's cycle constructions.
        let mut b = GraphBuilder::with_nodes(4);
        for i in 0..4u32 {
            let j = (i + 1) % 4;
            b.add_edge(i, 0, j, 1).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn auto_ports_are_contiguous() {
        let mut b = GraphBuilder::with_nodes(4);
        // Star centred at 0.
        for v in 1..4 {
            let (pu, pv) = b.add_edge_auto(0, v).unwrap();
            assert_eq!(pu, v - 1);
            assert_eq!(pv, 0);
        }
        let g = b.build().unwrap();
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn duplicate_port_rejected() {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edge(0, 0, 1, 0).unwrap();
        let err = b.add_edge(0, 0, 2, 0).unwrap_err();
        assert_eq!(err, GraphError::DuplicatePort { node: 0, port: 0 });
    }

    #[test]
    fn parallel_edge_rejected() {
        let mut b = GraphBuilder::with_nodes(2);
        b.add_edge(0, 0, 1, 0).unwrap();
        let err = b.add_edge(0, 1, 1, 1).unwrap_err();
        assert_eq!(err, GraphError::ParallelEdge { u: 0, v: 1 });
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::with_nodes(1);
        assert_eq!(
            b.add_edge(0, 0, 0, 1).unwrap_err(),
            GraphError::SelfLoop { node: 0 }
        );
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = GraphBuilder::with_nodes(2);
        assert!(matches!(
            b.add_edge(0, 0, 5, 0).unwrap_err(),
            GraphError::UnknownNode { node: 5, .. }
        ));
    }

    #[test]
    fn gap_in_ports_rejected_at_build() {
        let mut b = GraphBuilder::with_nodes(2);
        // Only port 1 used at node 0: port 0 is missing.
        b.add_edge(0, 1, 1, 0).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            GraphError::NonContiguousPorts {
                node: 0,
                missing_port: 0,
                ..
            }
        ));
    }

    #[test]
    fn disconnected_rejected_at_build() {
        let mut b = GraphBuilder::with_nodes(4);
        b.add_edge(0, 0, 1, 0).unwrap();
        b.add_edge(2, 0, 3, 0).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            GraphError::Disconnected { .. }
        ));
    }

    #[test]
    fn next_free_port_skips_used() {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edge(0, 1, 1, 0).unwrap();
        assert_eq!(b.next_free_port(0), 0);
        b.add_edge(0, 0, 2, 0).unwrap();
        assert_eq!(b.next_free_port(0), 2);
    }
}
