//! The core [`PortGraph`] type: a validated, immutable, anonymous port-numbered graph.

use crate::error::GraphError;
use crate::word_hash::WordMap;
use crate::Result;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Index of a node. Nodes are anonymous in the model; these ids exist only so the
/// *simulation infrastructure* (and oracles, which see the whole graph) can address
/// nodes. Distributed algorithms never observe them.
pub type NodeId = u32;

/// A local port number at a node. At a node of degree `d` the ports are exactly
/// `0..d`, with no relation between the two port numbers of an edge.
pub type Port = u32;

/// A single undirected edge together with its two port numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// First endpoint.
    pub u: NodeId,
    /// Port number of the edge at `u`.
    pub port_u: Port,
    /// Second endpoint.
    pub v: NodeId,
    /// Port number of the edge at `v`.
    pub port_v: Port,
}

/// An anonymous, simple, undirected, connected port-numbered graph.
///
/// Internally the graph stores, for every node `v` and every port `p` at `v`, the pair
/// `(u, q)` where `u` is the neighbour reached through port `p` and `q` is the port of
/// the same edge at `u`. All invariants of the model (ports are `0..deg(v)`, the port
/// map is an involution, simplicity, connectivity) are validated at construction time
/// by [`crate::GraphBuilder::build`], so every `PortGraph` value is a legal network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortGraph {
    /// `adj[v][p] = (u, q)`.
    adj: Vec<Vec<(NodeId, Port)>>,
    /// Total number of undirected edges.
    num_edges: usize,
}

impl PortGraph {
    /// Construct from a fully specified adjacency structure, validating every model
    /// invariant. Prefer [`crate::GraphBuilder`], which produces this structure safely.
    pub fn from_adjacency(adj: Vec<Vec<(NodeId, Port)>>) -> Result<Self> {
        if adj.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = adj.len() as u32;
        let mut num_edges = 0usize;
        for (v, ports) in adj.iter().enumerate() {
            let v = v as NodeId;
            for (p, &(u, q)) in ports.iter().enumerate() {
                let p = p as Port;
                if u >= n {
                    return Err(GraphError::UnknownNode {
                        node: u,
                        num_nodes: n,
                    });
                }
                if u == v {
                    return Err(GraphError::SelfLoop { node: v });
                }
                // The port map must be an involution: the entry at (u, q) must be (v, p).
                let back = adj[u as usize].get(q as usize).copied();
                if back != Some((v, p)) {
                    return Err(GraphError::NonContiguousPorts {
                        node: u,
                        missing_port: q,
                        degree: adj[u as usize].len() as u32,
                    });
                }
                num_edges += 1;
            }
            // Simplicity: no two ports of v may lead to the same neighbour.
            let mut targets: Vec<NodeId> = ports.iter().map(|&(u, _)| u).collect();
            targets.sort_unstable();
            for w in targets.windows(2) {
                if w[0] == w[1] {
                    return Err(GraphError::ParallelEdge { u: v, v: w[0] });
                }
            }
        }
        debug_assert!(num_edges.is_multiple_of(2));
        let g = PortGraph {
            adj,
            num_edges: num_edges / 2,
        };
        let reachable = g.bfs_distances(0).iter().filter(|&&d| d < u32::MAX).count() as u32;
        if reachable != n {
            return Err(GraphError::Disconnected {
                reachable,
                total: n,
            });
        }
        Ok(g)
    }

    /// Number of nodes (`n` in the paper).
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v as usize].len()
    }

    /// Maximum degree `Δ`.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The neighbour reached from `v` through port `p`, together with the port of the
    /// same edge at the neighbour. Returns `None` if `p ≥ deg(v)`.
    pub fn neighbor(&self, v: NodeId, p: Port) -> Option<(NodeId, Port)> {
        self.adj[v as usize].get(p as usize).copied()
    }

    /// Iterator over `(port, neighbour, neighbour_port)` triples at node `v`, in port
    /// order — exactly the local information a node of the network has about its edges.
    pub fn ports(&self, v: NodeId) -> impl Iterator<Item = (Port, NodeId, Port)> + '_ {
        self.adj[v as usize]
            .iter()
            .enumerate()
            .map(|(p, &(u, q))| (p as Port, u, q))
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.adj.len() as NodeId
    }

    /// Iterator over every undirected edge, reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.nodes().flat_map(move |v| {
            self.ports(v).filter_map(move |(p, u, q)| {
                if v < u {
                    Some(EdgeRef {
                        u: v,
                        port_u: p,
                        v: u,
                        port_v: q,
                    })
                } else {
                    None
                }
            })
        })
    }

    /// The port at `v` of the edge `{v, u}`, if such an edge exists.
    pub fn port_towards(&self, v: NodeId, u: NodeId) -> Option<Port> {
        self.ports(v).find(|&(_, w, _)| w == u).map(|(p, _, _)| p)
    }

    /// BFS distances from `source`. Every validated graph is connected, so every
    /// entry is finite; only the connectivity check of [`PortGraph::from_adjacency`],
    /// which runs before that is known, can see `u32::MAX` for an unreached node.
    pub fn bfs_distances(&self, source: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_nodes()];
        dist[source as usize] = 0;
        let mut queue = VecDeque::from([source]);
        while let Some(v) = queue.pop_front() {
            let dv = dist[v as usize];
            for (_, u, _) in self.ports(v) {
                if dist[u as usize] == u32::MAX {
                    dist[u as usize] = dv + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// Distance between two nodes.
    pub fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        self.bfs_distances(u)[v as usize]
    }

    /// Eccentricity of a node: maximum distance to any other node.
    pub fn eccentricity(&self, v: NodeId) -> u32 {
        self.bfs_distances(v).into_iter().max().unwrap_or(0)
    }

    /// Diameter of the graph (maximum eccentricity). `O(n·m)`; fine for the graph sizes
    /// used in tests and experiments.
    pub fn diameter(&self) -> u32 {
        self.nodes()
            .map(|v| self.eccentricity(v))
            .max()
            .unwrap_or(0)
    }

    /// One shortest path from `u` to `v` as a list of nodes (including both endpoints).
    pub fn shortest_path(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        self.bfs_path(u, usize::MAX, |_| true, |x| x == v)
            .expect("connected graph: path exists")
    }

    /// A shortest path from `from` to the first node `is_target` accepts, as a list
    /// of nodes (both endpoints included), or `None` if no accepted node is reached.
    /// The search enters only nodes that `enter` admits (`from` is exempt) and goes
    /// at most `radius` edges out. It tests `from` first, then runs breadth-first one
    /// level at a time with ports in increasing order, so the nodes of a level are
    /// reached in the order of their least port sequences, and the path returned is
    /// the least of the shortest ones to the first accepted node. The parent map
    /// grows with the ball explored, so a call costs that ball, not `n`.
    pub fn bfs_path(
        &self,
        from: NodeId,
        radius: usize,
        enter: impl Fn(NodeId) -> bool,
        is_target: impl Fn(NodeId) -> bool,
    ) -> Option<Vec<NodeId>> {
        // Room for a few hundred nodes up front: the balls the election rules search
        // are mostly that small, and growing from empty would rehash at every doubling.
        let room = self.num_nodes().min(256);
        let mut parent = WordMap::with_capacity_and_hasher(room, Default::default());
        parent.insert(from, from);
        let mut found = is_target(from).then_some(from);
        let (mut level, mut next) = (vec![from], Vec::new());
        let mut depth = 0;
        while found.is_none() && depth < radius && !level.is_empty() {
            'level: for &x in &level {
                for (_, u, _) in self.ports(x) {
                    let Entry::Vacant(slot) = parent.entry(u) else {
                        continue;
                    };
                    if !enter(u) {
                        continue;
                    }
                    slot.insert(x);
                    if is_target(u) {
                        found = Some(u);
                        break 'level;
                    }
                    next.push(u);
                }
            }
            std::mem::swap(&mut level, &mut next);
            next.clear();
            depth += 1;
        }
        let mut path = vec![found?];
        let mut cur = path[0];
        while cur != from {
            cur = parent[&cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Outgoing-port labels along a node path: for consecutive nodes `(a, b)` the port
    /// at `a` of the edge `{a, b}`. Panics if the path uses a non-edge.
    pub fn outgoing_ports_of_path(&self, path: &[NodeId]) -> Vec<Port> {
        path.windows(2)
            .map(|w| {
                self.port_towards(w[0], w[1])
                    .expect("consecutive path nodes must be adjacent")
            })
            .collect()
    }

    /// Both port labels along a node path: for consecutive `(a, b)` the pair
    /// `(port at a, port at b)` of the edge `{a, b}` — the encoding used by the CPPE task.
    pub fn full_ports_of_path(&self, path: &[NodeId]) -> Vec<(Port, Port)> {
        path.windows(2)
            .map(|w| {
                let p = self
                    .port_towards(w[0], w[1])
                    .expect("consecutive path nodes must be adjacent");
                let (_, q) = self.neighbor(w[0], p).expect("port exists");
                (p, q)
            })
            .collect()
    }

    /// Follow a sequence of *outgoing* ports starting at `start`. Returns the visited
    /// nodes (including `start`), or `None` if some port does not exist at the current
    /// node. This is how a PPE output is interpreted.
    pub fn follow_outgoing_ports(&self, start: NodeId, ports: &[Port]) -> Option<Vec<NodeId>> {
        let mut nodes = Vec::with_capacity(ports.len() + 1);
        nodes.push(start);
        let mut cur = start;
        for &p in ports {
            let (u, _) = self.neighbor(cur, p)?;
            nodes.push(u);
            cur = u;
        }
        Some(nodes)
    }

    /// Follow a sequence of `(outgoing, incoming)` port pairs starting at `start`,
    /// checking that the incoming port of every traversed edge matches. This is how a
    /// CPPE output `(p_1, q_1, …, p_k, q_k)` is interpreted.
    pub fn follow_full_ports(&self, start: NodeId, ports: &[(Port, Port)]) -> Option<Vec<NodeId>> {
        let mut nodes = Vec::with_capacity(ports.len() + 1);
        nodes.push(start);
        let mut cur = start;
        for &(p, q) in ports {
            let (u, q_actual) = self.neighbor(cur, p)?;
            if q_actual != q {
                return None;
            }
            nodes.push(u);
            cur = u;
        }
        Some(nodes)
    }

    /// Does the node sequence form a *simple* path (no repeated node)?
    pub fn is_simple_node_sequence(path: &[NodeId]) -> bool {
        let mut sorted = path.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).all(|w| w[0] != w[1])
    }

    /// Degree sequence, sorted descending. Handy fingerprint in tests.
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut ds: Vec<usize> = self.nodes().map(|v| self.degree(v)).collect();
        ds.sort_unstable_by(|a, b| b.cmp(a));
        ds
    }

    /// Count of nodes having each degree, indexed by degree (length `Δ + 1`).
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_degree() + 1];
        for v in self.nodes() {
            hist[self.degree(v)] += 1;
        }
        hist
    }

    /// The port-offset table: `offsets[v]` is the index of `(v, port 0)` in a flat
    /// array holding one slot per directed port, in node order; `offsets[n]` is the
    /// total number of directed ports (`2m`). This is the CSR-style indexing the
    /// batching execution backend uses to lay all per-round outboxes and inboxes out
    /// in two flat arenas: the slot of `(v, p)` is `offsets[v] + p`.
    pub fn port_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        let mut total = 0usize;
        for ports in &self.adj {
            offsets.push(total);
            total += ports.len();
        }
        offsets.push(total);
        offsets
    }

    /// The flat routing table over the port-offset table: `route[offsets[v] + p] =
    /// offsets[u] + q` where `(u, q)` is across port `p` of `v`. Routing a round of
    /// messages becomes one linear pass over this permutation of `0..2m` (the table is
    /// an involution, like the port map it flattens).
    pub fn flat_route_table(&self) -> Vec<usize> {
        self.flat_route_table_with(&self.port_offsets())
    }

    /// [`flat_route_table`](PortGraph::flat_route_table) against a caller-supplied
    /// port-offset table (which must come from [`PortGraph::port_offsets`] on this
    /// graph), so callers that already hold the offsets build both tables in one pass
    /// each — the batching backend does this once per run.
    pub fn flat_route_table_with(&self, offsets: &[usize]) -> Vec<usize> {
        debug_assert_eq!(offsets.len(), self.adj.len() + 1);
        let mut route = Vec::with_capacity(*offsets.last().expect("offsets non-empty"));
        for ports in &self.adj {
            for &(u, q) in ports {
                route.push(offsets[u as usize] + q as usize);
            }
        }
        route
    }

    /// Access to the raw adjacency (read-only); used by the permutation utilities.
    pub(crate) fn adjacency(&self) -> &Vec<Vec<(NodeId, Port)>> {
        &self.adj
    }

    /// Consume the graph and return its raw adjacency.
    pub fn into_adjacency(self) -> Vec<Vec<(NodeId, Port)>> {
        self.adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// The 3-node line with ports 0,0,1,0 from left to right, used in the paper's
    /// introduction as an example with `ψ_CPPE = 1`.
    fn three_node_line() -> PortGraph {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edge(0, 0, 1, 0).unwrap();
        b.add_edge(1, 1, 2, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = three_node_line();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.degree_sequence(), vec![2, 1, 1]);
        assert_eq!(g.degree_histogram(), vec![0, 2, 1]);
    }

    #[test]
    fn neighbor_lookup_and_port_towards() {
        let g = three_node_line();
        assert_eq!(g.neighbor(0, 0), Some((1, 0)));
        assert_eq!(g.neighbor(1, 0), Some((0, 0)));
        assert_eq!(g.neighbor(1, 1), Some((2, 0)));
        assert_eq!(g.neighbor(2, 0), Some((1, 1)));
        assert_eq!(g.neighbor(0, 1), None);
        assert_eq!(g.port_towards(1, 2), Some(1));
        assert_eq!(g.port_towards(2, 1), Some(0));
        assert_eq!(g.port_towards(0, 2), None);
    }

    #[test]
    fn distances_and_diameter() {
        let g = three_node_line();
        assert_eq!(g.distance(0, 2), 2);
        assert_eq!(g.distance(0, 0), 0);
        assert_eq!(g.diameter(), 2);
        assert_eq!(g.eccentricity(1), 1);
    }

    #[test]
    fn shortest_path_and_port_extraction() {
        let g = three_node_line();
        let path = g.shortest_path(0, 2);
        assert_eq!(path, vec![0, 1, 2]);
        assert_eq!(g.outgoing_ports_of_path(&path), vec![0, 1]);
        assert_eq!(g.full_ports_of_path(&path), vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn bfs_path_tests_from_first() {
        let g = three_node_line();
        assert_eq!(g.bfs_path(1, 0, |_| false, |_| true), Some(vec![1]));
    }

    #[test]
    fn bfs_path_prefers_the_smaller_port_between_shortest_paths() {
        // A 4-cycle: from node 0, port 0 leads to 3 and port 1 to 1, and node 2
        // lies two edges away on either side.
        let mut b = GraphBuilder::with_nodes(4);
        b.add_edge(0, 1, 1, 0).unwrap();
        b.add_edge(1, 1, 2, 0).unwrap();
        b.add_edge(2, 1, 3, 0).unwrap();
        b.add_edge(3, 1, 0, 0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(
            g.bfs_path(0, usize::MAX, |_| true, |x| x == 2),
            Some(vec![0, 3, 2])
        );
        // The first target reached is the one behind the smaller port.
        assert_eq!(
            g.bfs_path(0, usize::MAX, |_| true, |x| x != 0),
            Some(vec![0, 3])
        );
    }

    #[test]
    fn bfs_path_enters_only_admitted_nodes_within_the_radius() {
        let g = crate::generators::path(5).unwrap();
        let to_end = |x| x == 4;
        assert_eq!(g.bfs_path(0, usize::MAX, |x| x != 2, to_end), None);
        assert_eq!(
            g.bfs_path(0, 4, |_| true, to_end),
            Some(vec![0, 1, 2, 3, 4])
        );
        assert_eq!(g.bfs_path(0, 3, |_| true, to_end), None);
    }

    #[test]
    fn bfs_paths_are_simple_and_shortest() {
        for seed in 0..4 {
            let g = crate::generators::random_connected(30, 5, 12, seed).unwrap();
            for from in [0, 7, 29] {
                let dist = g.bfs_distances(from);
                for v in g.nodes() {
                    let path = g.bfs_path(from, usize::MAX, |_| true, |x| x == v).unwrap();
                    assert_eq!(path[0], from);
                    assert_eq!(*path.last().unwrap(), v);
                    assert_eq!(path.len() as u32 - 1, dist[v as usize]);
                    assert!(PortGraph::is_simple_node_sequence(&path));
                    assert_eq!(g.outgoing_ports_of_path(&path).len(), path.len() - 1);
                }
            }
        }
    }

    #[test]
    fn follow_ports_round_trips() {
        let g = three_node_line();
        assert_eq!(g.follow_outgoing_ports(0, &[0, 1]), Some(vec![0, 1, 2]));
        assert_eq!(g.follow_outgoing_ports(0, &[1]), None);
        assert_eq!(
            g.follow_full_ports(0, &[(0, 0), (1, 0)]),
            Some(vec![0, 1, 2])
        );
        // Wrong incoming port is rejected.
        assert_eq!(g.follow_full_ports(0, &[(0, 1)]), None);
    }

    #[test]
    fn edge_iteration_reports_each_edge_once() {
        let g = three_node_line();
        let edges: Vec<EdgeRef> = g.edges().collect();
        assert_eq!(edges.len(), 2);
        assert!(edges.iter().all(|e| e.u < e.v));
    }

    #[test]
    fn from_adjacency_rejects_broken_involution() {
        // Port map not symmetric: node 1 thinks its port 0 goes back to (0,1).
        let adj = vec![vec![(1, 0)], vec![(0, 1)]];
        assert!(PortGraph::from_adjacency(adj).is_err());
    }

    #[test]
    fn from_adjacency_rejects_self_loop_and_disconnected() {
        let adj = vec![vec![(0, 0)]];
        assert!(matches!(
            PortGraph::from_adjacency(adj),
            Err(GraphError::SelfLoop { node: 0 })
        ));

        // Two disjoint edges: 0-1 and 2-3.
        let adj = vec![vec![(1, 0)], vec![(0, 0)], vec![(3, 0)], vec![(2, 0)]];
        assert!(matches!(
            PortGraph::from_adjacency(adj),
            Err(GraphError::Disconnected { .. })
        ));
    }

    #[test]
    fn from_adjacency_rejects_parallel_edges() {
        // Two nodes joined by two edges.
        let adj = vec![vec![(1, 0), (1, 1)], vec![(0, 0), (0, 1)]];
        assert!(matches!(
            PortGraph::from_adjacency(adj),
            Err(GraphError::ParallelEdge { .. })
        ));
    }

    #[test]
    fn empty_graph_rejected() {
        assert!(matches!(
            PortGraph::from_adjacency(vec![]),
            Err(GraphError::Empty)
        ));
    }

    #[test]
    fn port_offsets_are_degree_prefix_sums() {
        let g = three_node_line();
        assert_eq!(g.port_offsets(), vec![0, 1, 3, 4]);
        let single = PortGraph::from_adjacency(vec![vec![]]).unwrap();
        assert_eq!(single.port_offsets(), vec![0, 0]);
    }

    #[test]
    fn flat_route_table_is_an_involution_matching_neighbor() {
        let g = crate::generators::random_connected(30, 5, 12, 11).unwrap();
        let offsets = g.port_offsets();
        let route = g.flat_route_table();
        assert_eq!(route.len(), 2 * g.num_edges());
        for v in g.nodes() {
            for (p, u, q) in g.ports(v) {
                let slot = offsets[v as usize] + p as usize;
                let far = offsets[u as usize] + q as usize;
                assert_eq!(route[slot], far);
                assert_eq!(route[far], slot, "routing is an involution");
            }
        }
    }

    #[test]
    fn simple_node_sequence_check() {
        assert!(PortGraph::is_simple_node_sequence(&[0, 1, 2]));
        assert!(!PortGraph::is_simple_node_sequence(&[0, 1, 0]));
        assert!(PortGraph::is_simple_node_sequence(&[5]));
        assert!(PortGraph::is_simple_node_sequence(&[]));
    }
}
