//! The class quotient graph and the shortest-path-first assignment search over it.
//!
//! The exact `ψ_PPE`/`ψ_CPPE` computations need, per view class, one port sequence
//! that traces a simple path to the leader from *every* member of the class. The
//! original implementation enumerated raw simple paths per member
//! (`paths::simple_paths`), which exhausts any reasonable budget beyond ~25 nodes
//! on expander-like graphs. This module replaces the enumeration with search on
//! the *class quotient graph* that the refinement machinery already computes:
//!
//! * [`ClassQuotient`] — one node per depth-`h` view class, one edge per
//!   (class, port) labelled with the far-end port and the target class, plus a
//!   *uniformity* flag: the edge is uniform iff **every** member of the class
//!   agrees on the (far port, target class) pair at that port.
//! * [`QuotientSearch`] — the reusable search state: a BFS over the quotient's
//!   uniform edges from the leader's class (the arena-allocated
//!   `expand_routes` inner loop, registered with anet-lint's `hot-path-alloc`
//!   pass) yielding one representative route per class, plus a concrete BFS from
//!   the leader yielding per-node shortest-path candidates, and the cache of
//!   `election_index`'s leader-independent guided-merge outcomes. Port Election
//!   uses none of this: its assignment needs only `paths::PeValidity`.
//!
//! **Why uniform routes lift soundly.** Let the route from class `c` use only
//! uniform edges. Following the route's port sequence from *any* member of `c`
//! walks the same class sequence (uniformity pins the target class at every
//! step), and the classes along the route have strictly decreasing BFS distance
//! to the leader class, so they are pairwise distinct — hence the concrete nodes
//! visited are pairwise distinct and the walk is automatically simple. The
//! leader's class is a singleton, so the walk ends exactly at the leader. The
//! lifted candidates are therefore valid for every member by construction; the
//! callers in `election_index` still validate them with the
//! `ppe_sequence_is_valid`/`cppe_sequence_is_valid` predicates as
//! defense-in-depth.

use crate::election_index::MergeCache;
use crate::refinement::Refinement;
use anet_graph::{NodeId, Port, PortGraph};

/// Cost counters of one assignment search, surfaced all the way into
/// `ElectionReport` and the sweep JSON (schema `anet-workloads/v4`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Quotient classes expanded by the route BFS (one count per queue pop).
    /// Only PPE and CPPE run it; a Port Election search reports 0.
    pub classes_expanded: usize,
    /// Search work: candidate paths tested (lifted routes, per-member shortest
    /// paths, guided-merge suffixes), guided-merge operations, and joint-search
    /// steps. The merge operations are most of the count.
    pub paths_explored: usize,
}

impl SearchStats {
    /// Component-wise sum (used when several searches contribute to one report).
    pub fn add(&mut self, other: SearchStats) {
        self.classes_expanded += other.classes_expanded;
        self.paths_explored += other.paths_explored;
    }
}

/// One outgoing edge of a quotient class: the edge at port `p` of every member
/// (members of a class share their degree, so the port exists for all of them).
#[derive(Debug, Clone, Copy)]
pub struct QEdge {
    /// Class of the far endpoint of the representative member's edge.
    pub target: u32,
    /// Far-end port of the representative member's edge.
    pub far_port: Port,
    /// Do **all** members agree on `(far_port, target)` at this port?
    pub uniform: bool,
}

/// The class quotient graph of a graph at one refinement depth.
#[derive(Debug, Default)]
pub struct ClassQuotient {
    /// Number of classes (quotient nodes).
    num_classes: usize,
    /// Node → positional class index (position in `Refinement::classes_at` order).
    class_of: Vec<u32>,
    /// CSR offsets into `members`, length `num_classes + 1`.
    member_offsets: Vec<usize>,
    /// Class members, grouped by class.
    members: Vec<NodeId>,
    /// CSR offsets into `edges`, length `num_classes + 1` (per class: one edge
    /// per port, in port order).
    edge_offsets: Vec<usize>,
    /// All quotient edges.
    edges: Vec<QEdge>,
    /// CSR offsets into `rev`, length `num_classes + 1`: reverse adjacency over
    /// the *uniform* edges only, grouped by target class.
    rev_offsets: Vec<usize>,
    /// Reverse uniform edges: `(source class, source port)`.
    rev: Vec<(u32, Port)>,
}

impl ClassQuotient {
    /// Build the quotient of `g` at `depth` from a precomputed refinement.
    /// Costs `O(n + m)` plus the `classes_at` grouping.
    pub fn build(g: &PortGraph, r: &Refinement, depth: usize) -> ClassQuotient {
        let classes = r.classes_at(depth);
        let num_classes = classes.len();
        let mut class_of = vec![0u32; g.num_nodes()];
        for (ci, class) in classes.iter().enumerate() {
            for &v in class {
                class_of[v as usize] = ci as u32;
            }
        }
        let mut member_offsets = Vec::with_capacity(num_classes + 1);
        let mut members = Vec::with_capacity(g.num_nodes());
        member_offsets.push(0);
        for class in &classes {
            members.extend_from_slice(class);
            member_offsets.push(members.len());
        }
        let mut edge_offsets = Vec::with_capacity(num_classes + 1);
        edge_offsets.push(0);
        let mut edges: Vec<QEdge> = Vec::new();
        for class in &classes {
            let rep = class[0];
            for (p, u, q) in g.ports(rep) {
                let target = class_of[u as usize];
                let uniform = class.iter().all(|&v| match g.neighbor(v, p) {
                    Some((u2, q2)) => q2 == q && class_of[u2 as usize] == target,
                    None => false,
                });
                edges.push(QEdge {
                    target,
                    far_port: q,
                    uniform,
                });
            }
            edge_offsets.push(edges.len());
        }
        // Reverse adjacency over the uniform edges (counting sort by target, so
        // within a bucket sources appear in (class, port) order — deterministic).
        let mut rev_offsets = vec![0usize; num_classes + 1];
        for e in &edges {
            if e.uniform {
                rev_offsets[e.target as usize + 1] += 1;
            }
        }
        for i in 0..num_classes {
            rev_offsets[i + 1] += rev_offsets[i];
        }
        let mut cursor = rev_offsets.clone();
        let mut rev = vec![(0u32, 0 as Port); *rev_offsets.last().unwrap_or(&0)];
        for ci in 0..num_classes {
            for (k, e) in edges[edge_offsets[ci]..edge_offsets[ci + 1]]
                .iter()
                .enumerate()
            {
                if e.uniform {
                    rev[cursor[e.target as usize]] = (ci as u32, k as Port);
                    cursor[e.target as usize] += 1;
                }
            }
        }
        ClassQuotient {
            num_classes,
            class_of,
            member_offsets,
            members,
            edge_offsets,
            edges,
            rev_offsets,
            rev,
        }
    }

    /// Number of classes (quotient nodes).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Positional class index of a node.
    pub fn class_of(&self, v: NodeId) -> u32 {
        self.class_of[v as usize]
    }

    /// Members of a class.
    pub fn members(&self, c: u32) -> &[NodeId] {
        &self.members[self.member_offsets[c as usize]..self.member_offsets[c as usize + 1]]
    }

    /// Outgoing edges of a class, one per port, in port order.
    pub fn edges_of(&self, c: u32) -> &[QEdge] {
        &self.edges[self.edge_offsets[c as usize]..self.edge_offsets[c as usize + 1]]
    }
}

/// Reusable search state over a `(graph, refinement)` pair: caches the quotient
/// per depth, the two BFS passes per leader, and the PPE guided-merge outcomes
/// per (depth, path budget), so the PPE/CPPE loops over `(depth, leader)` pairs
/// pay construction once per coordinate change and each leader-independent merge
/// outcome once per depth. The PE assignment only borrows its graph and
/// refinement.
#[derive(Debug)]
pub struct QuotientSearch<'a> {
    g: &'a PortGraph,
    r: &'a Refinement,
    depth: Option<usize>,
    quotient: ClassQuotient,
    leader: Option<NodeId>,
    /// Concrete BFS distance to the leader per node (`u32::MAX` = unreachable).
    dist: Vec<u32>,
    /// Per node: a port leading to a node one step closer to the leader.
    step_port: Vec<Port>,
    /// Arena for the concrete BFS queue.
    node_queue: Vec<NodeId>,
    /// Route BFS: per class, distance to the leader class over uniform edges.
    route_len: Vec<u32>,
    /// Per class: the port of the uniform edge one step along the route.
    route_port: Vec<Port>,
    /// Arena for the route BFS queue.
    class_queue: Vec<u32>,
    pub(crate) stats: SearchStats,
    /// The guided-merge cache of `election_index`'s PPE ladder.
    pub(crate) merge: MergeCache,
}

impl<'a> QuotientSearch<'a> {
    /// A fresh search over `g` with its refinement `r`.
    pub fn new(g: &'a PortGraph, r: &'a Refinement) -> Self {
        QuotientSearch {
            g,
            r,
            depth: None,
            quotient: ClassQuotient::default(),
            leader: None,
            dist: vec![u32::MAX; g.num_nodes()],
            step_port: vec![0; g.num_nodes()],
            node_queue: vec![0; g.num_nodes()],
            route_len: Vec::new(),
            route_port: Vec::new(),
            class_queue: Vec::new(),
            stats: SearchStats::default(),
            merge: MergeCache::default(),
        }
    }

    /// The graph this search runs over.
    pub fn graph(&self) -> &'a PortGraph {
        self.g
    }

    /// The refinement this search runs over.
    pub fn refinement(&self) -> &'a Refinement {
        self.r
    }

    /// Prepare the caches for a `(depth, leader)` coordinate: rebuild the
    /// quotient if the depth changed, rerun the two BFS passes if the leader
    /// (or depth) changed. Idempotent for a repeated coordinate.
    pub fn prepare(&mut self, depth: usize, leader: NodeId) {
        if self.depth != Some(depth) {
            self.quotient = ClassQuotient::build(self.g, self.r, depth);
            self.depth = Some(depth);
            self.leader = None;
            let nc = self.quotient.num_classes();
            self.route_len.resize(nc, u32::MAX);
            self.route_port.resize(nc, 0);
            self.class_queue.resize(nc, 0);
        }
        if self.leader != Some(leader) {
            self.leader_bfs(leader);
            let expanded = expand_routes(
                &self.quotient.rev_offsets,
                &self.quotient.rev,
                self.quotient.class_of(leader),
                &mut self.route_len,
                &mut self.route_port,
                &mut self.class_queue,
            );
            self.stats.classes_expanded += expanded;
            self.leader = Some(leader);
        }
    }

    /// The quotient at the prepared depth.
    pub fn quotient(&self) -> &ClassQuotient {
        &self.quotient
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// The `(outgoing, incoming)` port pairs of one concrete shortest path from
    /// `v` to the prepared leader (from the BFS tree), or `None` if unreachable.
    pub fn concrete_path_full(&self, v: NodeId) -> Option<Vec<(Port, Port)>> {
        if self.dist[v as usize] == u32::MAX {
            return None;
        }
        let mut out = Vec::with_capacity(self.dist[v as usize] as usize);
        let mut cur = v;
        while self.dist[cur as usize] > 0 {
            let p = self.step_port[cur as usize];
            let (u, q) = self
                .g
                .neighbor(cur, p)
                .expect("BFS recorded an existing port");
            out.push((p, q));
            cur = u;
        }
        Some(out)
    }

    /// The uniform-route candidate for class `c` as `(outgoing, incoming)` port
    /// pairs, or `None` if no all-uniform route to the leader class exists.
    /// Valid for every member of `c` by the lifting argument in the module docs.
    pub fn route_full(&self, c: u32) -> Option<Vec<(Port, Port)>> {
        if self.route_len[c as usize] == u32::MAX {
            return None;
        }
        let mut out = Vec::with_capacity(self.route_len[c as usize] as usize);
        let mut cur = c;
        while self.route_len[cur as usize] > 0 {
            let p = self.route_port[cur as usize];
            let e = self.quotient.edges_of(cur)[p as usize];
            debug_assert!(e.uniform, "routes only use uniform edges");
            out.push((p, e.far_port));
            cur = e.target;
        }
        Some(out)
    }

    /// Concrete BFS from the leader filling `dist` and `step_port` (the port at
    /// each node towards a node one step closer).
    fn leader_bfs(&mut self, leader: NodeId) {
        for d in self.dist.iter_mut() {
            *d = u32::MAX;
        }
        self.dist[leader as usize] = 0;
        self.node_queue[0] = leader;
        let (mut head, mut tail) = (0usize, 1usize);
        while head < tail {
            let x = self.node_queue[head];
            head += 1;
            let dx = self.dist[x as usize];
            for (_, u, q) in self.g.ports(x) {
                if self.dist[u as usize] == u32::MAX {
                    self.dist[u as usize] = dx + 1;
                    self.step_port[u as usize] = q;
                    self.node_queue[tail] = u;
                    tail += 1;
                }
            }
        }
    }
}

/// The route BFS inner loop: breadth-first over the reverse *uniform* quotient
/// edges from the leader's class, filling per-class route length and next port.
/// Runs over caller-owned arenas so repeated leaders reuse the allocations; the
/// quotient search's per-(depth, leader) cost is this loop plus one concrete
/// BFS. Returns the number of classes expanded (queue pops).
// anet-lint: hot-path
fn expand_routes(
    rev_offsets: &[usize],
    rev: &[(u32, Port)],
    leader_class: u32,
    route_len: &mut [u32],
    route_port: &mut [Port],
    queue: &mut [u32],
) -> usize {
    for x in route_len.iter_mut() {
        *x = u32::MAX;
    }
    route_len[leader_class as usize] = 0;
    queue[0] = leader_class;
    let (mut head, mut tail) = (0usize, 1usize);
    let mut expanded = 0usize;
    while head < tail {
        let c = queue[head] as usize;
        head += 1;
        expanded += 1;
        let d = route_len[c] + 1;
        let mut k = rev_offsets[c];
        while k < rev_offsets[c + 1] {
            let (s, p) = rev[k];
            if route_len[s as usize] == u32::MAX {
                route_len[s as usize] = d;
                route_port[s as usize] = p;
                queue[tail] = s;
                tail += 1;
            }
            k += 1;
        }
    }
    expanded
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;

    #[test]
    fn quotient_of_all_singleton_depth_is_the_graph() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let r = Refinement::compute(&g, None);
        let h = (0..=r.stable_depth())
            .find(|&h| r.num_classes_at(h) == g.num_nodes())
            .unwrap();
        let q = ClassQuotient::build(&g, &r, h);
        assert_eq!(q.num_classes(), g.num_nodes());
        for c in 0..q.num_classes() as u32 {
            assert_eq!(q.members(c).len(), 1);
            let v = q.members(c)[0];
            // Singleton classes: every edge is trivially uniform and mirrors the
            // concrete edge.
            for (p, u, far) in g.ports(v) {
                let e = q.edges_of(c)[p as usize];
                assert!(e.uniform);
                assert_eq!(e.far_port, far);
                assert_eq!(q.members(e.target)[0], u);
            }
        }
    }

    #[test]
    fn symmetric_ring_collapses_to_one_uniform_self_loop_class() {
        // All four nodes share one class, so every edge leads back into it. Each
        // member's port 0 goes clockwise and arrives at port 1 (port 1 arrives at
        // port 0), so every member agrees on (far port, target class) at each
        // port: every edge of the single self-loop class is uniform.
        let g = generators::symmetric_ring(4).unwrap();
        let r = Refinement::compute(&g, None);
        let q = ClassQuotient::build(&g, &r, r.stable_depth());
        assert_eq!(q.num_classes(), 1);
        for e in q.edges_of(0) {
            assert_eq!(e.target, 0);
            assert!(e.uniform);
        }
    }

    #[test]
    fn routes_lift_to_valid_sequences_at_the_distinct_depth() {
        use crate::paths::{cppe_sequence_is_valid, ppe_sequence_is_valid};
        let g = generators::random_connected(12, 4, 3, 7).unwrap();
        let r = Refinement::compute(&g, None);
        let h = (0..=r.stable_depth())
            .find(|&h| r.num_classes_at(h) == g.num_nodes())
            .expect("random connected graphs are feasible");
        let leader = r.unique_nodes_at(h)[0];
        let mut s = QuotientSearch::new(&g, &r);
        s.prepare(h, leader);
        let q = s.quotient();
        for v in g.nodes() {
            if v == leader {
                continue;
            }
            let c = q.class_of(v);
            let full = s.route_full(c).expect("all classes reachable");
            let ports: Vec<Port> = full.iter().map(|&(p, _)| p).collect();
            assert!(ppe_sequence_is_valid(&g, v, &ports, leader), "node {v}");
            assert!(cppe_sequence_is_valid(&g, v, &full, leader), "node {v}");
        }
        assert!(s.stats().classes_expanded > 0);
    }

    #[test]
    fn concrete_paths_agree_with_bfs() {
        let g = generators::random_connected(10, 3, 2, 3).unwrap();
        let r = Refinement::compute(&g, None);
        let mut s = QuotientSearch::new(&g, &r);
        s.prepare(0, 0);
        let dist = g.bfs_distances(0);
        for v in g.nodes() {
            let full = s.concrete_path_full(v).unwrap();
            assert_eq!(full.len() as u32, dist[v as usize]);
            if v != 0 {
                let nodes = g.follow_full_ports(v, &full).unwrap();
                assert_eq!(*nodes.last().unwrap(), 0);
            }
        }
    }

    #[test]
    fn preparing_the_same_coordinate_twice_is_idempotent() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let r = Refinement::compute(&g, None);
        let mut s = QuotientSearch::new(&g, &r);
        s.prepare(1, 0);
        let first = s.stats();
        s.prepare(1, 0);
        assert_eq!(s.stats(), first, "no re-expansion on a repeated coordinate");
    }
}
