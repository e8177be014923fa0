//! Simple-path utilities used by the election-task verifiers and the exact
//! election-index computations.
//!
//! The three "strong" election tasks are all phrased in terms of *simple paths to the
//! leader*:
//!
//! * `PE` — a node's output port is correct iff it is the first port of **some** simple
//!   path from the node to the leader;
//! * `PPE` — the output port sequence, followed from the node, must trace a simple path
//!   ending at the leader;
//! * `CPPE` — ditto, and every traversed edge's far-end port must match the output.
//!
//! The first condition reduces to reachability of the leader in `G − v` from the chosen
//! neighbour. [`PeValidity`] answers it for every `(node, port)` pair at once from one
//! low-link DFS rooted at the leader, in `O(n + m)`; [`pe_port_is_valid`] answers it for
//! one pair with a BFS of `G − v` and is kept as the reference the table is tested
//! against. The other two conditions are direct walks. The exact `ψ_PPE` / `ψ_CPPE`
//! oracles additionally need to *enumerate* candidate simple paths, which is done here
//! with an explicit cap so it is only used on small graphs.

use anet_graph::{NodeId, Port, PortGraph};

/// Is `target` reachable from `from` in the graph with node `avoid` deleted?
/// (`from == target` counts as reachable provided `from != avoid`.)
pub fn reaches_avoiding(g: &PortGraph, from: NodeId, target: NodeId, avoid: NodeId) -> bool {
    if from == avoid || target == avoid {
        return false;
    }
    g.bfs_path(from, usize::MAX, |u| u != avoid, |u| u == target)
        .is_some()
}

/// Is port `p` at node `v` the first port of some simple path from `v` to `leader`?
/// This is the per-node correctness condition of the Port Election task, answered
/// with one BFS of `G − v`: the reference [`PeValidity`] is tested against.
pub fn pe_port_is_valid(g: &PortGraph, v: NodeId, p: Port, leader: NodeId) -> bool {
    if v == leader {
        return false;
    }
    match g.neighbor(v, p) {
        None => false,
        Some((u, _)) => u == leader || reaches_avoiding(g, u, leader, v),
    }
}

/// Port Election validity of every `(node, port)` pair for one leader, from one
/// iterative depth-first search rooted at the leader: `O(n + m)` to build and
/// `O(1)` per query, where [`pe_port_is_valid`] pays a BFS per query.
///
/// Let `u` be the neighbour of `v ≠ leader` across port `p`; the port is valid iff
/// the leader is reachable from `u` in `G − v`. A DFS of a simple graph has no cross
/// edges, so `u` is either an ancestor of `v`, whose tree path to the leader avoids
/// `v` (valid), or a descendant of `v` inside the subtree of some DFS child `c` of
/// `v`. Edges leave that subtree only towards ancestors of `c`, so the leader is
/// reachable from it in `G − v` iff `low(c) < disc(v)`: some node under `c` has an
/// edge to a proper ancestor of `v`. Every port of the leader is invalid.
#[derive(Debug)]
pub struct PeValidity {
    /// The slots of node `v` are `offsets[v]..offsets[v + 1]`, one per port.
    offsets: Vec<usize>,
    /// Per `(node, port)` slot: is the port PE-valid?
    valid: Vec<bool>,
}

impl PeValidity {
    /// Run the low-link DFS from `leader` and classify every port of `g`. The DFS
    /// keeps an explicit stack, so path-like graphs of any length cannot overflow
    /// the call stack.
    pub fn new(g: &PortGraph, leader: NodeId) -> PeValidity {
        const NONE: u32 = u32::MAX;
        let n = g.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for v in g.nodes() {
            offsets.push(offsets[v as usize] + g.degree(v));
        }
        // Per slot: the DFS child of the slot's node whose subtree holds the far
        // end, or NONE when the far end is an ancestor.
        let mut below = vec![NONE; offsets[n]];
        let mut disc = vec![NONE; n];
        let mut low = vec![NONE; n];
        // Position on the DFS stack while a node is on it, NONE before and after.
        let mut depth = vec![NONE; n];
        // The DFS stack: (node, next port to scan).
        let mut stack: Vec<(NodeId, Port)> = Vec::with_capacity(n);
        disc[leader as usize] = 0;
        low[leader as usize] = 0;
        depth[leader as usize] = 0;
        stack.push((leader, 0));
        let mut time = 1u32;
        while let Some(&(x, p)) = stack.last() {
            let top = stack.len() - 1;
            let Some((y, q)) = g.neighbor(x, p) else {
                // Every port of x is scanned: fold its low-link into its parent.
                stack.pop();
                depth[x as usize] = NONE;
                if let Some(&(parent, _)) = stack.last() {
                    low[parent as usize] = low[parent as usize].min(low[x as usize]);
                }
                continue;
            };
            stack[top].1 += 1;
            if disc[y as usize] == NONE {
                // Tree edge: y is a child of x.
                below[offsets[x as usize] + p as usize] = y;
                disc[y as usize] = time;
                low[y as usize] = time;
                time += 1;
                depth[y as usize] = stack.len() as u32;
                stack.push((y, 0));
            } else if depth[y as usize] != NONE {
                // y is on the stack, so it is an ancestor of x (maybe its parent):
                // x's slot stays NONE, and y's slot towards x belongs to the node
                // one level below y on the stack.
                low[x as usize] = low[x as usize].min(disc[y as usize]);
                below[offsets[y as usize] + q as usize] = stack[depth[y as usize] as usize + 1].0;
            }
            // Otherwise y is a finished descendant of x, and it filled x's slot
            // when it scanned this edge from its own side.
        }
        let mut valid = vec![false; offsets[n]];
        for v in g.nodes().filter(|&v| v != leader) {
            let dv = disc[v as usize];
            for s in offsets[v as usize]..offsets[v as usize + 1] {
                valid[s] = match below[s] {
                    NONE => true,
                    c => low[c as usize] < dv,
                };
            }
        }
        PeValidity { offsets, valid }
    }

    /// Is port `p` at node `v` the first port of some simple path from `v` to the
    /// leader? Total: a port `p ≥ deg(v)`, an unknown node and every port of the
    /// leader are invalid.
    pub fn is_valid(&self, v: NodeId, p: Port) -> bool {
        let v = v as usize;
        match (self.offsets.get(v), self.offsets.get(v + 1)) {
            (Some(&start), Some(&end)) => {
                (p as usize) < end - start && self.valid[start + p as usize]
            }
            _ => false,
        }
    }
}

/// Does the outgoing-port sequence `ports`, followed from `v`, trace a *simple* path
/// that ends at `leader`? This is the per-node correctness condition of PPE.
pub fn ppe_sequence_is_valid(g: &PortGraph, v: NodeId, ports: &[Port], leader: NodeId) -> bool {
    if v == leader {
        return false;
    }
    match g.follow_outgoing_ports(v, ports) {
        None => false,
        Some(nodes) => PortGraph::is_simple_node_sequence(&nodes) && nodes.last() == Some(&leader),
    }
}

/// Does the `(outgoing, incoming)` port-pair sequence, followed from `v`, trace a
/// simple path ending at `leader` with every incoming port matching? This is the
/// per-node correctness condition of CPPE.
pub fn cppe_sequence_is_valid(
    g: &PortGraph,
    v: NodeId,
    ports: &[(Port, Port)],
    leader: NodeId,
) -> bool {
    if v == leader {
        return false;
    }
    match g.follow_full_ports(v, ports) {
        None => false,
        Some(nodes) => PortGraph::is_simple_node_sequence(&nodes) && nodes.last() == Some(&leader),
    }
}

/// Result of a capped enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Enumeration<T> {
    /// All objects were enumerated.
    Complete(Vec<T>),
    /// The cap was hit; the enumeration is incomplete.
    Truncated(Vec<T>),
}

impl<T> Enumeration<T> {
    /// The enumerated items, regardless of completeness.
    pub fn items(&self) -> &[T] {
        match self {
            Enumeration::Complete(v) | Enumeration::Truncated(v) => v,
        }
    }

    /// Was the enumeration complete?
    pub fn is_complete(&self) -> bool {
        matches!(self, Enumeration::Complete(_))
    }
}

/// DFS edge-extension steps allowed per enumerated path: the implicit step
/// budget of [`simple_paths`] is `max_paths · STEPS_PER_PATH`.
///
/// The path cap alone does not bound the running time: it only counts *completed*
/// paths, while on dense shuffled topologies (circulants and tori from ~256 nodes
/// up) the DFS can wander exponentially among dead-end prefixes that never reach
/// the target, completing no path and therefore never touching the cap. The step
/// budget charges every edge extension, completed or not, so the enumeration
/// always terminates — as `Truncated` when the budget runs out, which the
/// election-index ladder reports as its typed `PathBudgetExceeded` error. The
/// factor is generous enough that every enumeration the equivalence corpora
/// complete (n ≤ 16, and sparse random-regular up to the path cap) is unaffected.
const STEPS_PER_PATH: usize = 256;

/// Enumerate simple paths from `from` to `to` (as node sequences including both
/// endpoints), depth-first in increasing port order, up to `max_paths` paths and
/// at most `max_paths · STEPS_PER_PATH` DFS steps (see
/// [`simple_paths_bounded`] for an explicit step budget).
pub fn simple_paths(
    g: &PortGraph,
    from: NodeId,
    to: NodeId,
    max_paths: usize,
) -> Enumeration<Vec<NodeId>> {
    simple_paths_bounded(
        g,
        from,
        to,
        max_paths,
        max_paths.saturating_mul(STEPS_PER_PATH),
    )
}

/// [`simple_paths`] with an explicit DFS step budget: every edge extension costs
/// one step, and exhausting `max_steps` truncates the enumeration exactly like
/// hitting `max_paths` does. `Complete` is returned only when the search space
/// was genuinely exhausted, so the completeness signal stays sound.
pub fn simple_paths_bounded(
    g: &PortGraph,
    from: NodeId,
    to: NodeId,
    max_paths: usize,
    max_steps: usize,
) -> Enumeration<Vec<NodeId>> {
    let mut found = Vec::new();
    let mut on_path = vec![false; g.num_nodes()];
    let mut path = vec![from];
    let mut steps = max_steps;
    on_path[from as usize] = true;
    let truncated = dfs(
        g,
        from,
        to,
        max_paths,
        &mut steps,
        &mut on_path,
        &mut path,
        &mut found,
    );
    if truncated {
        Enumeration::Truncated(found)
    } else {
        Enumeration::Complete(found)
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    g: &PortGraph,
    cur: NodeId,
    to: NodeId,
    max_paths: usize,
    steps: &mut usize,
    on_path: &mut Vec<bool>,
    path: &mut Vec<NodeId>,
    found: &mut Vec<Vec<NodeId>>,
) -> bool {
    if cur == to {
        found.push(path.clone());
        return found.len() >= max_paths;
    }
    for (_, u, _) in g.ports(cur) {
        if on_path[u as usize] {
            continue;
        }
        if *steps == 0 {
            return true;
        }
        *steps -= 1;
        on_path[u as usize] = true;
        path.push(u);
        let full = dfs(g, u, to, max_paths, steps, on_path, path, found);
        path.pop();
        on_path[u as usize] = false;
        if full {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;

    #[test]
    fn pe_validity_on_the_line() {
        let g = generators::paper_three_node_line();
        // Leader = node 2 (right end). Node 0 must use port 0; node 1 must use port 1.
        assert!(pe_port_is_valid(&g, 0, 0, 2));
        assert!(!pe_port_is_valid(&g, 0, 1, 2)); // port does not exist
        assert!(pe_port_is_valid(&g, 1, 1, 2));
        assert!(!pe_port_is_valid(&g, 1, 0, 2)); // leads away, dead end
        assert!(!pe_port_is_valid(&g, 2, 0, 2)); // the leader itself has no valid port
    }

    #[test]
    fn pe_validity_on_a_cycle_allows_both_directions() {
        let g = generators::symmetric_ring(5).unwrap();
        // On a cycle every non-leader node can go either way.
        for v in 1..5u32 {
            assert!(pe_port_is_valid(&g, v, 0, 0));
            assert!(pe_port_is_valid(&g, v, 1, 0));
        }
    }

    #[test]
    fn ppe_validity_checks_simplicity_and_endpoint() {
        let g = generators::symmetric_ring(4).unwrap();
        // Port 0 is "clockwise": 1 -> 2 -> 3 -> 0.
        assert!(ppe_sequence_is_valid(&g, 1, &[0, 0, 0], 0));
        // Counter-clockwise single step 1 -> 0.
        assert!(ppe_sequence_is_valid(&g, 1, &[1], 0));
        // Wrong endpoint.
        assert!(!ppe_sequence_is_valid(&g, 1, &[0], 0));
        // Non-simple walk (forward then back then forward …).
        assert!(!ppe_sequence_is_valid(&g, 1, &[0, 1, 0, 0, 0], 0));
        // Nonexistent port.
        assert!(!ppe_sequence_is_valid(&g, 1, &[7], 0));
        // The leader itself never outputs a path.
        assert!(!ppe_sequence_is_valid(&g, 0, &[], 0));
    }

    #[test]
    fn cppe_validity_checks_far_ports_too() {
        let g = generators::paper_three_node_line();
        // Path 0 -> 1 -> 2 has port pairs (0,0) then (1,0).
        assert!(cppe_sequence_is_valid(&g, 0, &[(0, 0), (1, 0)], 2));
        assert!(!cppe_sequence_is_valid(&g, 0, &[(0, 1), (1, 0)], 2));
        assert!(!cppe_sequence_is_valid(&g, 0, &[(0, 0)], 2));
    }

    #[test]
    fn simple_path_enumeration_on_cycle() {
        let g = generators::symmetric_ring(5).unwrap();
        let e = simple_paths(&g, 1, 3, 100);
        assert!(e.is_complete());
        // On a cycle there are exactly two simple paths between any two nodes.
        assert_eq!(e.items().len(), 2);
        for p in e.items() {
            assert!(PortGraph::is_simple_node_sequence(p));
            assert_eq!(*p.first().unwrap(), 1);
            assert_eq!(*p.last().unwrap(), 3);
        }
    }

    #[test]
    fn simple_path_enumeration_respects_cap() {
        let g = generators::complete(6).unwrap();
        let capped = simple_paths(&g, 0, 5, 3);
        assert!(!capped.is_complete());
        assert_eq!(capped.items().len(), 3);

        let full = simple_paths(&g, 0, 5, 10_000);
        assert!(full.is_complete());
        // Number of simple paths from a fixed source to a fixed target in K_6:
        // sum over subsets of the other 4 nodes ordered: 1 + 4 + 4·3 + 4·3·2 + 4! = 65.
        assert_eq!(full.items().len(), 65);
    }

    #[test]
    fn step_budget_truncates_before_the_path_cap() {
        let g = generators::complete(6).unwrap();
        // A tiny step budget ends the search long before the 65 paths exist,
        // and the result is honestly marked incomplete.
        let starved = simple_paths_bounded(&g, 0, 5, 10_000, 10);
        assert!(!starved.is_complete());
        assert!(starved.items().len() < 65);
        // With the budget out of the way the enumeration is complete again.
        let full = simple_paths_bounded(&g, 0, 5, 10_000, usize::MAX);
        assert!(full.is_complete());
        assert_eq!(full.items().len(), 65);
        // The implicit budget of `simple_paths` is far above what small graphs
        // need: same complete answer.
        assert_eq!(simple_paths(&g, 0, 5, 10_000), full);
    }

    #[test]
    fn path_from_node_to_itself_is_the_trivial_path() {
        let g = generators::star(3).unwrap();
        let e = simple_paths(&g, 2, 2, 10);
        assert!(e.is_complete());
        assert_eq!(e.items(), &[vec![2]]);
    }

    #[test]
    fn reaches_avoiding_blocks_cut_vertices() {
        let g = generators::star(3).unwrap();
        assert!(reaches_avoiding(&g, 1, 0, 2));
        assert!(!reaches_avoiding(&g, 1, 2, 0)); // centre removed: leaves separated
        assert!(!reaches_avoiding(&g, 1, 2, 1));
        assert!(!reaches_avoiding(&g, 1, 2, 2));
    }
}
