//! Explicit augmented truncated views `B^h(v)`.
//!
//! The view `V(v)` of a node `v` is the infinite rooted tree of all finite paths in
//! the graph starting at `v`, where the `i`-th edge of a path is coded by its pair of
//! port numbers `(p_i, q_i)`. The truncated view `V^h(v)` keeps paths of length at most
//! `h`; the **augmented** truncated view `B^h(v)` additionally labels each node of the
//! tree with the degree of the corresponding graph node (the paper only needs leaf
//! degrees, but internal degrees are determined by the branching anyway, so we store
//! the degree everywhere — it makes the structure self-describing).
//!
//! Note that view paths are *arbitrary* walks (they may immediately return through the
//! edge they came from); consequently the subtree hanging off the child reached through
//! edge `(p, q)` is exactly `B^{h-1}` of that neighbour.
//!
//! `ViewTree` is the *owned* form and the naive reference: a plain recursive `Vec`
//! tree, convenient for tests, construction by hand, and the binary encoding, but
//! expensive to pass around (every clone copies up to `Δ^h` nodes). The hot paths —
//! the full-information collector in `anet-sim` and the solvers in `anet-core` —
//! work on the structurally shared [`crate::interned::View`] handles instead; the two
//! forms convert losslessly into each other (`View::from_tree` / `View::to_tree`).
//! The traversals here walk the unfolded tree on purpose: they are the direct
//! transcription of each definition, written independently of the handle's
//! shared-subtree dedup, so the owned-vs-interned equivalence tests check one
//! implementation against the other.

use anet_graph::{NodeId, Port, PortGraph};
use std::cmp::Ordering;

/// An augmented truncated view: a rooted tree whose edges carry the pair of port
/// numbers of the corresponding graph edge and whose nodes carry graph degrees.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViewTree {
    /// Degree (in the graph) of the node this view position corresponds to.
    pub degree: u32,
    /// Children in increasing order of outgoing port: `(p, q, subtree)` where `p` is
    /// the port at this node and `q` the port at the far end of the traversed edge.
    /// Empty at the truncation depth.
    pub children: Vec<(Port, Port, ViewTree)>,
}

impl ViewTree {
    /// Build `B^depth(v)` in graph `g`.
    pub fn build(g: &PortGraph, v: NodeId, depth: usize) -> ViewTree {
        let degree = g.degree(v) as u32;
        if depth == 0 {
            return ViewTree {
                degree,
                children: Vec::new(),
            };
        }
        let children = g
            .ports(v)
            .map(|(p, u, q)| (p, q, ViewTree::build(g, u, depth - 1)))
            .collect();
        ViewTree { degree, children }
    }

    /// Height of the tree (0 for a bare leaf). For a view built with
    /// [`ViewTree::build`]`(g, v, h)` on a graph with at least one edge this equals `h`.
    pub fn height(&self) -> usize {
        self.children
            .iter()
            .map(|(_, _, c)| 1 + c.height())
            .max()
            .unwrap_or(0)
    }

    /// Number of tree nodes (root included).
    pub fn size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|(_, _, c)| c.size())
            .sum::<usize>()
    }

    /// Number of tree edges (= size − 1).
    pub fn num_edges(&self) -> usize {
        self.size() - 1
    }

    /// Truncate the view to a smaller depth, returning a new tree.
    /// Panics if `depth` exceeds the current height only in the sense that the result
    /// simply keeps everything (truncation to a larger depth is the identity).
    pub fn truncated(&self, depth: usize) -> ViewTree {
        if depth == 0 {
            return ViewTree {
                degree: self.degree,
                children: Vec::new(),
            };
        }
        ViewTree {
            degree: self.degree,
            children: self
                .children
                .iter()
                .map(|&(p, q, ref c)| (p, q, c.truncated(depth - 1)))
                .collect(),
        }
    }

    /// Canonical token sequence. Two views are equal iff their token sequences are
    /// equal, and the lexicographic order of token sequences is the total order used
    /// whenever the paper says "lexicographically smallest view".
    ///
    /// Format (pre-order): for every tree node, `[degree, #children]` followed, for
    /// each child in port order, by `[p, q]` and the child's tokens.
    pub fn tokens(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.size() * 4);
        self.write_tokens(&mut out);
        out
    }

    fn write_tokens(&self, out: &mut Vec<u32>) {
        out.push(self.degree);
        out.push(self.children.len() as u32);
        for (p, q, c) in &self.children {
            out.push(*p);
            out.push(*q);
            c.write_tokens(out);
        }
    }

    /// The maximum port number mentioned anywhere in the view, or `None` for a bare
    /// single node. Used by the binary encoder to pick a field width.
    pub fn max_port(&self) -> Option<u32> {
        self.children
            .iter()
            .map(|(p, q, c)| Some(*p.max(q)).max(c.max_port()))
            .max()
            .flatten()
    }

    /// The maximum degree mentioned anywhere in the view.
    pub fn max_degree(&self) -> u32 {
        self.children
            .iter()
            .map(|(_, _, c)| c.max_degree())
            .fold(self.degree, u32::max)
    }

    /// Compare two views lexicographically (by their canonical token sequences).
    pub fn lex_cmp(&self, other: &ViewTree) -> Ordering {
        self.tokens().cmp(&other.tokens())
    }
}

impl PartialOrd for ViewTree {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ViewTree {
    fn cmp(&self, other: &Self) -> Ordering {
        self.lex_cmp(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;

    #[test]
    fn depth_zero_view_is_just_the_degree() {
        let g = generators::paper_three_node_line();
        let v = ViewTree::build(&g, 1, 0);
        assert_eq!(v.degree, 2);
        assert!(v.children.is_empty());
        assert_eq!(v.size(), 1);
        assert_eq!(v.height(), 0);
    }

    #[test]
    fn depth_one_view_of_line_centre() {
        let g = generators::paper_three_node_line();
        let v = ViewTree::build(&g, 1, 1);
        assert_eq!(v.degree, 2);
        assert_eq!(v.children.len(), 2);
        // Port 0 leads to the left end (degree 1, far port 0); port 1 to the right end.
        assert_eq!(v.children[0].0, 0);
        assert_eq!(v.children[0].1, 0);
        assert_eq!(v.children[0].2.degree, 1);
        assert_eq!(v.children[1].0, 1);
        assert_eq!(v.children[1].1, 0);
        assert_eq!(v.children[1].2.degree, 1);
        assert_eq!(v.height(), 1);
    }

    #[test]
    fn views_walk_back_through_the_incoming_edge() {
        // In the 3-node line, the view of an endpoint at depth 2 goes endpoint ->
        // centre -> (back to endpoint or to the other endpoint): 2 paths of length 2.
        let g = generators::paper_three_node_line();
        let v = ViewTree::build(&g, 0, 2);
        assert_eq!(v.size(), 1 + 1 + 2);
        assert_eq!(v.children.len(), 1);
        let centre = &v.children[0].2;
        assert_eq!(centre.children.len(), 2);
    }

    #[test]
    fn symmetric_ring_views_are_all_equal() {
        let g = generators::symmetric_ring(5).unwrap();
        let views: Vec<ViewTree> = g.nodes().map(|v| ViewTree::build(&g, v, 3)).collect();
        assert!(views.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn oriented_ring_views_differ() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let v0 = ViewTree::build(&g, 0, 3);
        let v1 = ViewTree::build(&g, 1, 3);
        assert_ne!(v0, v1);
    }

    #[test]
    fn truncation_matches_direct_build() {
        let g = generators::random_connected(20, 4, 6, 11).unwrap();
        for v in [0u32, 5, 13] {
            let deep = ViewTree::build(&g, v, 4);
            for h in 0..=4 {
                assert_eq!(deep.truncated(h), ViewTree::build(&g, v, h));
            }
        }
    }

    #[test]
    fn tokens_are_injective_on_small_sample() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let views: Vec<ViewTree> = g.nodes().map(|v| ViewTree::build(&g, v, 4)).collect();
        for i in 0..views.len() {
            for j in 0..views.len() {
                assert_eq!(
                    views[i] == views[j],
                    views[i].tokens() == views[j].tokens(),
                    "token equality must coincide with structural equality"
                );
            }
        }
    }

    #[test]
    fn lexicographic_order_is_total_and_consistent() {
        let g = generators::random_connected(15, 4, 5, 3).unwrap();
        let mut views: Vec<ViewTree> = g.nodes().map(|v| ViewTree::build(&g, v, 3)).collect();
        views.sort();
        for w in views.windows(2) {
            assert_ne!(w[0].lex_cmp(&w[1]), Ordering::Greater);
        }
    }

    #[test]
    fn max_port_and_degree_statistics() {
        let g = generators::star(4).unwrap();
        let v = ViewTree::build(&g, 1, 2);
        assert_eq!(v.degree, 1);
        assert_eq!(v.max_degree(), 4);
        assert_eq!(v.max_port(), Some(3));
        let leaf = ViewTree::build(&g, 1, 0);
        assert_eq!(leaf.max_port(), None);
    }

    #[test]
    fn num_edges_is_at_most_delta_to_the_h() {
        // A crude but exact bound: every tree node of B^h has at most Δ children, so
        // B^h has at most Δ^h edges. (Theorem 2.2's sharper accounting is asymptotic.)
        let (g, root) = generators::full_tree(3, 4).unwrap();
        let delta = g.max_degree();
        for h in 1..=3usize {
            let v = ViewTree::build(&g, root, h);
            let bound = delta.pow(h as u32);
            assert!(
                v.num_edges() <= bound,
                "depth {h}: {} edges exceeds bound {bound}",
                v.num_edges()
            );
        }
    }
}
