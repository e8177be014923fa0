//! Owned-vs-interned equivalence: the shared [`View`] handles must be
//! observationally identical to the owned [`ViewTree`] form on every operation the
//! workspace relies on — construction, truncation, token sequences, lexicographic
//! order, statistics — and the [`ViewInterner`] must be canonical
//! (structurally equal subtrees are pointer-equal).
//!
//! No external property-testing framework is available in this build environment;
//! cases are driven by explicit seed loops over the deterministic
//! [`anet_graph::rng::Rng`], so every failure is reproducible from its loop index.

use anet_graph::rng::Rng;
use anet_graph::{generators, NodeId, PortGraph};
use anet_views::{Refinement, View, ViewInterner, ViewTree};

const CASES: u64 = 24;

/// Random-graph parameters (n ∈ [4, 20), Δ ∈ [3, 6), extra ∈ [0, 8)) from a case
/// index, plus the generator seed.
fn build(case: u64) -> (PortGraph, usize) {
    let mut rng = Rng::seed(0x1_7E44ED ^ case);
    let n = rng.gen_range(4..20);
    let max_deg = rng.gen_range(3..6);
    let extra = rng.gen_range(0..8);
    let seed = rng.next_u64();
    let depth = (case % 5) as usize;
    (
        generators::random_connected(n, max_deg, extra, seed).expect("valid graph"),
        depth,
    )
}

/// Construction, statistics and conversions agree with the owned form at every node
/// and depth.
#[test]
fn build_matches_owned_build() {
    for case in 0..CASES {
        let (g, depth) = build(case);
        let views = ViewInterner::new().build_all(&g, depth);
        for v in g.nodes() {
            let owned = ViewTree::build(&g, v, depth);
            let shared = &views[v as usize];
            assert_eq!(shared.to_tree(), owned, "case {case}, node {v}");
            assert_eq!(shared.size(), owned.size(), "case {case}, node {v}");
            assert_eq!(shared.height(), owned.height(), "case {case}, node {v}");
            assert_eq!(shared.num_edges(), owned.num_edges(), "case {case}");
            assert_eq!(shared.max_port(), owned.max_port(), "case {case}");
            assert_eq!(shared.max_degree(), owned.max_degree(), "case {case}");
            // Round-trip through the owned form is lossless and preserves equality.
            assert_eq!(&View::from_tree(&owned), shared, "case {case}, node {v}");
        }
    }
}

/// Truncation commutes with conversion and matches direct builds at every depth.
#[test]
fn truncation_matches_owned_truncation() {
    for case in 0..CASES / 2 {
        let (g, _) = build(case);
        let views = ViewInterner::new().build_all(&g, 4);
        for v in g.nodes().step_by(3) {
            let deep_owned = ViewTree::build(&g, v, 4);
            for h in 0..=4usize {
                assert_eq!(
                    views[v as usize].truncated(h).to_tree(),
                    deep_owned.truncated(h),
                    "case {case}, node {v}, depth {h}"
                );
            }
            // Truncation past the height is the identity (and shares the handle).
            assert!(View::ptr_eq(
                &views[v as usize].truncated(17),
                &views[v as usize]
            ));
        }
    }
}

/// Token sequences are identical to the owned form, and the handle comparison and
/// the refinement's class-row descent both realise exactly the token order (which is
/// what every "lexicographically smallest view" step of the paper uses).
#[test]
fn tokens_and_lex_order_agree() {
    for case in 0..CASES / 2 {
        let (g, depth) = build(case);
        let shared = ViewInterner::new().build_all(&g, depth);
        let owned: Vec<ViewTree> = g.nodes().map(|v| ViewTree::build(&g, v, depth)).collect();
        let refinement = Refinement::compute(&g, Some(depth));
        for (s, o) in shared.iter().zip(&owned) {
            assert_eq!(s.tokens(), o.tokens(), "case {case}");
        }
        for (i, a) in shared.iter().enumerate() {
            for (j, b) in shared.iter().enumerate() {
                let order = owned[i].lex_cmp(&owned[j]);
                assert_eq!(a.lex_cmp(b), order, "case {case}: nodes {i} and {j}");
                assert_eq!(
                    refinement.view_cmp(&g, i as NodeId, j as NodeId, depth),
                    order,
                    "case {case}: descent, nodes {i} and {j}"
                );
                assert_eq!(a == b, owned[i] == owned[j], "case {case}");
            }
        }
        // Sorting handles and trees gives the same permutation of token sequences.
        let mut by_handle: Vec<Vec<u32>> = shared.iter().map(View::tokens).collect();
        by_handle.sort();
        let mut by_tree: Vec<Vec<u32>> = owned.iter().map(ViewTree::tokens).collect();
        by_tree.sort();
        assert_eq!(by_handle, by_tree, "case {case}");
    }
}

/// Interner canonicalness: within one interner, structural equality is pointer
/// equality — however a subtree was produced (levelled build, foreign handle,
/// owned tree).
#[test]
fn interner_is_canonical() {
    for case in 0..CASES / 2 {
        let (g, depth) = build(case);
        let mut interner = ViewInterner::new();
        let views = interner.build_all(&g, depth);
        for (i, a) in views.iter().enumerate() {
            for b in &views[i..] {
                assert_eq!(a == b, View::ptr_eq(a, b), "case {case}: equal ⇔ shared");
            }
        }
        // Re-interning equivalent foreign structure adds nothing and returns the
        // existing representatives.
        let before = interner.len();
        for v in g.nodes() {
            let foreign = View::from_tree(&ViewTree::build(&g, v, depth));
            let canonical = interner.intern(&foreign);
            assert!(
                View::ptr_eq(&canonical, &views[v as usize]),
                "case {case}, node {v}"
            );
        }
        assert_eq!(interner.len(), before, "case {case}: nothing new interned");
    }
}

/// The interner's sharing is as strong as view equivalence allows: on the fully
/// symmetric ring all nodes collapse to one representative per depth.
#[test]
fn symmetric_graphs_collapse_completely() {
    for n in [4usize, 5, 8, 12] {
        let g = generators::symmetric_ring(n).unwrap();
        let mut interner = ViewInterner::new();
        let views = interner.build_all(&g, 5);
        assert!(
            views.windows(2).all(|w| View::ptr_eq(&w[0], &w[1])),
            "n={n}"
        );
        assert_eq!(interner.len(), 6, "n={n}: one node per depth 0..=5");
        // Memory held is O(depth), even though the owned tree has 2^5 leaves per node.
        assert_eq!(views[0].size(), ViewTree::build(&g, 0, 5).size());
    }
}
