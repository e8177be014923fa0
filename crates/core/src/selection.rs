//! Theorem 2.2: solving Selection in minimum time with `O((Δ−1)^{ψ_S} log Δ)` advice.
//!
//! The oracle picks, among the nodes whose augmented truncated view at depth
//! `ψ_S(G)` is unique, the one with the lexicographically smallest view, and encodes
//! that view as the advice. The distributed algorithm decodes the view, reads its
//! height `h = ψ_S(G)`, runs for `h` rounds, and outputs `leader` iff its own `B^h`
//! equals the decoded view. Correctness follows from Proposition 2.1: at depth
//! `ψ_S(G)` a unique-view node exists, and exactly one node's view matches the advice.
//!
//! The oracle never builds a view it does not ship. It refines the graph up to
//! `ψ_S` ([`Refinement::compute_until_unique`]), orders the unique candidates by
//! [`Refinement::view_cmp`] — one `O(ψ_S · Δ)` descent through the class rows per
//! candidate — and builds only the chosen leader's view, from its ball of radius
//! `ψ_S` ([`ViewInterner::build`]).
//!
//! A run decodes the advice once ([`SelectionAlgorithm`] overrides
//! [`AdviceAlgorithm::decider`]), so each node decides by one [`View`] comparison,
//! which an unequal structural hash settles in `O(1)`. The map solver elects the same
//! way, against the leader's view built from the map: both go through one helper.

use crate::advice::{AdviceAlgorithm, Oracle, OracleAdvice};
use crate::tasks::NodeOutput;
use anet_graph::PortGraph;
use anet_views::election_index::psi_s_with;
use anet_views::encoding::{tree_encoded_size_bits, MAX_DECODED_HEIGHT};
use anet_views::{BitString, Refinement, View, ViewCodec, ViewInterner};

/// The Theorem 2.2 oracle. The chosen view can be shipped under any [`ViewCodec`]:
/// the paper's unfolded-tree form ([`SelectionOracle::tree`], `Θ((Δ−1)^ψ log Δ)`
/// bits) or the shared-DAG form ([`SelectionOracle::dag`], `O(distinct subtrees)`
/// bits — on near-symmetric graphs, exponentially smaller for the same
/// information). The advice has no base view, so `Delta` ships the DAG form plus
/// one flag bit. Whatever codec ships, [`Oracle::advise_with_sizes`] reports the
/// tree and DAG sizes, so reports and sweeps can show the gap.
#[derive(Debug, Clone, Copy)]
pub struct SelectionOracle {
    /// The wire format of the encoded view (must match the algorithm's).
    pub codec: ViewCodec,
}

impl SelectionOracle {
    /// An oracle shipping the unfolded-tree encoding (the paper's accounting).
    pub fn tree() -> Self {
        SelectionOracle {
            codec: ViewCodec::Tree,
        }
    }

    /// An oracle shipping the shared-DAG encoding.
    pub fn dag() -> Self {
        SelectionOracle {
            codec: ViewCodec::Dag,
        }
    }
}

impl Oracle for SelectionOracle {
    fn advise(&self, graph: &PortGraph) -> BitString {
        self.advise_with_sizes(graph).bits
    }

    fn advise_with_sizes(&self, graph: &PortGraph) -> OracleAdvice {
        self.try_advise(graph).expect(
            "Selection oracle requires a graph with finite Selection index, \
             at most MAX_DECODED_HEIGHT",
        )
    }

    /// The advice for `graph`, or `None` when no view is unique at any depth
    /// (infinite Selection index) or the first such depth is above
    /// [`MAX_DECODED_HEIGHT`], where no decoder would accept the advice; there
    /// [`Oracle::advise_with_sizes`] panics.
    fn try_advise(&self, graph: &PortGraph) -> Option<OracleAdvice> {
        let refinement = Refinement::compute_until_unique(graph);
        let psi = psi_s_with(&refinement).filter(|&psi| psi <= MAX_DECODED_HEIGHT)?;
        // The lexicographically smallest unique view at depth ψ, read off the class
        // rows (one O(ψ·Δ) descent per candidate); only its ball is built.
        let leader = refinement
            .unique_nodes_at(psi)
            .into_iter()
            .min_by(|&a, &b| refinement.view_cmp(graph, a, b, psi))
            .expect("ψ_S is a depth with a unique view");
        let chosen_view = ViewInterner::new().build(graph, leader, psi);
        let bits = self.codec.encode(&chosen_view, psi, None);
        let dag_bits = if self.codec == ViewCodec::Dag {
            bits.len()
        } else {
            ViewCodec::Dag.encode(&chosen_view, psi, None).len()
        };
        // The tree size comes from the closed form (O(distinct nodes)), so a
        // DAG-codec run never materialises the exponential unfolded encoding it
        // exists to avoid; the tree string itself is built only when it ships.
        let tree_bits = tree_encoded_size_bits(&chosen_view, psi);
        Some(OracleAdvice {
            bits,
            tree_bits: Some(tree_bits),
            dag_bits: Some(dag_bits),
        })
    }
}

/// The Theorem 2.2 distributed algorithm. Its codec must match the oracle's — the
/// wire formats are not self-describing relative to each other, exactly like the
/// (advice-derived) number of rounds the pair already agrees on.
#[derive(Debug, Clone, Copy)]
pub struct SelectionAlgorithm {
    /// The wire format the advice is decoded with (must match the oracle's).
    pub codec: ViewCodec,
}

impl SelectionAlgorithm {
    /// The decoder side of [`SelectionOracle::tree`].
    pub fn tree() -> Self {
        SelectionAlgorithm {
            codec: ViewCodec::Tree,
        }
    }

    /// The decoder side of [`SelectionOracle::dag`].
    pub fn dag() -> Self {
        SelectionAlgorithm {
            codec: ViewCodec::Dag,
        }
    }
}

impl AdviceAlgorithm for SelectionAlgorithm {
    fn rounds(&self, advice: &BitString) -> usize {
        let (_, height) = self
            .codec
            .decode(advice, None)
            .expect("advice is an encoded view");
        height
    }

    fn decide(&self, advice: &BitString, view: &View) -> NodeOutput {
        self.decider(advice)(view)
    }

    fn decider<'a>(&'a self, advice: &'a BitString) -> impl Fn(&View) -> NodeOutput + 'a {
        let (target, _) = self
            .codec
            .decode(advice, None)
            .expect("advice is an encoded view");
        move |view: &View| elect_by_view(view, &target)
    }
}

/// Selection by view: `leader` iff `view` equals the leader's view `target`. A view
/// that differs almost always differs in its structural hash, which settles the
/// comparison in `O(1)`; an equal hash falls through to the structural check, so in
/// practice only the leader pays for one.
pub(crate) fn elect_by_view(view: &View, target: &View) -> NodeOutput {
    if view == target {
        NodeOutput::Leader
    } else {
        NodeOutput::NonLeader
    }
}

/// The paper's bound on the advice used by this oracle, in bits (Theorem 2.2 statement
/// with explicit constants as implemented here): the encoded view has at most
/// `1 + Σ_{d≤ψ} Δ^d` tree nodes, each contributing one degree field, plus one far-port
/// field per tree edge, each of `⌈log₂(max(Δ, ψ)+1)⌉` bits, plus a 6-bit width header
/// and one height field. This is `O((Δ−1)^{ψ_S} log Δ)` for `Δ ≥ 3`.
pub fn selection_advice_upper_bound_bits(delta: usize, psi_s: usize) -> usize {
    let width = anet_views::BitString::width_for(delta.max(psi_s) as u64);
    let mut tree_nodes = 1usize;
    let mut level = 1usize;
    for _ in 0..psi_s {
        level = level.saturating_mul(delta);
        tree_nodes = tree_nodes.saturating_add(level);
    }
    6 + width * (1 + tree_nodes + (tree_nodes - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::run_with_advice;
    use crate::engine::{RunContext, SolverRun};
    use crate::tasks::{verify, Task};
    use anet_graph::generators;
    use anet_views::election_index::psi_s;

    /// The Theorem 2.2 pair under one codec, on the default context.
    fn run_pair(graph: &PortGraph, codec: ViewCodec) -> SolverRun {
        let (oracle, algorithm) = (SelectionOracle { codec }, SelectionAlgorithm { codec });
        run_with_advice(graph, &oracle, &algorithm, &RunContext::default()).unwrap()
    }

    fn check_on(graph: &PortGraph) {
        let expected_rounds = psi_s(graph).expect("graph must have finite ψ_S");
        let run = run_pair(graph, ViewCodec::Tree);
        assert_eq!(run.rounds, expected_rounds, "runs in exactly ψ_S rounds");
        let outcome = verify(Task::Selection, graph, &run.outputs).expect("solves Selection");
        // The elected leader is a node with a unique view at depth ψ_S.
        let refinement = Refinement::compute(graph, None);
        assert!(refinement.is_unique(outcome.leader, expected_rounds));
        // Advice within the upper bound.
        let bits = run.advice_bits.unwrap();
        assert!(
            bits <= selection_advice_upper_bound_bits(graph.max_degree(), expected_rounds),
            "{bits} bits exceeds the bound"
        );
    }

    #[test]
    fn solves_selection_on_simple_graphs() {
        check_on(&generators::paper_three_node_line());
        check_on(&generators::star(4).unwrap());
        check_on(&generators::oriented_ring(&[true, true, false, true, false]).unwrap());
    }

    #[test]
    fn solves_selection_on_random_graphs() {
        let mut solved = 0;
        for seed in 0..10u64 {
            let g = generators::random_connected(16, 4, 6, seed).unwrap();
            if psi_s(&g).is_some() {
                check_on(&g);
                solved += 1;
            }
        }
        assert!(solved > 0, "at least some random graphs must be solvable");
    }

    #[test]
    fn oracle_picks_the_lexicographically_smallest_unique_view() {
        let g = generators::star(4).unwrap();
        let advice = SelectionOracle::tree().advise(&g);
        let (view, h) = ViewCodec::Tree.decode(&advice, None).unwrap();
        assert_eq!(h, 0);
        // At depth 0 the four leaves share degree 1, so the centre is the only
        // unique node, and its depth-0 view is just its degree.
        assert_eq!(view.degree(), 4);
    }

    #[test]
    fn zero_round_case_uses_no_communication() {
        let g = generators::star(3).unwrap();
        let run = run_pair(&g, ViewCodec::Tree);
        assert_eq!(run.rounds, 0);
        assert_eq!(run.messages_delivered, 0);
        assert!(verify(Task::Selection, &g, &run.outputs).is_ok());
    }

    #[test]
    #[should_panic(expected = "finite Selection index")]
    fn oracle_panics_on_symmetric_graphs() {
        let g = generators::symmetric_ring(4).unwrap();
        SelectionOracle::tree().advise(&g);
    }

    #[test]
    fn dag_codec_pair_solves_with_identical_outputs_and_both_sizes_reported() {
        for seed in 0..6u64 {
            let g = generators::random_connected(16, 4, 6, seed).unwrap();
            if psi_s(&g).is_none() {
                continue;
            }
            let tree_run = run_pair(&g, ViewCodec::Tree);
            let dag_run = run_pair(&g, ViewCodec::Dag);
            // Same election, same rounds — only the wire form of the advice differs.
            assert_eq!(tree_run.outputs, dag_run.outputs);
            assert_eq!(tree_run.rounds, dag_run.rounds);
            assert!(verify(Task::Selection, &g, &dag_run.outputs).is_ok());
            // Both runs report both sizes, and each ships its own codec's size.
            assert_eq!(tree_run.advice_tree_bits, tree_run.advice_bits);
            assert_eq!(dag_run.advice_dag_bits, dag_run.advice_bits);
            assert_eq!(tree_run.advice_dag_bits, dag_run.advice_dag_bits);
            assert_eq!(tree_run.advice_tree_bits, dag_run.advice_tree_bits);
        }
    }

    #[test]
    fn upper_bound_is_monotone_in_depth() {
        let b0 = selection_advice_upper_bound_bits(4, 0);
        let b1 = selection_advice_upper_bound_bits(4, 1);
        let b2 = selection_advice_upper_bound_bits(4, 2);
        assert!(b0 < b1 && b1 < b2);
    }
}
