//! The algorithms-with-advice framework.
//!
//! Following the paper (Section 1), information is provided to all nodes at the start
//! by an *oracle* knowing the entire network, in the form of a single binary string —
//! the same string at every node. The length of the string is the **size of advice**.
//! A deterministic algorithm with allotted time `r` is then a function mapping the
//! pair (advice, `B^r(v)`) to the node's output: the augmented truncated view is
//! everything a node can learn in `r` rounds.
//!
//! [`run_with_advice`] executes an (oracle, algorithm) pair end to end: the oracle
//! inspects the graph, the number of rounds is derived from the advice (the paper's
//! algorithms all do this — e.g. the Theorem 2.2 algorithm reads the height of the
//! encoded view), the LOCAL simulator's full-information collector gathers `B^r(v)` at
//! every node, and the algorithm's decision function — built once per run by
//! [`AdviceAlgorithm::decider`] — produces the outputs.
//!
//! ```
//! use anet_election::advice::{run_with_advice, FnAlgorithm, FnOracle};
//! use anet_election::engine::RunContext;
//! use anet_election::tasks::NodeOutput;
//! use anet_views::{BitString, View};
//!
//! // "The leader is the node that sees degree 4 at its own position" — a 0-round,
//! // 0-bit pair that solves Selection on any star.
//! let g = anet_graph::generators::star(4).unwrap();
//! let oracle = FnOracle(|_: &anet_graph::PortGraph| BitString::new());
//! let algo = FnAlgorithm {
//!     rounds: |_: &BitString| 0usize,
//!     decide: |_: &BitString, view: &View| {
//!         if view.degree() == 4 { NodeOutput::Leader } else { NodeOutput::NonLeader }
//!     },
//! };
//! let run = run_with_advice(&g, &oracle, &algo, &RunContext::default()).unwrap();
//! assert_eq!(run.advice_bits, Some(0));
//! assert_eq!(run.outputs.iter().filter(|o| **o == NodeOutput::Leader).count(), 1);
//! // Opaque advice carries no per-codec sizes (contrast the Theorem 2.2 oracle).
//! assert_eq!((run.advice_tree_bits, run.advice_dag_bits), (None, None));
//! ```

use crate::engine::{RunContext, SolverRun};
use crate::map_algorithms::run_full_information_wired;
use crate::tasks::NodeOutput;
use anet_graph::PortGraph;
use anet_views::encoding::DecodeError;
use anet_views::{BitString, View};

/// An oracle's advice together with its size under both view codecs.
///
/// The paper charges advice by its length in bits; when the advice is an encoded
/// view, the *same* view has two wire sizes — the unfolded-tree form
/// (`anet_views::encoding`, the paper's `O((Δ−1)^h log Δ)` accounting) and the
/// shared-DAG form (`anet_views::dag_encoding`, `O(distinct subtrees)`). Oracles
/// that encode views report both so reports and sweeps can show the collapse;
/// opaque advice carries `None` for both.
#[derive(Debug, Clone)]
pub struct OracleAdvice {
    /// The advice string actually broadcast to every node.
    pub bits: BitString,
    /// Size of the advice's view under the unfolded-tree codec, if it is one.
    pub tree_bits: Option<usize>,
    /// Size of the advice's view under the shared-DAG codec, if it is one.
    pub dag_bits: Option<usize>,
}

impl OracleAdvice {
    /// Advice that is not an encoded view (no per-codec sizes to report).
    pub fn opaque(bits: BitString) -> Self {
        OracleAdvice {
            bits,
            tree_bits: None,
            dag_bits: None,
        }
    }
}

/// An oracle: sees the whole network, produces one advice string for all nodes.
pub trait Oracle {
    /// Produce the advice for this graph.
    fn advise(&self, graph: &PortGraph) -> BitString;

    /// Produce the advice together with its size under both view codecs. The
    /// default wraps [`advise`](Oracle::advise) as opaque; oracles whose advice is
    /// an encoded view (e.g. the Theorem 2.2 `SelectionOracle`) override this to
    /// report tree-bits and dag-bits from one construction pass.
    fn advise_with_sizes(&self, graph: &PortGraph) -> OracleAdvice {
        OracleAdvice::opaque(self.advise(graph))
    }

    /// [`advise_with_sizes`](Oracle::advise_with_sizes), or `None` when the oracle
    /// has no advice for this graph. The default always has one; the Theorem 2.2
    /// `SelectionOracle` answers `None` on graphs with no unique view at any depth
    /// (infinite Selection index), where its other two methods panic.
    fn try_advise(&self, graph: &PortGraph) -> Option<OracleAdvice> {
        Some(self.advise_with_sizes(graph))
    }
}

/// Precomputed advice used as an oracle: it broadcasts itself whatever the graph,
/// so a caller that already ran an oracle (e.g. to check that it has an answer)
/// can run the pair on that advice without advising twice.
impl Oracle for OracleAdvice {
    fn advise(&self, _graph: &PortGraph) -> BitString {
        self.bits.clone()
    }

    fn advise_with_sizes(&self, _graph: &PortGraph) -> OracleAdvice {
        self.clone()
    }
}

/// A deterministic distributed algorithm with advice: every node runs the same code,
/// knowing only the advice string and its own augmented truncated view.
pub trait AdviceAlgorithm {
    /// How many communication rounds to run, as a function of the advice alone (all
    /// nodes must agree on this number without communicating).
    fn rounds(&self, advice: &BitString) -> usize;

    /// The node's output as a function of the advice and its view `B^rounds(v)`
    /// (a shared [`View`] handle — the collector hands every node the same subtree
    /// objects its neighbours assembled, so inspecting the view never copies it).
    fn decide(&self, advice: &BitString, view: &View) -> NodeOutput;

    /// The decision function of one run: [`decide`](AdviceAlgorithm::decide) with
    /// the advice fixed, applied to every node's view. The default calls `decide`
    /// per node; an algorithm that has to parse its advice (the Theorem 2.2
    /// algorithm decodes a view) overrides this to parse it once per run.
    fn decider<'a>(&'a self, advice: &'a BitString) -> impl Fn(&View) -> NodeOutput + 'a {
        move |view: &View| self.decide(advice, view)
    }
}

/// Execute `oracle` and `algorithm` on `graph` through the LOCAL simulator under
/// `ctx`. The oracle runs first and is neither traced nor metered; the algorithm's
/// view-collection rounds run on `ctx.backend`, emit round-level trace events into
/// `ctx.trace` and, when `ctx.wire` names a codec (or the backend is capped), put
/// their messages through the metered transport. The returned [`SolverRun`] carries
/// the advice length in `advice_bits` and its per-codec view sizes when the oracle
/// reports them (see [`OracleAdvice`]). Advice, outputs and message accounting are
/// the same under every context; only a capped backend moves `rounds`, to the
/// physical count of the bandwidth-limited stream. A metered run of more than
/// `MAX_DECODED_HEIGHT + 1` rounds would ship views no decoder accepts, so it
/// returns [`DecodeError::HeightTooLarge`] before any round runs.
pub fn run_with_advice<O, A>(
    graph: &PortGraph,
    oracle: &O,
    algorithm: &A,
    ctx: &RunContext<'_>,
) -> Result<SolverRun, DecodeError>
where
    O: Oracle,
    A: AdviceAlgorithm,
{
    let OracleAdvice {
        bits: advice,
        tree_bits,
        dag_bits,
    } = oracle.advise_with_sizes(graph);
    let rounds = algorithm.rounds(&advice);
    let run = run_full_information_wired(graph, rounds, ctx, algorithm.decider(&advice))?;
    Ok(SolverRun {
        advice_bits: Some(advice.len()),
        advice_tree_bits: tree_bits,
        advice_dag_bits: dag_bits,
        ..run
    })
}

/// An oracle defined by a closure (handy in tests and experiments).
pub struct FnOracle<F>(pub F);

impl<F> Oracle for FnOracle<F>
where
    F: Fn(&PortGraph) -> BitString,
{
    fn advise(&self, graph: &PortGraph) -> BitString {
        (self.0)(graph)
    }
}

/// An advice algorithm defined by a pair of closures.
pub struct FnAlgorithm<R, D> {
    /// Rounds as a function of the advice.
    pub rounds: R,
    /// Decision as a function of (advice, view).
    pub decide: D,
}

impl<R, D> AdviceAlgorithm for FnAlgorithm<R, D>
where
    R: Fn(&BitString) -> usize,
    D: Fn(&BitString, &View) -> NodeOutput,
{
    fn rounds(&self, advice: &BitString) -> usize {
        (self.rounds)(advice)
    }

    fn decide(&self, advice: &BitString, view: &View) -> NodeOutput {
        (self.decide)(advice, view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{verify, Task};
    use anet_graph::generators;

    #[test]
    fn zero_advice_degree_based_selection_on_a_star() {
        // On a star, "I am the leader iff my degree is not 1" solves Selection in 0
        // rounds with 0 bits of advice.
        let g = generators::star(5).unwrap();
        let oracle = FnOracle(|_: &PortGraph| BitString::new());
        let algo = FnAlgorithm {
            rounds: |_: &BitString| 0usize,
            decide: |_: &BitString, view: &View| {
                if view.degree() != 1 {
                    NodeOutput::Leader
                } else {
                    NodeOutput::NonLeader
                }
            },
        };
        let run = run_with_advice(&g, &oracle, &algo, &RunContext::default()).unwrap();
        assert_eq!(run.advice_bits, Some(0));
        assert_eq!(run.rounds, 0);
        assert_eq!(run.messages_delivered, 0);
        assert_eq!(verify(Task::Selection, &g, &run.outputs).unwrap().leader, 0);
    }

    #[test]
    fn advice_controls_the_number_of_rounds() {
        let g = generators::symmetric_ring(6).unwrap();
        let oracle = FnOracle(|_: &PortGraph| {
            let mut b = BitString::new();
            b.push_uint(3, 4);
            b
        });
        let algo = FnAlgorithm {
            rounds: |advice: &BitString| advice.reader().read_uint(4).unwrap() as usize,
            decide: |_: &BitString, _: &View| NodeOutput::NonLeader,
        };
        let run = run_with_advice(&g, &oracle, &algo, &RunContext::default()).unwrap();
        assert_eq!(run.rounds, 3);
        assert_eq!(run.advice_bits, Some(4));
        // 6 nodes × 2 ports × 3 rounds messages.
        assert_eq!(run.messages_delivered, 36);
        // (Deliberately unsolvable: the ring is symmetric, so no leader can emerge.)
        assert!(verify(Task::Selection, &g, &run.outputs).is_err());
    }

    #[test]
    fn decisions_depend_only_on_views() {
        // Two nodes with equal views must produce equal outputs, whatever the
        // algorithm does — this is enforced structurally because `decide` only ever
        // sees the view. We check it by running on a graph with twin nodes.
        let g = generators::symmetric_ring(4).unwrap();
        let oracle = FnOracle(|_: &PortGraph| BitString::new());
        let algo = FnAlgorithm {
            rounds: |_: &BitString| 2usize,
            decide: |_: &BitString, view: &View| NodeOutput::FirstPort(view.degree() % 2),
        };
        let run = run_with_advice(&g, &oracle, &algo, &RunContext::default()).unwrap();
        assert!(run.outputs.windows(2).all(|w| w[0] == w[1]));
    }
}
