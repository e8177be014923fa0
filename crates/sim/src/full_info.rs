//! The full-information algorithm: collecting `B^r(v)` through message passing.
//!
//! "The information that `v` gets about the graph in `r` rounds is precisely the
//! truncated view `V^r(v)` together with degrees of leaves of this tree" (Section 1).
//! The algorithm below realises that ceiling constructively: in round `r`, every node
//! sends to each neighbour its augmented view of depth `r − 1` (which it has assembled
//! from the previous rounds) together with the local port it is sending through; on
//! reception, the node assembles its augmented view of depth `r`.
//!
//! Views travel as structurally shared [`View`] handles: the subtree a node sends in
//! round `r` *is* (by the definition of views) the `B^{r-1}` it assembled in round
//! `r − 1`, so a send is an `Arc` reference-count bump per port instead of a deep
//! clone of up to `Δ^{r-1}` tree nodes, and a receive grafts the `degree + children`
//! root node in `O(deg)` ([`View::from_parts`]). One round therefore costs `O(m)`
//! handle operations in total, independent of view size — the seed's owned
//! [`ViewTree`](anet_views::ViewTree) representation cost `Θ(m · Δ^r)` node copies.
//!
//! Tests check that the assembled view is *identical* to the direct combinatorial
//! construction (`View::build` / `ViewTree::build`), i.e. the simulator and the
//! definition agree. This is the bridge that lets the election algorithms in
//! `anet-core` be defined as functions of `B^r(v)` (the paper's formulation) while
//! still being executable as genuine message-passing algorithms.

use crate::backend::Backend;
use crate::model::{AlgorithmFactory, NodeAlgorithm};
use crate::runner::RunOutcome;
use anet_graph::{Port, PortGraph};
use anet_views::View;

/// Message of the full-information algorithm: a shared handle to the sender's current
/// view, tagged with the port the sender used (so the receiver learns the far-end port
/// number of the connecting edge, which is part of the view encoding). Cloning the
/// message is an `Arc` bump, so a send costs one bump per port.
pub type ViewMessage = (Port, View);

/// Per-node state of the full-information algorithm.
#[derive(Debug, Clone)]
pub struct ViewCollector {
    degree: usize,
    /// The view assembled so far; after `r` completed rounds this is `B^r(v)`.
    view: View,
}

impl ViewCollector {
    /// Create a collector for a node of the given degree; its initial knowledge is
    /// `B^0(v)`, i.e. just the degree.
    pub fn new(degree: usize) -> Self {
        ViewCollector {
            degree,
            view: View::leaf(degree as u32),
        }
    }

    /// The view assembled so far.
    pub fn view(&self) -> &View {
        &self.view
    }
}

impl NodeAlgorithm for ViewCollector {
    type Message = ViewMessage;
    type Output = View;

    fn send_into(&mut self, _round: usize, outbox: &mut [Option<ViewMessage>]) {
        for (p, slot) in outbox.iter_mut().enumerate() {
            *slot = Some((p as Port, self.view.clone()));
        }
    }

    fn receive(&mut self, _round: usize, inbox: &mut [Option<ViewMessage>]) {
        let children = inbox
            .iter_mut()
            .enumerate()
            .map(|(p, msg)| {
                let (far_port, far_view) = msg
                    .take()
                    .expect("full-information algorithm: every neighbour sends every round");
                (p as Port, far_port, far_view)
            })
            .collect();
        // The graft: `B^r(v)` is one fresh root over the neighbours' shared `B^{r-1}`
        // handles — O(deg) work, nothing below the root is copied.
        self.view = View::from_parts(self.degree as u32, children);
    }

    fn output(&self) -> View {
        self.view.clone()
    }
}

/// Factory for [`ViewCollector`] nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ViewCollectorFactory;

impl AlgorithmFactory for ViewCollectorFactory {
    type Algo = ViewCollector;

    fn create(&self, degree: usize) -> ViewCollector {
        ViewCollector::new(degree)
    }
}

/// Run a deterministic algorithm with allotted time `rounds` in its *canonical form*:
/// collect `B^rounds(v)` by message passing on `backend`, then apply `decide` — an
/// arbitrary function of the augmented truncated view — at every node. Returns the
/// per-node outputs and the run report. Every backend produces identical outputs and
/// reports.
///
/// The view-collection rounds emit [`anet_trace::TraceEvent`]s (round markers,
/// per-phase timings, per-round message counts) into `sink`; with
/// [`anet_trace::NoopSink`] the disabled probe reads no clock. The decision map runs
/// after the last round and is not part of the traced communication.
///
/// Messages move as shared view handles on every backend, as in
/// [`Backend::run_traced`]: nothing is serialised, so no bandwidth cap applies here.
/// [`crate::run_full_information_metered`] puts the messages on a metered wire,
/// under the backend's cap if it has one.
pub fn run_full_information_traced<O, D>(
    graph: &PortGraph,
    rounds: usize,
    backend: Backend,
    sink: &dyn anet_trace::TraceSink,
    decide: D,
) -> (Vec<O>, crate::runner::RunReport)
where
    O: Clone + Send,
    D: Fn(&View) -> O,
{
    let RunOutcome { outputs, report } =
        backend.run_traced(graph, &ViewCollectorFactory, rounds, sink);
    let decisions = outputs.iter().map(decide).collect();
    (decisions, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;
    use anet_trace::NoopSink;
    use anet_views::ViewTree;

    #[test]
    fn backends_collect_identical_views() {
        let g = generators::random_connected(24, 4, 8, 5).unwrap();
        let (seq, seq_report) =
            run_full_information_traced(&g, 3, Backend::Sequential, &NoopSink, View::clone);
        for backend in Backend::smoke_set() {
            let (views, report) =
                run_full_information_traced(&g, 3, backend, &NoopSink, View::clone);
            assert_eq!(views, seq, "{backend}");
            assert_eq!(report, seq_report, "{backend}");
        }
    }

    fn assert_views_match(g: &PortGraph, rounds: usize) {
        let outcome = Backend::Sequential.run(g, &ViewCollectorFactory, rounds);
        for v in g.nodes() {
            let expected = ViewTree::build(g, v, rounds);
            assert_eq!(
                outcome.outputs[v as usize].to_tree(),
                expected,
                "node {v} after {rounds} rounds"
            );
            // The handle form agrees too (same equality, independently built).
            assert_eq!(
                outcome.outputs[v as usize],
                View::build(g, v, rounds),
                "node {v} after {rounds} rounds (interned)"
            );
        }
    }

    #[test]
    fn collected_views_equal_direct_views_on_line() {
        let g = generators::paper_three_node_line();
        for rounds in 0..=3 {
            assert_views_match(&g, rounds);
        }
    }

    #[test]
    fn collected_views_equal_direct_views_on_star_ring_and_random() {
        assert_views_match(&generators::star(4).unwrap(), 2);
        assert_views_match(&generators::symmetric_ring(6).unwrap(), 3);
        assert_views_match(&generators::random_connected(18, 4, 6, 99).unwrap(), 3);
    }

    #[test]
    fn view_collector_initial_state_is_depth_zero_view() {
        let c = ViewCollector::new(5);
        assert_eq!(c.view().degree(), 5);
        assert!(c.view().children().is_empty());
    }

    #[test]
    fn collected_views_share_subtrees_across_ports() {
        // The structural-sharing contract: after round r, the subtree under child p of
        // B^r(v) is *the same object* the neighbour across port p sent — which is in
        // turn the neighbour's whole B^{r-1}. Sends bump a refcount, they don't copy.
        let g = generators::random_connected(12, 4, 4, 7).unwrap();
        let rounds = 3;
        let outcome = Backend::Sequential.run(&g, &ViewCollectorFactory, rounds);
        for v in g.nodes() {
            let view = &outcome.outputs[v as usize];
            for (child, (_, u, _)) in view.children().iter().zip(g.ports(v)) {
                // The neighbour's B^{r-1} is its own collected view truncated one
                // level; equality (not just isomorphism) must hold.
                assert_eq!(
                    child.2,
                    outcome.outputs[u as usize].truncated(rounds - 1),
                    "child across port to {u}"
                );
                // And the sharing itself: every node adjacent to `u` holds the *same
                // object* for `u`'s round-(r−1) view, because `u` sent one handle to
                // all its ports. A collector that deep-cloned per send would pass the
                // equality above but fail this pointer check.
                for w in g.nodes().filter(|&w| w != v) {
                    if let Some(p_back) = g.ports(w).position(|(_, x, _)| x == u) {
                        assert!(
                            View::ptr_eq(
                                &child.2,
                                &outcome.outputs[w as usize].children()[p_back].2
                            ),
                            "nodes {v} and {w} must share u={u}'s view object"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn collected_views_classify_by_refinement_class_once_per_node() {
        // A map-based decision reads each collected view's class off the map's
        // refinement; the collected views share one DAG of a node per (graph
        // node, round), and the classifier's memo visits each of them once.
        let g = generators::random_connected(30, 4, 12, 3).unwrap();
        let refinement = anet_views::Refinement::compute(&g, None);
        let rounds = 3;
        let want: Vec<Option<u32>> = g
            .nodes()
            .map(|v| Some(refinement.class_at(v, rounds)))
            .collect();
        for backend in Backend::smoke_set() {
            let classifier =
                std::cell::RefCell::new(anet_views::ViewClassifier::new(&g, &refinement, rounds));
            let (classes, _) =
                run_full_information_traced(&g, rounds, backend, &NoopSink, |view| {
                    classifier.borrow_mut().class_of(view, rounds)
                });
            assert_eq!(classes, want, "{backend}");
            let memoised = classifier.borrow().memoised();
            assert_eq!(memoised, g.num_nodes() * (rounds + 1), "{backend}");
        }
    }

    #[test]
    fn full_information_decision_runs_the_paper_model() {
        // Decide "leader" iff the view has a degree-3 node at the root — on a star this
        // elects exactly the centre after 0 rounds.
        let g = generators::star(3).unwrap();
        let (decisions, report) =
            run_full_information_traced(&g, 0, Backend::Sequential, &NoopSink, |view| {
                view.degree() == 3
            });
        assert_eq!(decisions, vec![true, false, false, false]);
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn message_count_of_full_information_is_2m_per_round() {
        let g = generators::random_connected(20, 4, 5, 3).unwrap();
        let rounds = 3;
        let outcome = Backend::Sequential.run(&g, &ViewCollectorFactory, rounds);
        assert_eq!(
            outcome.report.messages_delivered,
            2 * g.num_edges() * rounds
        );
    }
}
