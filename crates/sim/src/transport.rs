//! Bit-metered wire transport: serialise every full-information message through a
//! pluggable codec, count the bits per round and per directed edge, and optionally
//! squeeze the stream through a CONGEST-style per-edge bandwidth cap.
//!
//! The unmetered backends in [`crate::backend`] move [`ViewMessage`]s as `Arc`
//! handles — free to copy, and therefore silent about the quantity the paper's
//! model actually charges for: *bits on the wire*. This module adds the metered
//! execution mode: each message is encoded with a [`ViewCodec`], its exact
//! serialised length is accounted into [`WireStats`] (and emitted as
//! [`anet_trace::TraceEvent::RoundWire`] when a probe is attached) on every
//! directed edge that carries it, and the receivers decode the bit string — the
//! delivered view is the *decoded* value, so the codec's round-trip fidelity is
//! exercised on every message of every round, not assumed.
//!
//! A full-information sender puts one view handle on all its ports, so the route
//! encodes that message once per round: the links of one sender share one body,
//! and each link adds only its varint port tag. The body is decoded once, when its
//! first link delivers, and every receiver gets that one decoded handle — the
//! metered counterpart of the move pass handing every neighbour one `Arc`. The
//! receivers' views therefore share the sender's subtree as on the unmetered
//! backends, and next round their delta bases are pointer-equal again, so the
//! sender's delta body stays shared too. Every link is still charged the full tag
//! and body, so the bit accounting is the same as coding each edge on its own.
//!
//! Every message is a varint far-port tag followed by a view body in one of the
//! three formats of [`ViewCodec`] — the codec Theorem 2.2 advice is encoded with,
//! so `anet-views` alone decides the wire format:
//!
//! * [`ViewCodec::Tree`] — the unfolded tree: `Θ(Δ^r)` bits, the naive baseline.
//! * [`ViewCodec::Dag`] — the shared DAG: one table entry per *distinct* subview.
//! * [`ViewCodec::Delta`] — round `r`'s view encoded against the round `r − 1`
//!   view the receiver already holds from the previous round on the same edge,
//!   shipping only the table entries the base does not cover. Never more than one
//!   bit above [`ViewCodec::Dag`], and strictly below it wherever successive views
//!   share structure.
//!
//! Metering is a route step of the one arena round loop in [`crate::backend`]:
//! the send phase fills the outbox arena as on every backend, the wire route
//! encodes each sender's message, transfers the bits edge by edge, and delivers
//! each message into the inbox arena when its last bit arrives.
//!
//! [`Backend::Capped`] runs the same route with a finite per-edge budget: a
//! *logical* round whose largest encoded message is `L` bits occupies
//! `ceil(L / B)` *physical* rounds, each moving at most `B` bits per directed
//! edge. Partial chunks live in per-edge stream state (the private `Link`), never in the
//! inbox — a receiver sees a message only when its last chunk arrives, and the
//! receive phase of the logical round runs once every edge has drained. Outputs
//! and total message counts are therefore identical to the uncapped run; only the
//! measured round count (and the per-round bit profile) inflates as `B` shrinks.

use crate::backend::{Backend, RouteStep};
use crate::full_info::{ViewCollectorFactory, ViewMessage};
use crate::runner::{RunOutcome, RunReport};
use anet_graph::{Port, PortGraph};
use anet_trace::TraceSink;
use anet_views::{BitString, View, ViewCodec};

/// Bit accounting of one metered run, exact by construction: every entry is the
/// length of a bit string that was actually encoded (and decoded) by the run.
///
/// Invariant, asserted by the equivalence test layer: the per-round and per-edge
/// views are two partitions of the same total, so
/// `per_round_bits.sum() == per_edge_bits.sum() == total_bits()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStats {
    /// The codec every message was serialised with.
    pub codec: ViewCodec,
    /// The per-edge cap of a [`Backend::Capped`] run; `None` when unmetered by
    /// bandwidth (every message crosses in the round it was sent).
    pub bits_per_edge_cap: Option<u64>,
    /// `per_round_bits[r - 1]` is the number of bits that crossed any wire in
    /// *physical* round `r` (on a capped run, partial chunks count in the round
    /// they were transferred).
    pub per_round_bits: Vec<u64>,
    /// `per_edge_bits[offsets[v] + p]` is the total bits sent across directed
    /// edge `(v, p)` over the whole run, indexed like
    /// [`PortGraph::port_offsets`].
    pub per_edge_bits: Vec<u64>,
}

impl WireStats {
    /// Total bits on the wire over the whole run.
    pub fn total_bits(&self) -> u64 {
        self.per_round_bits.iter().sum()
    }

    /// The same total, accumulated edge-wise; equal to [`WireStats::total_bits`]
    /// on every run (the reconciliation the transport tests pin down).
    pub fn per_edge_total(&self) -> u64 {
        self.per_edge_bits.iter().sum()
    }

    /// The heaviest directed edge's cumulative bits — the wire analogue of a
    /// congestion bound.
    pub fn max_edge_bits(&self) -> u64 {
        self.per_edge_bits.iter().copied().max().unwrap_or(0)
    }
}

/// One encoded message body of the current logical round: the codec output for
/// one (view handle, base handle) pair, shared by every link that carries it.
struct Body {
    /// The codec body; the same bits cross every link that references it.
    bits: BitString,
    /// The view decoded from `bits`, filled when the first link carrying the body
    /// delivers and handed to every later one.
    decoded: Option<View>,
}

/// Per-directed-edge stream state: the current logical round's port tag, which
/// body of the round's body table follows it, and how much of the two is still in
/// flight.
#[derive(Default)]
struct Link {
    /// The varint far-port tag of this logical round's message. Allocated once
    /// per run and refilled in place every logical round ([`BitString::clear`]).
    tag: BitString,
    /// Index of the message body in [`WireRoute::bodies`].
    body: usize,
    /// Bits not yet across: tag bits plus body bits at load time. Delivery
    /// happens exactly when this reaches zero.
    remaining: u64,
    /// Whether the link holds a message not yet decoded into the inbox (partial
    /// streams are represented here, never as inbox entries).
    pending: bool,
}

/// Do two delta bases name the same handle (or are both absent)?
fn same_base(a: Option<&View>, b: Option<&View>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => View::ptr_eq(a, b),
        (None, None) => true,
        _ => false,
    }
}

/// Decode a fully-arrived link back into a message: the port tag from the link's
/// own bits, the view from its body's bits against `base` — decoded by the first
/// link of the body to arrive and shared with the rest, which hold the same base.
/// A self-encoded message always decodes; the `expect`s here are
/// internal-consistency assertions, not input validation.
fn decode_link(codec: ViewCodec, link: &Link, body: &mut Body, base: Option<&View>) -> ViewMessage {
    let port = link
        .tag
        .reader()
        .read_varint()
        .expect("metered transport: port tag of a self-encoded message decodes");
    let view = body
        .decoded
        .get_or_insert_with(|| {
            let (view, _) = codec
                .decode(&body.bits, base)
                .expect("metered transport: a self-encoded message always decodes");
            view
        })
        .clone();
    (port as Port, view)
}

/// The send/encode half of a metered logical round: drain every outbox slot into
/// its link, encode one body per run of consecutive slots that carry the same view
/// handle over the same delta base, and report the largest message (which fixes
/// how many physical rounds a capped run needs for this logical round).
// anet-lint: hot-path
fn encode_round(
    codec: ViewCodec,
    out: &mut [Option<ViewMessage>],
    bases: &[Option<View>],
    links: &mut [Link],
    bodies: &mut Vec<Body>,
) -> u64 {
    bodies.clear();
    let mut max_bits = 0u64;
    // The handle the newest body was encoded from, and the slot whose base it used.
    let mut last: Option<(View, usize)> = None;
    for (i, (slot, link)) in out.iter_mut().zip(links.iter_mut()).enumerate() {
        let Some((port, view)) = slot.take() else {
            link.remaining = 0;
            link.pending = false;
            continue;
        };
        let base = bases[i].as_ref();
        let shared = last.as_ref().is_some_and(|(prev, j)| {
            View::ptr_eq(prev, &view) && same_base(bases[*j].as_ref(), base)
        });
        if !shared {
            bodies.push(Body {
                bits: codec.encode(&view, view.height(), base),
                decoded: None,
            });
            last = Some((view, i));
        }
        link.tag.clear();
        link.tag.push_varint(port as u64);
        link.body = bodies.len() - 1;
        link.remaining = (link.tag.len() + bodies[link.body].bits.len()) as u64;
        link.pending = true;
        max_bits = max_bits.max(link.remaining);
    }
    max_bits
}

/// One physical round of wire transfer: every edge with bits in flight moves at
/// most `cap` of them, and the moved bits are accounted per edge. Pure integer
/// work — the route loop of the metered transport.
// anet-lint: hot-path
fn transfer_round(cap: u64, links: &mut [Link], per_edge_bits: &mut [u64]) -> u64 {
    let mut bits_now = 0u64;
    for (link, edge_bits) in links.iter_mut().zip(per_edge_bits.iter_mut()) {
        if link.remaining > 0 {
            let chunk = link.remaining.min(cap);
            link.remaining -= chunk;
            *edge_bits += chunk;
            bits_now += chunk;
        }
    }
    bits_now
}

/// The metered route step: the logical round's body table, per-directed-edge
/// stream state and the run's bit accounting. Each body is encoded once and
/// decoded at most once per logical round, however many links carry it; its bits
/// are charged to every one of them. The link buffers are sized once per run,
/// like the arenas.
struct WireRoute {
    codec: ViewCodec,
    /// Bits a directed edge may carry per physical round (`u64::MAX` uncapped).
    chunk: u64,
    /// This logical round's encoded bodies, indexed by [`Link::body`].
    bodies: Vec<Body>,
    links: Vec<Link>,
    /// The receiver-side delta bases: the last view decoded on each directed edge.
    /// A sender's links receive one shared decoded handle, so next round their
    /// bases are pointer-equal and its message is again one body.
    bases: Vec<Option<View>>,
    per_edge_bits: Vec<u64>,
    per_round_bits: Vec<u64>,
}

impl RouteStep<ViewMessage> for WireRoute {
    fn load(&mut self, out: &mut [Option<ViewMessage>]) -> usize {
        let max_bits = encode_round(
            self.codec,
            out,
            &self.bases,
            &mut self.links,
            &mut self.bodies,
        );
        max_bits.div_ceil(self.chunk).max(1) as usize
    }

    fn step(
        &mut self,
        table: &[usize],
        _out: &mut [Option<ViewMessage>],
        inbox: &mut [Option<ViewMessage>],
    ) -> (usize, u64) {
        let bits = transfer_round(self.chunk, &mut self.links, &mut self.per_edge_bits);
        // Deliver every stream whose last chunk just arrived: decode against the
        // base the receiver holds, then that decoded view *becomes* the base for
        // the next logical round on this edge.
        let mut completed = 0;
        for (i, link) in self.links.iter_mut().enumerate() {
            if link.pending && link.remaining == 0 {
                let body = &mut self.bodies[link.body];
                let (port, view) = decode_link(self.codec, link, body, self.bases[i].as_ref());
                inbox[table[i]] = Some((port, view.clone()));
                self.bases[i] = Some(view);
                link.pending = false;
                completed += 1;
            }
        }
        self.per_round_bits.push(bits);
        (completed, bits)
    }
}

/// Run the full-information algorithm for `rounds` *logical* rounds with every
/// message serialised through `codec`, returning the collected views together
/// with exact bit accounting. With `bits_per_edge: Some(B)` the run is
/// bandwidth-capped: each physical round moves at most `B` bits per directed
/// edge (a zero cap is normalised to 1), large messages stream across several
/// physical rounds, and `report.rounds` counts *physical* rounds. With `None`
/// every message crosses in the round it was sent and physical == logical.
///
/// The send and receive phases run inline. They are `O(m)` handle operations a
/// round, while the codec work, one encode and one decode per sender and round,
/// runs in the route step between them, which is sequential; the collected views
/// are backend-independent either way (the equivalence tests pin outputs against
/// every unmetered backend). Threads would pay off only on the route step's
/// codec work, not on the phases.
pub fn run_metered(
    graph: &PortGraph,
    rounds: usize,
    codec: ViewCodec,
    bits_per_edge: Option<u64>,
    sink: &dyn TraceSink,
) -> (RunOutcome<View>, WireStats) {
    let cap = bits_per_edge.map(|b| b.max(1));
    let slots = 2 * graph.num_edges();
    let mut wire = WireRoute {
        codec,
        chunk: cap.unwrap_or(u64::MAX),
        bodies: Vec::new(),
        links: std::iter::repeat_with(Link::default).take(slots).collect(),
        bases: vec![None; slots],
        per_edge_bits: vec![0; slots],
        per_round_bits: Vec::new(),
    };
    let outcome =
        Backend::Sequential.run_arena(graph, &ViewCollectorFactory, rounds, &mut wire, sink);
    let stats = WireStats {
        codec,
        bits_per_edge_cap: cap,
        per_round_bits: wire.per_round_bits,
        per_edge_bits: wire.per_edge_bits,
    };
    (outcome, stats)
}

/// [`crate::run_full_information_traced`] in metered mode: collect `B^rounds(v)`
/// with every message serialised through `codec`, apply `decide`, and return the
/// per-node outputs together with the run report *and* the wire accounting.
///
/// The `backend` selects bandwidth, not scheduling: [`Backend::Capped`] streams
/// at its per-edge cap (inflating `report.rounds` to the physical count), every
/// other backend runs unrestricted — outputs are identical either way.
pub fn run_full_information_metered<O, D>(
    graph: &PortGraph,
    rounds: usize,
    backend: Backend,
    codec: ViewCodec,
    sink: &dyn TraceSink,
    decide: D,
) -> (Vec<O>, RunReport, WireStats)
where
    O: Clone + Send,
    D: Fn(&View) -> O,
{
    let cap = match backend {
        Backend::Capped { bits_per_edge } => Some(bits_per_edge.max(1)),
        _ => None,
    };
    let (outcome, stats) = run_metered(graph, rounds, codec, cap, sink);
    let decisions = outcome.outputs.iter().map(decide).collect();
    (decisions, outcome.report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_info::run_full_information_on;
    use anet_graph::generators;
    use anet_trace::{NoopSink, Recorder, RoundProfile};

    #[test]
    fn metered_outputs_match_unmetered_for_every_codec() {
        let g = generators::random_connected(18, 4, 6, 11).unwrap();
        let rounds = 3;
        let (seq, report) = run_full_information_on(&g, rounds, Backend::Sequential, |v| v.clone());
        for codec in ViewCodec::ALL {
            let (outcome, stats) = run_metered(&g, rounds, codec, None, &NoopSink);
            assert_eq!(outcome.outputs, seq, "{codec}");
            assert_eq!(outcome.report, report, "{codec}");
            // Uncapped: one physical round per logical round, every round on the wire.
            assert_eq!(stats.per_round_bits.len(), rounds, "{codec}");
            assert!(stats.per_round_bits.iter().all(|&b| b > 0), "{codec}");
            assert_eq!(stats.total_bits(), stats.per_edge_total(), "{codec}");
        }
    }

    #[test]
    fn capped_runs_inflate_rounds_but_preserve_outputs_and_messages() {
        let g = generators::symmetric_ring(6).unwrap();
        let rounds = 3;
        let (seq, uncapped) =
            run_full_information_on(&g, rounds, Backend::Sequential, |v| v.clone());
        let (outcome, stats) = run_metered(&g, rounds, ViewCodec::Dag, Some(16), &NoopSink);
        assert_eq!(outcome.outputs, seq);
        assert_eq!(
            outcome.report.messages_delivered,
            uncapped.messages_delivered
        );
        assert!(
            outcome.report.rounds > rounds,
            "16-bit cap must stretch {} logical rounds, got {}",
            rounds,
            outcome.report.rounds
        );
        assert_eq!(stats.per_round_bits.len(), outcome.report.rounds);
        // No physical round moved more than B bits on any edge: with 12 directed
        // edges the round total is bounded by 12 × 16.
        assert!(stats.per_round_bits.iter().all(|&b| b <= 16 * 12));
        assert_eq!(stats.total_bits(), stats.per_edge_total());
    }

    #[test]
    fn shrinking_the_cap_only_stretches_the_same_bit_total() {
        let g = generators::random_connected(12, 4, 4, 3).unwrap();
        let rounds = 2;
        let (_, baseline) = run_metered(&g, rounds, ViewCodec::Dag, None, &NoopSink);
        let mut previous_rounds = rounds;
        for cap in [512u64, 64, 8, 1] {
            let (outcome, stats) = run_metered(&g, rounds, ViewCodec::Dag, Some(cap), &NoopSink);
            assert_eq!(stats.total_bits(), baseline.total_bits(), "cap {cap}");
            assert_eq!(stats.per_edge_bits, baseline.per_edge_bits, "cap {cap}");
            assert!(
                outcome.report.rounds >= previous_rounds,
                "cap {cap}: rounds must not shrink as bandwidth shrinks"
            );
            previous_rounds = outcome.report.rounds;
        }
    }

    #[test]
    fn generous_cap_agrees_with_uncapped_exactly() {
        let g = generators::random_connected(14, 4, 5, 7).unwrap();
        let (free, free_stats) = run_metered(&g, 3, ViewCodec::Delta, None, &NoopSink);
        let (capped, capped_stats) = run_metered(&g, 3, ViewCodec::Delta, Some(1 << 20), &NoopSink);
        assert_eq!(capped.outputs, free.outputs);
        assert_eq!(capped.report, free.report);
        assert_eq!(capped_stats.per_round_bits, free_stats.per_round_bits);
        assert_eq!(capped_stats.per_edge_bits, free_stats.per_edge_bits);
    }

    #[test]
    fn delta_strictly_beats_dag_on_a_standard_scenario() {
        // Acceptance criterion of the transport layer: on the symmetric ring —
        // a standard workload family — successive rounds share almost all view
        // structure, so the delta codec's wire total is strictly below the DAG
        // codec's (and the DAG total is at most the tree total).
        let g = generators::symmetric_ring(9).unwrap();
        let rounds = 5;
        let (_, tree) = run_metered(&g, rounds, ViewCodec::Tree, None, &NoopSink);
        let (_, dag) = run_metered(&g, rounds, ViewCodec::Dag, None, &NoopSink);
        let (_, delta) = run_metered(&g, rounds, ViewCodec::Delta, None, &NoopSink);
        assert!(
            delta.total_bits() < dag.total_bits(),
            "delta {} must beat dag {}",
            delta.total_bits(),
            dag.total_bits()
        );
        assert!(dag.total_bits() <= tree.total_bits());
    }

    #[test]
    fn wire_events_reconcile_with_stats_and_profile_covers_physical_rounds() {
        let g = generators::symmetric_ring(5).unwrap();
        let recorder = Recorder::new();
        let (outcome, stats) = run_metered(&g, 3, ViewCodec::Dag, Some(8), &recorder);
        let profile = RoundProfile::from_events(&recorder.drain());
        assert_eq!(profile.len(), outcome.report.rounds);
        assert_eq!(profile.total_wire_bits(), stats.total_bits());
        for (stat, &bits) in profile.rounds().iter().zip(stats.per_round_bits.iter()) {
            assert_eq!(stat.wire_bits, bits, "round {}", stat.round);
        }
    }

    #[test]
    fn single_node_and_single_edge_graphs_survive_every_cap() {
        // n = 1: no edges, nothing on the wire, one physical round per logical.
        let lonely = anet_graph::GraphBuilder::with_nodes(1).build().unwrap();
        let (outcome, stats) = run_metered(&lonely, 2, ViewCodec::Delta, Some(1), &NoopSink);
        assert_eq!(outcome.report.rounds, 2);
        assert_eq!(outcome.report.messages_delivered, 0);
        assert_eq!(stats.total_bits(), 0);
        // A single edge under a one-bit cap: every message streams bit by bit,
        // and the collected views still match the combinatorial definition.
        let mut b = anet_graph::GraphBuilder::with_nodes(2);
        b.add_edge(0, 0, 1, 0).unwrap();
        let pair = b.build().unwrap();
        let (outcome, stats) = run_metered(&pair, 2, ViewCodec::Dag, Some(1), &NoopSink);
        assert_eq!(outcome.outputs[0], View::build(&pair, 0, 2));
        assert_eq!(outcome.outputs[1], View::build(&pair, 1, 2));
        // Both directed edges stream one bit per physical round in parallel.
        assert_eq!(2 * outcome.report.rounds as u64, stats.total_bits());
        assert_eq!(stats.per_round_bits.iter().max(), Some(&2u64)); // 2 edges × 1 bit
    }

    #[test]
    fn a_senders_receivers_share_one_decoded_view() {
        // The metered twin of
        // `full_info::tests::collected_views_share_subtrees_across_ports`: u's
        // message is decoded once per logical round, so the child across the port
        // to u is one object in the view of every neighbour of u. Each body is
        // decoded on its own, never handed over as the sender's handle, so what
        // two different senders' bodies carry of one node are distinct objects.
        let g = generators::random_connected(12, 4, 4, 7).unwrap();
        let rounds = 3;
        for codec in ViewCodec::ALL {
            for cap in [None, Some(16)] {
                let (outcome, _) = run_metered(&g, rounds, codec, cap, &NoopSink);
                let views = &outcome.outputs;
                for v in g.nodes() {
                    let view = &views[v as usize];
                    assert_eq!(
                        *view,
                        View::build(&g, v, rounds),
                        "{codec} {cap:?} node {v}"
                    );
                    for (child, (_, u, _)) in view.children().iter().zip(g.ports(v)) {
                        for w in g.nodes().filter(|&w| w != v) {
                            let Some(back) = g.ports(w).position(|(_, x, _)| x == u) else {
                                continue;
                            };
                            let other = &views[w as usize].children()[back].2;
                            assert!(
                                View::ptr_eq(&child.2, other),
                                "{codec} {cap:?}: nodes {v} and {w} must share u={u}'s view"
                            );
                        }
                        for (grandchild, (_, x, _)) in child.2.children().iter().zip(g.ports(u)) {
                            for (y, (_, z, _)) in g.ports(x).enumerate() {
                                if z == u {
                                    continue;
                                }
                                let through_z = &views[x as usize].children()[y].2;
                                let Some(k) = g.ports(z).position(|(_, t, _)| t == x) else {
                                    continue;
                                };
                                assert!(
                                    !View::ptr_eq(&grandchild.2, &through_z.children()[k].2),
                                    "{codec} {cap:?}: x={x}'s view through u={u} and z={z} \
                                     must come from two decodes"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_body_may_drain_over_several_physical_rounds() {
        // The hub of a 20-leaf star puts one body on every port, but its port tags
        // take 5 bits below port 16 and 10 from there on, so under a tight cap its
        // short-tag links deliver the shared body before its four long-tag ones.
        let g = generators::star(20).unwrap();
        let rounds = 3;
        let (seq, report) = run_full_information_on(&g, rounds, Backend::Sequential, |v| v.clone());
        for (codec, total) in ViewCodec::ALL.into_iter().zip([18_820, 23_840, 23_960]) {
            let (_, free) = run_metered(&g, rounds, codec, None, &NoopSink);
            assert_eq!(free.total_bits(), total, "{codec}");
            for cap in [1, 7] {
                let recorder = Recorder::new();
                let (outcome, stats) = run_metered(&g, rounds, codec, Some(cap), &recorder);
                assert_eq!(outcome.outputs, seq, "{codec} cap {cap}");
                assert_eq!(
                    outcome.report.messages_delivered, report.messages_delivered,
                    "{codec} cap {cap}"
                );
                assert_eq!(stats.per_edge_bits, free.per_edge_bits, "{codec} cap {cap}");
                assert_eq!(stats.total_bits(), free.total_bits(), "{codec} cap {cap}");
                if cap == 1 {
                    let profile = RoundProfile::from_events(&recorder.drain());
                    let arrivals: Vec<u64> = profile
                        .rounds()
                        .iter()
                        .map(|r| r.messages)
                        .filter(|&m| m > 0)
                        .collect();
                    assert_eq!(
                        arrivals.iter().filter(|&&m| m == 4).count(),
                        rounds,
                        "{codec}: the long-tag links arrive on their own, {arrivals:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_full_information_metered_dispatches_on_the_backend() {
        let g = generators::symmetric_ring(5).unwrap();
        let (degrees, report, stats) = run_full_information_metered(
            &g,
            2,
            Backend::capped(4),
            ViewCodec::Dag,
            &NoopSink,
            |v| v.degree(),
        );
        assert_eq!(degrees, vec![2; 5]);
        assert!(report.rounds > 2);
        assert_eq!(stats.bits_per_edge_cap, Some(4));
        let (_, free_report, free_stats) = run_full_information_metered(
            &g,
            2,
            Backend::Sequential,
            ViewCodec::Dag,
            &NoopSink,
            |v| v.degree(),
        );
        assert_eq!(free_report.rounds, 2);
        assert_eq!(free_stats.bits_per_edge_cap, None);
        assert_eq!(free_stats.total_bits(), stats.total_bits());
    }
}
