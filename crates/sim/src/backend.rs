//! Execution backends: one arena round loop, several chunk plans.
//!
//! Every backend runs the same synchronous round loop over two flat per-run
//! message arenas, an outbox and an inbox, indexed by the graph's port-offset
//! table ([`anet_graph::PortGraph::port_offsets`]): node `v`'s ports are slots
//! `offsets[v]..offsets[v + 1]` of both. A round has three phases:
//!
//! * **send** — every node writes its messages straight into its outbox slice via
//!   [`NodeAlgorithm::send_into`]; every slot reads `None` on entry;
//! * **route** — a route step carries each message to the far end of its edge,
//!   addressed by the flat route table
//!   ([`anet_graph::PortGraph::flat_route_table`]);
//! * **receive** — every node reads its inbox slice in place.
//!
//! The buffers are allocated once per run: the inline loop performs no per-round
//! allocation, and the move pass moves messages between arenas without cloning.
//!
//! Backends differ only in the *chunk plan* the send and receive phases run
//! over: consecutive node ranges balanced by degree sum, one thread each (the
//! calling thread takes the last), at most [`crate::thread_budget`] of them.
//! [`Backend::Sequential`], [`Backend::Batching`] and [`Backend::Capped`] use
//! the empty plan and run both phases inline; [`Backend::Parallel`] cuts
//! `threads` chunks and [`Backend::AdaptiveParallel`] derives the count.
//!
//! The route step is either the linear move pass of this module or the metered
//! wire route of [`crate::transport`], which encodes each sender's message once
//! at the end of the send phase, transfers the bits per directed edge under an
//! optional cap (so one logical round may span several physical rounds), and
//! decodes each message once on arrival, sharing the decoded view among its
//! receivers.
//!
//! Message accounting is backend-independent by construction: every backend
//! delivers exactly the messages the port map prescribes, in a state-independent
//! order, so all backends report bit-identical [`RunReport`]s and outputs. The
//! equivalence is enforced by property tests over [`Backend::smoke_set`].

use crate::model::{AlgorithmFactory, NodeAlgorithm};
use crate::runner::{RunOutcome, RunReport};
use anet_graph::PortGraph;
use anet_trace::{NoopSink, Phase, TraceEvent, TraceSink};
use std::ops::Range;
use std::time::Instant;

/// How the synchronous round loop schedules the per-node send/receive phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Single-threaded execution: the send and receive phases run inline.
    #[default]
    Sequential,
    /// Send and receive phases split across `threads` OS threads (scoped threads
    /// from the standard library) in chunks balanced by degree sum; the route step
    /// stays sequential, as it is one linear pass. Semantically identical to
    /// [`Backend::Sequential`]. Prefer constructing via [`Backend::parallel`], which
    /// normalizes the thread count; a raw `threads: 0` still executes with one
    /// thread and reports itself as `par1`.
    Parallel {
        /// Number of worker threads (clamped to at least 1 everywhere it is used).
        threads: usize,
    },
    /// Message-batching execution: the arena loop with inline phases. Every
    /// backend runs the arena loop, so this executes exactly like
    /// [`Backend::Sequential`]; it keeps its own `batch` label so reports and
    /// sweep artifacts keyed by label stay comparable.
    Batching,
    /// Chunk-size-adaptive parallel execution: worker count chosen from the graph
    /// size, degree sum and [`std::thread::available_parallelism`]; chunks balanced
    /// by degree sum. Falls back to inline phases on graphs too small to amortize
    /// thread spawning.
    AdaptiveParallel,
    /// CONGEST-style capped-bandwidth execution: a round moves at most
    /// `bits_per_edge` serialised bits across each directed edge, so a view too
    /// large for one round streams across several and the *measured* round count
    /// inflates as bandwidth shrinks (outputs and message totals stay identical —
    /// only the rounds axis moves). The cap is only meaningful for messages the
    /// metered transport can serialise, so only
    /// [`crate::run_full_information_metered`] applies it; everywhere else
    /// ([`Backend::run`], [`crate::run_full_information_traced`]) messages are not
    /// serialised, and a capped backend runs sequentially and uncapped.
    /// Construct via [`Backend::capped`], which normalises a zero cap to 1.
    Capped {
        /// Bits each directed edge may carry per round (≥ 1 wherever it is used).
        bits_per_edge: u64,
    },
}

/// Minimum number of port slots of work per adaptive worker: below this, spawning a
/// thread costs more than the phase it would execute.
const ADAPTIVE_MIN_PORTS_PER_WORKER: usize = 4096;

impl Backend {
    /// A parallel backend with a normalized thread count: `threads` is clamped to at
    /// least 1, so the constructed value's [`label`](Backend::label) always agrees
    /// with how it executes.
    pub fn parallel(threads: usize) -> Backend {
        Backend::Parallel {
            threads: threads.max(1),
        }
    }

    /// A capped-bandwidth backend with a normalized cap: `bits_per_edge` is clamped
    /// to at least 1 (a zero-bit edge could never deliver anything), so the
    /// constructed value's [`label`](Backend::label) always agrees with how it
    /// executes.
    pub fn capped(bits_per_edge: u64) -> Backend {
        Backend::Capped {
            bits_per_edge: bits_per_edge.max(1),
        }
    }

    /// A short human-readable label (`seq`, `par4`, `batch`, `adaptive`, `cap64`)
    /// for reports and tables. The label reflects the *configured* backend:
    /// `Parallel { threads: 0 }` runs with one thread and therefore labels itself
    /// `par1` (and `Capped { bits_per_edge: 0 }` runs with a one-bit cap and labels
    /// itself `cap1`), but a [`crate::with_thread_budget`] cap does **not** change
    /// the label — reports keyed by label stay comparable whether or not the run
    /// happened under a budget.
    pub fn label(&self) -> String {
        match self {
            Backend::Sequential => "seq".to_string(),
            Backend::Parallel { threads } => format!("par{}", (*threads).max(1)),
            Backend::Batching => "batch".to_string(),
            Backend::AdaptiveParallel => "adaptive".to_string(),
            Backend::Capped { bits_per_edge } => format!("cap{}", (*bits_per_edge).max(1)),
        }
    }

    /// A representative set of backends, used by equivalence tests and sweeps.
    pub fn smoke_set() -> Vec<Backend> {
        vec![
            Backend::Sequential,
            Backend::parallel(1),
            Backend::parallel(2),
            Backend::parallel(4),
            Backend::parallel(7),
            Backend::Batching,
            Backend::AdaptiveParallel,
        ]
    }

    /// Run `factory`'s algorithm on `graph` for `rounds` synchronous rounds.
    ///
    /// This is the *only* round loop in the crate: every public entry point (the
    /// full-information collector, the metered transport, the `ElectionEngine`
    /// facade) funnels through the arena loop behind it.
    /// Equivalent to [`Backend::run_traced`] with a [`NoopSink`]; the disabled probe
    /// costs one branch per phase and reads no clock.
    pub fn run<F>(
        &self,
        graph: &PortGraph,
        factory: &F,
        rounds: usize,
    ) -> RunOutcome<<F::Algo as NodeAlgorithm>::Output>
    where
        F: AlgorithmFactory,
    {
        self.run_traced(graph, factory, rounds, &NoopSink)
    }

    /// [`Backend::run`] with a trace probe: the round loop emits
    /// [`TraceEvent`]s into `sink` — run and round start/end markers, per-phase
    /// wall-clock nanoseconds (send vs route vs receive), and per-round
    /// delivered-message counts with shallow payload bytes. Events carry
    /// `trace_id: 0`; wrap the sink in [`anet_trace::Tagged`] to stamp run ids.
    ///
    /// Tracing never changes what is computed: outputs and [`RunReport`]s are
    /// bit-identical with and without a recording sink, and per-round message
    /// counts are backend-independent (enforced by the equivalence suite).
    ///
    /// An arbitrary message type has no wire encoding, so [`Backend::Capped`]
    /// runs here sequentially and uncapped; the cap applies only on the metered
    /// route, [`crate::run_full_information_metered`].
    pub fn run_traced<F>(
        &self,
        graph: &PortGraph,
        factory: &F,
        rounds: usize,
        sink: &dyn TraceSink,
    ) -> RunOutcome<<F::Algo as NodeAlgorithm>::Output>
    where
        F: AlgorithmFactory,
    {
        self.run_arena(graph, factory, rounds, &mut MovePass, sink)
    }

    /// The chunk plan of this backend's send and receive phases on a graph with
    /// port-offset table `offsets`: consecutive node ranges balanced by degree
    /// sum, at most [`crate::thread_budget`] of them. The empty plan runs both
    /// phases inline.
    pub(crate) fn chunk_plan(&self, offsets: &[usize]) -> Vec<Range<usize>> {
        let n = offsets.len() - 1;
        let threads = match self {
            Backend::Sequential | Backend::Batching | Backend::Capped { .. } => 1,
            Backend::Parallel { threads } => (*threads).max(1),
            Backend::AdaptiveParallel => adaptive_threads(n, offsets[n]),
        };
        degree_balanced_chunks(offsets, threads.min(crate::thread_budget()))
    }

    /// Run `factory`'s algorithm through the arena round loop with this
    /// backend's chunk plan and `route` as the route step. The arenas, the
    /// offset and route tables and the node states are allocated here, once per
    /// run; the returned report counts physical rounds.
    pub(crate) fn run_arena<F, R>(
        &self,
        graph: &PortGraph,
        factory: &F,
        rounds: usize,
        route: &mut R,
        sink: &dyn TraceSink,
    ) -> RunOutcome<<F::Algo as NodeAlgorithm>::Output>
    where
        F: AlgorithmFactory,
        R: RouteStep<<F::Algo as NodeAlgorithm>::Message>,
    {
        let offsets = graph.port_offsets();
        let table = graph.flat_route_table_with(&offsets);
        let mut arena = Arena {
            chunks: self.chunk_plan(&offsets),
            out: vec![None; table.len()],
            inbox: vec![None; table.len()],
            offsets,
            table,
        };
        let mut nodes: Vec<F::Algo> = graph
            .nodes()
            .map(|v| factory.create(graph.degree(v)))
            .collect();
        let report = arena.run_rounds(&mut nodes, rounds, route, sink);
        RunOutcome {
            outputs: nodes.iter().map(|n| n.output()).collect(),
            report,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Hardware parallelism ceiling (1 when the platform cannot report it).
fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Worker count for [`Backend::AdaptiveParallel`]: the machine ceiling, scaled down
/// so every worker has at least [`ADAPTIVE_MIN_PORTS_PER_WORKER`] port slots of phase
/// work (counting a node as at least one slot), and never more workers than nodes.
/// Tiny graphs yield 1, i.e. a fully sequential run with no thread spawned.
fn adaptive_threads(n: usize, total_ports: usize) -> usize {
    let work = total_ports.max(n);
    available_parallelism()
        .min(work.div_ceil(ADAPTIVE_MIN_PORTS_PER_WORKER))
        .clamp(1, n.max(1))
}

/// Chunks balanced by degree sum: consecutive node ranges each covering roughly
/// `total_ports / threads` port slots, computed from the port-offset table. On
/// irregular-degree graphs this keeps per-worker phase cost even where node-count
/// chunking would not. Returns the empty plan (run inline) for one thread.
fn degree_balanced_chunks(offsets: &[usize], threads: usize) -> Vec<Range<usize>> {
    let n = offsets.len() - 1;
    if threads <= 1 || n == 0 {
        return Vec::new();
    }
    let total = offsets[n];
    let target = total.div_ceil(threads).max(1);
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    let mut next_cut = target;
    for v in 0..n {
        if offsets[v + 1] >= next_cut && v + 1 > start {
            ranges.push(start..v + 1);
            start = v + 1;
            next_cut = offsets[v + 1] + target;
        }
    }
    if start < n {
        ranges.push(start..n);
    }
    ranges
}

/// Record the elapsed time of one phase when the probe armed it (`start` is `Some`
/// exactly when the sink is enabled — the disabled path reads no clock at all).
// anet-lint: hot-path
fn record_phase(sink: &dyn TraceSink, round: usize, phase: Phase, start: Option<Instant>) {
    if let Some(start) = start {
        sink.record(TraceEvent::PhaseTime {
            trace_id: 0,
            round: round as u64,
            phase,
            ns: start.elapsed().as_nanos() as u64,
        });
    }
}

/// How messages cross the edges between a round's send and receive phases.
pub(crate) trait RouteStep<M> {
    /// Called at the end of the send phase with the round's messages in `out`;
    /// returns how many physical rounds (at least 1) they need to arrive.
    fn load(&mut self, out: &mut [Option<M>]) -> usize;

    /// One physical round: deliver every message that arrives in it into
    /// `inbox`, at the slot `table` maps its outbox slot to, and return the
    /// messages delivered and the wire bits moved. After the last physical
    /// round of a logical round every `out` slot must read `None` again: the
    /// next send phase relies on it.
    fn step(
        &mut self,
        table: &[usize],
        out: &mut [Option<M>],
        inbox: &mut [Option<M>],
    ) -> (usize, u64);
}

/// The unmetered route step: move each message to the far end of its edge in one
/// linear pass over the flat route table, within the round it was sent.
struct MovePass;

impl<M> RouteStep<M> for MovePass {
    fn load(&mut self, _out: &mut [Option<M>]) -> usize {
        1
    }

    // anet-lint: hot-path
    fn step(
        &mut self,
        table: &[usize],
        out: &mut [Option<M>],
        inbox: &mut [Option<M>],
    ) -> (usize, u64) {
        // Clear the inbox first (receivers may have left residue, and a port
        // that receives nothing this round must read `None`), then move.
        for slot in inbox.iter_mut() {
            *slot = None;
        }
        let mut delivered = 0;
        for (slot, &dest) in out.iter_mut().zip(table) {
            if let Some(message) = slot.take() {
                inbox[dest] = Some(message);
                delivered += 1;
            }
        }
        (delivered, 0)
    }
}

/// The per-run buffers of the arena loop: the port-offset and flat route tables,
/// the send/receive chunk plan, and the two message arenas every round reuses in
/// place.
struct Arena<M> {
    offsets: Vec<usize>,
    table: Vec<usize>,
    chunks: Vec<Range<usize>>,
    out: Vec<Option<M>>,
    inbox: Vec<Option<M>>,
}

impl<M: Send> Arena<M> {
    /// The round loop: `rounds` logical rounds of send → route → receive, where
    /// the route step decides how many physical rounds each one spans. The send
    /// phase lands in the first physical round of a logical round and the
    /// receive phase in its last, so nodes never observe a partly delivered
    /// round. Returns the physical round count and the delivered messages.
    // anet-lint: hot-path
    fn run_rounds<A, R>(
        &mut self,
        nodes: &mut [A],
        rounds: usize,
        route: &mut R,
        sink: &dyn TraceSink,
    ) -> RunReport
    where
        A: NodeAlgorithm<Message = M>,
        R: RouteStep<M>,
    {
        // The probe: one hoisted flag; when disabled, the loop performs no clock
        // reads and constructs no events. Every event is emitted by this thread,
        // so a recording sink sees them in round order.
        let tracing = sink.enabled();
        let message_bytes = std::mem::size_of::<M>() as u64;
        if tracing {
            sink.record(TraceEvent::RunStart {
                trace_id: 0,
                nodes: nodes.len() as u64,
                rounds: rounds as u64,
            });
        }
        let Arena {
            offsets,
            table,
            chunks,
            out,
            inbox,
        } = self;
        let mut physical = 0usize;
        let mut messages_delivered = 0usize;
        for round in 1..=rounds {
            let mut span = 1;
            let mut step = 0;
            while step < span {
                step += 1;
                physical += 1;
                if tracing {
                    sink.record(TraceEvent::RoundStart {
                        trace_id: 0,
                        round: physical as u64,
                    });
                }
                if step == 1 {
                    let phase_start = tracing.then(Instant::now);
                    run_phase(nodes, offsets, out, chunks, round, A::send_into);
                    span = route.load(out);
                    record_phase(sink, physical, Phase::Send, phase_start);
                }
                let phase_start = tracing.then(Instant::now);
                let (delivered, bits) = route.step(table, out, inbox);
                messages_delivered += delivered;
                record_phase(sink, physical, Phase::Route, phase_start);
                if step == span {
                    let phase_start = tracing.then(Instant::now);
                    run_phase(nodes, offsets, inbox, chunks, round, A::receive);
                    record_phase(sink, physical, Phase::Receive, phase_start);
                }
                if tracing {
                    sink.record(TraceEvent::RoundEnd {
                        trace_id: 0,
                        round: physical as u64,
                        messages: delivered as u64,
                        payload_bytes: delivered as u64 * message_bytes,
                    });
                    if bits > 0 {
                        sink.record(TraceEvent::RoundWire {
                            trace_id: 0,
                            round: physical as u64,
                            bits,
                        });
                    }
                }
            }
        }
        if tracing {
            sink.record(TraceEvent::RunEnd {
                trace_id: 0,
                rounds: physical as u64,
                messages: messages_delivered as u64,
            });
        }
        RunReport {
            rounds: physical,
            messages_delivered,
        }
    }
}

/// Run one send or receive phase of round `round` over the chunk plan, handing
/// each node its arena slice: inline over every node when the plan is empty,
/// otherwise one thread per chunk — a scoped worker for each chunk but the
/// last, which the calling thread runs itself instead of idling.
// anet-lint: hot-path
fn run_phase<A: Send, M: Send>(
    nodes: &mut [A],
    offsets: &[usize],
    arena: &mut [Option<M>],
    chunks: &[Range<usize>],
    round: usize,
    phase: impl Fn(&mut A, usize, &mut [Option<M>]) + Sync,
) {
    let run = |nodes: &mut [A], window: &[usize], mut slots: &mut [Option<M>]| {
        for (node, ports) in nodes.iter_mut().zip(window.windows(2)) {
            let (mine, rest) = slots.split_at_mut(ports[1] - ports[0]);
            slots = rest;
            phase(node, round, mine);
        }
    };
    let Some((last, spawned)) = chunks.split_last() else {
        return run(nodes, offsets, arena);
    };
    std::thread::scope(|scope| {
        let (mut nodes, mut arena) = (nodes, arena);
        for range in spawned {
            let (node_chunk, rest) = nodes.split_at_mut(range.len());
            nodes = rest;
            let (slots, rest) = arena.split_at_mut(offsets[range.end] - offsets[range.start]);
            arena = rest;
            let window = &offsets[range.start..=range.end];
            let run = &run;
            scope.spawn(move || run(node_chunk, window, slots));
        }
        run(nodes, &offsets[last.start..=last.end], arena);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many workers `backend` runs the send and receive phases with on a
    /// graph with port-offset table `offsets` (the empty plan is one, inline).
    fn workers(backend: Backend, offsets: &[usize]) -> usize {
        backend.chunk_plan(offsets).len().max(1)
    }

    #[test]
    fn parallel_constructor_normalizes_zero_threads() {
        assert_eq!(Backend::parallel(0), Backend::Parallel { threads: 1 });
        assert_eq!(Backend::parallel(3), Backend::Parallel { threads: 3 });
    }

    #[test]
    fn labels_agree_with_execution_for_zero_threads() {
        // Regression: `Parallel { threads: 0 }` is clamped to one thread inside the
        // round loop, so its label must say `par1`, not `par0`.
        let raw = Backend::Parallel { threads: 0 };
        assert_eq!(raw.label(), "par1");
        assert_eq!(workers(raw, &[0, 2, 4, 6]), 1);
        assert_eq!(raw.label(), Backend::parallel(0).label());
        assert_eq!(Backend::Parallel { threads: 4 }.label(), "par4");
    }

    #[test]
    fn backend_labels_are_distinct_and_stable() {
        assert_eq!(Backend::Sequential.label(), "seq");
        assert_eq!(Backend::Batching.label(), "batch");
        assert_eq!(Backend::AdaptiveParallel.label(), "adaptive");
        let labels: Vec<String> = Backend::smoke_set().iter().map(|b| b.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "{labels:?}");
    }

    #[test]
    fn smoke_set_includes_the_arena_backends() {
        let set = Backend::smoke_set();
        assert!(set.contains(&Backend::Batching));
        assert!(set.contains(&Backend::AdaptiveParallel));
        assert!(set.contains(&Backend::Sequential));
    }

    #[test]
    fn degree_balanced_chunks_split_by_port_count() {
        // A "heavy head": one node with 6 ports, then six nodes of 1 port. Node-count
        // chunking would put half the ports in the first worker; degree-balanced
        // chunking cuts after the heavy node.
        let offsets = vec![0, 6, 7, 8, 9, 10, 11, 12];
        let chunks = degree_balanced_chunks(&offsets, 2);
        assert_eq!(chunks.first(), Some(&(0..1)));
        let covered: usize = chunks.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 7);
        assert!(chunks.windows(2).all(|w| w[0].end == w[1].start));
        assert!(degree_balanced_chunks(&offsets, 1).is_empty());
    }

    #[test]
    fn thread_budget_caps_chunk_plans_but_not_labels() {
        // 2^16 nodes of degree 4: enough ports that the adaptive backend wants
        // every hardware thread.
        let offsets: Vec<usize> = (0..=1 << 16).map(|v| 4 * v).collect();
        crate::with_thread_budget(2, || {
            assert_eq!(workers(Backend::parallel(8), &offsets), 2);
            assert_eq!(
                workers(Backend::AdaptiveParallel, &offsets),
                2.min(available_parallelism())
            );
            // Inline backends are unaffected (already below the cap).
            assert_eq!(workers(Backend::Sequential, &offsets), 1);
            assert_eq!(workers(Backend::Batching, &offsets), 1);
            assert_eq!(workers(Backend::capped(8), &offsets), 1);
            // Labels stay budget-independent so report keys remain comparable.
            assert_eq!(Backend::parallel(8).label(), "par8");
        });
        assert_eq!(workers(Backend::parallel(8), &offsets), 8);
    }

    #[test]
    fn outbox_slots_read_none_on_entry() {
        // Talks on port 0 in odd rounds only and checks the loop's contract:
        // whatever it wrote the round before must be gone.
        struct OddRounds(usize);
        impl NodeAlgorithm for OddRounds {
            type Message = usize;
            type Output = usize;
            fn send_into(&mut self, round: usize, outbox: &mut [Option<usize>]) {
                assert!(outbox.iter().all(Option::is_none), "round {round}");
                outbox[0] = (round % 2 == 1).then_some(round);
            }
            fn receive(&mut self, _round: usize, inbox: &mut [Option<usize>]) {
                self.0 += inbox.iter().flatten().count();
            }
            fn output(&self) -> usize {
                self.0
            }
        }
        let g = anet_graph::generators::symmetric_ring(6).unwrap();
        for backend in Backend::smoke_set() {
            let out = backend.run(&g, &|_| OddRounds(0), 4);
            assert_eq!(out.outputs, vec![2; 6], "{backend}");
        }
    }

    #[test]
    fn budgeted_parallel_run_matches_sequential_output() {
        // Oversubscription regression: a par8 backend under a budget of 1 must
        // run (with one worker) and still produce the reference outputs.
        let g = anet_graph::generators::symmetric_ring(12).unwrap();
        let factory = crate::full_info::ViewCollectorFactory;
        let reference = Backend::Sequential.run(&g, &factory, 3);
        let budgeted = crate::with_thread_budget(1, || Backend::parallel(8).run(&g, &factory, 3));
        assert_eq!(reference.outputs, budgeted.outputs);
        assert_eq!(reference.report, budgeted.report);
    }

    #[test]
    fn traced_run_is_output_identical_and_sums_to_the_report() {
        use anet_trace::{Recorder, RoundProfile};
        let g = anet_graph::generators::random_connected(24, 4, 8, 5).unwrap();
        let factory = crate::full_info::ViewCollectorFactory;
        let rounds = 3;
        let plain = Backend::Sequential.run(&g, &factory, rounds);
        let mut reference_rounds: Option<Vec<u64>> = None;
        for backend in Backend::smoke_set() {
            let rec = Recorder::new();
            let traced = backend.run_traced(&g, &factory, rounds, &rec);
            assert_eq!(traced.outputs, plain.outputs, "{backend}");
            assert_eq!(traced.report, plain.report, "{backend}");
            let events = rec.drain();
            // Run markers frame the stream.
            assert!(
                matches!(events.first(), Some(TraceEvent::RunStart { nodes, .. }) if *nodes == g.num_nodes() as u64),
                "{backend}"
            );
            assert!(
                matches!(events.last(), Some(TraceEvent::RunEnd { messages, .. }) if *messages == plain.report.messages_delivered as u64),
                "{backend}"
            );
            let profile = RoundProfile::from_events(&events);
            assert_eq!(profile.len(), rounds, "{backend}");
            // Per-round counts sum exactly to the report total…
            assert_eq!(
                profile.total_messages(),
                plain.report.messages_delivered as u64,
                "{backend}"
            );
            // …and are identical across every backend (messages are routed by the
            // port map, not by scheduling).
            let per_round: Vec<u64> = profile.rounds().iter().map(|r| r.messages).collect();
            match &reference_rounds {
                None => reference_rounds = Some(per_round),
                Some(reference) => assert_eq!(&per_round, reference, "{backend}"),
            }
            // Payload accounting is shallow: delivered × message size.
            let message_bytes = std::mem::size_of::<crate::full_info::ViewMessage>() as u64;
            assert_eq!(
                profile.total_payload_bytes(),
                plain.report.messages_delivered as u64 * message_bytes,
                "{backend}"
            );
        }
    }

    #[test]
    fn disabled_probe_emits_nothing() {
        let g = anet_graph::generators::symmetric_ring(8).unwrap();
        let factory = crate::full_info::ViewCollectorFactory;
        // `run` is `run_traced` with a `NoopSink`; a recording sink wrapped to
        // report `enabled() == false` must stay empty even if passed explicitly.
        struct DisabledRecorder(anet_trace::Recorder);
        impl TraceSink for DisabledRecorder {
            fn record(&self, event: TraceEvent) {
                self.0.record(event);
            }
            fn enabled(&self) -> bool {
                false
            }
        }
        let sink = DisabledRecorder(anet_trace::Recorder::new());
        let traced = Backend::Batching.run_traced(&g, &factory, 2, &sink);
        let plain = Backend::Batching.run(&g, &factory, 2);
        assert_eq!(traced.outputs, plain.outputs);
        assert!(sink.0.is_empty(), "disabled probe must not emit");
    }

    #[test]
    fn adaptive_threads_stay_sequential_on_tiny_graphs() {
        assert_eq!(adaptive_threads(1, 0), 1);
        assert_eq!(adaptive_threads(10, 30), 1);
        // Huge work unlocks up to the machine ceiling, but never more than n.
        let big = adaptive_threads(1 << 20, 1 << 22);
        assert!(big >= 1 && big <= available_parallelism());
        assert_eq!(
            adaptive_threads(2, usize::MAX / 2),
            2.min(available_parallelism()).max(1)
        );
    }
}
