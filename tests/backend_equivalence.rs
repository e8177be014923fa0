//! Backend equivalence on edge-case graphs: every backend of the *extended*
//! `Backend::smoke_set()` — including the arena-based `Batching` and the
//! chunk-size-adaptive `AdaptiveParallel` — must produce bit-identical outputs and
//! `RunReport`s on the degenerate shapes where scheduling bugs hide: a single node
//! (no edges at all), a single edge, fewer nodes than worker threads, and
//! irregular-degree families where degree-balanced chunking actually cuts unevenly.

use four_shades::graph::{generators, GraphBuilder, PortGraph};
use four_shades::sim::{Backend, NodeAlgorithm, ViewCollectorFactory};

/// Flood-max over degrees: every node writes one message on every port.
#[derive(Clone)]
struct Flood {
    best: usize,
}

impl NodeAlgorithm for Flood {
    type Message = usize;
    type Output = usize;

    fn send_into(&mut self, _round: usize, outbox: &mut [Option<usize>]) {
        outbox.fill(Some(self.best));
    }

    fn receive(&mut self, _round: usize, inbox: &mut [Option<usize>]) {
        for m in inbox.iter_mut().filter_map(Option::take) {
            self.best = self.best.max(m);
        }
    }

    fn output(&self) -> usize {
        self.best
    }
}

fn flood_factory(degree: usize) -> Flood {
    Flood { best: degree }
}

/// A sender that only talks on even ports in even rounds (and odd ports in odd
/// rounds), and leaves the last port untouched in odd rounds: exercises the
/// "untouched ports mean silence" contract on every backend, which the round
/// loop keeps by handing every outbox slot over as `None`.
struct Sparse {
    degree: usize,
    log: Vec<(usize, usize, u64)>,
}

impl NodeAlgorithm for Sparse {
    type Message = u64;
    type Output = Vec<(usize, usize, u64)>;

    fn send_into(&mut self, round: usize, outbox: &mut [Option<u64>]) {
        let talking = self.degree.saturating_sub(round % 2);
        for (p, slot) in outbox.iter_mut().enumerate().take(talking) {
            if p % 2 == round % 2 {
                *slot = Some((round * 1000 + p) as u64);
            }
        }
    }

    fn receive(&mut self, round: usize, inbox: &mut [Option<u64>]) {
        for (p, m) in inbox.iter_mut().enumerate() {
            if let Some(m) = m.take() {
                self.log.push((round, p, m));
            }
        }
    }

    fn output(&self) -> Vec<(usize, usize, u64)> {
        self.log.clone()
    }
}

/// The edge graphs: n = 1 (no edges), n = 2 (one edge), a 3-path (fewer nodes than
/// the 7-thread smoke backend), a star and a "broom" (irregular degrees), and random
/// irregular graphs over several seeds.
fn edge_graphs() -> Vec<(String, PortGraph)> {
    let mut graphs = Vec::new();
    graphs.push((
        "single-node".to_string(),
        GraphBuilder::with_nodes(1).build().unwrap(),
    ));
    {
        let mut b = GraphBuilder::with_nodes(2);
        b.add_edge(0, 0, 1, 0).unwrap();
        graphs.push(("single-edge".to_string(), b.build().unwrap()));
    }
    graphs.push((
        "three-path".to_string(),
        generators::paper_three_node_line(),
    ));
    graphs.push(("star-6".to_string(), generators::star(6).unwrap()));
    {
        // Broom: path 0-1-2-3-4 plus two extra leaves on node 0 — one high-degree
        // node up front, exactly the shape degree-balanced chunking cuts after.
        let mut b = GraphBuilder::with_nodes(7);
        for i in 0..4u32 {
            let pu = if i == 0 { 0 } else { 1 };
            b.add_edge(i, pu, i + 1, 0).unwrap();
        }
        b.add_edge(0, 1, 5, 0).unwrap();
        b.add_edge(0, 2, 6, 0).unwrap();
        graphs.push(("broom".to_string(), b.build().unwrap()));
    }
    for seed in 0..4u64 {
        graphs.push((
            format!("random-irregular-{seed}"),
            generators::random_connected(23 + seed as usize, 6, 11, seed).unwrap(),
        ));
    }
    graphs
}

#[test]
fn all_backends_agree_on_edge_graphs_with_default_send() {
    for (name, g) in edge_graphs() {
        for rounds in [0usize, 1, 3] {
            let seq = Backend::Sequential.run(&g, &flood_factory, rounds);
            for backend in Backend::smoke_set() {
                let out = backend.run(&g, &flood_factory, rounds);
                assert_eq!(out.outputs, seq.outputs, "{name}, {backend}, r={rounds}");
                assert_eq!(out.report, seq.report, "{name}, {backend}, r={rounds}");
            }
        }
    }
}

#[test]
fn all_backends_agree_on_sparse_short_outboxes() {
    let factory = |degree: usize| Sparse {
        degree,
        log: Vec::new(),
    };
    for (name, g) in edge_graphs() {
        let seq = Backend::Sequential.run(&g, &factory, 4);
        for backend in Backend::smoke_set() {
            let out = backend.run(&g, &factory, 4);
            assert_eq!(out.outputs, seq.outputs, "{name}, {backend}");
            assert_eq!(out.report, seq.report, "{name}, {backend}");
        }
    }
}

#[test]
fn all_backends_agree_on_view_collection_with_overridden_send_into() {
    // `ViewCollector` overrides `send_into`, so this exercises the arena backends'
    // allocation-free fast path; views after r rounds must equal `B^r(v)` everywhere.
    for (name, g) in edge_graphs() {
        let seq = Backend::Sequential.run(&g, &ViewCollectorFactory, 2);
        for backend in Backend::smoke_set() {
            let out = backend.run(&g, &ViewCollectorFactory, 2);
            assert_eq!(out.outputs, seq.outputs, "{name}, {backend}");
            assert_eq!(out.report, seq.report, "{name}, {backend}");
        }
    }
}

#[test]
fn reports_count_messages_identically_on_an_irregular_family() {
    // On the star K_{1,6}, flooding delivers 2·m = 12 messages per round on every
    // backend; the explicit count pins the accounting (not just cross-equality).
    let g = generators::star(6).unwrap();
    for backend in Backend::smoke_set() {
        let out = backend.run(&g, &flood_factory, 3);
        assert_eq!(out.report.messages_delivered, 36, "{backend}");
        assert_eq!(out.report.rounds, 3, "{backend}");
    }
}
