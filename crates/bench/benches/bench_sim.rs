//! P1 — LOCAL-simulator round throughput: the full-information view collector across
//! all execution backends, plus the routing-phase hot path isolated on a large
//! `J_{2,4}` workload (the ROADMAP's n ≳ 10⁵ scaling target) with a constant-size
//! message algorithm, so the send → route → receive cycle — not view cloning —
//! dominates. Every backend runs the one arena round loop: the `seq_*` and
//! `batch_*` rows time the same inline phases, the `par4_*` and `adaptive_*` rows
//! add the chunked send/receive phases.
//!
//! Run with `cargo bench -p anet-bench --bench bench_sim`; set
//! `ANET_BENCH_JSON_DIR=<dir>` to also emit `BENCH_bench_sim_rounds.json`.

use anet_bench::Harness;
use anet_constructions::JClass;
use anet_graph::generators;
use anet_sim::{Backend, NodeAlgorithm, ViewCollectorFactory};

/// Flood-max over degrees with `usize` messages: every node broadcasts the largest
/// degree it has heard of on every port, every round. Message handling is O(1), so
/// the benchmark isolates the engine's message plumbing.
#[derive(Clone)]
struct Flood {
    best: usize,
}

impl NodeAlgorithm for Flood {
    type Message = usize;
    type Output = usize;

    fn send_into(&mut self, _round: usize, outbox: &mut [Option<usize>]) {
        for slot in outbox.iter_mut() {
            *slot = Some(self.best);
        }
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

fn main() {
    let mut h = Harness::new("sim_rounds");

    // Full-information collection: message payloads are whole views, so this measures
    // the backends under clone-heavy traffic.
    for (n, rounds) in [(200usize, 3usize), (1000, 3), (1000, 4)] {
        let g = generators::random_connected(n, 4, n / 2, 3).unwrap();
        for backend in [
            Backend::Sequential,
            Backend::parallel(4),
            Backend::Batching,
            Backend::AdaptiveParallel,
        ] {
            h.bench(&format!("views_{backend}_n{n}_r{rounds}"), 10, || {
                backend.run(&g, &ViewCollectorFactory, rounds).outputs.len()
            });
        }
    }

    // The routing-phase hot path at scale: the full J_{2,4} template (≈132k nodes)
    // under constant-size flooding, inline (`seq`, `batch`) and chunked (`adaptive`).
    let class = JClass::new(2, 4).unwrap();
    let j_graph = class.template(None).unwrap().labeled.graph;
    let n = j_graph.num_nodes();
    let rounds = 4;
    for backend in [
        Backend::Sequential,
        Backend::Batching,
        Backend::AdaptiveParallel,
    ] {
        h.bench(&format!("routing_J24_{backend}_n{n}_r{rounds}"), 5, || {
            backend
                .run(&j_graph, &flood_factory, rounds)
                .report
                .messages_delivered
        });
    }

    h.report();
}
