//! P1 — performance of the views machinery: refinement, view construction (owned vs
//! interned/shared), full-information collection (owned vs shared messages), and the
//! two advice encodings (Theorem 2.2's data path): the unfolded-tree codec and the
//! shared-DAG codec, timed side by side and with their sizes recorded as metrics
//! (`tree_bits_*` / `dag_bits_*`) so the `Θ(Δ^h)` → `O(distinct subtrees)` advice
//! collapse shows up in the artifact trail.
//!
//! The `full_info_{owned,shared}_*` pairs measure the PR-4 refactor directly: the
//! owned collector is the seed's `ViewTree`-message implementation (deep clone per
//! port per round, `Θ(m · Δ^r)` node copies), the shared collector is the production
//! `ViewCollectorFactory` (an `Arc` bump per port, `O(deg)` graft per receive). Run
//! at depth 3 on ≥10k-node symmetric workloads (2D torus, random 3-regular), where
//! the owned clone traffic dominates.
//!
//! Run with `cargo bench -p anet-bench --bench bench_views`. Set
//! `ANET_BENCH_JSON_DIR=<dir>` to also emit `BENCH_bench_views.json`
//! (schema `anet-bench/v1`).

use anet_bench::suite::scaling_suite;
use anet_bench::Harness;
use anet_constructions::GraphFamily;
use anet_graph::{Port, PortGraph};
use anet_sim::{AlgorithmFactory, Backend, NodeAlgorithm, ViewCollectorFactory};
use anet_views::dag_encoding::{decode_view_dag, encode_view_dag};
use anet_views::encoding::{decode_view, encode_view, encode_view_interned};
use anet_views::{Refinement, View, ViewInterner, ViewTree};
use anet_workloads::families::{RandomRegularFamily, TorusFamily};

/// The seed's owned full-information collector, kept verbatim for the comparison:
/// every send deep-clones the current `ViewTree` once per port.
struct OwnedViewCollector {
    degree: usize,
    view: ViewTree,
}

impl NodeAlgorithm for OwnedViewCollector {
    type Message = (Port, ViewTree);
    type Output = usize;

    fn send_into(&mut self, _round: usize, outbox: &mut [Option<(Port, ViewTree)>]) {
        for (p, slot) in outbox.iter_mut().enumerate() {
            *slot = Some((p as Port, self.view.clone()));
        }
    }

    fn receive(&mut self, _round: usize, inbox: &mut [Option<(Port, ViewTree)>]) {
        let children = inbox
            .iter_mut()
            .enumerate()
            .map(|(p, msg)| {
                let (far_port, far_view) = msg.take().expect("every neighbour sends");
                (p as Port, far_port, far_view)
            })
            .collect();
        self.view = ViewTree {
            degree: self.degree as u32,
            children,
        };
    }

    fn output(&self) -> usize {
        self.view.size()
    }
}

struct OwnedViewCollectorFactory;

impl AlgorithmFactory for OwnedViewCollectorFactory {
    type Algo = OwnedViewCollector;

    fn create(&self, degree: usize) -> OwnedViewCollector {
        OwnedViewCollector {
            degree,
            view: ViewTree {
                degree: degree as u32,
                children: Vec::new(),
            },
        }
    }
}

/// Owned-vs-shared full-information collection on one workload graph.
fn bench_collection(h: &mut Harness, tag: &str, g: &PortGraph, depth: usize) {
    h.bench(&format!("full_info_owned_{tag}_d{depth}"), 3, || {
        Backend::Sequential
            .run(g, &OwnedViewCollectorFactory, depth)
            .outputs
            .len()
    });
    h.bench(&format!("full_info_shared_{tag}_d{depth}"), 3, || {
        Backend::Sequential
            .run(g, &ViewCollectorFactory, depth)
            .outputs
            .len()
    });
    h.bench(&format!("full_info_shared_batch_{tag}_d{depth}"), 3, || {
        Backend::Batching
            .run(g, &ViewCollectorFactory, depth)
            .outputs
            .len()
    });
}

fn main() {
    let mut h = Harness::new("views");
    for item in scaling_suite(&[50, 200, 800]) {
        let g = item.graph;
        h.bench(
            &format!("refinement_to_stability_n{}", g.num_nodes()),
            20,
            || Refinement::compute(&g, None).stable_depth(),
        );
    }
    for item in scaling_suite(&[200, 800, 2000]) {
        let g = item.graph;
        h.bench(
            &format!("refinement_until_unique_n{}", g.num_nodes()),
            20,
            || Refinement::compute_until_unique(&g).computed_depth(),
        );
    }

    // Owned vs interned map-side construction: `ViewTree::build` materialises Δ^depth
    // nodes for one root; `ViewInterner::build_all` produces the views of *all* nodes
    // in O(n · depth · Δ) handle operations.
    let g = anet_graph::generators::random_connected(500, 5, 300, 7).unwrap();
    for depth in [1usize, 2, 3, 4] {
        h.bench(&format!("view_tree_build_depth{depth}"), 10, || {
            ViewTree::build(&g, 0, depth).size()
        });
        h.bench(&format!("view_interned_build_all_depth{depth}"), 10, || {
            ViewInterner::new().build_all(&g, depth).len()
        });
    }

    // The PR-4 comparison: full-information collection at depth 3 on ≥10k-node
    // workloads — a 105×100 torus (10500 nodes, Δ = 4, seed-shuffled ports like the
    // scenario grids) and a random 3-regular graph (10000 nodes).
    let torus = TorusFamily::new(vec![(105, 100)])
        .shuffled(41)
        .instances(1)
        .remove(0)
        .graph;
    bench_collection(&mut h, "torus105x100", &torus, 3);
    let rr = RandomRegularFamily::new(3, vec![10_000], 0xA5EED).generate(10_000);
    bench_collection(&mut h, "rr3_n10000", &rr, 3);

    let g = anet_graph::generators::random_connected(200, 5, 100, 9).unwrap();
    let view = ViewTree::build(&g, 0, 3);
    let encoded = encode_view(&view, 3);
    h.bench("encode_depth3", 20, || encode_view(&view, 3).len());
    h.bench("decode_depth3", 20, || decode_view(&encoded).unwrap().1);

    // The DAG codec on the same view: encode (incl. the hash-consing pass), decode
    // (incl. re-sharing), and the size of each wire form.
    let shared = View::build(&g, 0, 3);
    let dag_encoded = encode_view_dag(&shared, 3);
    h.bench("dag_encode_depth3", 20, || {
        encode_view_dag(&shared, 3).len()
    });
    h.bench("dag_decode_depth3", 20, || {
        decode_view_dag(&dag_encoded).unwrap().1
    });
    h.metric("tree_bits_random_n200_d3", encoded.len() as i64);
    h.metric("dag_bits_random_n200_d3", dag_encoded.len() as i64);

    // Tree-bits vs dag-bits on a fully symmetric workload (canonical 9×9 torus):
    // the interner holds one node per depth, so the DAG size grows linearly in the
    // depth while the unfolded tree size grows like 4·3^{h-1}. These metrics are the
    // measured form of the `Θ(Δ^h)` → `O(distinct subtrees)` advice collapse.
    let torus = TorusFamily::generate(9, 9);
    let views = ViewInterner::new().build_all(&torus, 8);
    let symmetric = &views[0];
    for depth in [2usize, 4, 6, 8] {
        let truncated = symmetric.truncated(depth);
        h.metric(
            &format!("tree_bits_torus9x9_d{depth}"),
            encode_view_interned(&truncated, depth).len() as i64,
        );
        h.metric(
            &format!("dag_bits_torus9x9_d{depth}"),
            encode_view_dag(&truncated, depth).len() as i64,
        );
    }
    h.report();
}
