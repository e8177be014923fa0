//! End-to-end tests of the shared-DAG view codec across the workload families and
//! through the engine: on every family the DAG codec agrees with the tree codec
//! (identical decoded views, identical election outputs), on symmetric
//! topologies the DAG advice realises the `Θ(Δ^h)` → `O(distinct subtrees)` size
//! collapse the codec exists for, and the Theorem 2.2 oracle's advice under both
//! codecs is the encoding of the smallest unique view found by building every view.

use four_shades::constructions::GraphFamily;
use four_shades::election::advice::Oracle;
use four_shades::election::selection::SelectionOracle;
use four_shades::graph::{generators, rng::Rng, PortGraph};
use four_shades::prelude::*;
use four_shades::views::dag_encoding::{decode_view_dag, encode_view_dag};
use four_shades::views::election_index::psi_s;
use four_shades::views::encoding::{decode_view_interned, encode_view_interned};
use four_shades::views::{BitString, Refinement, ViewCodec, ViewInterner};
use four_shades::workloads::{CirculantFamily, HypercubeFamily, RandomRegularFamily, TorusFamily};

fn workload_families() -> Vec<Box<dyn GraphFamily>> {
    vec![
        Box::new(RandomRegularFamily::new(3, vec![16, 24], 0xA5EED)),
        Box::new(TorusFamily::new(vec![(3, 4), (4, 4)]).shuffled(41)),
        Box::new(HypercubeFamily::new(vec![3, 4]).shuffled(41)),
        Box::new(CirculantFamily::powers_of_two(vec![15, 24], 3).shuffled(41)),
    ]
}

#[test]
fn dag_codec_round_trips_and_agrees_with_the_tree_codec_on_all_workload_families() {
    for family in workload_families() {
        for instance in family.instances(2) {
            let g = &instance.graph;
            let mut interner = ViewInterner::new();
            for depth in 0..=3usize {
                for view in interner.build_all(g, depth) {
                    let dag = encode_view_dag(&view, depth);
                    let (from_dag, dh) = decode_view_dag(&dag).unwrap();
                    let (from_tree, th) =
                        decode_view_interned(&encode_view_interned(&view, depth)).unwrap();
                    assert_eq!((dh, th), (depth, depth), "{}", instance.name);
                    assert_eq!(from_dag, view, "{}", instance.name);
                    assert_eq!(from_dag, from_tree, "{}", instance.name);
                }
            }
        }
    }
}

#[test]
fn dag_advice_solver_matches_the_tree_solver_on_every_workload_family() {
    for family in workload_families() {
        for instance in family.instances(1) {
            let g = &instance.graph;
            let tree = Election::task(Task::Selection)
                .solver(AdviceSolver::theorem_2_2())
                .run(g)
                .unwrap();
            let dag = Election::task(Task::Selection)
                .solver(AdviceSolver::theorem_2_2_dag())
                .run(g)
                .unwrap();
            assert!(tree.solved() && dag.solved(), "{}", instance.name);
            assert_eq!(tree.outputs, dag.outputs, "{}", instance.name);
            assert_eq!(tree.rounds, dag.rounds, "{}", instance.name);
            assert_eq!(tree.leader(), dag.leader(), "{}", instance.name);
            // Both report both sizes; each ships its own codec's size.
            assert_eq!(tree.advice_bits, tree.advice_tree_bits, "{}", instance.name);
            assert_eq!(dag.advice_bits, dag.advice_dag_bits, "{}", instance.name);
            assert_eq!(
                tree.advice_dag_bits, dag.advice_dag_bits,
                "{}",
                instance.name
            );
        }
    }
}

#[test]
fn the_collapse_is_exponential_on_a_symmetric_family() {
    // Canonical (unshuffled) tori are fully symmetric: every node shares one view
    // node per depth, so dag-bits grow O(h) while tree-bits multiply by Δ − 1 ≈ 3
    // per depth. Measured on the 6×6 torus over depths 1..=8.
    let torus = TorusFamily::generate(6, 6);
    let mut interner = ViewInterner::new();
    let mut tree_sizes = Vec::new();
    let mut dag_sizes = Vec::new();
    for h in 1..=8usize {
        let view = interner.build_all(&torus, h).swap_remove(0);
        tree_sizes.push(encode_view_interned(&view, h).len());
        dag_sizes.push(encode_view_dag(&view, h).len());
    }
    // Tree: × ≥ 3 per depth once branching kicks in; DAG: bounded additive step.
    for w in tree_sizes.windows(2).skip(1) {
        assert!(w[1] >= 3 * w[0], "tree bits grew {} -> {}", w[0], w[1]);
    }
    for w in dag_sizes.windows(2) {
        assert!(
            w[1] >= w[0] && w[1] - w[0] <= 128,
            "dag bits grew {} -> {}",
            w[0],
            w[1]
        );
    }
    // At depth 8 the gap is ~three orders of magnitude (cf. BENCH_bench_views.json).
    assert!(
        tree_sizes[7] > 500 * dag_sizes[7],
        "tree {} vs dag {}",
        tree_sizes[7],
        dag_sizes[7]
    );
}

/// The Theorem 2.2 advice as the oracle once computed it: every node's depth-`ψ_S`
/// view built, the smallest of the unique ones chosen, and its tree and DAG
/// encodings. `None` when `ψ_S` is infinite.
fn reference_advice(g: &PortGraph) -> Option<(BitString, BitString)> {
    let psi = psi_s(g)?;
    let views = ViewInterner::new().build_all(g, psi);
    let chosen = Refinement::compute(g, Some(psi))
        .unique_nodes_at(psi)
        .into_iter()
        .map(|v| views[v as usize].clone())
        .min()
        .expect("ψ_S is a depth with a unique view");
    Some((
        encode_view_interned(&chosen, psi),
        encode_view_dag(&chosen, psi),
    ))
}

/// The oracle reads its leader off the refinement and builds only that view; its
/// advice must stay bit for bit what building every view gives, on the shapes the
/// benchmark workloads run (shuffled tori, circulants and hypercubes, random
/// 3-regular graphs up to ~10³ nodes, where `ψ_S` is 1, and a 64 × 64 torus, where
/// it is 2), on random connected graphs, and on randomly oriented rings, whose
/// `ψ_S` of 2–4 makes the oracle's descent cross several levels.
#[test]
fn selection_oracle_advice_matches_the_every_view_reference() {
    let families: Vec<Box<dyn GraphFamily>> = vec![
        Box::new(RandomRegularFamily::new(3, vec![64, 256, 1024], 0x5E1EC7)),
        Box::new(RandomRegularFamily::new(3, vec![96, 512], 0xA5EED)),
        Box::new(TorusFamily::new(vec![(4, 5), (8, 8), (16, 16), (32, 32)]).shuffled(7)),
        Box::new(TorusFamily::new(vec![(6, 6), (12, 20), (24, 24), (64, 64)]).shuffled(3)),
        Box::new(CirculantFamily::powers_of_two(vec![48, 256, 1024], 3).shuffled(7)),
        Box::new(CirculantFamily::powers_of_two(vec![32, 96, 512], 2).shuffled(41)),
        Box::new(HypercubeFamily::new(vec![4, 6, 8]).shuffled(7)),
    ];
    let mut graphs: Vec<(String, PortGraph)> = families
        .iter()
        .flat_map(|family| family.instances(4))
        .map(|instance| (instance.name, instance.graph))
        .collect();
    for (n, seed) in (0..24u64).map(|seed| (12 + 6 * (seed as usize % 6), seed)) {
        let g = generators::random_connected(n, 5, n / 2, seed).expect("valid graph");
        graphs.push((format!("random_connected n={n} seed={seed}"), g));
        let g = generators::random_connected(8 * n, 3, seed as usize % 3, seed).expect("valid");
        graphs.push((
            format!("sparse random_connected n={} seed={seed}", 8 * n),
            g,
        ));
    }
    let mut rng = Rng::seed(0x0DD5);
    for n in [24usize, 48, 96, 200, 400, 800] {
        let orientation: Vec<bool> = (0..n).map(|_| rng.next_u64() & 1 == 1).collect();
        let g = generators::oriented_ring(&orientation).expect("valid ring");
        graphs.push((format!("oriented ring n={n}"), g));
    }
    let mut compared = 0;
    for (name, g) in &graphs {
        let reference = reference_advice(g);
        for codec in [ViewCodec::Tree, ViewCodec::Dag] {
            let (tree, dag, advice) = match (&reference, SelectionOracle { codec }.try_advise(g)) {
                (Some((tree, dag)), Some(advice)) => (tree, dag, advice),
                (None, None) => continue,
                (_, advice) => panic!("{name}: {codec}: the oracle answers {advice:?}"),
            };
            let shipped = match codec {
                ViewCodec::Tree => tree,
                ViewCodec::Dag => dag,
                ViewCodec::Delta => unreachable!("the reference covers the tree and dag pairs"),
            };
            assert_eq!(&advice.bits, shipped, "{name}: {codec} advice");
            assert_eq!(advice.tree_bits, Some(tree.len()), "{name}: {codec}");
            assert_eq!(advice.dag_bits, Some(dag.len()), "{name}: {codec}");
            // The panicking entry is the same advice.
            assert_eq!(&SelectionOracle { codec }.advise(g), shipped, "{name}");
            compared += 1;
        }
    }
    assert!(
        compared >= 140,
        "only {compared} (graph, codec) pairs had finite ψ_S"
    );
}
