//! Randomised property tests on the core data structures and invariants: random
//! port-numbered graphs, views, refinement, encodings, port permutations, the LOCAL
//! simulator backends, and the election verifiers.
//!
//! No external property-testing framework is available in this build environment, so
//! the properties are driven by explicit seed loops over the deterministic
//! [`four_shades::graph::rng::Rng`]: every case is reproducible from its loop index.

use four_shades::graph::rng::Rng;
use four_shades::graph::{generators, permute, PortGraph};
use four_shades::prelude::*;
use four_shades::sim::{Backend, ViewCollectorFactory};
use four_shades::views::election_index::{compute_all, feasibility, psi_s};
use four_shades::views::{Refinement, View, ViewCodec, ViewTree};

const CASES: u64 = 32;

/// Derive random-graph parameters (n ∈ [4, 18), Δ ∈ [3, 6), extra ∈ [0, 8)) from a
/// case index, plus the seed for the generator itself.
fn params(case: u64) -> (usize, usize, usize, u64) {
    let mut rng = Rng::seed(0xF0_0D ^ case);
    (
        rng.gen_range(4..18),
        rng.gen_range(3..6),
        rng.gen_range(0..8),
        rng.next_u64(),
    )
}

fn build(case: u64) -> PortGraph {
    let (n, max_deg, extra, seed) = params(case);
    generators::random_connected(n, max_deg, extra, seed).expect("generator produces valid graphs")
}

/// The generator must always satisfy the model invariants (they are re-validated by
/// `PortGraph::from_adjacency`, so re-building from the raw adjacency must succeed).
#[test]
fn generated_graphs_are_valid() {
    for case in 0..CASES {
        let (n, max_deg, _, _) = params(case);
        let g = build(case);
        assert_eq!(g.num_nodes(), n);
        assert!(g.max_degree() <= max_deg);
        let rebuilt = PortGraph::from_adjacency(g.clone().into_adjacency()).unwrap();
        assert_eq!(rebuilt, g, "case {case}");
    }
}

/// Refinement classes coincide with explicit view-tree equality at every depth.
#[test]
fn refinement_equals_view_tree_equality() {
    for case in 0..CASES / 2 {
        let g = build(case);
        let depth = (case % 4) as usize;
        let r = Refinement::compute(&g, Some(depth));
        let views: Vec<ViewTree> = g.nodes().map(|v| ViewTree::build(&g, v, depth)).collect();
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    r.same_view(u, v, depth),
                    views[u as usize] == views[v as usize],
                    "case {case}: nodes {u} and {v} at depth {depth}"
                );
            }
        }
    }
}

/// View encoding round-trips for every node and depth.
#[test]
fn view_encoding_round_trips() {
    for case in 0..CASES / 2 {
        let g = build(case);
        let depth = (case % 4) as usize;
        for v in g.nodes() {
            let view = ViewTree::build(&g, v, depth);
            let bits = ViewCodec::Tree.encode(&View::from_tree(&view), depth, None);
            let (decoded, h) = ViewCodec::Tree.decode(&bits, None).unwrap();
            assert_eq!(h, depth, "case {case}");
            assert_eq!(decoded.to_tree(), view, "case {case}, node {v}");
        }
    }
}

/// Relabelling nodes (a port-preserving isomorphism) changes nothing an anonymous
/// algorithm can observe: feasibility, ψ_S and the multiset of view classes.
#[test]
fn node_relabelling_is_invisible() {
    for case in 0..CASES {
        let g = build(case);
        let mut rng = Rng::seed(params(case).3 ^ 0xABCD);
        let mut perm: Vec<u32> = (0..g.num_nodes() as u32).collect();
        rng.shuffle(&mut perm);
        let h = permute::relabel_nodes(&g, &perm).unwrap();
        assert!(permute::is_port_isomorphism(&g, &h, &perm), "case {case}");
        assert_eq!(psi_s(&g), psi_s(&h), "case {case}");
        assert_eq!(
            feasibility(&g).feasible,
            feasibility(&h).feasible,
            "case {case}"
        );
        let rg = Refinement::compute(&g, Some(2));
        let rh = Refinement::compute(&h, Some(2));
        assert_eq!(rg.num_classes_at(2), rh.num_classes_at(2), "case {case}");
    }
}

/// The LOCAL simulator's full-information collector assembles exactly `B^r(v)` — as a
/// shared `View` handle structurally identical to the owned construction — on every
/// execution backend.
#[test]
fn simulator_collects_exact_views() {
    for case in 0..CASES / 2 {
        let g = build(case);
        let rounds = (case % 3) as usize;
        for backend in Backend::smoke_set() {
            let outcome = backend.run(&g, &ViewCollectorFactory, rounds);
            for v in g.nodes() {
                assert_eq!(
                    outcome.outputs[v as usize].to_tree(),
                    ViewTree::build(&g, v, rounds),
                    "case {case}, node {v}, backend {backend}"
                );
            }
        }
    }
}

/// Fact 1.1 (the hierarchy) holds on random graphs, and all four tasks, when
/// solvable, are solved correctly through the `ElectionEngine` in exactly their
/// index.
#[test]
fn hierarchy_and_engine_map_baseline_agree() {
    for case in 0..CASES / 2 {
        let g = build(case);
        let idx = compute_all(&g, 50_000).unwrap();
        assert!(idx.satisfies_hierarchy(), "case {case}");
        for (task, expected) in [
            (Task::Selection, idx.s),
            (Task::PortElection, idx.pe),
            (Task::PortPathElection, idx.ppe),
            (Task::CompletePortPathElection, idx.cppe),
        ] {
            match Election::task(task).solver(MapSolver::default()).run(&g) {
                Ok(report) => {
                    assert_eq!(Some(report.rounds), expected, "case {case}, {task}");
                    assert!(report.solved(), "case {case}, {task}");
                }
                Err(_) => assert_eq!(expected, None, "case {case}, {task}"),
            }
        }
    }
}

/// A correct CPPE solution, weakened per Fact 1.1, stays correct for every weaker
/// task: the same outputs are transformed with `weaken_outputs` and re-verified
/// (this exercises the weakening itself, not the map solver's native weaker-shade
/// solutions).
#[test]
fn weakenings_preserve_correctness() {
    use four_shades::election::tasks::{verify, weaken_outputs};
    for case in 0..CASES / 2 {
        let g = build(case);
        let Ok(report) = Election::task(Task::CompletePortPathElection)
            .solver(MapSolver::default())
            .run(&g)
        else {
            continue;
        };
        if !report.solved() {
            continue;
        }
        for task in [Task::PortPathElection, Task::PortElection, Task::Selection] {
            let weak = weaken_outputs(&report.outputs, task).expect("weakening defined");
            verify(task, &g, &weak)
                .unwrap_or_else(|e| panic!("case {case}, {task}: weakened outputs invalid: {e}"));
        }
    }
}

/// Theorem 2.2 end to end on random graphs: whenever ψ_S is finite, the oracle and
/// algorithm solve Selection in exactly ψ_S rounds (through the engine).
#[test]
fn selection_with_advice_on_random_graphs() {
    for case in 0..CASES {
        let g = build(case);
        if let Some(psi) = psi_s(&g) {
            let report = Election::task(Task::Selection)
                .solver(AdviceSolver::theorem_2_2())
                .run(&g)
                .unwrap();
            assert_eq!(report.rounds, psi, "case {case}");
            assert!(report.solved(), "case {case}");
            assert!(report.advice_bits.is_some(), "case {case}");
        }
    }
}

/// Swapping two ports at a node and swapping them back restores the original graph.
#[test]
fn port_swaps_are_involutions() {
    for case in 0..CASES {
        let g = build(case);
        let mut rng = Rng::seed(0x5AA5 ^ case);
        let v = rng.below(g.num_nodes()) as u32;
        let deg = g.degree(v) as u32;
        if deg >= 2 {
            let (a, b) = (
                rng.below(deg as usize) as u32,
                rng.below(deg as usize) as u32,
            );
            let once = permute::swap_ports(&g, v, a, b).unwrap();
            let twice = permute::swap_ports(&once, v, a, b).unwrap();
            assert_eq!(twice, g, "case {case}");
        }
    }
}
