//! Old-vs-new election-index equivalence: the class-quotient search
//! (`pe_assignment` / `ppe_assignment_with` / `cppe_assignment_with` and the ψ
//! drivers)
//! against the retained pre-quotient `*_enumerated` oracles.
//!
//! The contract under test: wherever the bounded enumeration *resolves* (returns
//! `Ok`), the quotient search resolves to the same answer — same ψ values, same
//! existence verdict per (depth, leader). Where the enumeration exhausts its
//! budget, the quotient search may still answer (that is the whole point of the
//! refactor), so a budget error on the old side never constrains the new side.
//! Concrete PPE/CPPE port sequences are *not* compared — the tasks admit many
//! valid assignments and the two searches pick different ones; instead the new
//! side's sequences are re-validated against the task predicates. PE is the
//! exception: its port-by-port tie-break is deliberately identical, so the
//! assignments must match exactly.

use four_shades::constructions::{GClass, JClass};
use four_shades::graph::rng::Rng;
use four_shades::graph::{generators, PortGraph};
use four_shades::prelude::*;
use four_shades::views::election_index::{
    cppe_assignment_enumerated, cppe_assignment_with, pe_assignment, pe_assignment_enumerated,
    ppe_assignment_enumerated, ppe_assignment_with, ppe_election, psi_cppe, psi_cppe_enumerated,
    psi_ppe, psi_ppe_enumerated, IndexError,
};
use four_shades::views::paths::{cppe_sequence_is_valid, ppe_sequence_is_valid};
use four_shades::views::{QuotientSearch, Refinement};
use four_shades::workloads::{CirculantFamily, HypercubeFamily, RandomRegularFamily, TorusFamily};

/// The shared path budget (the map solver's default).
const BUDGET: usize = 50_000;

/// Small graphs on which the enumeration oracle terminates comfortably: the
/// paper's constructions, the classic generator shapes (symmetric and
/// symmetry-broken), and seed-shuffled instances of every workload family.
fn corpus() -> Vec<(String, PortGraph)> {
    let mut out: Vec<(String, PortGraph)> = vec![
        (
            "three-node line".into(),
            generators::paper_three_node_line(),
        ),
        ("path-6".into(), generators::path(6).unwrap()),
        ("ring-6".into(), generators::symmetric_ring(6).unwrap()),
        (
            "oriented-ring".into(),
            generators::oriented_ring(&[true, true, false, true, false]).unwrap(),
        ),
        (
            "alternating-cycle-6".into(),
            generators::alternating_cycle(6).unwrap(),
        ),
        ("star-4".into(), generators::star(4).unwrap()),
        ("K5".into(), generators::complete(5).unwrap()),
        ("hypercube-3".into(), generators::hypercube(3).unwrap()),
        (
            "full-tree-2-3".into(),
            generators::full_tree(2, 3).unwrap().0,
        ),
    ];
    let g_member = GClass::new(4, 1).unwrap().member(2).unwrap();
    out.push(("G_{4,1} member 2".into(), g_member.labeled.graph));
    let j_member = JClass::new(2, 4).unwrap().template(Some(2)).unwrap();
    out.push(("J_{2,4} chain 2".into(), j_member.labeled.graph));
    let families: Vec<Box<dyn GraphFamily>> = vec![
        Box::new(RandomRegularFamily::new(3, vec![10, 14], 0xA5EED)),
        Box::new(TorusFamily::new(vec![(3, 4)]).shuffled(41)),
        Box::new(HypercubeFamily::new(vec![3]).shuffled(41)),
        Box::new(CirculantFamily::powers_of_two(vec![15], 3).shuffled(41)),
    ];
    for f in &families {
        for inst in f.instances(2) {
            out.push((inst.name.clone(), inst.graph));
        }
    }
    out
}

/// `Ok` on the old side forces the same `Ok` on the new side; an old-side budget
/// error leaves the new side free (it may resolve, or report its own budget).
fn assert_superset<T: PartialEq + std::fmt::Debug>(
    name: &str,
    what: &str,
    old: &Result<T, IndexError>,
    new: &Result<T, IndexError>,
) {
    match (old, new) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{name}: {what} disagree"),
        (Ok(a), Err(e)) => {
            panic!("{name}: {what}: enumeration resolved {a:?} but quotient search errored: {e}")
        }
        (Err(_), _) => {} // old budget exhausted: the oracle has no opinion
    }
}

#[test]
fn pe_assignments_match_the_oracle_exactly() {
    for (name, g) in corpus() {
        let r = Refinement::compute(&g, None);
        for h in 0..=r.stable_depth() {
            for leader in r.unique_nodes_at(h) {
                assert_eq!(
                    pe_assignment(&g, &r, h, leader),
                    pe_assignment_enumerated(&g, &r, h, leader),
                    "{name}: PE assignment at depth {h}, leader {leader}"
                );
            }
        }
    }
}

#[test]
fn strong_psi_values_match_the_oracle() {
    for (name, g) in corpus() {
        assert_superset(
            &name,
            "ψ_PPE",
            &psi_ppe_enumerated(&g, BUDGET),
            &psi_ppe(&g, BUDGET),
        );
        assert_superset(
            &name,
            "ψ_CPPE",
            &psi_cppe_enumerated(&g, BUDGET),
            &psi_cppe(&g, BUDGET),
        );
    }
}

#[test]
fn strong_assignment_existence_matches_the_oracle_depthwise() {
    for (name, g) in corpus() {
        let r = Refinement::compute(&g, None);
        for h in 0..=r.stable_depth() {
            // A few leaders per depth keep the oracle side affordable.
            for leader in r.unique_nodes_at(h).into_iter().take(3) {
                let old = ppe_assignment_enumerated(&g, &r, h, leader, BUDGET);
                let new = ppe_assignment_with(&mut QuotientSearch::new(&g, &r), h, leader, BUDGET);
                assert_superset(
                    &name,
                    &format!("PPE existence at depth {h}, leader {leader}"),
                    &old.map(|a| a.is_some()),
                    &new.as_ref().map(|a| a.is_some()).map_err(|e| e.clone()),
                );
                // The sequences themselves may differ — but the new side's must
                // satisfy the task predicate for every node.
                if let Ok(Some(assignment)) = &new {
                    for v in g.nodes().filter(|&v| v != leader) {
                        let ports = assignment[v as usize].as_ref().unwrap();
                        assert!(
                            ppe_sequence_is_valid(&g, v, ports, leader),
                            "{name}: invalid PPE sequence at node {v}"
                        );
                    }
                }
                let old = cppe_assignment_enumerated(&g, &r, h, leader, BUDGET);
                let new = cppe_assignment_with(&mut QuotientSearch::new(&g, &r), h, leader, BUDGET);
                assert_superset(
                    &name,
                    &format!("CPPE existence at depth {h}, leader {leader}"),
                    &old.map(|a| a.is_some()),
                    &new.as_ref().map(|a| a.is_some()).map_err(|e| e.clone()),
                );
                if let Ok(Some(assignment)) = &new {
                    for v in g.nodes().filter(|&v| v != leader) {
                        let pairs = assignment[v as usize].as_ref().unwrap();
                        assert!(
                            cppe_sequence_is_valid(&g, v, pairs, leader),
                            "{name}: invalid CPPE sequence at node {v}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn random_regular_psi_equivalence_property() {
    // Seeded SplitMix64 property loop: every case reproducible from its index.
    for case in 0..12u64 {
        let mut rng = Rng::seed(0x1DEA ^ case);
        let n = 2 * rng.gen_range(4..9); // 3-regular needs even n; 8 ≤ n ≤ 16
        let seed = rng.next_u64();
        let fam = RandomRegularFamily::new(3, vec![n], seed);
        let g = fam.instances(1).remove(0).graph;
        assert_superset(
            &format!("rr case {case} (n={n})"),
            "ψ_PPE",
            &psi_ppe_enumerated(&g, BUDGET),
            &psi_ppe(&g, BUDGET),
        );
        assert_superset(
            &format!("rr case {case} (n={n})"),
            "ψ_CPPE",
            &psi_cppe_enumerated(&g, BUDGET),
            &psi_cppe(&g, BUDGET),
        );
    }
}

/// The map solver runs ψ's own least-depth loop: it resolves what `psi_ppe`
/// resolves, in ψ_PPE rounds, and reports the search work of `ppe_election` on a
/// fresh search.
#[test]
fn the_map_solver_resolves_what_psi_resolves_with_psis_search_work() {
    let ppe = Election::task(Task::PortPathElection).solver(MapSolver::default());
    // bench_index's circulant n=256.
    let circulant = CirculantFamily::powers_of_two(vec![256], 3)
        .shuffled(41)
        .instances(1)
        .remove(0)
        .graph;
    let psi = psi_ppe(&circulant, BUDGET);
    assert_eq!(psi, Ok(Some(1)));
    let report = ppe
        .run(&circulant)
        .expect("ψ_PPE resolves, so the solver does");
    assert!(report.solved());
    assert_eq!(Some(report.rounds), psi.unwrap());
    // The smoke grid's rr-16.
    let rr = RandomRegularFamily::new(3, vec![16], 0xA5EED)
        .instances(1)
        .remove(0)
        .graph;
    let r = Refinement::compute(&rr, None);
    let mut search = QuotientSearch::new(&rr, &r);
    let (depth, _, _) = ppe_election(&mut search, BUDGET)
        .unwrap()
        .expect("rr-16 admits a PPE");
    let report = ppe.run(&rr).unwrap();
    assert_eq!(report.rounds, depth);
    assert_eq!(report.search, search.stats());
}

/// The search's guided-merge cache is keyed by path budget as well as depth: an
/// outcome left inconclusive by a starved budget never answers for a larger one.
#[test]
fn cached_merge_outcomes_do_not_outlive_their_budget() {
    let g = RandomRegularFamily::new(3, vec![128], 0xA5EED)
        .instances(1)
        .remove(0)
        .graph;
    let r = Refinement::compute(&g, None);
    let mut reused = QuotientSearch::new(&g, &r);
    assert_eq!(
        ppe_assignment_with(&mut reused, 2, 0, 1),
        Err(IndexError::PathBudgetExceeded { max_paths: 1 })
    );
    let after = ppe_assignment_with(&mut reused, 2, 0, BUDGET);
    let fresh = ppe_assignment_with(&mut QuotientSearch::new(&g, &r), 2, 0, BUDGET);
    assert!(matches!(fresh, Ok(Some(_))), "{fresh:?}");
    assert_eq!(after, fresh);
}
