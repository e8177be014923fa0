//! E2/E3 — the Theorem 2.2 Selection oracle/algorithm pair: end-to-end solve time
//! and advice size on random graphs and on `G_{Δ,k}` members, plus the oracle alone
//! at the 10⁴-node scale of the flood-select benchmark workload.
//!
//! Times `Solver::solve` directly (the engine's solver interface) rather than
//! `Election::run`, so the measurement covers oracle + simulation + decision, not
//! the Selection verifier. The `oracle_*` cases time
//! `SelectionOracle::advise_with_sizes` under each codec and record the advice's
//! tree and DAG sizes as metrics.
//!
//! Run with `cargo bench -p anet-bench --bench bench_selection`.

use anet_bench::Harness;
use anet_constructions::{GClass, GraphFamily};
use anet_election::advice::Oracle;
use anet_election::engine::{AdviceSolver, RunContext, Solver};
use anet_election::selection::SelectionOracle;
use anet_election::tasks::Task;
use anet_graph::{generators, PortGraph};
use anet_views::election_index::psi_s;
use anet_workloads::families::{RandomRegularFamily, TorusFamily};

fn solve(g: &PortGraph) -> usize {
    AdviceSolver::theorem_2_2()
        .solve(g, Task::Selection, &RunContext::default())
        .unwrap()
        .advice_bits
        .unwrap()
}

/// The first seed in `0..50` whose graph has a finite Selection index.
fn first_solvable(generate: impl Fn(u64) -> PortGraph) -> PortGraph {
    (0..50u64)
        .map(generate)
        .find(|g| psi_s(g).is_some())
        .expect("some seed gives a solvable graph")
}

fn main() {
    let mut h = Harness::new("selection_min_time");
    for n in [30usize, 100, 300] {
        let g = first_solvable(|s| generators::random_connected(n, 5, n / 2, s).unwrap());
        h.bench(&format!("random_n{n}"), 20, || solve(&g));
    }
    for (delta, k, i) in [(4usize, 1usize, 5u64), (5, 1, 20)] {
        let member = GClass::new(delta, k).unwrap().member(i).unwrap();
        h.bench(&format!("G_d{delta}_k{k}_i{i}"), 10, || {
            solve(&member.labeled.graph)
        });
    }
    let flood_select = [
        (
            "rr3_n10000",
            first_solvable(|s| RandomRegularFamily::new(3, vec![10_000], s).generate(10_000)),
        ),
        (
            "torus100x100",
            first_solvable(|s| {
                let family = TorusFamily::new(vec![(100, 100)]).shuffled(s);
                family.instances(1).swap_remove(0).graph
            }),
        ),
    ];
    for (name, g) in &flood_select {
        for oracle in [SelectionOracle::tree(), SelectionOracle::dag()] {
            h.bench(&format!("oracle_{}_{name}", oracle.codec), 10, || {
                oracle.advise_with_sizes(g).bits.len()
            });
        }
        let advice = SelectionOracle::dag().advise_with_sizes(g);
        let bits = |size: Option<usize>| size.expect("the advice is an encoded view") as i64;
        h.metric(&format!("tree_bits_{name}"), bits(advice.tree_bits));
        h.metric(&format!("dag_bits_{name}"), bits(advice.dag_bits));
    }
    h.report();
}
