//! E2/E3 — the Theorem 2.2 Selection oracle/algorithm pair: end-to-end solve time
//! and advice size on random graphs and on `G_{Δ,k}` members.
//!
//! Times `Solver::solve` directly (the engine's solver interface) rather than
//! `Election::run`, so the measurement covers oracle + simulation + decision, not
//! the Selection verifier.
//!
//! Run with `cargo bench -p anet-bench --bench bench_selection`.

use anet_bench::Harness;
use anet_constructions::GClass;
use anet_election::engine::{AdviceSolver, RunContext, Solver};
use anet_election::tasks::Task;
use anet_graph::generators;

fn solve(g: &anet_graph::PortGraph) -> usize {
    AdviceSolver::theorem_2_2()
        .solve(g, Task::Selection, &RunContext::default())
        .unwrap()
        .advice_bits
        .unwrap()
}

fn main() {
    let mut h = Harness::new("selection_min_time");
    for n in [30usize, 100, 300] {
        let g = (0..50u64)
            .map(|s| generators::random_connected(n, 5, n / 2, s).unwrap())
            .find(|g| anet_views::election_index::psi_s(g).is_some())
            .expect("some random graph of this size is solvable");
        h.bench(&format!("random_n{n}"), 20, || solve(&g));
    }
    for (delta, k, i) in [(4usize, 1usize, 5u64), (5, 1, 20)] {
        let member = GClass::new(delta, k).unwrap().member(i).unwrap();
        h.bench(&format!("G_d{delta}_k{k}_i{i}"), 10, || {
            solve(&member.labeled.graph)
        });
    }
    h.report();
}
