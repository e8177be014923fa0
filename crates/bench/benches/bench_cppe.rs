//! E5 — the Lemma 4.8 CPPE algorithm on chains of gadgets from `J_{μ,k}`.
//!
//! Times `Solver::solve` directly (the engine's solver interface) rather than
//! `Election::run`, so the measurement covers the algorithm alone — the per-class
//! rule on the map and the `k` view-collection rounds on the sequential backend;
//! the CPPE verifier walks Θ(n²) path output and would otherwise dominate.
//!
//! Run with `cargo bench -p anet-bench --bench bench_cppe`.

use anet_bench::Harness;
use anet_constructions::JClass;
use anet_election::engine::{CppeSolver, RunContext, Solver};
use anet_election::tasks::Task;

fn main() {
    let mut h = Harness::new("cppe_on_J_chain");
    let class = JClass::new(2, 4).unwrap();
    for gadgets in [4usize, 16, 48] {
        let member = class.template(Some(gadgets)).unwrap();
        let graph = member.labeled.graph.clone();
        let n = graph.num_nodes();
        let solver = CppeSolver::new(member, class.k);
        h.bench(&format!("gadgets{gadgets}_n{n}"), 10, || {
            solver
                .solve(
                    &graph,
                    Task::CompletePortPathElection,
                    &RunContext::default(),
                )
                .unwrap()
                .outputs
                .len()
        });
    }
    h.report();
}
