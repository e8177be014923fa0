//! E4 — the Lemma 3.9 Port Election algorithm on members of `U_{Δ,k}`.
//!
//! Times `Solver::solve` directly (the engine's solver interface) rather than
//! `Election::run`, so the measurement covers the algorithm alone, not the PE
//! verifier's per-node path checks.
//!
//! Run with `cargo bench -p anet-bench --bench bench_port_election`.

use anet_bench::Harness;
use anet_constructions::UClass;
use anet_election::engine::{PortElectionSolver, RunContext, Solver};
use anet_election::tasks::Task;

fn main() {
    let mut h = Harness::new("port_election_on_U");
    // U_{4,2} (86 022 nodes, 2 654 classes at depth 2) is the size where the
    // per-class map work and the classifier's teardown show.
    for (delta, k) in [(4usize, 1usize), (5, 1), (4, 2)] {
        let class = UClass::new(delta, k).unwrap();
        let sigma: Vec<u32> = (0..class.y())
            .map(|j| (j % (delta as u64 - 1)) as u32 + 1)
            .collect();
        let member = class.member(&sigma).unwrap();
        let g = member.labeled.graph;
        let solver = PortElectionSolver::new(k);
        h.bench(&format!("d{delta}_k{k}_n{}", g.num_nodes()), 10, || {
            solver
                .solve(&g, Task::PortElection, &RunContext::default())
                .unwrap()
                .outputs
                .len()
        });
    }
    h.report();
}
