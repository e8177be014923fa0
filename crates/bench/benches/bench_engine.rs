//! P2 — overhead and scaling of the `ElectionEngine` facade itself: the same
//! map-based solve, across backends and graph sizes, plus a whole batch sweep.
//! Unlike the per-algorithm benches, these deliberately time the full
//! `Election::run` pipeline *including* verification — that is the facade's cost.
//!
//! Run with `cargo bench -p anet-bench --bench bench_engine`.

use anet_bench::Harness;
use anet_constructions::{GClass, GraphFamily};
use anet_election::engine::{Backend, Election, MapSolver};
use anet_election::tasks::Task;
use anet_graph::generators;

fn main() {
    let mut h = Harness::new("election_engine");
    for n in [40usize, 120] {
        let g = (0..50u64)
            .map(|s| generators::random_connected(n, 4, n / 3, s).unwrap())
            .find(|g| anet_views::election_index::psi_s(g).is_some())
            .expect("some random graph of this size is solvable");
        for backend in [
            Backend::Sequential,
            Backend::parallel(4),
            Backend::Batching,
            Backend::AdaptiveParallel,
        ] {
            h.bench(&format!("selection_map_{backend}_n{n}"), 10, || {
                Election::task(Task::Selection)
                    .solver(MapSolver::default())
                    .backend(backend)
                    .run(&g)
                    .unwrap()
                    .rounds
            });
        }
    }
    let class = GClass::new(4, 1).unwrap();
    h.bench("batch_sweep_G41_all_tasks_x2", 5, || {
        let instances = class.instances(2);
        Task::ALL
            .iter()
            .map(|&task| {
                Election::task(task)
                    .solver(MapSolver::default())
                    .sweep(&class.family_name(), &instances)
                    .len()
            })
            .sum::<usize>()
    });
    h.report();
}
