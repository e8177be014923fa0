//! P2 — overhead and scaling of the `ElectionEngine` facade itself: the same
//! map-based solve, across backends and graph sizes, plus a whole batch sweep,
//! and the map solver's Port, Port Path and Complete Port Path Election end to
//! end (search, simulation and the class-based decision map) on a random
//! 3-regular graph and a shuffled circulant of the benchmark's strong-shade
//! sizes. Unlike the per-algorithm benches, these deliberately time the full
//! `Election::run` pipeline *including* verification — that is the facade's cost.
//!
//! Run with `cargo bench -p anet-bench --bench bench_engine`.

use anet_bench::Harness;
use anet_constructions::{GClass, GraphFamily};
use anet_election::engine::{Backend, Election, MapSolver};
use anet_election::tasks::Task;
use anet_graph::{generators, PortGraph};
use anet_views::election_index::feasibility;
use anet_workloads::{CirculantFamily, RandomRegularFamily};

fn map_run(h: &mut Harness, id: &str, task: Task, g: &PortGraph) {
    h.bench(id, 10, || {
        Election::task(task)
            .solver(MapSolver::default())
            .run(g)
            .unwrap()
            .rounds
    });
}

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
    // Pool seed 1 of the strong-shade benchmark's 512-node random 3-regular
    // graphs, vetted for PPE there.
    let rr3 = RandomRegularFamily::new(3, vec![512], 1).generate(512);
    map_run(&mut h, "map_pe_rr3_n512", Task::PortElection, &rr3);
    map_run(&mut h, "map_ppe_rr3_n512", Task::PortPathElection, &rr3);
    map_run(
        &mut h,
        "map_cppe_rr3_n512",
        Task::CompletePortPathElection,
        &rr3,
    );
    // No PPE case here: PPE on shuffled circulants exhausts the path budget.
    let circ = (1..=64u64)
        .map(|seed| {
            CirculantFamily::powers_of_two(vec![2048], 3)
                .shuffled(seed)
                .instances(1)
                .remove(0)
                .graph
        })
        .find(|g| feasibility(g).feasible)
        .expect("some shuffle of C_2048(1, 2, 4) is feasible");
    map_run(&mut h, "map_pe_circ2048", Task::PortElection, &circ);
    map_run(
        &mut h,
        "map_cppe_circ2048",
        Task::CompletePortPathElection,
        &circ,
    );
    h.report();
}
