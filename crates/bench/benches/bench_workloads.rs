//! P3 — the workload subsystem: generation cost of the new graph families, the
//! engine's end-to-end cost on them (the cells of the `sweep` driver's grid), and the
//! routing phase at scale on a ≥ 10⁵-node torus across the execution backends.
//!
//! Run with `cargo bench -p anet-bench --bench bench_workloads`.

use anet_bench::Harness;
use anet_constructions::GraphFamily;
use anet_election::engine::{Backend, Election, MapSolver};
use anet_election::tasks::Task;
use anet_sim::NodeAlgorithm;
use anet_workloads::{CirculantFamily, HypercubeFamily, RandomRegularFamily, TorusFamily};

/// Constant-size ping: every node sends its round parity on every port. O(1) message
/// handling isolates the engine's routing plumbing.
struct Ping {
    heard: usize,
}

impl NodeAlgorithm for Ping {
    type Message = u8;
    type Output = usize;

    fn send_into(&mut self, round: usize, outbox: &mut [Option<u8>]) {
        for slot in outbox.iter_mut() {
            *slot = Some((round % 2) as u8);
        }
    }

    fn receive(&mut self, _round: usize, inbox: &mut [Option<u8>]) {
        self.heard += inbox.iter_mut().filter_map(Option::take).count();
    }

    fn output(&self) -> usize {
        self.heard
    }
}

fn main() {
    let mut h = Harness::new("workloads");

    // Generation: the retry-until-simple pairing model dominates family setup cost.
    for n in [64usize, 256, 1024] {
        let fam = RandomRegularFamily::new(3, vec![n], 0xA5EED);
        h.bench(&format!("generate_random_regular_d3_n{n}"), 10, || {
            fam.generate(n).num_edges()
        });
    }
    h.bench("generate_torus_32x32", 10, || {
        TorusFamily::generate(32, 32).num_edges()
    });
    h.bench("generate_circulant_n1024_t3", 10, || {
        CirculantFamily::generate(1024, 3).num_edges()
    });
    h.bench("shuffled_hypercube_d10", 10, || {
        HypercubeFamily::new(vec![10])
            .shuffled(41)
            .instances(1)
            .remove(0)
            .graph
            .num_edges()
    });

    // Engine on workload instances: one Selection solve per family, seq vs parallel
    // (the sweep grid's hot cell shape).
    let instances: Vec<_> = [
        Box::new(RandomRegularFamily::new(3, vec![64], 0xA5EED)) as Box<dyn GraphFamily>,
        Box::new(TorusFamily::new(vec![(8, 8)]).shuffled(41)),
        Box::new(CirculantFamily::powers_of_two(vec![64], 3).shuffled(41)),
    ]
    .iter()
    .map(|f| f.instances(1).remove(0))
    .collect();
    for instance in &instances {
        let short = instance
            .name
            .split([',', '('])
            .next()
            .unwrap()
            .trim()
            .to_string();
        for backend in [
            Backend::Sequential,
            Backend::parallel(4),
            Backend::Batching,
            Backend::AdaptiveParallel,
        ] {
            h.bench(&format!("selection_{short}_n64_{backend}"), 10, || {
                Election::task(Task::Selection)
                    .solver(MapSolver::default())
                    .backend(backend)
                    .run(&instance.graph)
                    .unwrap()
                    .rounds
            });
        }
    }

    // Routing phase at scale: a 320×330 torus (105 600 nodes, degree 4) under
    // constant-size pinging — the `seq` vs `batch` comparison on an n ≥ 10⁵ workload.
    let torus = TorusFamily::generate(320, 330);
    let n = torus.num_nodes();
    let rounds = 4;
    for backend in [
        Backend::Sequential,
        Backend::Batching,
        Backend::AdaptiveParallel,
    ] {
        h.bench(
            &format!("routing_torus_{backend}_n{n}_r{rounds}"),
            5,
            || {
                backend
                    .run(&torus, &|_| Ping { heard: 0 }, rounds)
                    .report
                    .messages_delivered
            },
        );
    }

    h.report();
}
