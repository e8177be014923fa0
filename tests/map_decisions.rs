//! The map solver's decisions, pinned node for node. On small feasible graphs of
//! the strong-shade benchmark's shapes, every Port, Port Path and Complete Port
//! Path Election run of `MapSolver` must give back exactly the assignment the
//! least-depth search computes from the map — on every unmetered backend, under
//! every wire codec, with a bandwidth cap and with a shared view interner
//! attached. The other equivalence suites compare execution paths with each
//! other; this one compares them with the search itself, so a decision map that
//! changed on every path at once would still fail here.

use four_shades::graph::PortGraph;
use four_shades::prelude::*;
use four_shades::views::election_index::{cppe_election, feasibility, pe_election, ppe_election};
use four_shades::views::{QuotientSearch, Refinement, SharedViewInterner, ViewCodec};
use four_shades::workloads::{CirculantFamily, RandomRegularFamily, TorusFamily};
use std::sync::Arc;

/// Feasible graphs kept per shape.
const PER_SHAPE: usize = 3;
/// Seeds tried per shape before settling for fewer graphs.
const SEEDS: u64 = 64;

fn first_instance(family: impl GraphFamily) -> PortGraph {
    family.instances(1).remove(0).graph
}

/// Up to three feasible graphs of each tiny strong-shade shape — a random
/// 3-regular graph on 24 nodes, a shuffled 4 × 5 torus and a shuffled
/// `C_24(1, 2, 4)` — drawing seeds 1, 2, … until the graph is feasible.
fn graphs() -> Vec<(String, PortGraph)> {
    type Shape = (&'static str, fn(u64) -> PortGraph);
    let shapes: [Shape; 3] = [
        ("rr3-n24", |seed| {
            RandomRegularFamily::new(3, vec![24], seed).generate(24)
        }),
        ("torus4x5", |seed| {
            first_instance(TorusFamily::new(vec![(4, 5)]).shuffled(seed))
        }),
        ("circ24t3", |seed| {
            first_instance(CirculantFamily::powers_of_two(vec![24], 3).shuffled(seed))
        }),
    ];
    let mut out = Vec::new();
    for (name, generate) in shapes {
        let feasible = (1..=SEEDS)
            .map(|seed| (seed, generate(seed)))
            .filter(|(_, g)| feasibility(g).feasible)
            .take(PER_SHAPE);
        out.extend(feasible.map(|(seed, g)| (format!("{name} seed {seed}"), g)));
    }
    out
}

/// Per-node outputs of an assignment: the one unassigned node is the leader.
fn outputs<T>(assignment: Vec<Option<T>>, wrap: fn(T) -> NodeOutput) -> Vec<NodeOutput> {
    assignment
        .into_iter()
        .map(|a| a.map_or(NodeOutput::Leader, wrap))
        .collect()
}

/// The outputs the least-depth search assigns from the map, under the default
/// map solver's path budget.
fn expected(g: &PortGraph, task: Task) -> Vec<NodeOutput> {
    let refinement = Refinement::compute(g, None);
    let mut search = QuotientSearch::new(g, &refinement);
    let max_paths = MapSolver::default().max_paths;
    let elected = match task {
        Task::PortElection => {
            pe_election(&mut search).map(|(_, _, a)| outputs(a, NodeOutput::FirstPort))
        }
        Task::PortPathElection => ppe_election(&mut search, max_paths)
            .expect("within the path budget")
            .map(|(_, _, a)| outputs(a, NodeOutput::PortPath)),
        Task::CompletePortPathElection => cppe_election(&mut search, max_paths)
            .expect("within the path budget")
            .map(|(_, _, a)| outputs(a, NodeOutput::FullPath)),
        Task::Selection => unreachable!("Selection has no assignment"),
    };
    elected.expect("a feasible graph admits every shade")
}

/// Every configuration the decisions must survive, by label.
fn configurations(task: Task) -> Vec<(String, ElectionBuilder)> {
    let base = || Election::task(task).solver(MapSolver::default());
    let mut configs: Vec<(String, ElectionBuilder)> = [
        Backend::Sequential,
        Backend::parallel(2),
        Backend::Batching,
        Backend::AdaptiveParallel,
        Backend::capped(64),
    ]
    .into_iter()
    .map(|backend| (backend.label(), base().backend(backend)))
    .collect();
    configs.extend(
        ViewCodec::ALL
            .into_iter()
            .map(|codec| (format!("metered {codec}"), base().metered(codec))),
    );
    configs.push((
        "shared interner".to_string(),
        base().shared_interner(Arc::new(SharedViewInterner::new())),
    ));
    configs
}

#[test]
fn map_solver_outputs_are_the_search_assignment_everywhere() {
    let graphs = graphs();
    assert!(
        !graphs.is_empty(),
        "some tiny strong-shade graph is feasible"
    );
    for (name, g) in &graphs {
        for task in [
            Task::PortElection,
            Task::PortPathElection,
            Task::CompletePortPathElection,
        ] {
            let want = expected(g, task);
            for (label, builder) in configurations(task) {
                let ctx = format!("{name}: {task} on {label}");
                let report = builder.run(g).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert!(report.verdict.is_ok(), "{ctx}: {:?}", report.verdict);
                assert_eq!(report.outputs, want, "{ctx}");
            }
        }
    }
}
