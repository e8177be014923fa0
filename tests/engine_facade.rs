//! End-to-end tests of the `ElectionEngine` facade: all four shades, every solver
//! kind, and every execution backend, on one graph from each of the paper's
//! construction families (`G_{Δ,k}`, `U_{Δ,k}`, `J_{μ,k}`).

use four_shades::constructions::{GClass, JClass, UClass};
use four_shades::graph::PortGraph;
use four_shades::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// All four shades solved through the engine on a `G_{4,1}` member, with the
/// map-based minimum-time solver, on every backend.
#[test]
fn all_four_shades_on_a_g_member_via_the_engine() {
    let member = GClass::new(4, 1).unwrap().member(4).unwrap();
    let g = &member.labeled.graph;
    for task in Task::ALL {
        let seq = Election::task(task)
            .solver(MapSolver::default())
            .run(g)
            .expect("G members are feasible");
        assert!(seq.solved(), "{task}: {}", seq.summary());
        for backend in Backend::smoke_set() {
            let report = Election::task(task)
                .solver(MapSolver::default())
                .backend(backend)
                .run(g)
                .unwrap();
            assert_eq!(report.outputs, seq.outputs, "{task} on {backend}");
            assert_eq!(report.rounds, seq.rounds, "{task} on {backend}");
            assert_eq!(
                report.messages_delivered, seq.messages_delivered,
                "{task} on {backend}"
            );
        }
    }
}

/// Selection and Port Election through the engine on a `U_{4,1}` member: the Lemma
/// 3.9 solver serves PE natively and S via the engine's Fact 1.1 weakening, in
/// exactly `k` rounds either way.
#[test]
fn pe_and_s_on_a_u_member_via_the_engine() {
    let class = UClass::new(4, 1).unwrap();
    let member = class.member(&[2u32; 9]).unwrap();
    let g = &member.labeled.graph;
    for task in [Task::PortElection, Task::Selection] {
        let report = Election::task(task)
            .solver(PortElectionSolver::new(class.k))
            .run(g)
            .expect("U members are valid maps for Lemma 3.9");
        assert!(report.solved(), "{task}: {}", report.summary());
        assert_eq!(report.rounds, class.k, "{task}: time-optimal (Lemma 3.9)");
        assert!(
            member.cycle_roots().contains(&report.leader().unwrap()),
            "{task}: the leader is a cycle root (Lemma 3.10)"
        );
    }
    // The Theorem 2.2 advice pair solves Selection on the same member, with advice.
    let advice = Election::task(Task::Selection)
        .solver(AdviceSolver::theorem_2_2())
        .run(g)
        .unwrap();
    assert!(advice.solved());
    assert!(advice.advice_bits.unwrap() > 0);
    assert_eq!(advice.rounds, class.k, "ψ_S = k on U members");
}

/// All four shades through the engine on a `J_{2,4}` chain: the Lemma 4.8 CPPE
/// solver's outputs serve every weaker shade via the engine's automatic weakening —
/// Fact 1.1 end to end.
#[test]
fn all_four_shades_on_a_j_chain_via_the_engine() {
    let class = JClass::new(2, 4).unwrap();
    let member = class.template(Some(4)).unwrap();
    let g = member.labeled.graph.clone();
    let rho0 = member.rho(0);
    for task in Task::ALL {
        let report = Election::task(task)
            .solver(CppeSolver::new(class.template(Some(4)).unwrap(), class.k))
            .run(&g)
            .expect("the solver's member matches the graph");
        assert!(report.solved(), "{task}: {}", report.summary());
        assert_eq!(report.leader(), Some(rho0), "{task}: the leader is ρ_0");
        assert_eq!(report.rounds, class.k, "{task}: k rounds (Lemma 4.8)");
        // Outputs are stored in the requested shade.
        for out in &report.outputs {
            assert!(out.task().is_none_or(|t| t == task), "{task}");
        }
    }
}

/// Engine-equivalence property across backends: identical reports for identical
/// configurations on every family and on random graphs, for both solver kinds.
#[test]
fn every_backend_produces_identical_election_reports() {
    let graphs = vec![
        GClass::new(4, 1).unwrap().member(3).unwrap().labeled.graph,
        UClass::new(4, 1)
            .unwrap()
            .member(&[1u32; 9])
            .unwrap()
            .labeled
            .graph,
        JClass::new(2, 4)
            .unwrap()
            .template(Some(2))
            .unwrap()
            .labeled
            .graph,
        four_shades::graph::generators::random_connected(40, 5, 15, 9).unwrap(),
    ];
    for g in &graphs {
        if four_shades::views::election_index::psi_s(g).is_none() {
            continue; // infeasible graph: neither solver applies
        }
        for solver_kind in ["map", "advice"] {
            let make = |kind: &str| -> Box<dyn Solver> {
                match kind {
                    "map" => Box::new(MapSolver::default()),
                    _ => Box::new(AdviceSolver::theorem_2_2()),
                }
            };
            let task = Task::Selection;
            let seq = Election::task(task)
                .solver_boxed(make(solver_kind))
                .run(g)
                .expect("feasible graph");
            for backend in Backend::smoke_set() {
                let report = Election::task(task)
                    .solver_boxed(make(solver_kind))
                    .backend(backend)
                    .run(g)
                    .unwrap();
                assert_eq!(report.outputs, seq.outputs, "{solver_kind} on {backend}");
                assert_eq!(report.rounds, seq.rounds, "{solver_kind} on {backend}");
                assert_eq!(
                    report.messages_delivered, seq.messages_delivered,
                    "{solver_kind} on {backend}"
                );
                assert_eq!(report.leader(), seq.leader(), "{solver_kind} on {backend}");
            }
        }
    }
}

/// One builder per task sweeps a family × task matrix and the measured rounds
/// respect the paper's hierarchy (Fact 1.1) on every instance.
#[test]
fn batch_sweep_respects_the_hierarchy_on_g_members() {
    let class = GClass::new(4, 1).unwrap();
    let instances = class.instances(3);
    let rows: Vec<BatchRow> = Task::ALL
        .iter()
        .flat_map(|&task| {
            Election::task(task)
                .solver(MapSolver::default())
                .backend(Backend::Parallel { threads: 2 })
                .sweep(&class.family_name(), &instances)
        })
        .collect();
    assert_eq!(rows.len(), 4 * 3);
    for instance in 0..3 {
        let rounds: Vec<usize> = (0..4)
            .map(|t| rows[t * 3 + instance].rounds().expect("solved"))
            .collect();
        assert!(
            rounds.windows(2).all(|w| w[0] <= w[1]),
            "ψ_S ≤ ψ_PE ≤ ψ_PPE ≤ ψ_CPPE must hold, got {rounds:?}"
        );
    }
    for row in &rows {
        assert!(row.solved(), "{} {}", row.instance, row.task);
    }
}

/// Each algorithm has one public entry function taking the same `RunContext` the
/// engine builds; called directly under the default context, every one of them
/// agrees with `Election::run` on the matching solver.
#[test]
fn entry_functions_agree_with_the_engine() {
    use four_shades::election::selection::{SelectionAlgorithm, SelectionOracle};
    use four_shades::election::{advice, cppe, map_algorithms, port_election};
    let ctx = RunContext::default();
    let ring =
        four_shades::graph::generators::oriented_ring(&[true, true, false, true, false]).unwrap();
    let u_class = UClass::new(4, 1).unwrap();
    let u = u_class.member(&[2u32; 9]).unwrap().labeled.graph;
    let j_class = JClass::new(2, 4).unwrap();
    let j = j_class.template(Some(3)).unwrap();
    let max_paths = MapSolver::default().max_paths;
    let mut table: Vec<(String, &PortGraph, SolverRun, ElectionBuilder)> = Task::ALL
        .into_iter()
        .map(|task| {
            (
                format!("solve_with_map {task}"),
                &ring,
                map_algorithms::solve_with_map(&ring, task, max_paths, &ctx).unwrap(),
                Election::task(task).solver(MapSolver::default()),
            )
        })
        .collect();
    table.push((
        "run_with_advice".into(),
        &ring,
        advice::run_with_advice(
            &ring,
            &SelectionOracle::tree(),
            &SelectionAlgorithm::tree(),
            &ctx,
        )
        .unwrap(),
        Election::task(Task::Selection).solver(AdviceSolver::theorem_2_2()),
    ));
    table.push((
        "solve_port_election_on_u".into(),
        &u,
        port_election::solve_port_election_on_u(&u, u_class.k, &ctx).unwrap(),
        Election::task(Task::PortElection).solver(PortElectionSolver::new(u_class.k)),
    ));
    table.push((
        "solve_cppe_on_j".into(),
        &j.labeled.graph,
        cppe::solve_cppe_on_j(&j, j_class.k, &ctx).unwrap(),
        Election::task(Task::CompletePortPathElection).solver(CppeSolver::new(
            j_class.template(Some(3)).unwrap(),
            j_class.k,
        )),
    ));
    for (name, graph, run, engine) in &table {
        let report = engine.run(graph).unwrap();
        assert!(report.solved(), "{name}: {}", report.summary());
        assert_eq!(run.outputs, report.outputs, "{name}");
        assert_eq!(run.rounds, report.rounds, "{name}");
        assert_eq!(run.messages_delivered, report.messages_delivered, "{name}");
        assert_eq!(run.advice_bits, report.advice_bits, "{name}");
    }
}

/// A trace sink that takes 20 ms per event.
#[derive(Default)]
struct SlowSink {
    events: AtomicU32,
}

impl TraceSink for SlowSink {
    fn record(&self, _event: TraceEvent) {
        std::thread::sleep(Duration::from_millis(20));
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

/// `wall_time` measures the solve, not the caller's sink: the engine forwards the
/// recorded events after reading the clock.
#[test]
fn wall_time_excludes_trace_forwarding() {
    let g =
        four_shades::graph::generators::oriented_ring(&[true, true, false, true, false]).unwrap();
    let sink = Arc::new(SlowSink::default());
    let report = Election::task(Task::Selection)
        .solver(MapSolver::default())
        .trace_sink(sink.clone())
        .run(&g)
        .unwrap();
    let events = sink.events.load(Ordering::Relaxed);
    assert!(events > 0, "the traced run forwards its events");
    assert!(
        report.wall_time < Duration::from_millis(20) * events,
        "{:?} for {events} events",
        report.wall_time
    );
}
