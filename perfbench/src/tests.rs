//! The benchmark's own tests, on `Scale::Tiny` versions of the workloads: seed
//! determinism, exact repetition of the deterministic totals, equivalence of the
//! traced rebuild with `Election::run` (typed errors included), failure
//! accounting, and the service passes' outcome checks.

use crate::cells::{
    draw_feasible, feasible_instance, Cell, Instance, Outcome, SolverKind, Topology,
};
use crate::engine::{gate, timed_pass, traced_pass};
use crate::service::{build_mix, open_loop_pass, saturated_pass};
use crate::traced::{rebuild, rebuild_map, Layers};
use crate::workloads::{engine_cells, Scale, Workload, PPE_POOLS};
use anet_election::engine::{Backend, MapSolver};
use anet_election::tasks::Task;
use anet_election::Election;
use anet_graph::generators::symmetric_ring;
use anet_graph::rng::Rng;
use std::sync::Arc;

const ENGINE: [Workload; 3] = [
    Workload::StrongShades,
    Workload::FloodSelect,
    Workload::WireMetered,
];

fn graphs(cells: &[Cell]) -> Vec<anet_graph::PortGraph> {
    cells.iter().map(|c| (*c.instance.graph).clone()).collect()
}

#[test]
fn same_seed_same_instances_other_seed_other_instances() {
    for workload in ENGINE {
        let a = engine_cells(workload, 7, Scale::Tiny).unwrap();
        let b = engine_cells(workload, 7, Scale::Tiny).unwrap();
        let c = engine_cells(workload, 8, Scale::Tiny).unwrap();
        assert_eq!(graphs(&a), graphs(&b), "{}", workload.name());
        assert_ne!(graphs(&a), graphs(&c), "{}", workload.name());
        let labels = |cells: &[Cell]| cells.iter().map(Cell::label).collect::<Vec<_>>();
        assert_eq!(labels(&a), labels(&c), "{}: same shape", workload.name());
    }
    // Full-scale strong-shades takes its PPE graphs from the fixed pools:
    // generation is graph construction alone, deterministic per seed.
    let full = |seed| graphs(&engine_cells(Workload::StrongShades, seed, Scale::Full).unwrap());
    assert_eq!(full(7), full(7));
    let a = build_mix(7, Scale::Tiny).unwrap();
    let b = build_mix(7, Scale::Tiny).unwrap();
    let c = build_mix(8, Scale::Tiny).unwrap();
    assert_eq!(graphs(&a.cells), graphs(&b.cells));
    assert_eq!(a.cycle, b.cycle);
    assert_ne!(graphs(&a.cells), graphs(&c.cells));
}

#[test]
fn gate_totals_repeat_exactly_for_a_seed() {
    for workload in ENGINE {
        let cells = engine_cells(workload, 3, Scale::Tiny).unwrap();
        let first = gate(&cells).unwrap();
        let again = gate(&engine_cells(workload, 3, Scale::Tiny).unwrap()).unwrap();
        assert_eq!(first.expected, again.expected, "{}", workload.name());
        assert_eq!(first.rounds_total, again.rounds_total);
        assert_eq!(first.advice_bits_total, again.advice_bits_total);
        assert_eq!(first.wire_bits_total, again.wire_bits_total);
        assert_eq!(first.verified, again.verified);
        assert_eq!(first.verified, cells.len() as u64, "{}", workload.name());
        assert!(first.rounds_total > 0 && first.advice_bits_total > 0);
    }
    let wire = gate(&engine_cells(Workload::WireMetered, 3, Scale::Tiny).unwrap()).unwrap();
    assert!(wire.wire_bits_total > 0);
}

#[test]
fn traced_rebuild_equals_election_run_on_every_cell() {
    let mut cells: Vec<Cell> = ENGINE
        .into_iter()
        .flat_map(|w| engine_cells(w, 5, Scale::Tiny).unwrap())
        .collect();
    cells.extend(build_mix(5, Scale::Tiny).unwrap().cells);
    let mut layers = Layers::default();
    for cell in &cells {
        let direct = Outcome::from_run(cell.builder().run(cell.graph()));
        let traced = rebuild(cell, &mut layers);
        assert_eq!(traced, direct, "{}: {}", cell.label(), traced.diff(&direct));
    }
    assert!(layers.refinement_calls > 0 && layers.wire_bits > 0 && layers.tree_bits > 0);
    assert!(layers.total() > std::time::Duration::ZERO);
}

/// One election of `cell` through `MapSolver::new(1)`: a one-path budget.
fn one_path_run(cell: &Cell) -> Outcome {
    Outcome::from_run(
        Election::task(cell.task)
            .backend(cell.backend)
            .solver(MapSolver::new(1))
            .run(cell.graph()),
    )
}

#[test]
fn budget_exhaustion_is_the_same_typed_error_in_the_rebuild() {
    let mut rng = Rng::seed(11);
    let mut failing = Vec::new();
    for _ in 0..8 {
        let inst = draw_feasible(Topology::Circulant(128, 3), &mut rng).unwrap();
        let cell = Cell::new(
            &inst,
            Task::PortPathElection,
            SolverKind::Map,
            Backend::Batching,
        );
        if one_path_run(&cell).error.is_some() {
            failing.push(cell);
        }
    }
    assert!(
        !failing.is_empty(),
        "no 128-node PPE cell exhausts a one-path budget"
    );
    let mut layers = Layers::default();
    for cell in &failing {
        let direct = one_path_run(cell);
        let message = format!("{:?}", direct.error);
        assert!(message.contains("cap of 1 paths exceeded"), "{message}");
        assert_eq!(
            rebuild_map(cell, 1, &mut layers),
            direct,
            "{}",
            cell.label()
        );
    }
    assert_eq!(layers.budget_exceeded, failing.len() as u64);
}

#[test]
fn failed_elections_stay_in_the_accounting() {
    // Port Election on a symmetric ring: all views coincide, so the map solver
    // fails with a typed error.
    let ring = Instance {
        name: "symmetric-ring-12".to_string(),
        graph: Arc::new(symmetric_ring(12).unwrap()),
    };
    let unsolvable = Cell::new(
        &ring,
        Task::PortElection,
        SolverKind::Map,
        Backend::Batching,
    );
    let direct = Outcome::from_run(unsolvable.builder().run(unsolvable.graph()));
    assert!(direct.error.is_some(), "{direct:?}");
    assert_eq!(rebuild(&unsolvable, &mut Layers::default()), direct);

    // The gate and both passes keep the failed cell and count it.
    let mut cells = engine_cells(Workload::StrongShades, 1, Scale::Tiny).unwrap();
    cells.push(unsolvable);
    let g = gate(&cells).unwrap();
    assert_eq!(g.verified, cells.len() as u64 - 1);
    let timed = timed_pass(&cells, &g, 0.0).unwrap();
    assert_eq!(timed.failed, timed.elections / cells.len() as u64);
    let best = timed.best_per_cell(cells.len());
    assert_eq!(best.len(), cells.len());
    for (k, took) in timed.latencies.iter().enumerate() {
        assert!(best[k % cells.len()] <= *took);
    }
    let traced = traced_pass(&cells, &g, 0.0).unwrap();
    assert_eq!(traced.failed, 2 * traced.cycles);
}

#[test]
fn ppe_pools_hold_distinct_feasible_graphs() {
    for pool in PPE_POOLS {
        assert!(!pool.seeds.is_empty(), "{}", pool.topology.label());
        for &seed in pool.seeds {
            assert!(
                feasible_instance(pool.topology, seed).is_some(),
                "{} seed {seed}",
                pool.topology.label()
            );
        }
    }
    let mut seeds: Vec<(String, u64)> = PPE_POOLS
        .iter()
        .flat_map(|p| p.seeds.iter().map(|&s| (p.topology.label(), s)))
        .collect();
    let all = seeds.len();
    seeds.sort();
    seeds.dedup();
    assert_eq!(seeds.len(), all, "a graph appears in two pools");
}

/// Prints the shuffle seeds of the `strong-shades` PPE pools: the first seeds
/// from 1 on whose graph is feasible, resolves all four shades with
/// `MapSolver::default()`, and resolves PPE in exactly `psi_ppe` rounds within
/// 100 000 explored paths. Pools of one topology take consecutive runs
/// of the list. Run it when the pools are (re)defined:
///
/// ```text
/// cargo test --release --manifest-path perfbench/Cargo.toml -- \
///     --ignored vet_ppe_pools --nocapture
/// ```
#[test]
#[ignore]
fn vet_ppe_pools() {
    /// Most candidate paths a kept graph's PPE search may explore.
    const PPE_MAX_WORK: usize = 100_000;
    const PER_POOL: usize = 8;
    let mut next: Vec<(String, u64)> = Vec::new();
    for pool in PPE_POOLS {
        let label = pool.topology.label();
        let mut seed = next
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(1, |(_, s)| *s);
        let mut kept = Vec::new();
        while kept.len() < PER_POOL {
            let candidate = seed;
            seed += 1;
            let Some(inst) = feasible_instance(pool.topology, candidate) else {
                continue;
            };
            let mut ok = true;
            let mut ppe_ms = 0.0;
            for task in Task::ALL {
                let cell = Cell::new(&inst, task, SolverKind::Map, Backend::Batching);
                let start = std::time::Instant::now();
                let run = cell.builder().run(cell.graph());
                let took = start.elapsed().as_secs_f64() * 1e3;
                ok &= match (&run, task) {
                    (Ok(r), Task::PortPathElection) => {
                        ppe_ms = took;
                        r.solved()
                            && r.rounds == pool.psi_ppe
                            && r.search.paths_explored <= PPE_MAX_WORK
                    }
                    (Ok(r), _) => r.solved(),
                    (Err(_), _) => false,
                };
            }
            if ok {
                println!("{label} seed {candidate}: PPE {ppe_ms:.1} ms");
                kept.push(candidate);
            }
        }
        next.retain(|(l, _)| *l != label);
        next.push((label.clone(), seed));
        println!("{label} psi_ppe={}: {kept:?}", pool.psi_ppe);
    }
}

#[test]
fn service_passes_match_direct_runs() {
    let mix = build_mix(2, Scale::Tiny).unwrap();
    let g = gate(&mix.cells).unwrap();
    assert_eq!(g.verified, mix.cells.len() as u64);
    let sat = saturated_pass(&mix, &g, 0.0).unwrap();
    assert_eq!(sat.batches, 1);
    assert_eq!(sat.verified, mix.cycle.len() as u64);
    assert!(sat.hits > 0, "repeated instances hit the shared interner");
    let open = open_loop_pass(&mix, &g, 0.05, 2000.0).unwrap();
    assert_eq!(open.verified, open.latencies_ms.len() as u64);
    assert!(!open.latencies_ms.is_empty());
    let best = open.best_service_ms(&mix);
    assert!(!best.is_empty() && best.len() <= mix.cycle.len());
}
