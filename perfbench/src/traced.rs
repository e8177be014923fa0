//! The traced pass: rebuild one election from the public layer calls the engine
//! makes, timing each call from outside, and return the same [`Outcome`]
//! `Election::run` gives.
//!
//! The map-solver rebuild mirrors `solve_with_map_wired` + `ElectionBuilder::run`:
//! `Refinement::compute` → `QuotientSearch` and the `(depth, leader)` ladder of
//! `{pe,ppe,cppe}_assignment_with` → `ViewInterner::build_all` and the decision
//! map → the full-information (or metered) simulation with a decide closure that
//! times the interning calls → `tasks::verify` → an explicit, timed teardown.
//! Advice cells time `Oracle::advise_with_sizes`, then the simulation with a timed
//! decide closure, then verification.

use crate::cells::{Cell, Outcome, SolverKind};
use anet_election::advice::{AdviceAlgorithm, Oracle, OracleAdvice};
use anet_election::engine::{Backend, EngineError, MapSolver, MessageCodec, NoopSink};
use anet_election::map_algorithms::MapSolveError;
use anet_election::selection::{SelectionAlgorithm, SelectionOracle};
use anet_election::tasks::{self, NodeOutput, Task};
use anet_graph::{NodeId, PortGraph};
use anet_sim::{RunReport, WireStats};
use anet_views::election_index::{
    cppe_assignment_with, pe_assignment_with, ppe_assignment_with, IndexError,
};
use anet_views::{QuotientSearch, Refinement, View, ViewInterner};
use std::cell::{Cell as StdCell, RefCell};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Backends of the unmetered round loop, in metric order.
pub const FULL_INFO_BACKENDS: [&str; 4] = ["seq", "par2", "batch", "adaptive"];
/// Metered transports, in metric order (`cap64` is the capped backend).
pub const TRANSPORTS: [&str; 4] = ["tree", "dag", "delta", "cap64"];
/// Shades, in metric order.
pub const SHADES: [&str; 4] = ["s", "pe", "ppe", "cppe"];

/// Busy time and work counts per layer, summed over every rebuilt election.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub refinement: Duration,
    pub refinement_calls: u64,
    pub index: Duration,
    pub classes_expanded: u64,
    pub paths_explored: u64,
    pub leaders_tried: u64,
    pub leaders_useful: u64,
    pub budget_exceeded: u64,
    pub intern_build: Duration,
    pub intern_canon: Duration,
    pub distinct_views: u64,
    pub teardown: Duration,
    pub full_info: [Duration; 4],
    pub full_info_messages: u64,
    pub oracle: Duration,
    pub decide: Duration,
    pub tree_bits: u64,
    pub dag_bits: u64,
    pub verify: [Duration; 4],
    pub transport: [Duration; 4],
    pub wire_bits: u64,
    pub wire_messages: u64,
    pub physical_rounds: u64,
}

impl Layers {
    /// Every timed layer summed: what the traced layers account for.
    pub fn total(&self) -> Duration {
        self.refinement
            + self.index
            + self.intern_build
            + self.intern_canon
            + self.teardown
            + self.full_info.iter().sum::<Duration>()
            + self.oracle
            + self.decide
            + self.verify.iter().sum::<Duration>()
            + self.transport.iter().sum::<Duration>()
    }
}

fn shade_index(task: Task) -> usize {
    match task {
        Task::Selection => 0,
        Task::PortElection => 1,
        Task::PortPathElection => 2,
        Task::CompletePortPathElection => 3,
    }
}

/// Rebuild `cell`'s election layer by layer, adding its times and counts to
/// `layers`.
pub fn rebuild(cell: &Cell, layers: &mut Layers) -> Outcome {
    match cell.solver {
        SolverKind::Map => rebuild_map(cell, MapSolver::default().max_paths, layers),
        SolverKind::AdviceTree => rebuild_advice(
            cell,
            &SelectionOracle::tree(),
            &SelectionAlgorithm::tree(),
            layers,
        ),
        SolverKind::AdviceDag => rebuild_advice(
            cell,
            &SelectionOracle::dag(),
            &SelectionAlgorithm::dag(),
            layers,
        ),
    }
}

/// The engine's rendering of a map-solver failure.
fn map_error(err: MapSolveError) -> EngineError {
    EngineError::Solver {
        solver: "map".to_string(),
        message: err.to_string(),
    }
}

/// The map solver's minimum-depth search: at each depth, try every uniquely
/// identifiable leader until one admits a class-uniform assignment.
fn walk_ladder(
    search: &mut QuotientSearch<'_>,
    refinement: &Refinement,
    graph: &PortGraph,
    task: Task,
    max_paths: usize,
    layers: &mut Layers,
) -> Result<Option<(usize, Vec<NodeOutput>)>, IndexError> {
    // An unassigned node outputs `Leader`, exactly as the engine maps assignments.
    fn per_node<T>(assignment: Vec<Option<T>>, wrap: fn(T) -> NodeOutput) -> Vec<NodeOutput> {
        assignment
            .into_iter()
            .map(|a| a.map_or(NodeOutput::Leader, wrap))
            .collect()
    }
    for h in 0..=refinement.stable_depth() {
        for leader in refinement.unique_nodes_at(h) {
            layers.leaders_tried += 1;
            let outputs = match task {
                Task::Selection => Some(
                    graph
                        .nodes()
                        .map(|v: NodeId| {
                            if v == leader {
                                NodeOutput::Leader
                            } else {
                                NodeOutput::NonLeader
                            }
                        })
                        .collect(),
                ),
                Task::PortElection => pe_assignment_with(search, h, leader)
                    .map(|a| per_node(a, NodeOutput::FirstPort)),
                Task::PortPathElection => ppe_assignment_with(search, h, leader, max_paths)?
                    .map(|a| per_node(a, NodeOutput::PortPath)),
                Task::CompletePortPathElection => {
                    cppe_assignment_with(search, h, leader, max_paths)?
                        .map(|a| per_node(a, NodeOutput::FullPath))
                }
            };
            if let Some(outputs) = outputs {
                layers.leaders_useful += 1;
                return Ok(Some((h, outputs)));
            }
        }
    }
    Ok(None)
}

/// Run the collection rounds the way the engine does for this cell: metered when
/// a codec is requested or the backend is capped, the zero-serialisation loop
/// otherwise.
fn simulate<O, D>(cell: &Cell, rounds: usize, decide: D) -> (Vec<O>, RunReport, Option<WireStats>)
where
    O: Clone + Send,
    D: Fn(&View) -> O,
{
    let graph = cell.graph();
    match cell.effective_codec() {
        Some(codec) => {
            let (outputs, report, stats) = anet_sim::run_full_information_metered(
                graph,
                rounds,
                cell.backend,
                codec,
                &NoopSink,
                decide,
            );
            (outputs, report, Some(stats))
        }
        None => {
            let (outputs, report) = anet_sim::run_full_information_traced(
                graph,
                rounds,
                cell.backend,
                &NoopSink,
                decide,
            );
            (outputs, report, None)
        }
    }
}

/// Book the simulation's own time (decide closure excluded) to the round loop
/// that ran it.
fn book_simulation(
    cell: &Cell,
    busy: Duration,
    report: &RunReport,
    wire: Option<&WireStats>,
    layers: &mut Layers,
) {
    let messages = report.messages_delivered as u64;
    match (cell.backend, cell.effective_codec()) {
        (Backend::Capped { .. }, _) => {
            layers.transport[3] += busy;
            layers.physical_rounds += report.rounds as u64;
        }
        (_, Some(codec)) => {
            let slot = match codec {
                MessageCodec::Tree => 0,
                MessageCodec::Dag => 1,
                MessageCodec::Delta => 2,
            };
            layers.transport[slot] += busy;
        }
        (backend, None) => {
            let slot = match backend {
                Backend::Sequential => 0,
                Backend::Parallel { .. } => 1,
                Backend::Batching => 2,
                Backend::AdaptiveParallel | Backend::Capped { .. } => 3,
            };
            layers.full_info[slot] += busy;
            layers.full_info_messages += messages;
        }
    }
    if let Some(stats) = wire {
        layers.wire_bits += stats.total_bits();
        layers.wire_messages += messages;
    }
}

/// The engine's Fact 1.1 step: weaken outputs of a stronger shade to the task.
fn adapt_outputs(task: Task, outputs: Vec<NodeOutput>) -> Vec<NodeOutput> {
    let matches_task = outputs.iter().all(|o| o.task().is_none_or(|t| t == task));
    if matches_task {
        outputs
    } else {
        tasks::weaken_outputs(&outputs, task).unwrap_or(outputs)
    }
}

fn verify_timed(cell: &Cell, outputs: &[NodeOutput], layers: &mut Layers) -> Outcome {
    let start = Instant::now();
    let verdict = tasks::verify(cell.task, cell.graph(), outputs);
    layers.verify[shade_index(cell.task)] += start.elapsed();
    Outcome {
        error: None,
        rounds: 0,
        messages: 0,
        outputs: Vec::new(),
        verdict: Some(verdict),
        wire_bits: None,
        advice_bits: None,
        advice_tree_bits: None,
        advice_dag_bits: None,
    }
}

/// The map-solver rebuild, searching with a budget of `max_paths` simple paths
/// (`MapSolver::new(max_paths)`).
pub fn rebuild_map(cell: &Cell, max_paths: usize, layers: &mut Layers) -> Outcome {
    let graph = cell.graph();

    let start = Instant::now();
    let refinement = Refinement::compute(graph, None);
    layers.refinement += start.elapsed();
    layers.refinement_calls += 1;

    let start = Instant::now();
    let mut search = QuotientSearch::new(graph, &refinement);
    let ladder = walk_ladder(
        &mut search,
        &refinement,
        graph,
        cell.task,
        max_paths,
        layers,
    );
    layers.index += start.elapsed();
    let stats = search.stats();
    layers.classes_expanded += stats.classes_expanded as u64;
    layers.paths_explored += stats.paths_explored as u64;
    let (rounds, per_node) = match ladder {
        Ok(Some(chosen)) => chosen,
        Ok(None) => return Outcome::failed(map_error(MapSolveError::Unsolvable(cell.task))),
        Err(err) => {
            layers.budget_exceeded += 1;
            return Outcome::failed(map_error(MapSolveError::Budget(err)));
        }
    };

    let start = Instant::now();
    let mut interner = ViewInterner::new();
    let views = interner.build_all(graph, rounds);
    let mut by_view: HashMap<View, NodeOutput> = HashMap::new();
    for v in graph.nodes() {
        by_view.insert(views[v as usize].clone(), per_node[v as usize].clone());
    }
    layers.intern_build += start.elapsed();

    let interner = RefCell::new(interner);
    let canon = StdCell::new(Duration::ZERO);
    let decide = |view: &View| {
        let start = Instant::now();
        let canonical = interner.borrow_mut().intern(view);
        let output = by_view
            .get(&canonical)
            .cloned()
            .expect("every view observed in the run appears in the map");
        canon.set(canon.get() + start.elapsed());
        output
    };
    let start = Instant::now();
    let (outputs, report, wire) = simulate(cell, rounds, decide);
    let busy = start.elapsed().saturating_sub(canon.get());
    layers.intern_canon += canon.get();
    book_simulation(cell, busy, &report, wire.as_ref(), layers);

    let outputs = adapt_outputs(cell.task, outputs);
    let mut outcome = verify_timed(cell, &outputs, layers);
    let interner = interner.into_inner();
    layers.distinct_views += interner.len() as u64;

    let start = Instant::now();
    drop(by_view);
    drop(views);
    drop(per_node);
    drop(interner);
    drop(search);
    drop(refinement);
    layers.teardown += start.elapsed();

    outcome.rounds = report.rounds;
    outcome.messages = report.messages_delivered;
    outcome.outputs = outputs;
    outcome.wire_bits = wire.map(|w| w.total_bits());
    outcome
}

fn rebuild_advice<O: Oracle, A: AdviceAlgorithm>(
    cell: &Cell,
    oracle: &O,
    algorithm: &A,
    layers: &mut Layers,
) -> Outcome {
    let start = Instant::now();
    let OracleAdvice {
        bits: advice,
        tree_bits,
        dag_bits,
    } = oracle.advise_with_sizes(cell.graph());
    layers.oracle += start.elapsed();
    layers.tree_bits += tree_bits.unwrap_or(0) as u64;
    layers.dag_bits += dag_bits.unwrap_or(0) as u64;

    let start = Instant::now();
    let rounds = algorithm.rounds(&advice);
    layers.decide += start.elapsed();
    let decide_time = StdCell::new(Duration::ZERO);
    let decide = |view: &View| {
        let start = Instant::now();
        let output = algorithm.decide(&advice, view);
        decide_time.set(decide_time.get() + start.elapsed());
        output
    };
    let start = Instant::now();
    let (outputs, report, wire) = simulate(cell, rounds, decide);
    let busy = start.elapsed().saturating_sub(decide_time.get());
    layers.decide += decide_time.get();
    book_simulation(cell, busy, &report, wire.as_ref(), layers);

    let outputs = adapt_outputs(cell.task, outputs);
    let mut outcome = verify_timed(cell, &outputs, layers);
    outcome.rounds = report.rounds;
    outcome.messages = report.messages_delivered;
    outcome.outputs = outputs;
    outcome.wire_bits = wire.map(|w| w.total_bits());
    outcome.advice_bits = Some(advice.len());
    outcome.advice_tree_bits = tree_bits;
    outcome.advice_dag_bits = dag_bits;
    outcome
}
