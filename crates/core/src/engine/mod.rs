//! # The `ElectionEngine` facade
//!
//! One fluent, composable surface over everything this workspace can do: pick a task
//! shade × pick a solver × pick an execution backend × run on a graph.
//!
//! ```
//! use anet_election::engine::{Backend, Election, MapSolver};
//! use anet_election::tasks::Task;
//! let graph = anet_graph::generators::paper_three_node_line();
//!
//! let report = Election::task(Task::CompletePortPathElection)
//!     .solver(MapSolver::default())
//!     .backend(Backend::Parallel { threads: 4 })
//!     .run(&graph)
//!     .expect("solver ran");
//! assert!(report.solved());
//! println!("{} rounds, {} messages", report.rounds, report.messages_delivered);
//! ```
//!
//! The library surface has three layers, each built on the next:
//!
//! * the **builder** ([`Election::task`] → [`ElectionBuilder`]) configures a run, verifies
//!   its outputs and reports them;
//! * a **solver** ([`Solver::solve`]) runs one algorithm family on a graph under a
//!   [`RunContext`] — the backend, plus the optional shared interner, trace sink and wire
//!   codec the builder attaches;
//! * each algorithm family has **one public function** that takes the same context and
//!   returns a [`SolverRun`]: [`crate::map_algorithms::solve_with_map`],
//!   [`crate::advice::run_with_advice`],
//!   [`crate::port_election::solve_port_election_on_u`] and (analytic, so context-free)
//!   [`crate::cppe::solve_cppe_on_j`].
//!
//! A builder run is configured along three axes and returns one report:
//!
//! * the **task** is one of the paper's four shades ([`Task`]);
//! * the **solver** is any [`Solver`] — the map-based minimum-time baseline
//!   ([`MapSolver`]), the Theorem 2.2 oracle/algorithm pair shipping either view
//!   codec ([`AdviceSolver::theorem_2_2`] / [`AdviceSolver::theorem_2_2_dag`]) or
//!   any other advice pair ([`AdviceSolver`]), the Lemma 3.9 Port Election
//!   algorithm ([`PortElectionSolver`]), or the Lemma 4.8 CPPE algorithm
//!   ([`CppeSolver`]);
//! * the **backend** is an `anet-sim` execution strategy ([`Backend`]) — sequential,
//!   fixed-thread parallel, arena-based message batching, or chunk-size-adaptive
//!   parallel; every backend yields identical outputs and message accounting, so the
//!   choice is purely about wall-clock performance;
//! * the result is a uniform [`ElectionReport`]: advice bits, rounds, messages,
//!   per-node outputs, the verifier's verdict, and wall time.
//!
//! A solver may produce outputs for a *stronger* shade than requested; the engine then
//! applies the paper's Fact 1.1 weakening automatically (a CPPE solution, run with
//! `Task::Selection`, is weakened to a Selection solution before verification). This
//! mirrors the hierarchy `CPPE ⇒ PPE ⇒ PE ⇒ S` exactly as the paper uses it.
//!
//! For sweeping one configuration across a whole family of graphs (the paper's
//! `G`/`U`/`J` constructions, or any `anet_constructions::GraphFamily`), see [`BatchRunner`].

mod batch;
mod solvers;

pub use anet_sim::{Backend, WireStats};
pub use anet_trace::{
    NoopSink, Phase, Recorder, RoundProfile, RoundStat, Tagged, TraceEvent, TraceSink,
};
pub use anet_views::ViewCodec;
/// Former name of [`ViewCodec`]; the benchmark package (`perfbench/`) still imports it.
pub use anet_views::ViewCodec as MessageCodec;
pub use batch::{BatchRow, BatchRunner};
pub use solvers::{AdviceSolver, CppeSolver, MapSolver, PortElectionSolver};

use crate::tasks::{self, ElectionOutcome, NodeOutput, Task, TaskError};
use anet_graph::{NodeId, PortGraph};
use anet_views::SharedViewInterner;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors of the election engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// `run` was called on a builder with no solver configured.
    MissingSolver,
    /// The configured solver failed on this graph.
    Solver {
        /// The solver's display name.
        solver: String,
        /// The solver-specific failure message.
        message: String,
    },
}

impl EngineError {
    pub(crate) fn solver(name: impl Into<String>, err: impl std::fmt::Display) -> Self {
        EngineError::Solver {
            solver: name.into(),
            message: err.to_string(),
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::MissingSolver => {
                write!(f, "no solver configured (call `.solver(…)` before `.run`)")
            }
            EngineError::Solver { solver, message } => write!(f, "solver {solver}: {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// What a [`Solver`] hands back to the engine: the raw run, before verification.
#[derive(Debug, Clone)]
pub struct SolverRun {
    /// Communication rounds used.
    pub rounds: usize,
    /// Per-node outputs, indexed by node.
    pub outputs: Vec<NodeOutput>,
    /// Messages delivered by the underlying simulation.
    pub messages_delivered: usize,
    /// Size of oracle advice in bits, for advice-based solvers (`None` for map-based
    /// solvers, whose "advice" is the whole map and is not measured in bits).
    pub advice_bits: Option<usize>,
    /// Size the advice's encoded view takes under the unfolded-tree codec, when the
    /// oracle reports it (the paper's `O((Δ−1)^h log Δ)` accounting). Independent of
    /// which codec actually shipped.
    pub advice_tree_bits: Option<usize>,
    /// Size the same view takes under the shared-DAG codec (`O(distinct subtrees)`),
    /// when the oracle reports it.
    pub advice_dag_bits: Option<usize>,
    /// Search-cost counters of the map-side assignment search (quotient classes
    /// expanded, candidate paths explored). Zero for solvers that perform no such
    /// search (advice pairs, the analytic Lemma 3.9 / 4.8 algorithms) and for
    /// Port Election, whose assignment needs no quotient search.
    pub search: anet_views::SearchStats,
    /// Per-round / per-edge bits the simulation actually put on the wire, when it
    /// ran through the metered transport ([`ElectionBuilder::metered`] or a
    /// [`Backend::Capped`] backend). `None` on the zero-serialisation fast path
    /// and for analytic solvers that never simulate.
    pub wire: Option<WireStats>,
}

/// How a run executes, threaded by the engine to [`Solver::solve`] and taken by every
/// algorithm's entry function: the backend, plus process-wide resources a run may
/// share with concurrent runs. Everything here is purely an execution concern — the
/// outputs are the same under every context. The default is a sequential, unshared,
/// untraced, unmetered run.
#[derive(Clone, Copy, Default)]
pub struct RunContext<'a> {
    /// The execution backend the simulated rounds run on (default:
    /// [`Backend::Sequential`]). Analytic solvers simulate nothing and ignore it.
    pub backend: Backend,
    /// A process-wide concurrent view interner. Solvers that hash-cons views intern
    /// through this table instead of a run-private one, so concurrent runs on
    /// overlapping graph families dedup their view DAGs against each other: the
    /// map solver files the leader's view for Selection, and for the stronger
    /// shades — like the Lemma 3.9 solver — every node's view (`build_all`) and the
    /// canonicalised collected views. The Theorem 2.2 oracle interns privately: an
    /// `Oracle` takes no context. Set by the multi-tenant election service; `None`
    /// for standalone runs.
    pub shared_interner: Option<&'a SharedViewInterner>,
    /// A trace sink for round-level probes: simulation-backed solvers thread it to
    /// [`anet_sim::Backend::run_traced`], so the engine (and through it the
    /// service) observes per-phase timings and per-round message counts. `None`
    /// means untraced — identical to passing a [`NoopSink`].
    pub trace: Option<&'a dyn TraceSink>,
    /// The wire codec for metered runs: simulation-backed solvers serialise every
    /// message through it (via `anet_sim::run_full_information_metered`) and
    /// report [`WireStats`] in their [`SolverRun`]. `None` means the
    /// zero-serialisation fast path — unless the backend is [`Backend::Capped`],
    /// which forces metering under the default codec.
    pub wire: Option<ViewCodec>,
}

impl<'a> RunContext<'a> {
    /// The context's trace sink, defaulting to the zero-cost [`NoopSink`]: solvers
    /// call this instead of matching on [`RunContext::trace`], so the untraced path
    /// stays branch-free at the probe sites.
    pub fn trace_sink(&self) -> &'a dyn TraceSink {
        self.trace.unwrap_or(&NoopSink)
    }
}

impl std::fmt::Debug for RunContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunContext")
            .field("backend", &self.backend)
            .field("shared_interner", &self.shared_interner.is_some())
            .field("trace", &self.trace.is_some())
            .field("wire", &self.wire)
            .finish()
    }
}

/// A leader-election solver: anything that can produce per-node outputs for a task on
/// a graph, executing under a [`RunContext`].
///
/// Implementations in this crate: [`MapSolver`] (minimum-time, knows the map),
/// [`AdviceSolver`] (oracle/algorithm pairs, e.g. Theorem 2.2), [`PortElectionSolver`]
/// (Lemma 3.9 on `U_{Δ,k}`), [`CppeSolver`] (Lemma 4.8 on `J_{μ,k}`).
pub trait Solver {
    /// Display name used in reports and tables.
    fn name(&self) -> String;

    /// Solve (or attempt) `task` on `graph`, executing rounds on `ctx.backend` and
    /// routing views, trace events and wire bits through the rest of the context.
    /// The context must never change *what* is computed, only how it executes.
    ///
    /// A solver may ignore `task` and return outputs for the strongest shade it knows
    /// how to produce; the engine weakens them to the requested task per Fact 1.1.
    fn solve(
        &self,
        graph: &PortGraph,
        task: Task,
        ctx: &RunContext<'_>,
    ) -> Result<SolverRun, EngineError>;
}

/// Entry point of the facade: `Election::task(…)` starts a builder.
#[derive(Debug, Clone, Copy)]
pub struct Election;

impl Election {
    /// Start configuring an election for one of the four shades.
    pub fn task(task: Task) -> ElectionBuilder {
        ElectionBuilder {
            task,
            solver: None,
            backend: Backend::Sequential,
            thread_budget: None,
            shared_interner: None,
            trace: None,
            profile: false,
            wire: None,
        }
    }
}

/// Builder for a configured election run. Construct with [`Election::task`], then
/// chain [`solver`](ElectionBuilder::solver) and optionally
/// [`backend`](ElectionBuilder::backend), and execute with
/// [`run`](ElectionBuilder::run). The builder is reusable: `run` borrows it, so one
/// configuration can be applied to many graphs (this is what [`BatchRunner`] does).
pub struct ElectionBuilder {
    task: Task,
    solver: Option<Box<dyn Solver>>,
    backend: Backend,
    thread_budget: Option<usize>,
    shared_interner: Option<Arc<SharedViewInterner>>,
    trace: Option<Arc<dyn TraceSink>>,
    profile: bool,
    wire: Option<ViewCodec>,
}

impl ElectionBuilder {
    /// Choose the solver.
    pub fn solver(mut self, solver: impl Solver + 'static) -> Self {
        self.solver = Some(Box::new(solver));
        self
    }

    /// Choose the solver, boxed (for dynamically chosen solvers).
    pub fn solver_boxed(mut self, solver: Box<dyn Solver>) -> Self {
        self.solver = Some(solver);
        self
    }

    /// Choose the execution backend (default: [`Backend::Sequential`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Cap the number of OS threads the backend may use for this run (default:
    /// unbounded). The cap applies via [`anet_sim::with_thread_budget`] around the
    /// solve, so a `Parallel { threads: 8 }` backend under `.thread_budget(2)` runs
    /// with two workers and [`Backend::AdaptiveParallel`] stops sizing itself
    /// against the whole machine. This is how the multi-tenant election service
    /// keeps `n` concurrent runs from spawning `n × available_parallelism` threads.
    /// Outputs are unaffected — backends are output-equivalent at every thread
    /// count.
    pub fn thread_budget(mut self, budget: usize) -> Self {
        self.thread_budget = Some(budget.max(1));
        self
    }

    /// Intern views through a process-wide [`SharedViewInterner`] instead of a
    /// run-private table (default: private). Concurrent runs given the same table
    /// dedup isomorphic view subtrees against each other; see
    /// [`RunContext::shared_interner`].
    pub fn shared_interner(mut self, interner: Arc<SharedViewInterner>) -> Self {
        self.shared_interner = Some(interner);
        self
    }

    /// Stream round-level trace events into `sink`. The engine records the run
    /// through an internal [`Recorder`] (so the report gains a
    /// [`RoundProfile`](ElectionReport::round_profile)) and forwards the drained
    /// events to `sink` after the solve — per-run event batches therefore arrive
    /// contiguous even when many runs share one sink, which is what the
    /// multi-tenant service relies on. Wrap the sink in [`anet_trace::Tagged`] to
    /// stamp every forwarded event with a run id.
    ///
    /// Tracing never changes outputs, rounds or message accounting; it only
    /// observes them.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Meter the wire: simulation-backed solvers serialise every message through
    /// `codec` (instead of handing over shared [`anet_views::View`] handles for
    /// free) and the report gains per-round / per-edge bit counts in
    /// [`wire`](ElectionReport::wire). Outputs, logical message accounting and —
    /// on ordinary backends — round counts are unchanged; under
    /// [`Backend::Capped`] rounds inflate to the physical count of the
    /// bandwidth-limited stream. A capped backend forces metering (under
    /// [`ViewCodec::default`]) even without this call. Analytic solvers
    /// simulate nothing and ignore it.
    pub fn metered(mut self, codec: ViewCodec) -> Self {
        self.wire = Some(codec);
        self
    }

    /// Record the run's round-level profile without an external sink: the report's
    /// [`round_profile`](ElectionReport::round_profile) is populated with per-round
    /// message counts and per-phase timings. Analytic solvers (e.g.
    /// [`CppeSolver`]) simulate nothing and yield an empty profile.
    pub fn profiled(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Execute the configured election on `graph` and verify the outputs.
    pub fn run(&self, graph: &PortGraph) -> Result<ElectionReport, EngineError> {
        let solver = self.solver.as_ref().ok_or(EngineError::MissingSolver)?;
        let start = Instant::now();
        // When tracing or profiling is requested, the run records into an internal
        // recorder first: the profile is built from the complete event stream, and
        // forwarding after the solve keeps one run's events contiguous on a shared
        // sink. Untraced runs take the `None` branch and pay nothing.
        let recorder = (self.profile || self.trace.is_some()).then(Recorder::new);
        let ctx = RunContext {
            backend: self.backend,
            shared_interner: self.shared_interner.as_deref(),
            trace: recorder.as_ref().map(|r| r as &dyn TraceSink),
            wire: self.wire,
        };
        let interner_before = recorder
            .as_ref()
            .and(self.shared_interner.as_ref())
            .map(|t| t.stats());
        let solve = || solver.solve(graph, self.task, &ctx);
        let run = match self.thread_budget {
            Some(budget) => anet_sim::with_thread_budget(budget, solve)?,
            None => solve()?,
        };
        // Fact 1.1: adapt outputs of a stronger shade to the requested task. If the
        // shapes neither match nor weaken, keep the raw outputs and let the verifier
        // report `WrongShape`.
        let matches_task = run
            .outputs
            .iter()
            .all(|o| o.task().is_none_or(|t| t == self.task));
        let outputs = if matches_task {
            run.outputs
        } else {
            tasks::weaken_outputs(&run.outputs, self.task).unwrap_or(run.outputs)
        };
        // Wall time covers the solve and the Fact 1.1 adaptation only: forwarding
        // trace events to the caller's sink and verifying are not part of the
        // algorithm being measured.
        let wall_time = start.elapsed();
        let round_profile = recorder.map(|recorder| {
            // Interner traffic attributable to this run, from table-counter
            // snapshots (exact when runs don't overlap; see
            // `TraceEvent::InternerDelta`).
            if let (Some(before), Some(table)) = (interner_before, self.shared_interner.as_ref()) {
                let after = table.stats();
                recorder.record(TraceEvent::InternerDelta {
                    trace_id: 0,
                    hits: after.hits.saturating_sub(before.hits),
                    misses: after.misses.saturating_sub(before.misses),
                });
            }
            let events = recorder.drain();
            if let Some(sink) = &self.trace {
                for event in &events {
                    sink.record(*event);
                }
            }
            RoundProfile::from_events(&events)
        });
        let verdict = tasks::verify(self.task, graph, &outputs);
        Ok(ElectionReport {
            task: self.task,
            solver: solver.name(),
            backend: self.backend,
            advice_bits: run.advice_bits,
            advice_tree_bits: run.advice_tree_bits,
            advice_dag_bits: run.advice_dag_bits,
            rounds: run.rounds,
            messages_delivered: run.messages_delivered,
            search: run.search,
            wire: run.wire,
            outputs,
            verdict,
            wall_time,
            round_profile,
        })
    }
}

impl std::fmt::Debug for ElectionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElectionBuilder")
            .field("task", &self.task)
            .field("solver", &self.solver.as_ref().map(|s| s.name()))
            .field("backend", &self.backend)
            .field("thread_budget", &self.thread_budget)
            .field("shared_interner", &self.shared_interner.is_some())
            .field("trace", &self.trace.is_some())
            .field("profile", &self.profile)
            .field("wire", &self.wire)
            .finish()
    }
}

/// The uniform result of an engine run: everything the paper's tables are about, in
/// one place.
#[derive(Debug, Clone)]
pub struct ElectionReport {
    /// The task that was requested (and verified).
    pub task: Task,
    /// Display name of the solver that ran.
    pub solver: String,
    /// The execution backend the engine was configured with. Simulation-backed
    /// solvers run their rounds on it; solvers that compute outputs analytically
    /// from the map (e.g. [`CppeSolver`]) perform no simulation and ignore it.
    pub backend: Backend,
    /// Oracle advice size in bits, if the solver is advice-based.
    pub advice_bits: Option<usize>,
    /// Tree-codec size of the advice's encoded view, when the oracle reports it
    /// (what Theorem 2.2's `O((Δ−1)^h log Δ)` form counts), regardless of the codec
    /// that shipped.
    pub advice_tree_bits: Option<usize>,
    /// Shared-DAG-codec size of the same view (`O(distinct subtrees)` bits), when
    /// reported — against `advice_tree_bits` this shows the `Θ(Δ^h)` →
    /// `O(distinct subtrees)` collapse per run.
    pub advice_dag_bits: Option<usize>,
    /// Communication rounds used.
    pub rounds: usize,
    /// Total messages delivered.
    pub messages_delivered: usize,
    /// Search-cost counters of the map-side assignment search: quotient classes
    /// expanded by the route BFS and search work (candidate paths tested,
    /// guided-merge operations and joint-search steps; see
    /// [`anet_views::SearchStats`]). Zero for solvers that never search for an
    /// assignment, and for Port Election, whose assignment comes from one
    /// `O(n + m)` validity table per leader without any route or path search.
    pub search: anet_views::SearchStats,
    /// Bits actually put on the wire, per round and per directed edge, when the
    /// run was metered ([`ElectionBuilder::metered`] or a [`Backend::Capped`]
    /// backend): the codec that shipped, the cap if any, and the two breakdowns
    /// (which always sum to the same total). `None` on unmetered runs and for
    /// analytic solvers.
    pub wire: Option<WireStats>,
    /// Per-node outputs (already weakened to `task` if the solver produced a stronger
    /// shade).
    pub outputs: Vec<NodeOutput>,
    /// The verifier's verdict on the outputs.
    pub verdict: Result<ElectionOutcome, TaskError>,
    /// Wall-clock time of the solver's whole run plus the Fact 1.1 weakening: for the
    /// map solver that is refinement, the assignment search, view building and the
    /// simulation; for advice pairs the oracle, the simulation and the decisions.
    /// It excludes verification and the forwarding of trace events to a
    /// [`trace_sink`](ElectionBuilder::trace_sink).
    pub wall_time: Duration,
    /// The run's round-level profile — per-round message counts, shallow payload
    /// bytes and per-phase nanoseconds — when the builder requested
    /// [`profiled`](ElectionBuilder::profiled) or
    /// [`trace_sink`](ElectionBuilder::trace_sink); `None` on untraced runs.
    /// Per-round message counts sum exactly to
    /// [`messages_delivered`](ElectionReport::messages_delivered) for
    /// simulation-backed solvers; analytic solvers yield an empty profile.
    pub round_profile: Option<RoundProfile>,
}

impl ElectionReport {
    /// Did the run solve the task?
    pub fn solved(&self) -> bool {
        self.verdict.is_ok()
    }

    /// The elected leader, if the task was solved.
    pub fn leader(&self) -> Option<NodeId> {
        self.verdict.as_ref().ok().map(|o| o.leader)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let advice = match self.advice_bits {
            Some(bits) => match (self.advice_tree_bits, self.advice_dag_bits) {
                (Some(tree), Some(dag)) => {
                    format!(", {bits} advice bits (tree {tree} / dag {dag})")
                }
                _ => format!(", {bits} advice bits"),
            },
            None => String::new(),
        };
        let wire = match &self.wire {
            Some(stats) => format!(", {} wire bits ({})", stats.total_bits(), stats.codec),
            None => String::new(),
        };
        match &self.verdict {
            Ok(outcome) => format!(
                "{} via {} on {}: leader {} in {} rounds, {} messages{advice}{wire} ({:?})",
                self.task,
                self.solver,
                self.backend,
                outcome.leader,
                self.rounds,
                self.messages_delivered,
                self.wall_time,
            ),
            Err(e) => format!(
                "{} via {} on {}: UNSOLVED ({e}) after {} rounds{advice}{wire}",
                self.task, self.solver, self.backend, self.rounds,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::{FnAlgorithm, FnOracle};
    use anet_constructions::UClass;
    use anet_graph::generators;
    use anet_views::{BitString, View};

    #[test]
    fn builder_without_solver_errors() {
        let g = generators::paper_three_node_line();
        let err = Election::task(Task::Selection).run(&g).unwrap_err();
        assert_eq!(err, EngineError::MissingSolver);
    }

    #[test]
    fn map_solver_through_the_engine_solves_every_shade() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        for task in Task::ALL {
            let report = Election::task(task)
                .solver(MapSolver::default())
                .run(&g)
                .expect("solvable ring");
            assert!(report.solved(), "{task}: {}", report.summary());
            assert_eq!(report.advice_bits, None);
            assert_eq!(report.outputs.len(), g.num_nodes());
        }
    }

    #[test]
    fn advice_solver_reports_bits_and_verdict() {
        let g = generators::star(5).unwrap();
        let report = Election::task(Task::Selection)
            .solver(AdviceSolver::theorem_2_2())
            .run(&g)
            .unwrap();
        assert!(report.solved());
        assert!(report.advice_bits.unwrap() > 0);
        assert_eq!(report.rounds, 0, "ψ_S(star) = 0");
        assert_eq!(report.messages_delivered, 0);
    }

    #[test]
    fn dag_advice_solver_matches_tree_solver_and_reports_both_sizes() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let tree = Election::task(Task::Selection)
            .solver(AdviceSolver::theorem_2_2())
            .run(&g)
            .unwrap();
        let dag = Election::task(Task::Selection)
            .solver(AdviceSolver::theorem_2_2_dag())
            .run(&g)
            .unwrap();
        assert!(tree.solved() && dag.solved());
        assert_eq!(
            tree.outputs, dag.outputs,
            "codec changes the wire form only"
        );
        assert_eq!(tree.rounds, dag.rounds);
        // Each run ships its own codec's size and reports both.
        assert_eq!(tree.advice_bits, tree.advice_tree_bits);
        assert_eq!(dag.advice_bits, dag.advice_dag_bits);
        assert_eq!(tree.advice_dag_bits, dag.advice_dag_bits);
        assert_eq!(tree.advice_tree_bits, dag.advice_tree_bits);
        let s = dag.summary();
        assert!(s.contains("tree") && s.contains("dag"), "{s}");
    }

    #[test]
    fn engine_weakens_stronger_outputs_per_fact_1_1() {
        // A custom advice solver that always answers the CPPE shade on the 3-node
        // line; requesting weaker shades must succeed via automatic weakening.
        let g = generators::paper_three_node_line();
        let make = || {
            AdviceSolver::new(
                "hardwired-cppe",
                FnOracle(|_: &PortGraph| BitString::new()),
                FnAlgorithm {
                    rounds: |_: &BitString| 1usize,
                    decide: |_: &BitString, view: &View| {
                        if view.degree() == 2 {
                            NodeOutput::Leader
                        } else {
                            // Both leaves: their single edge leads to the centre.
                            let far = view.children()[0].1;
                            NodeOutput::FullPath(vec![(0, far)])
                        }
                    },
                },
            )
        };
        for task in Task::ALL {
            let report = Election::task(task).solver(make()).run(&g).unwrap();
            assert!(report.solved(), "{task}: {}", report.summary());
            // The stored outputs have been weakened to the requested shade.
            for out in &report.outputs {
                assert!(out.task().is_none_or(|t| t == task), "{task}");
            }
        }
    }

    #[test]
    fn unsolvable_graphs_yield_reports_with_failed_verdicts() {
        let g = generators::symmetric_ring(6).unwrap();
        let report = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .run(&g);
        // The map solver refuses outright on infeasible graphs.
        assert!(matches!(report, Err(EngineError::Solver { .. })));
    }

    #[test]
    fn backends_produce_identical_reports() {
        let g = generators::random_connected(40, 4, 12, 77).unwrap();
        let builder = Election::task(Task::Selection).solver(MapSolver::default());
        let seq = builder.run(&g).unwrap();
        for backend in Backend::smoke_set() {
            let report = Election::task(Task::Selection)
                .solver(MapSolver::default())
                .backend(backend)
                .run(&g)
                .unwrap();
            assert_eq!(report.outputs, seq.outputs, "{backend}");
            assert_eq!(report.rounds, seq.rounds, "{backend}");
            assert_eq!(
                report.messages_delivered, seq.messages_delivered,
                "{backend}"
            );
            assert_eq!(report.leader(), seq.leader(), "{backend}");
        }
    }

    #[test]
    fn shared_interner_runs_match_private_runs_and_record_hits() {
        fn check<S: Solver + 'static>(task: Task, g: &PortGraph, solver: impl Fn() -> S) {
            let private = Election::task(task).solver(solver()).run(g).unwrap();
            let table = Arc::new(SharedViewInterner::new());
            let first = Election::task(task)
                .solver(solver())
                .shared_interner(Arc::clone(&table))
                .run(g)
                .unwrap();
            let second = Election::task(task)
                .solver(solver())
                .shared_interner(Arc::clone(&table))
                .run(g)
                .unwrap();
            // Sharing the table changes allocation, never results.
            assert_eq!(private.outputs, first.outputs, "{task}");
            assert_eq!(first.outputs, second.outputs, "{task}");
            assert_eq!(private.rounds, second.rounds, "{task}");
            // The second run re-interns the same graph's views: cross-run hits.
            assert!(table.stats().hits > 0, "{task}: {:?}", table.stats());
        }
        // The map solver and the Lemma 3.9 solver both intern through the table.
        let ring = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        check(Task::Selection, &ring, MapSolver::default);
        let class = UClass::new(4, 1).unwrap();
        let member = class.member(&[2; 9]).unwrap();
        check(Task::PortElection, &member.labeled.graph, || {
            PortElectionSolver::new(class.k)
        });
    }

    #[test]
    fn thread_budget_through_the_builder_keeps_outputs_identical() {
        let g = generators::random_connected(40, 4, 12, 77).unwrap();
        let plain = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .backend(Backend::parallel(8))
            .run(&g)
            .unwrap();
        let budgeted = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .backend(Backend::parallel(8))
            .thread_budget(1)
            .run(&g)
            .unwrap();
        assert_eq!(plain.outputs, budgeted.outputs);
        assert_eq!(plain.rounds, budgeted.rounds);
        assert_eq!(plain.messages_delivered, budgeted.messages_delivered);
        // The budget must not leak out of the run.
        assert_eq!(anet_sim::thread_budget(), usize::MAX);
    }

    #[test]
    fn untraced_runs_carry_no_profile() {
        let g = generators::paper_three_node_line();
        let report = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .run(&g)
            .unwrap();
        assert!(report.round_profile.is_none());
    }

    #[test]
    fn profiled_runs_sum_to_messages_delivered_on_every_backend() {
        let g = generators::random_connected(24, 4, 8, 5).unwrap();
        for backend in Backend::smoke_set() {
            for solver in [
                Election::task(Task::Selection).solver(MapSolver::default()),
                Election::task(Task::Selection).solver(AdviceSolver::theorem_2_2()),
            ] {
                let report = solver.backend(backend).profiled().run(&g).unwrap();
                let profile = report.round_profile.as_ref().expect("profiled run");
                assert_eq!(profile.len(), report.rounds, "{backend}");
                assert_eq!(
                    profile.total_messages(),
                    report.messages_delivered as u64,
                    "{backend}"
                );
            }
        }
    }

    #[test]
    fn profiled_per_round_counts_are_backend_independent() {
        let g = generators::random_connected(24, 4, 8, 5).unwrap();
        let reference = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .profiled()
            .run(&g)
            .unwrap();
        let reference_rounds: Vec<u64> = reference
            .round_profile
            .as_ref()
            .unwrap()
            .rounds()
            .iter()
            .map(|r| r.messages)
            .collect();
        for backend in Backend::smoke_set() {
            let report = Election::task(Task::Selection)
                .solver(MapSolver::default())
                .backend(backend)
                .profiled()
                .run(&g)
                .unwrap();
            let rounds: Vec<u64> = report
                .round_profile
                .as_ref()
                .unwrap()
                .rounds()
                .iter()
                .map(|r| r.messages)
                .collect();
            assert_eq!(rounds, reference_rounds, "{backend}");
            assert_eq!(report.outputs, reference.outputs, "{backend}");
        }
    }

    #[test]
    fn trace_sink_receives_tagged_events_and_interner_deltas() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let recorder = Arc::new(Recorder::new());
        let table = Arc::new(SharedViewInterner::new());
        let report = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .shared_interner(Arc::clone(&table))
            .trace_sink(Arc::new(Tagged::new(recorder.clone(), 42)))
            .run(&g)
            .unwrap();
        let events = recorder.drain();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.trace_id() == 42), "{events:?}");
        // The forwarded stream reproduces the attached profile exactly.
        let profile = RoundProfile::from_events(&events);
        assert_eq!(Some(&profile), report.round_profile.as_ref());
        assert_eq!(profile.total_messages(), report.messages_delivered as u64);
        // The shared-interner run records its interner traffic.
        let delta = events
            .iter()
            .find(|e| matches!(e, TraceEvent::InternerDelta { .. }))
            .expect("interner delta event");
        match delta {
            TraceEvent::InternerDelta { misses, .. } => {
                assert!(*misses > 0, "first run on an empty table must miss")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn tracing_never_changes_results() {
        let g = generators::random_connected(24, 4, 8, 5).unwrap();
        let plain = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .run(&g)
            .unwrap();
        let traced = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .trace_sink(Arc::new(Recorder::new()))
            .run(&g)
            .unwrap();
        assert_eq!(plain.outputs, traced.outputs);
        assert_eq!(plain.rounds, traced.rounds);
        assert_eq!(plain.messages_delivered, traced.messages_delivered);
        assert_eq!(plain.leader(), traced.leader());
    }

    #[test]
    fn metered_runs_report_wire_stats_without_changing_results() {
        let g = generators::random_connected(24, 4, 8, 5).unwrap();
        let plain = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .run(&g)
            .unwrap();
        assert!(plain.wire.is_none(), "unmetered runs carry no wire stats");
        for codec in ViewCodec::ALL {
            let metered = Election::task(Task::Selection)
                .solver(MapSolver::default())
                .metered(codec)
                .run(&g)
                .unwrap();
            let wire = metered.wire.as_ref().expect("metered run");
            assert_eq!(wire.codec, codec);
            assert_eq!(wire.bits_per_edge_cap, None);
            assert!(wire.total_bits() > 0, "{codec}");
            // The per-round and per-edge breakdowns account for the same bits.
            assert_eq!(wire.total_bits(), wire.per_edge_total(), "{codec}");
            assert_eq!(metered.outputs, plain.outputs, "{codec}");
            assert_eq!(metered.rounds, plain.rounds, "{codec}");
            assert_eq!(metered.messages_delivered, plain.messages_delivered);
            assert!(
                metered.summary().contains("wire bits"),
                "{}",
                metered.summary()
            );
        }
    }

    #[test]
    fn metered_advice_runs_carry_wire_stats() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let plain = Election::task(Task::Selection)
            .solver(AdviceSolver::theorem_2_2())
            .run(&g)
            .unwrap();
        let metered = Election::task(Task::Selection)
            .solver(AdviceSolver::theorem_2_2())
            .metered(ViewCodec::Delta)
            .run(&g)
            .unwrap();
        let wire = metered.wire.as_ref().expect("metered run");
        assert_eq!(wire.codec, ViewCodec::Delta);
        assert!(wire.total_bits() > 0);
        assert_eq!(metered.outputs, plain.outputs);
        assert_eq!(metered.rounds, plain.rounds);
        assert_eq!(metered.advice_bits, plain.advice_bits);
    }

    #[test]
    fn capped_backend_forces_metering_and_inflates_rounds_only() {
        let g = generators::random_connected(24, 4, 8, 5).unwrap();
        let plain = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .run(&g)
            .unwrap();
        let capped = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .backend(Backend::capped(8))
            .run(&g)
            .unwrap();
        let wire = capped
            .wire
            .as_ref()
            .expect("a capped run is always metered");
        assert_eq!(wire.bits_per_edge_cap, Some(8));
        assert_eq!(capped.outputs, plain.outputs);
        assert_eq!(capped.leader(), plain.leader());
        assert_eq!(capped.messages_delivered, plain.messages_delivered);
        assert!(capped.rounds >= plain.rounds, "streaming only adds rounds");
        // The cap binds every physical round: no round ships more than B bits on
        // any one of the 2m directed edges.
        let edges = 2 * g.num_edges() as u64;
        assert!(wire.per_round_bits.iter().all(|&b| b <= 8 * edges));
    }

    #[test]
    fn metered_profiles_reconcile_with_wire_stats() {
        let g = generators::random_connected(24, 4, 8, 5).unwrap();
        let report = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .backend(Backend::capped(16))
            .metered(ViewCodec::Dag)
            .profiled()
            .run(&g)
            .unwrap();
        let profile = report.round_profile.as_ref().expect("profiled run");
        let wire = report.wire.as_ref().expect("metered run");
        assert_eq!(
            profile.len(),
            report.rounds,
            "one profile row per physical round"
        );
        assert_eq!(profile.total_wire_bits(), wire.total_bits());
        assert_eq!(profile.total_messages(), report.messages_delivered as u64);
    }

    #[test]
    fn analytic_solvers_profile_empty() {
        use anet_constructions::JClass;
        let class = JClass::new(2, 4).unwrap();
        let member = class.template(Some(3)).unwrap();
        let graph = member.labeled.graph.clone();
        let report = Election::task(Task::CompletePortPathElection)
            .solver(CppeSolver::new(member, class.k))
            .profiled()
            .run(&graph)
            .unwrap();
        let profile = report.round_profile.as_ref().expect("profiled run");
        assert!(
            profile.is_empty(),
            "the CPPE solver simulates nothing, so there are no round events"
        );
        assert!(report.messages_delivered > 0, "accounting is closed-form");
        assert!(report.wire.is_none(), "nothing simulated, nothing metered");
    }

    #[test]
    fn report_summary_is_informative() {
        let g = generators::star(4).unwrap();
        let report = Election::task(Task::Selection)
            .solver(AdviceSolver::theorem_2_2())
            .backend(Backend::Parallel { threads: 2 })
            .run(&g)
            .unwrap();
        let s = report.summary();
        assert!(s.contains("S via"), "{s}");
        assert!(s.contains("par2"), "{s}");
        assert!(s.contains("advice bits"), "{s}");
    }
}
