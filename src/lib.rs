//! # four-shades — umbrella crate
//!
//! Reproduction of *"Four Shades of Deterministic Leader Election in Anonymous
//! Networks"* (Gorain, Miller, Pelc — SPAA 2021). This crate re-exports the public API
//! of the workspace so that examples and downstream users can depend on a single crate:
//!
//! * [`graph`] — anonymous port-numbered network graphs,
//! * [`views`] — augmented truncated views, refinement, election indices,
//! * [`sim`] — the synchronous LOCAL-model simulator and its execution backends,
//! * [`trace`] — the round-level tracing layer: typed [`trace::TraceEvent`]s, the
//!   [`trace::TraceSink`] trait with its zero-cost [`trace::NoopSink`] and buffering
//!   [`trace::Recorder`], and the [`trace::RoundProfile`] per-round aggregate
//!   (see `docs/OBSERVABILITY.md`),
//! * [`election`] — the four election tasks, advice framework, algorithms, and the
//!   **`ElectionEngine` facade** (`Election::task(…).solver(…).backend(…).run(&g)`),
//! * [`constructions`] — the paper's lower-bound graph families and figures,
//! * [`workloads`] — scenario generation beyond the paper: extra graph families
//!   (random-regular, torus, hypercube, circulant), the scenario registry, and the
//!   JSON-emitting sweep driver behind the `sweep` binary,
//! * [`service`] — the multi-tenant election service: a worker pool on one
//!   bounded FIFO queue running many election requests concurrently
//!   over one shared concurrent view interner, with latency/throughput metrics.
//!
//! The most common names are re-exported in the [`prelude`]:
//!
//! ```no_run
//! use four_shades::prelude::*;
//! # let graph = four_shades::graph::generators::paper_three_node_line();
//! let report = Election::task(Task::Selection)
//!     .solver(MapSolver::default())
//!     .backend(Backend::Parallel { threads: 4 })
//!     .run(&graph)
//!     .expect("solvable graph");
//! println!("{}", report.summary());
//! ```
//!
//! See `README.md` for a quickstart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use anet_constructions as constructions;
pub use anet_election as election;
pub use anet_graph as graph;
pub use anet_service as service;
pub use anet_sim as sim;
pub use anet_trace as trace;
pub use anet_views as views;
pub use anet_workloads as workloads;

/// The names needed for everyday use of the `ElectionEngine` facade.
pub mod prelude {
    pub use anet_constructions::{FamilyInstance, GraphFamily};
    pub use anet_election::engine::{
        AdviceSolver, Backend, BatchRow, CppeSolver, Election, ElectionBuilder, ElectionReport,
        EngineError, MapSolver, PortElectionSolver, RunContext, Solver, SolverRun,
    };
    pub use anet_election::tasks::{ElectionOutcome, NodeOutput, Task, TaskError};
    pub use anet_service::{
        CompletedElection, ElectionRequest, ElectionService, ServiceConfig, ServiceReport,
        SolverRecipe, Submission, TenantBreakdown,
    };
    pub use anet_trace::{NoopSink, Recorder, RoundProfile, TraceEvent, TraceSink};
    pub use anet_workloads::{Scenario, ScenarioRegistry, SolverSpec};
}
