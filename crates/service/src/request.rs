//! Request and response types of the election service.
//!
//! A tenant submits an [`ElectionRequest`]: a concrete graph, one of the paper's
//! four task shades, a solver recipe and an execution backend — exactly the four
//! axes of the `Election` facade, which is what the worker ultimately drives. The
//! service answers every submission *synchronously* with a typed [`Submission`]:
//! either `Enqueued` (with the assigned request id) or `Rejected` (with the
//! request handed back intact, so the caller can retry, reroute or drop it — the
//! service never silently discards work it admitted, and never admits work it
//! cannot queue).

// anet-lint: deny(panic-path)

use anet_election::engine::{AdviceSolver, ElectionReport, MapSolver, Solver};
use anet_election::tasks::Task;
use anet_graph::PortGraph;
use anet_sim::Backend;
use std::time::Duration;

/// Builds one solver instance per execution of a request.
///
/// Requests carry a *factory* rather than a solver because [`Solver`] trait objects
/// are neither `Send` nor reusable across runs in general, while requests must
/// travel to whichever worker steals them. The factory is called exactly once per
/// execution, on the worker thread.
pub type SolverFactory = Box<dyn Fn() -> Box<dyn Solver> + Send + Sync>;

/// A solver recipe: a display label plus the [`SolverFactory`] that realises it.
pub struct SolverRecipe {
    label: String,
    factory: SolverFactory,
}

impl SolverRecipe {
    /// A recipe from an explicit label and factory (for custom solvers).
    pub fn new(label: impl Into<String>, factory: SolverFactory) -> Self {
        SolverRecipe {
            label: label.into(),
            factory,
        }
    }

    /// The map-based minimum-time baseline with the default path budget.
    pub fn map() -> Self {
        SolverRecipe::new("map", Box::new(|| Box::new(MapSolver::default())))
    }

    /// The Theorem 2.2 advice pair (unfolded-tree codec). On a graph with no finite
    /// Selection index the oracle has no advice, and the request fails with the
    /// solver's error.
    pub fn advice() -> Self {
        SolverRecipe::new("advice", Box::new(|| Box::new(AdviceSolver::theorem_2_2())))
    }

    /// The Theorem 2.2 advice pair shipping the shared-DAG codec.
    pub fn advice_dag() -> Self {
        SolverRecipe::new(
            "advice-dag",
            Box::new(|| Box::new(AdviceSolver::theorem_2_2_dag())),
        )
    }

    /// The display label (used in completed-election records and reports).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Instantiate the solver for one execution.
    pub(crate) fn build(&self) -> Box<dyn Solver> {
        (self.factory)()
    }
}

impl std::fmt::Debug for SolverRecipe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverRecipe")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// One unit of work for the service: which tenant wants which task solved by which
/// solver on which graph, on which backend.
#[derive(Debug)]
pub struct ElectionRequest {
    /// The submitting tenant (reports group hit-rates and latency by tenant label).
    pub tenant: String,
    /// Instance name, e.g. `torus-4x4/shuffled` (free-form, for reports).
    pub name: String,
    /// The network to elect on.
    pub graph: PortGraph,
    /// The requested task shade.
    pub task: Task,
    /// The solver recipe to run.
    pub solver: SolverRecipe,
    /// The execution backend for the solver's communication rounds.
    pub backend: Backend,
}

impl ElectionRequest {
    /// A request with the given axes.
    pub fn new(
        tenant: impl Into<String>,
        name: impl Into<String>,
        graph: PortGraph,
        task: Task,
        solver: SolverRecipe,
        backend: Backend,
    ) -> Self {
        ElectionRequest {
            tenant: tenant.into(),
            name: name.into(),
            graph,
            task,
            solver,
            backend,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission queue is at capacity; retry after the backlog drains.
    QueueFull,
    /// The service has been closed to new work (it still finishes admitted work).
    Closed,
}

/// The synchronous answer to [`crate::ElectionService::submit`].
#[derive(Debug)]
pub enum Submission {
    /// The request was admitted and will be executed.
    Enqueued {
        /// The id assigned to the request — results carry it, and completed
        /// elections are returned sorted by it (submission order), which is what
        /// makes service output independent of worker count.
        id: u64,
        /// Queue depth *after* this admission (admitted but not yet started).
        queue_depth: usize,
    },
    /// The request was not admitted; it is handed back unchanged.
    Rejected {
        /// The rejected request, intact, for the caller to retry or reroute.
        request: ElectionRequest,
        /// Why it was rejected.
        reason: RejectReason,
        /// Queue depth observed at rejection time.
        queue_depth: usize,
        /// The configured admission capacity.
        capacity: usize,
    },
}

impl Submission {
    /// The assigned id, when admitted.
    pub fn id(&self) -> Option<u64> {
        match self {
            Submission::Enqueued { id, .. } => Some(*id),
            Submission::Rejected { .. } => None,
        }
    }

    /// Was the request admitted?
    pub fn is_enqueued(&self) -> bool {
        matches!(self, Submission::Enqueued { .. })
    }
}

/// The result of one admitted request, as returned by
/// [`crate::ElectionService::shutdown`] (sorted by [`id`](CompletedElection::id)).
#[derive(Debug)]
pub struct CompletedElection {
    /// The id assigned at admission (submission order).
    pub id: u64,
    /// Tenant label of the submitting tenant.
    pub tenant: String,
    /// Instance name from the request.
    pub name: String,
    /// Solver label from the request's recipe.
    pub solver: String,
    /// The requested task shade.
    pub task: Task,
    /// The configured backend.
    pub backend: Backend,
    /// Time spent waiting in the queue before a worker picked the request up.
    pub queue_wait: Duration,
    /// Time the worker spent executing the election (the facade's solve+verify).
    pub service_time: Duration,
    /// End-to-end latency: submission to completion (`queue_wait + service_time`).
    pub turnaround: Duration,
    /// The election outcome: a full [`ElectionReport`], or the failure rendered as
    /// a string (solver error, or a panic caught on the worker).
    pub outcome: Result<ElectionReport, String>,
}

impl CompletedElection {
    /// Did the run produce a verified solution?
    pub fn solved(&self) -> bool {
        self.outcome.as_ref().map(|r| r.solved()).unwrap_or(false)
    }
}
