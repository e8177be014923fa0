//! # anet-service — a multi-tenant election service
//!
//! Everything below the workspace's `ElectionEngine` facade answers one question
//! about one graph. This crate answers many at once: an [`ElectionService`] accepts
//! a stream of [`ElectionRequest`]s — graph × task shade × solver recipe ×
//! execution backend, exactly the facade's axes — from any number of tenants, and
//! schedules them across a work-stealing worker pool with bounded-queue
//! backpressure and one process-wide [`anet_views::SharedViewInterner`].
//!
//! The three ideas, and where they live:
//!
//! * **Work-stealing scheduling** ([`service`]) — per-worker striped-mutex deques;
//!   pop-own-front, steal-others-back. Election runs vary by orders of magnitude
//!   across graph families, so stealing is what keeps the pool busy when one
//!   tenant submits the big instances.
//! * **Bounded admission** ([`request`]) — at most `queue_capacity` requests wait;
//!   beyond that, [`ElectionService::submit`] answers [`Submission::Rejected`]
//!   *with the request handed back*, so callers own the retry policy and the
//!   service never blocks a submitter nor drops admitted work.
//! * **Cross-tenant sharing** — every run interns what views it builds through
//!   the shared concurrent interner (via the facade's `shared_interner` hook)
//!   under a per-run thread budget (via `thread_budget`), so tenants on
//!   overlapping graph families dedup view DAGs against each other and parallel
//!   backends don't oversubscribe the machine. Only map Selection files a view
//!   there, its leader's; the map solver's stronger shades and the Lemma 3.9
//!   and 4.8 solvers decide by refinement class and file nothing. The [`ServiceReport`]
//!   measures both: interner hit-rate, elections/sec, queue/turnaround latency
//!   percentiles (globally and per tenant via [`TenantBreakdown`]), steal counts.
//!
//! The service is also a trace source: set
//! [`ServiceConfig::trace_sink`](service::ServiceConfig::trace_sink) and every
//! request's engine run streams its round-level `anet_trace` events into the sink
//! stamped with the request id, alongside scheduler-level worker-execute and
//! worker-steal events — see `docs/OBSERVABILITY.md`.
//!
//! Results are returned sorted by request id (submission order), which makes the
//! output of a service run **independent of worker count** — the property the
//! determinism tests pin down.
//!
//! ```
//! use anet_service::{ElectionRequest, ElectionService, ServiceConfig, SolverRecipe};
//! use anet_election::tasks::Task;
//! use anet_sim::Backend;
//!
//! let requests = vec![
//!     ElectionRequest::new(
//!         "tenant-a", "line",
//!         anet_graph::generators::paper_three_node_line(),
//!         Task::Selection, SolverRecipe::map(), Backend::Sequential,
//!     ),
//!     ElectionRequest::new(
//!         "tenant-b", "star-4",
//!         anet_graph::generators::star(4).unwrap(),
//!         Task::Selection, SolverRecipe::map(), Backend::Sequential,
//!     ),
//! ];
//! let (completed, report) = ElectionService::run_batch(ServiceConfig::default(), requests);
//! assert_eq!(completed.len(), 2);
//! assert!(completed.iter().all(|c| c.solved()));
//! println!("{}", report.summary());
//! ```

// anet-lint: deny(panic-path)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod request;
pub mod service;

pub use metrics::{LatencyStats, ServiceReport, TenantBreakdown};
pub use request::{
    CompletedElection, ElectionRequest, RejectReason, SolverFactory, SolverRecipe, Submission,
};
pub use service::{ElectionService, ServiceConfig};
