//! # anet-sim — synchronous LOCAL-model simulator
//!
//! The paper works in the standard LOCAL communication model: communication proceeds
//! in synchronous rounds, all nodes start simultaneously, and in each round every node
//! may exchange arbitrary messages with all of its neighbours and perform arbitrary
//! local computation. Nodes are anonymous; the only local structure is the degree and
//! the port numbering of incident edges.
//!
//! This crate provides
//!
//! * [`model`] — the [`model::NodeAlgorithm`] / [`model::AlgorithmFactory`] traits that
//!   distributed algorithms implement,
//! * [`backend`] — the one round loop (send → route → receive over two flat
//!   message arenas) and the execution backends: [`Backend::Sequential`],
//!   [`Backend::Parallel`], [`Backend::Batching`] and [`Backend::AdaptiveParallel`]
//!   differ only in how many worker threads the send and receive phases split over,
//! * [`budget`] — scoped per-thread caps on backend worker counts
//!   ([`with_thread_budget`]), so many concurrent election runs (the multi-tenant
//!   service) don't oversubscribe the machine at `n × available_parallelism`,
//! * [`pool`] — a std-only pool ([`run_indexed`]) for batches of independent jobs
//!   with deterministic, job-order results; the parallel sweep driver runs on it,
//! * [`runner`] — the [`runner::RunOutcome`] / [`runner::RunReport`] result types,
//! * [`full_info`] — the *full-information* algorithm in which every node forwards
//!   everything it knows each round; after `r` rounds its knowledge is exactly the
//!   augmented truncated view `B^r(v)`, which is the information-theoretic ceiling the
//!   paper's model assumes. [`run_full_information_traced`] runs it on any backend
//!   and applies an arbitrary decision function of `B^r(v)` — precisely the paper's
//!   notion of a deterministic algorithm with allotted time `r`,
//! * [`transport`] — the bit-metered wire mode: every message serialised in an
//!   [`anet_views::ViewCodec`] format (unfolded tree, shared DAG, or round-over-round
//!   delta), exact per-round/per-edge bit accounting in [`WireStats`], and the
//!   CONGEST-style [`Backend::Capped`] bandwidth cap under which large views stream
//!   across multiple physical rounds. Its entry point
//!   [`run_full_information_metered`] is the metered twin of
//!   [`run_full_information_traced`], and the only one that applies a cap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod budget;
pub mod full_info;
pub mod model;
pub mod pool;
pub mod runner;
pub mod transport;

pub use backend::Backend;
pub use budget::{thread_budget, with_thread_budget};
pub use full_info::{run_full_information_traced, ViewCollector, ViewCollectorFactory};
pub use model::{AlgorithmFactory, NodeAlgorithm};
pub use pool::run_indexed;
pub use runner::{RunOutcome, RunReport};
pub use transport::{run_full_information_metered, WireStats};
