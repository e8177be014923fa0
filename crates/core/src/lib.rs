//! # anet-election — the four shades of deterministic leader election
//!
//! This crate is the paper's primary contribution turned into a library:
//!
//! * [`tasks`] — the four formulations of leader election in anonymous networks
//!   (`S`, `PE`, `PPE`, `CPPE`), their output types, their *verifiers*, and the
//!   output weakenings behind Fact 1.1;
//! * [`advice`] — the algorithms-with-advice framework: an [`advice::Oracle`] that sees
//!   the whole network and emits one binary string, an [`advice::AdviceAlgorithm`]
//!   executed identically at every node as a function of the advice and of the node's
//!   augmented truncated view, and a runner that executes the pair through the LOCAL
//!   simulator;
//! * [`selection`] — the Theorem 2.2 oracle/algorithm pair solving Selection in
//!   minimum time `ψ_S(G)` with `O((Δ−1)^{ψ_S} log Δ)` advice bits;
//! * [`map_algorithms`] — minimum-time map-based algorithms for all four tasks on
//!   arbitrary feasible graphs (the "knowing the map" baseline that defines the
//!   election indices);
//! * [`port_election`] — the Port Election algorithm of Lemma 3.9, solving `PE` in `k`
//!   rounds on every member of `U_{Δ,k}` given the map;
//! * [`cppe`] — the Complete Port Path Election algorithm of Lemma 4.8, solving `CPPE`
//!   in `k` rounds on every member of `J_{μ,k}` given the map;
//! * [`bounds`] — closed-form calculators for every advice bound stated in the paper
//!   (Theorems 2.2, 2.9, 3.11, 4.11, 4.12 and Facts 2.3, 3.1, 4.1, 4.2), used by the
//!   experiment binaries to print paper-vs-measured tables;
//! * [`engine`] — the **`ElectionEngine` facade**: one builder-style API
//!   (`Election::task(…).solver(…).backend(…).run(&graph)`) over the four shades, all
//!   of the solvers above, and all `anet-sim` execution backends; the same builder
//!   sweeps a configuration across a graph family
//!   ([`ElectionBuilder::sweep`](engine::ElectionBuilder::sweep)).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advice;
pub mod bounds;
pub mod cppe;
pub mod engine;
pub mod lower_bound_witness;
pub mod map_algorithms;
pub mod port_election;
pub mod selection;
pub mod tasks;

pub use advice::{AdviceAlgorithm, Oracle};
pub use engine::{
    AdviceSolver, Backend, BatchRow, CppeSolver, Election, ElectionBuilder, ElectionReport,
    EngineError, MapSolver, PortElectionSolver, RunContext, Solver, SolverRun,
};
pub use tasks::{ElectionOutcome, NodeOutput, Task, TaskError};
