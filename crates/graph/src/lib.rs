//! # anet-graph — anonymous port-numbered network graphs
//!
//! This crate provides the network substrate used throughout the reproduction of
//! *"Four Shades of Deterministic Leader Election in Anonymous Networks"*
//! (Gorain, Miller, Pelc — SPAA 2021).
//!
//! A network is modelled as a simple, undirected, connected graph whose nodes carry
//! **no identifiers**. At each node `v` of degree `d`, the incident edges are
//! distinguished only by *port numbers* `0..d`, assigned locally and independently at
//! both endpoints of every edge. The central type is [`PortGraph`].
//!
//! The crate deliberately contains no knowledge of views, elections or advice: those
//! live in the `anet-views` and `anet-election` crates. What lives here is
//!
//! * [`PortGraph`] — the validated immutable graph, with BFS/shortest-path helpers,
//! * [`WordMap`] — a hash map keyed by machine words, for the graph searches and
//!   the view classifier,
//! * [`GraphBuilder`] — incremental construction with automatic or explicit ports,
//! * [`generators`] — the standard families used by tests, examples and benchmarks
//!   (paths, rings, cliques, hypercubes, full trees, random connected graphs),
//! * [`permute`] — port swaps and node relabellings (the paper's constructions are
//!   defined by swapping ports of a template graph),
//! * [`Labeling`] — optional human-readable role names attached to nodes (the paper's
//!   constructions need to talk about `r_{j,b}`, `c_m`, `ρ_i`, … even though the
//!   *nodes themselves* are anonymous; labels are metadata for tests and oracles, and
//!   are never available to distributed algorithms),
//! * [`dot`] — Graphviz export used to regenerate the paper's figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod dot;
pub mod error;
pub mod generators;
pub mod graph;
pub mod labeling;
pub mod permute;
pub mod rng;
mod word_hash;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{EdgeRef, NodeId, Port, PortGraph};
pub use labeling::{LabeledGraph, Labeling};
pub use word_hash::{WordHasher, WordMap};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
