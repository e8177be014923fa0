//! # anet-views — views of anonymous networks and election indices
//!
//! The central notion in the study of anonymous networks is the **view** of a node
//! (Yamashita–Kameda): the infinite tree of all finite paths starting at the node,
//! coded by port numbers. What a node can learn in `r` rounds of the LOCAL model is
//! exactly its **augmented truncated view** `B^r(v)` — the view truncated at depth `r`
//! with leaves labelled by their degrees (Section 1 of the paper).
//!
//! This crate implements:
//!
//! * [`view_tree`] — explicit owned `B^h(v)` trees (the test / interop form and the
//!   naive reference: its traversals walk the unfolded tree),
//! * [`interned`] — structurally shared [`View`] handles and the hash-consing
//!   [`ViewInterner`]: the representation every hot path (the full-information
//!   collector, the solvers) works on — cloning is an `Arc` bump, equality and
//!   lexicographic order short-circuit on shared subtrees, and each traversal visits
//!   a distinct subtree once. An interner files its canonical nodes in a private
//!   table or, through [`ViewInterner::shared`], in a [`SharedViewInterner`],
//! * [`shared`] — the concurrent [`SharedViewInterner`]: a node table split across
//!   `Mutex`-striped shards, safe to share between threads, so concurrent election
//!   runs (the multi-tenant service) dedup isomorphic subtrees against one
//!   process-wide table,
//! * [`refinement`] — *port colour refinement*, an `O(h·m)` computation of the
//!   equivalence classes "`B^h(u) = B^h(v)`" for every depth `h` simultaneously
//!   (within one graph or jointly across several graphs, as needed by the paper's
//!   cross-graph indistinguishability lemmas), and the [`ViewClassifier`] that reads
//!   a view's class back off those rows,
//! * [`bits`] — exact-length bit strings (the unit in which advice size is measured),
//! * [`encoding`] — [`ViewCodec`], the one codec for Theorem 2.2 advice and for
//!   metered wire messages, with the header its three formats share and the
//!   unfolded-tree format used by the Theorem 2.2 oracle (`O((Δ−1)^h log Δ)` bits),
//! * [`dag_encoding`] — the shared-DAG format: one table entry per *distinct*
//!   subtree, so symmetric views cost `O(h)` instead of `Θ(Δ^h)` bits; its node
//!   table writer and reader also serve the delta format,
//! * [`delta_encoding`] — the delta format of the metered transport: a view encoded
//!   against the previous round's view the receiver already holds, shipping only
//!   the new DAG table entries (never more than one bit over the DAG format),
//! * [`paths`] — simple-path utilities underlying the PE / PPE / CPPE verifiers,
//! * [`quotient`] — the view-class quotient graph of a refinement depth and the
//!   reusable [`QuotientSearch`] (leader BFS, uniform-route lifting, the guided-merge
//!   cache, search-cost counters) that the election-index computations run on,
//! * [`election_index`] — feasibility (all views distinct) and the election indices
//!   `ψ_S`, `ψ_PE`, `ψ_PPE`, `ψ_CPPE` of the four shades of leader election.
//!
//! A view in one handle, and two of its wire forms:
//!
//! ```
//! use anet_views::{View, ViewCodec};
//!
//! let g = anet_graph::generators::star(4).unwrap();
//! let view = View::build(&g, 0, 4); // B⁴(centre), structurally shared
//! assert_eq!(view.degree(), 4);
//!
//! let tree_bits = ViewCodec::Tree.encode(&view, 4, None);
//! let dag_bits = ViewCodec::Dag.encode(&view, 4, None);
//! assert_eq!(ViewCodec::Tree.decode(&tree_bits, None).unwrap().0, view);
//! assert_eq!(ViewCodec::Dag.decode(&dag_bits, None).unwrap().0, view);
//! // The star's four identical branches collapse to shared table entries.
//! assert!(dag_bits.len() < tree_bits.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod dag_encoding;
pub mod delta_encoding;
pub mod election_index;
pub mod encoding;
pub mod interned;
pub mod paths;
pub mod quotient;
pub mod refinement;
pub mod shared;
pub mod view_tree;

pub use bits::BitString;
pub use election_index::{ElectionIndices, Feasibility};
pub use encoding::ViewCodec;
pub use interned::{View, ViewInterner};
pub use quotient::{ClassQuotient, QuotientSearch, SearchStats};
pub use refinement::{JointRefinement, Refinement, ViewClassifier};
pub use shared::{lock_or_poison, wait_timeout_or_poison, InternerStats, SharedViewInterner};
pub use view_tree::ViewTree;
