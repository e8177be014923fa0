//! Structurally shared augmented truncated views: [`View`] handles and hash-consing.
//!
//! The owned [`ViewTree`] materialises `B^h(v)` as a recursive `Vec` tree, so every
//! hand-off (a message, a map entry, a comparison key) deep-copies up to `Δ^h` nodes.
//! But views are *maximally shareable*: the subtree hanging off the child reached
//! through edge `(p, q)` is by definition the neighbour's `B^{h-1}` — the very object
//! the neighbour just computed (and, in the simulator, just sent to everyone). This
//! module exploits that:
//!
//! * [`View`] is an immutable handle to an `Arc`-backed tree node that carries a
//!   precomputed structural hash, subtree size and height. Cloning a `View` is an
//!   `Arc` reference-count bump; equality is pointer-then-hash-then-structure (a
//!   negative answer is `O(1)`, and a positive answer verifies each distinct node
//!   pair at most once — shared subtrees short-circuit on pointers and unshared but
//!   equal ones are pair-memoized); [`View::lex_cmp`] realises the canonical token
//!   order with the same short-circuits.
//! * [`ViewInterner`] hash-conses structurally identical subtrees to one canonical
//!   representative, filed in a private table ([`ViewInterner::new`]) or in a
//!   process-wide [`crate::SharedViewInterner`] ([`ViewInterner::shared`]).
//!   [`ViewInterner::build_all`] constructs `B^h(v)` for *every* node
//!   of a graph in `O(n · h · Δ)` handle operations — level `d` reuses the level
//!   `d − 1` handles of the neighbours — instead of the `Θ(n · Δ^h)` nodes the owned
//!   construction materialises; [`ViewInterner::build`] does the same for one node,
//!   over the ball of radius `h` around it only. On symmetric topologies (rings,
//!   tori, hypercubes, circulants) almost all subtrees collapse: the interner ends
//!   up holding one node per (view class × depth), and equal views are pointer-equal.
//!
//! [`View`] and [`ViewTree`] convert losslessly into each other
//! ([`View::from_tree`] / [`View::to_tree`]); the owned form remains the test and
//! interop representation, while every hot path — the full-information collector in
//! `anet-sim`, the solvers in `anet-core` — works on handles. Both forms serialise
//! through either wire codec ([`crate::encoding`] unfolds the tree,
//! [`crate::dag_encoding`] writes the shared DAG itself).
//!
//! Everything here is deterministic: the structural hash is a fixed SplitMix64-style
//! mix of degrees and ports, so hashes, interner contents and all derived outputs are
//! reproducible across runs, threads and execution backends.
//!
//! ## Thread-safety invariants
//!
//! [`View`] is `Send + Sync` (enforced by compile-time assertions below): a handle is
//! an `Arc` to a node whose fields are immutable after construction, so sharing
//! handles across threads is safe and cheap. [`ViewInterner`] is `Send` but all its
//! useful methods take `&mut self`: each thread (each election run) owns its own.
//! Threads share canonical nodes through a [`crate::SharedViewInterner`], whose
//! lock-striped shards are plain node maps; [`ViewInterner::shared`] files into
//! such a table instead of a private map. That sharing relies on exactly these
//! invariants, documented here so they cannot rot silently:
//!
//! 1. **Structural hashes are pure and deterministic** — `node_hash` is a fixed
//!    function of `(degree, child ports, child hashes)` with no per-process or
//!    per-thread state (no `RandomState`, no addresses). Two threads computing the
//!    hash of the same structure always agree, which is what makes hash-based shard
//!    routing consistent across threads.
//! 2. **Canonical pointers are stable and unique per table** — a table (a private
//!    interner's map, or every shard of a shared one) keeps every canonical node
//!    alive for its own lifetime, and an interner keeps a handle to every foreign
//!    node it has canonicalized, so the `Arc` addresses used in `NodeKey` and in the
//!    canonicalisation memo cannot be recycled while they are in use, and one
//!    structure never has two canonical nodes within one table.
//! 3. **Nodes are immutable after construction** — no method mutates `degree`,
//!    `children`, `hash`, `size` or `height` behind a handle, so a canonical node
//!    read by one thread while another thread files new (different) nodes is never
//!    torn. All table mutation is confined to the node maps, behind `&mut self` or a
//!    shard lock.
//!
//! ```
//! use anet_views::{View, ViewInterner};
//!
//! // On the symmetric 6-ring every node has the same B^h — one interner collapses
//! // the whole graph to one shared node per depth, and equal means pointer-equal.
//! let g = anet_graph::generators::symmetric_ring(6).unwrap();
//! let mut interner = ViewInterner::new();
//! let views = interner.build_all(&g, 4);
//! assert!(View::ptr_eq(&views[0], &views[5]));
//! assert_eq!(interner.len(), 5); // depths 0..=4
//! // The unfolded size is exponential; the handle knows it in O(1).
//! assert_eq!(views[0].size(), (1 << 5) - 1);
//! ```

use crate::view_tree::ViewTree;
use crate::SharedViewInterner;
use anet_graph::{NodeId, Port, PortGraph};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One shared tree node. Not public: all access goes through [`View`], which
/// guarantees the cached `hash`/`size`/`height` always agree with the structure.
#[derive(Debug)]
struct ViewNode {
    /// Degree (in the graph) of the node this view position corresponds to.
    degree: u32,
    /// Children in increasing order of outgoing port: `(p, q, subtree)`.
    children: Vec<(Port, Port, View)>,
    /// Structural hash: a deterministic function of the token sequence.
    hash: u64,
    /// Number of *unfolded* tree nodes in this subtree (root included), saturating:
    /// deep shared views can unfold past usize::MAX even though they are cheap to
    /// hold, so the count caps instead of overflowing. (Equality does not rely on
    /// exact sizes — a saturated tie just falls through to the structural compare.)
    size: usize,
    /// Height of this subtree (0 for a leaf).
    height: usize,
}

/// An immutable, structurally shared augmented truncated view `B^h(v)`.
///
/// Semantically identical to [`ViewTree`] (same token sequence, same lexicographic
/// order, lossless conversions both ways); operationally a cheap handle: `clone` is an
/// `Arc` bump, equality and ordering short-circuit on shared subtrees, and `size`,
/// `height` and the structural hash are precomputed.
#[derive(Clone)]
pub struct View {
    node: Arc<ViewNode>,
}

/// SplitMix64 finalizer: the deterministic mixer behind the structural hash.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The structural hash a node built from `degree` and `children` will carry — the
/// single definition shared by [`View::from_parts`] and the shard router of
/// [`crate::SharedViewInterner`], so a prospective node can be routed to its shard
/// *before* it is allocated and the two can never disagree.
pub(crate) fn node_hash(degree: u32, children: &[(Port, Port, View)]) -> u64 {
    let mut hash = mix64(0x9E37_79B9_7F4A_7C15 ^ u64::from(degree))
        ^ mix64(children.len() as u64 ^ 0xD1B5_4A32_D192_ED03);
    for (p, q, child) in children {
        hash = mix64(
            hash ^ mix64(u64::from(*p) | (u64::from(*q) << 32)).wrapping_add(child.node.hash),
        );
    }
    hash
}

impl View {
    /// Build a view node from a degree and already-built children. The children are
    /// shared, not copied: this is `O(children)` regardless of subtree sizes, which is
    /// what makes the full-information collector's per-round graft cheap.
    pub fn from_parts(degree: u32, children: Vec<(Port, Port, View)>) -> View {
        let hash = node_hash(degree, &children);
        let mut size = 1usize;
        let mut height = 0usize;
        for (_, _, child) in &children {
            size = size.saturating_add(child.node.size);
            height = height.max(1 + child.node.height);
        }
        View {
            node: Arc::new(ViewNode {
                degree,
                children,
                hash,
                size,
                height,
            }),
        }
    }

    /// A bare leaf: `B^0` of a node of the given degree.
    pub fn leaf(degree: u32) -> View {
        View::from_parts(degree, Vec::new())
    }

    /// Build `B^depth(v)` in graph `g` with full structural sharing, through a fresh
    /// interner that builds only the ball of radius `depth` around `v` (see
    /// [`ViewInterner::build`]). For the views of all nodes at once, use
    /// [`ViewInterner::build_all`].
    pub fn build(g: &PortGraph, v: NodeId, depth: usize) -> View {
        ViewInterner::new().build(g, v, depth)
    }

    /// Degree (in the graph) of the node this view position corresponds to.
    pub fn degree(&self) -> u32 {
        self.node.degree
    }

    /// Children in increasing order of outgoing port: `(p, q, subtree)`.
    pub fn children(&self) -> &[(Port, Port, View)] {
        &self.node.children
    }

    /// Precomputed height of the tree (0 for a bare leaf). `O(1)`.
    pub fn height(&self) -> usize {
        self.node.height
    }

    /// Precomputed number of unfolded tree nodes (root included), saturating at
    /// `usize::MAX` for views whose walk tree exceeds it. `O(1)`.
    pub fn size(&self) -> usize {
        self.node.size
    }

    /// Number of tree edges (= size − 1). `O(1)`.
    pub fn num_edges(&self) -> usize {
        self.node.size - 1
    }

    /// The precomputed structural hash (a deterministic function of the token
    /// sequence; equal views always hash equal).
    pub fn structural_hash(&self) -> u64 {
        self.node.hash
    }

    /// Are the two handles the *same object* (shared, not merely equal)? Interned
    /// views built through one [`ViewInterner`] are equal iff they are shared.
    pub fn ptr_eq(a: &View, b: &View) -> bool {
        Arc::ptr_eq(&a.node, &b.node)
    }

    /// Truncate the view to a smaller depth. Truncation to `depth ≥ height` is the
    /// identity and costs one `Arc` bump; otherwise only the nodes above the cut are
    /// rebuilt — shared subtrees are rebuilt once per (subtree, depth) through a
    /// per-call memo and stay shared in the result, so the cost is linear in the
    /// *distinct* nodes above the cut, not the unfolded tree prefix.
    pub fn truncated(&self, depth: usize) -> View {
        // Keyed by (node address, remaining depth); safe because `self` keeps every
        // reachable node alive for the duration of the call, and the memo does not
        // outlive it.
        let mut memo: HashMap<(usize, usize), View> = HashMap::new();
        self.truncated_memo(depth, &mut memo)
    }

    fn truncated_memo(&self, depth: usize, memo: &mut HashMap<(usize, usize), View>) -> View {
        if depth >= self.node.height {
            return self.clone();
        }
        let key = (Arc::as_ptr(&self.node) as usize, depth);
        if let Some(done) = memo.get(&key) {
            return done.clone();
        }
        let out = if depth == 0 {
            View::leaf(self.node.degree)
        } else {
            View::from_parts(
                self.node.degree,
                self.node
                    .children
                    .iter()
                    .map(|(p, q, c)| (*p, *q, c.truncated_memo(depth - 1, memo)))
                    .collect(),
            )
        };
        memo.insert(key, out.clone());
        out
    }

    /// Canonical token sequence — identical to [`ViewTree::tokens`]: pre-order
    /// `[degree, #children]` then, per child in port order, `[p, q]` and the child's
    /// tokens. Materialises the full (unshared) sequence; meant for tests and interop.
    pub fn tokens(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.node.size.saturating_mul(4));
        self.write_tokens(&mut out);
        out
    }

    /// Append the token sequence. No dedup: the sequence is defined on the unfolded
    /// tree.
    fn write_tokens(&self, out: &mut Vec<u32>) {
        out.push(self.node.degree);
        out.push(self.node.children.len() as u32);
        for (p, q, c) in &self.node.children {
            out.push(*p);
            out.push(*q);
            c.write_tokens(out);
        }
    }

    /// The shared node's address: the traversals below key their `seen` sets on it,
    /// so each distinct subtree is visited once instead of unfolding the walk tree.
    /// (`pub(crate)` so the DAG codecs can key their emission memos the same way;
    /// only meaningful while the handle is alive.)
    pub(crate) fn node_id(&self) -> usize {
        Arc::as_ptr(&self.node) as usize
    }

    /// Compare two views in the canonical lexicographic token order, without
    /// materialising tokens: scalar fields are compared in token position, recursion
    /// descends child by child, pointer-equal subtrees compare `Equal` in `O(1)`, and
    /// pairs proven equal once are memoized for the rest of the call — so the cost is
    /// bounded by the *product of distinct nodes* on the two sides (any unequal pair
    /// short-circuits the whole comparison), never the unfolded walk trees, even when
    /// the operands share no `Arc`s with each other (views from different interners
    /// or collector runs).
    ///
    /// Agrees exactly with `self.tokens().cmp(&other.tokens())`: the `#children`
    /// token precedes the children, so any structural divergence is decided at the
    /// same position at which the flat sequences first differ.
    pub fn lex_cmp(&self, other: &View) -> Ordering {
        // `HashSet::new` does not allocate, so the ptr-equal fast path stays free.
        let mut equal_pairs: HashSet<(usize, usize)> = HashSet::new();
        self.lex_cmp_memo(other, &mut equal_pairs)
    }

    fn lex_cmp_memo(&self, other: &View, equal_pairs: &mut HashSet<(usize, usize)>) -> Ordering {
        if Arc::ptr_eq(&self.node, &other.node) {
            return Ordering::Equal;
        }
        // Pairs proven equal earlier in this call; keyed by the borrowed nodes'
        // addresses, which both operands keep alive for the duration of the call.
        let key = (
            Arc::as_ptr(&self.node) as usize,
            Arc::as_ptr(&other.node) as usize,
        );
        if equal_pairs.contains(&key) {
            return Ordering::Equal;
        }
        let step = self
            .node
            .degree
            .cmp(&other.node.degree)
            .then_with(|| self.node.children.len().cmp(&other.node.children.len()))
            .then_with(|| {
                for ((ap, aq, ac), (bp, bq, bc)) in
                    self.node.children.iter().zip(&other.node.children)
                {
                    let step = ap
                        .cmp(bp)
                        .then_with(|| aq.cmp(bq))
                        .then_with(|| ac.lex_cmp_memo(bc, equal_pairs));
                    if step != Ordering::Equal {
                        return step;
                    }
                }
                Ordering::Equal
            });
        if step == Ordering::Equal {
            equal_pairs.insert(key);
        }
        step
    }

    /// The maximum port number mentioned anywhere in the view, or `None` for a bare
    /// single node. Each distinct subtree is visited once.
    pub fn max_port(&self) -> Option<u32> {
        let mut seen = HashSet::new();
        seen.insert(self.node_id());
        self.max_port_unseen(&mut seen)
    }

    fn max_port_unseen(&self, seen: &mut HashSet<usize>) -> Option<u32> {
        let mut max = None;
        for (p, q, c) in &self.node.children {
            max = max.max(Some(*p.max(q)));
            // A subtree already seen was accounted at its first occurrence.
            if seen.insert(c.node_id()) {
                max = max.max(c.max_port_unseen(seen));
            }
        }
        max
    }

    /// The maximum degree mentioned anywhere in the view. Each distinct subtree is
    /// visited once.
    pub fn max_degree(&self) -> u32 {
        let mut seen = HashSet::new();
        seen.insert(self.node_id());
        self.max_degree_unseen(&mut seen)
    }

    fn max_degree_unseen(&self, seen: &mut HashSet<usize>) -> u32 {
        let mut max = self.node.degree;
        for (_, _, c) in &self.node.children {
            if seen.insert(c.node_id()) {
                max = max.max(c.max_degree_unseen(seen));
            }
        }
        max
    }

    /// Convert to the owned tree form (deep copy; `O(size)`).
    pub fn to_tree(&self) -> ViewTree {
        ViewTree {
            degree: self.node.degree,
            children: self
                .node
                .children
                .iter()
                .map(|(p, q, c)| (*p, *q, c.to_tree()))
                .collect(),
        }
    }

    /// Convert from the owned tree form (no interning: the result shares nothing, but
    /// compares and hashes like any other handle). Pass the result to
    /// [`ViewInterner::intern`] to also collapse repeated subtrees.
    pub fn from_tree(tree: &ViewTree) -> View {
        View::from_parts(
            tree.degree,
            tree.children
                .iter()
                .map(|(p, q, c)| (*p, *q, View::from_tree(c)))
                .collect(),
        )
    }
}

impl PartialEq for View {
    fn eq(&self, other: &Self) -> bool {
        // `HashSet::new` does not allocate, so the fast paths below stay free.
        let mut equal_pairs: HashSet<(usize, usize)> = HashSet::new();
        eq_memo(self, other, &mut equal_pairs)
    }
}

/// Structural equality with the same pair memoization as [`View::lex_cmp`]: pointer
/// equality and the hash/size/height/degree guards give `O(1)` answers for shared or
/// unequal nodes, and each distinct (left, right) node pair is verified at most once
/// per call — so equal-but-unshared deep views (built by different interners or
/// collector runs) compare in the product of their distinct node counts, not the
/// unfolded walk tree.
fn eq_memo(a: &View, b: &View, equal_pairs: &mut HashSet<(usize, usize)>) -> bool {
    if Arc::ptr_eq(&a.node, &b.node) {
        return true;
    }
    let (na, nb) = (&*a.node, &*b.node);
    if na.hash != nb.hash
        || na.size != nb.size
        || na.height != nb.height
        || na.degree != nb.degree
        || na.children.len() != nb.children.len()
    {
        return false;
    }
    let key = (Arc::as_ptr(&a.node) as usize, Arc::as_ptr(&b.node) as usize);
    if equal_pairs.contains(&key) {
        return true;
    }
    let equal = na
        .children
        .iter()
        .zip(&nb.children)
        .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && eq_memo(&x.2, &y.2, equal_pairs));
    if equal {
        equal_pairs.insert(key);
    }
    equal
}

impl Eq for View {}

impl std::hash::Hash for View {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.node.hash);
    }
}

impl PartialOrd for View {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for View {
    fn cmp(&self, other: &Self) -> Ordering {
        self.lex_cmp(other)
    }
}

impl std::fmt::Debug for View {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("View")
            .field("degree", &self.node.degree)
            .field("size", &self.node.size)
            .field("height", &self.node.height)
            .field("children", &self.node.children)
            .finish()
    }
}

/// Structural identity of an interned node: its degree and, per child, the ports and
/// the *canonical child pointer*. Valid as a key because a table (a private
/// interner's map or the shards of a [`crate::SharedViewInterner`]) (a) only ever
/// files nodes whose children are already canonical in it and (b) keeps every
/// canonical node alive for its own lifetime, so the addresses are stable and unique.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct NodeKey {
    degree: u32,
    children: Vec<(Port, Port, usize)>,
}

pub(crate) fn node_key(degree: u32, children: &[(Port, Port, View)]) -> NodeKey {
    NodeKey {
        degree,
        children: children
            .iter()
            .map(|(p, q, c)| (*p, *q, c.node_id()))
            .collect(),
    }
}

/// A hash-consing interner: structurally equal subtrees map to one canonical
/// representative, so equality between interned views is pointer equality and the
/// memory held is one node per *distinct* subtree (per view class × depth, once
/// refinement-equal nodes collapse — on symmetric graphs that is `O(h)` nodes total
/// for the whole graph).
///
/// Canonical nodes are filed in a private table ([`ViewInterner::new`]) or in a
/// borrowed, process-wide [`SharedViewInterner`] ([`ViewInterner::shared`]), where
/// views interned by concurrent runs, on any thread, resolve to the same nodes. The
/// canonicalisation memo of [`ViewInterner::intern`] is private either way.
///
/// The interner retains a handle to every foreign node it has canonicalized, and a
/// private table retains every canonical node it ever created (that is what keeps
/// the pointer-based keys stable and valid); drop it to release them — handles
/// already given out keep their subtrees alive independently.
pub struct ViewInterner<'a> {
    /// Where canonical nodes are filed.
    table: Table<'a>,
    /// Memo of already-canonicalized foreign nodes: foreign address → (keepalive of
    /// the foreign node, its canonical representative). The keepalive pins the
    /// address, so it cannot be recycled for a different node while the entry lives;
    /// persisting the memo across [`ViewInterner::intern`] calls means a subtree
    /// shared by many inputs (e.g. across all of a run's collected views) is walked
    /// once, not once per call.
    foreign: HashMap<usize, (View, View)>,
}

/// The node table of a [`ViewInterner`].
enum Table<'a> {
    /// Owned by this interner.
    Private(HashMap<NodeKey, View>),
    /// Shared with every other interner over the same [`SharedViewInterner`].
    Shared(&'a SharedViewInterner),
}

impl Default for ViewInterner<'_> {
    fn default() -> Self {
        ViewInterner::new()
    }
}

impl<'a> ViewInterner<'a> {
    /// An empty interner over a private table.
    pub fn new() -> Self {
        ViewInterner {
            table: Table::Private(HashMap::new()),
            foreign: HashMap::new(),
        }
    }

    /// An interner filing its canonical nodes in `table`: structurally equal views
    /// interned through any interner over the same table — from any thread — are
    /// pointer-equal, and every filing counts as a hit or a miss in
    /// [`SharedViewInterner::stats`].
    pub fn shared(table: &'a SharedViewInterner) -> Self {
        ViewInterner {
            table: Table::Shared(table),
            foreign: HashMap::new(),
        }
    }

    /// Number of distinct subtrees in the table (in shared mode, filed by every
    /// interner over it).
    pub fn len(&self) -> usize {
        match &self.table {
            Table::Private(nodes) => nodes.len(),
            Table::Shared(table) => table.len(),
        }
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical leaf of the given degree.
    pub fn leaf(&mut self, degree: u32) -> View {
        self.node(degree, Vec::new())
    }

    /// The canonical node with the given degree and children. The children must be
    /// canonical handles from this interner's table (as produced by
    /// [`ViewInterner::leaf`], [`ViewInterner::node`], [`ViewInterner::intern`],
    /// [`ViewInterner::build`] or [`ViewInterner::build_all`] on an interner over the
    /// same table); handing in foreign handles files them as new structure, which
    /// forfeits sharing but never affects equality semantics.
    pub fn node(&mut self, degree: u32, children: Vec<(Port, Port, View)>) -> View {
        match &mut self.table {
            Table::Private(nodes) => nodes
                .entry(node_key(degree, &children))
                .or_insert_with(|| View::from_parts(degree, children))
                .clone(),
            Table::Shared(table) => table.node(degree, children),
        }
    }

    /// Canonicalize an arbitrary view: returns the representative that is pointer-equal
    /// for every structurally equal view filed in this table. Each distinct foreign
    /// node is walked once over the interner's lifetime (the memo persists across
    /// calls and retains the foreign handles it has seen), so canonicalizing a whole
    /// run's collected views — which share most of their subtrees — costs the total
    /// number of *distinct* nodes, not `Δ^h` path counts and not a re-walk per call.
    pub fn intern(&mut self, view: &View) -> View {
        let ptr = view.node_id();
        if let Some((_, canonical)) = self.foreign.get(&ptr) {
            return canonical.clone();
        }
        let children = view
            .node
            .children
            .iter()
            .map(|(p, q, c)| (*p, *q, self.intern(c)))
            .collect();
        let canonical = self.node(view.node.degree, children);
        self.foreign.insert(ptr, (view.clone(), canonical.clone()));
        canonical
    }

    /// Build `B^depth(v)` for the one node `v`, maximally shared: level `k` grafts
    /// `B^k(u)` only for the nodes `u` within distance `depth − k` of `v` — the
    /// ball that view can see — so the work is `O(depth · Δ)` handle operations per
    /// ball node, whatever the size of `g`. The result is the handle
    /// [`ViewInterner::build_all`] returns for `v` on an interner over the same
    /// table.
    pub fn build(&mut self, g: &PortGraph, v: NodeId, depth: usize) -> View {
        // The ball in BFS order: the nodes within distance `r` of `v` are the prefix
        // `ball[..within[r]]`, and `index` maps a ball node to its position.
        let mut ball = vec![v];
        let mut index: HashMap<NodeId, usize> = HashMap::from([(v, 0)]);
        let mut within = vec![1];
        for r in 0..depth {
            let frontier = if r == 0 { 0 } else { within[r - 1] }..within[r];
            for i in frontier {
                for (_, u, _) in g.ports(ball[i]) {
                    index.entry(u).or_insert_with(|| {
                        ball.push(u);
                        ball.len() - 1
                    });
                }
            }
            within.push(ball.len());
        }
        let mut level: Vec<View> = ball
            .iter()
            .map(|&u| self.leaf(g.degree(u) as u32))
            .collect();
        for k in 1..=depth {
            level = ball[..within[depth - k]]
                .iter()
                .map(|&u| {
                    let children = g
                        .ports(u)
                        .map(|(p, w, q)| (p, q, level[index[&w]].clone()))
                        .collect();
                    self.node(g.degree(u) as u32, children)
                })
                .collect();
        }
        level.swap_remove(0)
    }

    /// Build `B^depth(v)` for **every** node `v` of `g`, maximally shared: level `d`
    /// grafts the level-`d − 1` handles of the neighbours, so the whole construction
    /// performs `O(n · depth · Δ)` handle operations and the table holds one node
    /// per distinct subtree. Returns the views indexed by node. In shared mode, views
    /// already built by other runs or for other graphs are reused, not rebuilt: this
    /// is where isomorphic subtrees across tenants collapse.
    pub fn build_all(&mut self, g: &PortGraph, depth: usize) -> Vec<View> {
        let mut level: Vec<View> = g.nodes().map(|v| self.leaf(g.degree(v) as u32)).collect();
        for _ in 0..depth {
            level = g
                .nodes()
                .map(|v| {
                    let children = g
                        .ports(v)
                        .map(|(p, u, q)| (p, q, level[u as usize].clone()))
                        .collect();
                    self.node(g.degree(v) as u32, children)
                })
                .collect();
        }
        level
    }
}

impl std::fmt::Debug for ViewInterner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewInterner")
            .field("distinct_subtrees", &self.len())
            .finish()
    }
}

// Compile-time enforcement of the thread-safety invariants the shared table builds
// on (see the module docs): handles are freely shareable across threads, and an
// interner — private or over a shared table — can be owned by (moved into) another
// thread. If a future change smuggles in a non-`Send` field (an `Rc`, a raw pointer
// without a wrapper), these stop compiling.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<View>();
    assert_send::<ViewInterner<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;

    #[test]
    fn build_agrees_with_owned_build_everywhere() {
        let g = generators::random_connected(18, 4, 6, 11).unwrap();
        for depth in 0..=4usize {
            let mut interner = ViewInterner::new();
            let views = interner.build_all(&g, depth);
            for v in g.nodes() {
                let owned = ViewTree::build(&g, v, depth);
                let view = &views[v as usize];
                assert_eq!(view.to_tree(), owned, "node {v} depth {depth}");
                assert_eq!(view.tokens(), owned.tokens(), "node {v} depth {depth}");
                assert_eq!(view.size(), owned.size());
                assert_eq!(view.height(), owned.height());
                assert_eq!(view.max_port(), owned.max_port());
                assert_eq!(view.max_degree(), owned.max_degree());
            }
        }
    }

    #[test]
    fn ball_build_is_the_build_all_handle_of_its_node() {
        let mut graphs = vec![
            generators::paper_three_node_line(),
            generators::symmetric_ring(6).unwrap(),
        ];
        graphs.extend((0..4u64).map(|seed| generators::random_connected(18, 4, 6, seed).unwrap()));
        for g in &graphs {
            for depth in 0..=4usize {
                // Ball builds first, so `build_all` must find their nodes already filed.
                let mut interner = ViewInterner::new();
                let balls: Vec<View> = g.nodes().map(|v| interner.build(g, v, depth)).collect();
                let all = interner.build_all(g, depth);
                for v in g.nodes() {
                    let ball = &balls[v as usize];
                    assert!(
                        View::ptr_eq(ball, &all[v as usize]),
                        "node {v} depth {depth}"
                    );
                    let owned = ViewTree::build(g, v, depth);
                    assert_eq!(ball.to_tree(), owned, "node {v} depth {depth}");
                }
            }
        }
    }

    #[test]
    fn ball_build_files_only_the_ball() {
        // A 200 000-node path whose interior nodes put port 0 towards the lower
        // neighbour or the higher one as the Thue–Morse word says, so views differ
        // along the path and building every node's view files many distinct nodes.
        let n = 200_000usize;
        let lower_port = |i: usize| (i.count_ones() % 2) as Port;
        let mut b = anet_graph::GraphBuilder::with_nodes(n);
        for i in 0..n - 1 {
            let up = if i == 0 { 0 } else { 1 - lower_port(i) };
            let down = if i + 1 == n - 1 { 0 } else { lower_port(i + 1) };
            b.add_edge(i as NodeId, up, (i + 1) as NodeId, down)
                .unwrap();
        }
        let g = b.build().unwrap();
        // Level k of B^3(0) holds the nodes within distance 3 − k of node 0: 4+3+2+1.
        let ball_bound = 10;
        let mut interner = ViewInterner::new();
        let view = interner.build(&g, 0, 3);
        assert!(
            interner.len() <= ball_bound,
            "{} nodes filed",
            interner.len()
        );
        assert_eq!(view.to_tree(), ViewTree::build(&g, 0, 3));
        let mut everywhere = ViewInterner::new();
        everywhere.build_all(&g, 3);
        assert!(
            everywhere.len() > ball_bound,
            "the bound separates ball from graph"
        );
    }

    #[test]
    fn interned_equality_is_pointer_equality() {
        // On the symmetric ring every node has the same view at every depth, so all
        // handles from one interner must be the same object.
        let g = generators::symmetric_ring(6).unwrap();
        let mut interner = ViewInterner::new();
        let views = interner.build_all(&g, 4);
        for w in views.windows(2) {
            assert!(View::ptr_eq(&w[0], &w[1]));
        }
        // One distinct subtree per depth 0..=4.
        assert_eq!(interner.len(), 5);
    }

    #[test]
    fn interner_collapses_equal_foreign_views() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let mut interner = ViewInterner::new();
        for v in g.nodes() {
            let foreign = View::from_tree(&ViewTree::build(&g, v, 3));
            let a = interner.intern(&foreign);
            let b = interner.intern(&foreign);
            assert!(View::ptr_eq(&a, &b));
            assert_eq!(a, foreign, "canonicalization preserves structure");
        }
        // Equal subtrees from different nodes collapse: interning again changes nothing.
        let before = interner.len();
        for v in g.nodes() {
            interner.intern(&View::from_tree(&ViewTree::build(&g, v, 3)));
        }
        assert_eq!(interner.len(), before);
    }

    #[test]
    fn lex_cmp_matches_token_order() {
        let g = generators::random_connected(15, 4, 5, 3).unwrap();
        let mut interner = ViewInterner::new();
        let views = interner.build_all(&g, 3);
        for a in &views {
            for b in &views {
                assert_eq!(
                    a.lex_cmp(b),
                    a.tokens().cmp(&b.tokens()),
                    "lex_cmp must realise the canonical token order"
                );
                assert_eq!(a == b, a.tokens() == b.tokens());
            }
        }
    }

    #[test]
    fn truncation_matches_owned_truncation_and_shares_beyond_height() {
        let g = generators::random_connected(20, 4, 6, 11).unwrap();
        let view = View::build(&g, 5, 4);
        for h in 0..=4usize {
            assert_eq!(view.truncated(h).to_tree(), view.to_tree().truncated(h));
        }
        assert!(View::ptr_eq(&view.truncated(4), &view));
        assert!(View::ptr_eq(&view.truncated(9), &view));
    }

    #[test]
    fn truncation_of_shared_views_is_linear_in_distinct_nodes() {
        // B^60 of the symmetric ring unfolds to 2^61 − 1 walk-tree nodes but is 61
        // distinct shared nodes; truncating to depth 50 must touch only the distinct
        // nodes (exponential recursion would hang here) and keep the result shared.
        let g = generators::symmetric_ring(5).unwrap();
        let deep = ViewInterner::new().build_all(&g, 60).swap_remove(0);
        let t = deep.truncated(50);
        assert_eq!(t.height(), 50);
        assert_eq!(t.size(), (1usize << 51) - 1);
        // Both children of the rebuilt root are one object, as in the input.
        assert!(View::ptr_eq(&t.children()[0].2, &t.children()[1].2));
        assert_eq!(deep.max_degree(), 2);
        assert_eq!(deep.max_port(), Some(1));
    }

    #[test]
    fn equality_of_unshared_deep_views_is_pair_memoized() {
        // Two interners produce equal views that share no Arcs with each other; the
        // comparison must verify each (left, right) node pair once — exponential
        // unfolding would hang on these 2^61-node walk trees.
        let g = generators::symmetric_ring(5).unwrap();
        let a = ViewInterner::new().build_all(&g, 60).swap_remove(0);
        let b = ViewInterner::new().build_all(&g, 60).swap_remove(0);
        assert!(!View::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(a.lex_cmp(&b), std::cmp::Ordering::Equal);
        // And a deep inequality is still decided (at the divergence, not by unfolding).
        let c = ViewInterner::new().build_all(&g, 59).swap_remove(0);
        assert_ne!(a, c);
        assert_ne!(a.lex_cmp(&c), std::cmp::Ordering::Equal);
    }

    #[test]
    fn intern_memo_persists_across_calls() {
        let g = generators::random_connected(14, 4, 5, 21).unwrap();
        let collected: Vec<View> = {
            // Simulate collector-style foreign views sharing subtrees across roots.
            let mut source = ViewInterner::new();
            source.build_all(&g, 3)
        };
        let mut interner = ViewInterner::new();
        let first: Vec<View> = collected.iter().map(|v| interner.intern(v)).collect();
        let walked = interner.len();
        // Re-interning is pure memo hits: no new canonical nodes, same handles.
        let second: Vec<View> = collected.iter().map(|v| interner.intern(v)).collect();
        assert_eq!(interner.len(), walked);
        for (x, y) in first.iter().zip(&second) {
            assert!(View::ptr_eq(x, y));
        }
    }

    #[test]
    fn from_parts_grafts_in_constant_work_per_child() {
        // The graft used by the full-information collector: degree + children.
        let left = View::leaf(1);
        let right = View::leaf(1);
        let centre = View::from_parts(2, vec![(0, 0, left.clone()), (1, 0, right.clone())]);
        assert_eq!(centre.size(), 3);
        assert_eq!(centre.height(), 1);
        // The children are shared, not copied.
        assert!(View::ptr_eq(&centre.children()[0].2, &left));
        assert!(View::ptr_eq(&centre.children()[1].2, &right));
    }

    #[test]
    fn hash_is_structural_across_sources() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let interned = View::build(&g, 2, 3);
        let foreign = View::from_tree(&ViewTree::build(&g, 2, 3));
        assert_eq!(interned, foreign);
        assert_eq!(interned.structural_hash(), foreign.structural_hash());
        use std::collections::HashMap;
        let mut map: HashMap<View, u32> = HashMap::new();
        map.insert(interned, 7);
        assert_eq!(map.get(&foreign), Some(&7));
    }

    #[test]
    fn views_stay_alive_after_the_interner_is_dropped() {
        let g = generators::symmetric_ring(5).unwrap();
        let views = {
            let mut interner = ViewInterner::new();
            interner.build_all(&g, 3)
        };
        assert_eq!(views[0].size(), ViewTree::build(&g, 0, 3).size());
        assert_eq!(views[0], views[4]);
    }
}
