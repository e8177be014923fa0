//! Port colour refinement: view-equivalence classes at every depth.
//!
//! Building explicit view trees costs `Θ(Δ^h)` per node. For questions of the form
//! "which nodes have equal `B^h`?" — which is what every lemma of the paper asks —
//! a partition-refinement computation is exponentially cheaper:
//!
//! * depth 0: the class of `v` is its degree;
//! * depth `h+1`: the class of `v` is determined by the ordered list, over the ports
//!   `p = 0..deg(v)`, of pairs `(q_p, class_h(u_p))`, where `(u_p, q_p)` is the edge at
//!   port `p`.
//!
//! Because the children of the root of `B^{h+1}(v)` are exactly the trees `B^h(u_p)`
//! attached with port pair `(p, q_p)`, two nodes get the same class at depth `h` **iff**
//! their augmented truncated views at depth `h` are isomorphic (equal). The classes are
//! therefore a faithful, compact representative of view equality; the property tests in
//! this module check the equivalence against explicit [`crate::ViewTree`]s.
//!
//! The same computation run on several graphs *jointly* answers the paper's cross-graph
//! questions ("`B^k(r_{j,b})` in `G_α` equals `B^k(r_{j',b'})` in `G_β`", Lemma 2.5,
//! Lemma 2.8, Lemma 4.10(1), …): see [`JointRefinement`].
//!
//! Read the other way, the class rows decide views: a [`ViewClassifier`] turns a
//! [`View`] back into the class of the nodes that have it, without building any
//! node's view — how a map-based algorithm reads its own `B^h(v)` against the map.

use crate::View;
use anet_graph::{NodeId, PortGraph, WordHasher, WordMap};
use std::cmp::Ordering;
use std::hash::Hasher;

/// Identifier of a node inside a [`JointRefinement`]: which graph, and which node.
pub type JointNode = (usize, NodeId);

/// View-equivalence classes at every depth for a *collection* of graphs considered
/// together (equivalently: for their disjoint union).
///
/// # Arena layout
///
/// The per-depth class rows live in **one flat arena** (`classes`, depth-major with
/// stride `total`), and the refinement loop builds each depth's signatures into one
/// reused flat signature arena indexed by a port-offset table — node `v`'s signature
/// occupies the slice `sig_offsets[v]..sig_offsets[v+1]` (length `1 + 2·deg(v)`).
/// Dense class ids are assigned by sorting a reused index permutation by signature
/// slice, so a refinement step performs **no per-node allocation** (the historical
/// implementation allocated one signature `Vec` per node per depth plus a
/// `HashMap<Vec<u32>, u32>` of owned keys, which dominated on the 132k-node `J`
/// template).
#[derive(Debug, Clone)]
pub struct JointRefinement {
    /// Number of nodes of each graph, in order.
    sizes: Vec<usize>,
    /// Prefix sums of `sizes` (flat indexing).
    offsets: Vec<usize>,
    /// Total number of nodes across all graphs (the arena stride).
    total: usize,
    /// Flat class arena: the dense class id of flat node `v` at depth `h` is
    /// `classes[h * total + v]`, for `h ≤ computed_depth`.
    classes: Vec<u32>,
    /// Number of distinct classes at each computed depth.
    counts: Vec<usize>,
    /// First depth at which the partition stopped refining (classes at any larger depth
    /// equal the classes at this depth).
    stable_depth: usize,
}

/// Assign dense class ids to `0..row.len()` by their signature slices in `sig_arena`
/// (node `i`'s signature is `sig_arena[sig_offsets[i]..sig_offsets[i + 1]]`): sort the
/// reused `order` permutation by signature and number the runs of equal signatures.
/// Returns the number of distinct classes. Ids are deterministic (signature-sorted
/// order) but otherwise arbitrary, exactly like the insertion-order ids they replace;
/// [`Refinement::view_cmp`] reads the lexicographic order of the views off the rows.
// anet-lint: hot-path
fn assign_dense_ids(
    sig_arena: &[u32],
    sig_offsets: &[usize],
    order: &mut [u32],
    row: &mut [u32],
) -> usize {
    let sig = |i: u32| &sig_arena[sig_offsets[i as usize]..sig_offsets[i as usize + 1]];
    order.sort_unstable_by(|&a, &b| sig(a).cmp(sig(b)));
    let mut next_id = 0u32;
    for k in 0..order.len() {
        if k > 0 && sig(order[k - 1]) != sig(order[k]) {
            next_id += 1;
        }
        row[order[k] as usize] = next_id;
    }
    next_id as usize + 1
}

/// Number of nodes in each class of a class row, indexed by the dense class id.
fn class_sizes(row: &[u32], num_classes: usize) -> Vec<u32> {
    let mut sizes = vec![0u32; num_classes];
    for &c in row {
        sizes[c as usize] += 1;
    }
    sizes
}

/// Write every node's depth-`d` signature into the reused signature arena:
/// the node's previous class, then per port (far port, neighbour's previous
/// class). `current` is the previous depth's class row; `offsets` maps graph
/// index → first flat node id. Runs once per refinement level over every port
/// of every graph — a registered hot path, so it must write in place only.
// anet-lint: hot-path
fn fill_signatures(
    graphs: &[&PortGraph],
    offsets: &[usize],
    current: &[u32],
    sig_offsets: &[usize],
    sig_arena: &mut [u32],
) {
    let mut flat = 0usize;
    for (gi, g) in graphs.iter().enumerate() {
        for v in g.nodes() {
            let mut slot = sig_offsets[flat];
            sig_arena[slot] = current[flat];
            slot += 1;
            for (_, u, q) in g.ports(v) {
                sig_arena[slot] = q;
                sig_arena[slot + 1] = current[offsets[gi] + u as usize];
                slot += 2;
            }
            flat += 1;
        }
    }
}

impl JointRefinement {
    /// Run refinement on `graphs` up to `max_depth`, stopping early when the partition
    /// stabilises. `max_depth = None` means "until stable".
    pub fn compute(graphs: &[&PortGraph], max_depth: Option<usize>) -> JointRefinement {
        Self::compute_with_options(graphs, max_depth, false)
    }

    /// Like [`JointRefinement::compute`], but when `stop_on_unique` is set the
    /// computation additionally stops at the first depth at which some node's class is
    /// a singleton. This is what `ψ_S`-style computations need: on graphs of large
    /// diameter, running refinement to stability would cost `Θ(diameter · m)` even
    /// though the answer is known after `ψ_S + 1` levels.
    pub fn compute_with_options(
        graphs: &[&PortGraph],
        max_depth: Option<usize>,
        stop_on_unique: bool,
    ) -> JointRefinement {
        assert!(!graphs.is_empty(), "at least one graph is required");
        let sizes: Vec<usize> = graphs.iter().map(|g| g.num_nodes()).collect();
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut total = 0usize;
        for &s in &sizes {
            offsets.push(total);
            total += s;
        }

        // Per-node signature ranges in the flat signature arena: 1 slot for the
        // node's previous class + 2 per port (far port, neighbour's previous class).
        let mut sig_offsets = Vec::with_capacity(total + 1);
        let mut sig_total = 0usize;
        for g in graphs {
            for v in g.nodes() {
                sig_offsets.push(sig_total);
                sig_total += 1 + 2 * g.degree(v);
            }
        }
        sig_offsets.push(sig_total);

        // All buffers of the refinement loop, allocated once for the whole run.
        let mut sig_arena = vec![0u32; sig_total];
        let mut order: Vec<u32> = (0..total as u32).collect();
        let mut row = vec![0u32; total];
        let mut classes: Vec<u32> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();

        // Depth 0: classes by degree (a length-1 "signature" per node — write the
        // degree into the first slot of each node's range and compare those).
        {
            let mut flat = 0usize;
            for g in graphs {
                for v in g.nodes() {
                    sig_arena[sig_offsets[flat]] = g.degree(v) as u32;
                    flat += 1;
                }
            }
            let deg_of = |i: u32| sig_arena[sig_offsets[i as usize]];
            order.sort_unstable_by_key(|&i| deg_of(i));
            let mut next_id = 0u32;
            for k in 0..order.len() {
                if k > 0 && deg_of(order[k - 1]) != deg_of(order[k]) {
                    next_id += 1;
                }
                row[order[k] as usize] = next_id;
            }
            counts.push(next_id as usize + 1);
            classes.extend_from_slice(&row);
        }

        let mut stable_depth = 0usize;
        let hard_cap = max_depth.unwrap_or(total.max(1));
        let mut depth = 0usize;
        if stop_on_unique && class_sizes(&row, counts[0]).contains(&1) {
            // ψ_S = 0: the degree sequence already singles a node out.
            return JointRefinement {
                sizes,
                offsets,
                total,
                classes,
                counts,
                stable_depth,
            };
        }
        while depth < hard_cap {
            depth += 1;
            // Signature of v: (previous class of v is implied; include it anyway to be
            // robust) + per-port (far port, previous class of neighbour) — written in
            // place into the reused signature arena.
            {
                let current = &classes[(depth - 1) * total..depth * total];
                fill_signatures(graphs, &offsets, current, &sig_offsets, &mut sig_arena);
            }
            let count = assign_dense_ids(&sig_arena, &sig_offsets, &mut order, &mut row);
            let stabilised = count == *counts.last().expect("non-empty");
            counts.push(count);
            classes.extend_from_slice(&row);
            if stabilised {
                stable_depth = depth - 1;
                // The partition at `depth` equals the one at `depth − 1`; anything
                // deeper is identical too, so we can stop.
                // Keep the extra level so callers asking for `depth` get an answer
                // without clamping surprises.
                break;
            }
            stable_depth = depth;
            if stop_on_unique && class_sizes(&row, count).contains(&1) {
                // A unique view exists at this depth; callers that set this flag only
                // need the partition up to here. NOTE: in this mode `stable_depth()` is
                // merely the deepest computed level, not the true stabilisation depth.
                break;
            }
        }

        JointRefinement {
            sizes,
            offsets,
            total,
            classes,
            counts,
            stable_depth,
        }
    }

    fn flat(&self, (gi, v): JointNode) -> usize {
        assert!(gi < self.sizes.len(), "graph index out of range");
        assert!((v as usize) < self.sizes[gi], "node index out of range");
        self.offsets[gi] + v as usize
    }

    /// The class row of one depth in the flat arena (clamped to the computed range).
    fn row(&self, depth: usize) -> &[u32] {
        let d = depth.min(self.computed_depth());
        &self.classes[d * self.total..(d + 1) * self.total]
    }

    /// The largest depth that was explicitly computed.
    pub fn computed_depth(&self) -> usize {
        // `total ≥ 1` always (the collection is non-empty and `PortGraph` rejects
        // empty graphs), so at least the depth-0 row exists; saturate anyway.
        (self.classes.len() / self.total.max(1)).saturating_sub(1)
    }

    /// Depth at which the partition became stable (no further refinement happens at
    /// larger depths). If `max_depth` cut the computation short, this is the last
    /// depth at which refinement was still observed.
    pub fn stable_depth(&self) -> usize {
        self.stable_depth
    }

    /// Class id of a node at a given depth. Depths beyond the computed range return the
    /// class at the deepest computed level (correct once the partition is stable).
    pub fn class_at(&self, node: JointNode, depth: usize) -> u32 {
        let flat = self.flat(node);
        self.row(depth)[flat]
    }

    /// Number of distinct classes at a depth (clamped like [`Self::class_at`]).
    pub fn num_classes_at(&self, depth: usize) -> usize {
        let d = depth.min(self.computed_depth());
        self.counts[d]
    }

    /// Are the augmented truncated views of two nodes equal at the given depth?
    pub fn same_view(&self, a: JointNode, b: JointNode, depth: usize) -> bool {
        self.class_at(a, depth) == self.class_at(b, depth)
    }

    /// Number of nodes (across all graphs) sharing the class of `node` at `depth`.
    pub fn multiplicity(&self, node: JointNode, depth: usize) -> usize {
        let c = self.class_at(node, depth);
        self.row(depth).iter().filter(|&&x| x == c).count()
    }

    /// Is the view of `node` at `depth` unique across all graphs of the collection?
    pub fn is_unique(&self, node: JointNode, depth: usize) -> bool {
        self.multiplicity(node, depth) == 1
    }

    /// Does some node have a unique view at `depth`? Allocates no node list.
    pub fn has_unique_at(&self, depth: usize) -> bool {
        class_sizes(self.row(depth), self.num_classes_at(depth)).contains(&1)
    }

    /// All nodes (as [`JointNode`]) whose class at `depth` is a singleton.
    pub fn unique_nodes_at(&self, depth: usize) -> Vec<JointNode> {
        let row = self.row(depth);
        let sizes = class_sizes(row, self.num_classes_at(depth));
        let mut out = Vec::new();
        for (gi, &size) in self.sizes.iter().enumerate() {
            for v in 0..size {
                if sizes[row[self.offsets[gi] + v] as usize] == 1 {
                    out.push((gi, v as NodeId));
                }
            }
        }
        out
    }

    /// Group the nodes of graph `gi` by class at `depth`, returning the classes as
    /// lists of node ids in increasing order of class id.
    pub fn classes_of_graph(&self, gi: usize, depth: usize) -> Vec<Vec<NodeId>> {
        let row = &self.row(depth)[self.offsets[gi]..self.offsets[gi] + self.sizes[gi]];
        let mut classes: Vec<Vec<NodeId>> = vec![Vec::new(); self.num_classes_at(depth)];
        for (v, &c) in row.iter().enumerate() {
            classes[c as usize].push(v as NodeId);
        }
        classes.retain(|class| !class.is_empty());
        classes
    }
}

/// View-equivalence classes of a single graph — a thin convenience wrapper around
/// [`JointRefinement`] with node-id (rather than `(graph, node)`) accessors.
#[derive(Debug, Clone)]
pub struct Refinement {
    inner: JointRefinement,
}

impl Refinement {
    /// Run refinement on one graph (see [`JointRefinement::compute`]).
    pub fn compute(g: &PortGraph, max_depth: Option<usize>) -> Refinement {
        Refinement {
            inner: JointRefinement::compute(&[g], max_depth),
        }
    }

    /// Run refinement, stopping at the first depth at which some node's view is unique
    /// (see [`JointRefinement::compute_with_options`]). In this mode
    /// [`Refinement::stable_depth`] is merely the deepest level computed. Intended for
    /// `ψ_S`-style computations on graphs of large diameter.
    pub fn compute_until_unique(g: &PortGraph) -> Refinement {
        Refinement {
            inner: JointRefinement::compute_with_options(&[g], None, true),
        }
    }

    /// Depth at which the partition became stable.
    pub fn stable_depth(&self) -> usize {
        self.inner.stable_depth()
    }

    /// The largest depth explicitly computed.
    pub fn computed_depth(&self) -> usize {
        self.inner.computed_depth()
    }

    /// Class id of `v` at `depth`.
    pub fn class_at(&self, v: NodeId, depth: usize) -> u32 {
        self.inner.class_at((0, v), depth)
    }

    /// Number of distinct view classes at `depth`.
    pub fn num_classes_at(&self, depth: usize) -> usize {
        self.inner.num_classes_at(depth)
    }

    /// `B^depth(u) = B^depth(v)`?
    pub fn same_view(&self, u: NodeId, v: NodeId, depth: usize) -> bool {
        self.inner.same_view((0, u), (0, v), depth)
    }

    /// Number of nodes sharing `v`'s view at `depth`.
    pub fn multiplicity(&self, v: NodeId, depth: usize) -> usize {
        self.inner.multiplicity((0, v), depth)
    }

    /// Does `v` have a unique view at `depth`?
    pub fn is_unique(&self, v: NodeId, depth: usize) -> bool {
        self.inner.is_unique((0, v), depth)
    }

    /// Does some node have a unique view at `depth`?
    pub fn has_unique_at(&self, depth: usize) -> bool {
        self.inner.has_unique_at(depth)
    }

    /// Nodes with a unique view at `depth`.
    pub fn unique_nodes_at(&self, depth: usize) -> Vec<NodeId> {
        self.inner
            .unique_nodes_at(depth)
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    /// Partition of the node set into view classes at `depth`.
    pub fn classes_at(&self, depth: usize) -> Vec<Vec<NodeId>> {
        self.inner.classes_of_graph(0, depth)
    }

    /// Compare `B^depth(a)` with `B^depth(b)` in the canonical token order — what
    /// [`crate::View::lex_cmp`] returns on the two views — without building either.
    /// Equal classes are equal views. Otherwise the degrees decide, and then the first
    /// port whose pair (far port, neighbour's class at `depth − 1`) differs: a far
    /// port decides at once, a neighbour class sends the comparison one depth down to
    /// the two neighbours. That is one root-to-leaf walk, `O(depth · Δ)`.
    ///
    /// `g` must be the graph this refinement was computed on, and `depth` is read
    /// like [`Refinement::class_at`] reads it (clamped to the computed range).
    pub fn view_cmp(
        &self,
        g: &PortGraph,
        mut a: NodeId,
        mut b: NodeId,
        mut depth: usize,
    ) -> Ordering {
        while self.class_at(a, depth) != self.class_at(b, depth) {
            let by_degree = g.degree(a).cmp(&g.degree(b));
            if by_degree != Ordering::Equal {
                return by_degree;
            }
            // Equal degrees in different classes: depth ≥ 1, and some port tells
            // the two apart one level down.
            let below = depth - 1;
            let mut differing = None;
            for ((_, ua, qa), (_, ub, qb)) in g.ports(a).zip(g.ports(b)) {
                match qa.cmp(&qb) {
                    Ordering::Equal if self.class_at(ua, below) == self.class_at(ub, below) => {}
                    Ordering::Equal => {
                        differing = Some((ua, ub));
                        break;
                    }
                    by_port => return by_port,
                }
            }
            (a, b) = differing.expect("nodes of different classes differ at some port");
            depth = below;
        }
        Ordering::Equal
    }
}

/// End of a [`Level`] collision chain.
const NO_ENTRY: u32 = u32::MAX;

/// The signatures of one depth: entry `e` has the key
/// `keys[offsets[e]..offsets[e + 1]]` and the class `classes[e]`. Keys are found by
/// hash (`heads`), and entries whose keys share a hash are chained through `next`,
/// so a lookup is exact and the table holds no per-entry allocation.
#[derive(Debug)]
struct Level {
    keys: Vec<u32>,
    offsets: Vec<usize>,
    classes: Vec<u32>,
    heads: WordMap<u64, u32>,
    next: Vec<u32>,
}

impl Level {
    fn with_capacity(entries: usize) -> Level {
        Level {
            keys: Vec::new(),
            offsets: vec![0],
            classes: Vec::with_capacity(entries),
            heads: WordMap::with_capacity_and_hasher(entries, Default::default()),
            next: Vec::with_capacity(entries),
        }
    }

    fn hash(key: &[u32]) -> u64 {
        let mut hasher = WordHasher::default();
        for &word in key {
            hasher.write_u32(word);
        }
        hasher.finish()
    }

    fn find(&self, key: &[u32]) -> Option<u32> {
        let mut entry = *self.heads.get(&Self::hash(key))?;
        while entry != NO_ENTRY {
            let e = entry as usize;
            if &self.keys[self.offsets[e]..self.offsets[e + 1]] == key {
                return Some(self.classes[e]);
            }
            entry = self.next[e];
        }
        None
    }

    fn insert(&mut self, key: &[u32], class: u32) {
        let entry = self.classes.len() as u32;
        self.keys.extend_from_slice(key);
        self.offsets.push(self.keys.len());
        self.classes.push(class);
        let head = self.heads.insert(Self::hash(key), entry);
        self.next.push(head.unwrap_or(NO_ENTRY));
    }
}

/// Decides views by refinement class: `class_of(B^d(v), d)` is
/// [`Refinement::class_at`]`(v, d)`, read off one table per depth instead of
/// comparing the view with any node's.
///
/// The table of depth 0 is keyed by the degree, and the table of depth `d ≥ 1` by
/// a class's ordered list of (far port, neighbour's class at `d − 1`) — the
/// signature the refinement step assigns classes by, which determines `B^d` — so
/// the tables are exact: one entry per class, and a view no node has finds none.
/// [`ViewClassifier::class_of`] walks a view bottom-up through them, memoised by
/// view node, so classifying all of a run's collected views (which share their
/// subtrees) costs one table lookup per *distinct* node. Each memoised node is
/// pinned (a handle to it is kept, as the foreign memo of [`crate::ViewInterner`]
/// keeps one), so its address, the memo key, cannot be reused while the classifier
/// lives. The pins sit in a `Vec` in the order the walk files them, children before
/// parents, so dropping the classifier releases the views in walk order rather than
/// in hash order. The walk reuses one key stack and allocates nothing per node but
/// its pin; drop the classifier to release the pinned views.
pub struct ViewClassifier {
    /// The depth the classifier was built for: views up to this depth classify.
    depth: usize,
    /// Tables of depths `0..levels.len()`; a deeper depth reads the last one,
    /// as [`Refinement::class_at`] reads the last computed row.
    levels: Vec<Level>,
    /// (view node address, depth) → the node's class.
    memo: WordMap<(usize, usize), Option<u32>>,
    /// One handle per memo entry, in the order the walk filed them.
    pins: Vec<View>,
    /// The walk's key stack: a frame per depth of the walk, reused across calls.
    keys: Vec<u32>,
}

impl ViewClassifier {
    /// The classifier of `B^d` for every `d ≤ depth` on `g`. `refinement` must be
    /// computed on `g`; classes past its computed range are read clamped, like
    /// [`Refinement::class_at`] reads them, which is exact once the partition is
    /// stable. `O(n · Δ)` per depth, and no depth past the first stable one is built.
    pub fn new(g: &PortGraph, refinement: &Refinement, depth: usize) -> ViewClassifier {
        let computed = refinement.computed_depth();
        let top = depth.min(computed + 1);
        let mut levels = Vec::with_capacity(top + 1);
        let mut key = Vec::new();
        for d in 0..=top {
            let row = refinement.inner.row(d);
            // Up to the computed depth the class decides the signature, so one
            // node per class is enough; past it, where the rows are read clamped,
            // every distinct signature is filed.
            let one_per_class = d <= computed;
            let classes = refinement.num_classes_at(d);
            let mut filed = vec![false; classes];
            let mut level = Level::with_capacity(classes);
            for v in g.nodes() {
                let class = row[v as usize];
                if one_per_class && std::mem::replace(&mut filed[class as usize], true) {
                    continue;
                }
                key.clear();
                if d == 0 {
                    key.push(g.degree(v) as u32);
                } else {
                    let below = refinement.inner.row(d - 1);
                    for (_, u, q) in g.ports(v) {
                        key.extend_from_slice(&[q, below[u as usize]]);
                    }
                }
                if one_per_class || level.find(&key).is_none() {
                    level.insert(&key, class);
                }
            }
            levels.push(level);
        }
        // Room for what a run collects: every node's view at every depth.
        let collected = g.num_nodes() * (depth + 1);
        ViewClassifier {
            depth,
            levels,
            memo: WordMap::with_capacity_and_hasher(collected, Default::default()),
            pins: Vec::with_capacity(collected),
            keys: Vec::new(),
        }
    }

    /// The class at `depth` of the nodes whose `B^depth` is `view`, or `None` if no
    /// node of the graph has that view. `depth` must not exceed the depth the
    /// classifier was built for.
    pub fn class_of(&mut self, view: &View, depth: usize) -> Option<u32> {
        assert!(
            depth <= self.depth,
            "the classifier was built for depths up to {}, not {depth}",
            self.depth
        );
        self.classify(view, depth)
    }

    /// Number of distinct (view node, depth) pairs classified so far.
    pub fn memoised(&self) -> usize {
        self.memo.len()
    }

    /// One node of the walk: its children's classes one depth down, then its own
    /// from the table of its depth. The key is built in a frame on top of the key
    /// stack, which the children's frames above it have left as they found it.
    // anet-lint: hot-path
    fn classify(&mut self, view: &View, depth: usize) -> Option<u32> {
        let address = (view.node_id(), depth);
        if let Some(&class) = self.memo.get(&address) {
            return class;
        }
        let frame = self.keys.len();
        let children = view.children();
        let mut valid = if depth == 0 {
            self.keys.push(view.degree());
            children.is_empty()
        } else {
            children.len() == view.degree() as usize
        };
        if depth > 0 && valid {
            for (i, (p, q, child)) in children.iter().enumerate() {
                let class = if *p as usize == i {
                    self.classify(child, depth - 1)
                } else {
                    None
                };
                let Some(class) = class else {
                    valid = false;
                    break;
                };
                self.keys.extend_from_slice(&[*q, class]);
            }
        }
        let level = &self.levels[depth.min(self.levels.len() - 1)];
        let class = if valid {
            level.find(&self.keys[frame..])
        } else {
            None
        };
        self.keys.truncate(frame);
        // anet-lint: allow(hot-path-alloc) — pins the memo's address key
        self.pins.push(view.clone());
        self.memo.insert(address, class);
        class
    }
}

impl std::fmt::Debug for ViewClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewClassifier")
            .field("depth", &self.depth)
            .field(
                "entries",
                &self.levels.iter().map(|l| l.classes.len()).sum::<usize>(),
            )
            .field("memoised", &self.memo.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view_tree::ViewTree;
    use anet_graph::generators;

    /// Refinement classes must coincide with explicit view-tree equality at every depth.
    fn assert_matches_view_trees(g: &PortGraph, max_depth: usize) {
        let r = Refinement::compute(g, Some(max_depth));
        for h in 0..=max_depth {
            let views: Vec<ViewTree> = g.nodes().map(|v| ViewTree::build(g, v, h)).collect();
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(
                        r.same_view(u, v, h),
                        views[u as usize] == views[v as usize],
                        "depth {h}, nodes {u} and {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_explicit_views_on_line_star_and_random() {
        assert_matches_view_trees(&generators::paper_three_node_line(), 3);
        assert_matches_view_trees(&generators::star(4).unwrap(), 3);
        assert_matches_view_trees(&generators::random_connected(14, 4, 5, 77).unwrap(), 4);
    }

    #[test]
    fn symmetric_ring_never_refines() {
        let g = generators::symmetric_ring(6).unwrap();
        let r = Refinement::compute(&g, None);
        assert_eq!(r.num_classes_at(0), 1);
        assert_eq!(r.num_classes_at(r.stable_depth()), 1);
        assert!(r.unique_nodes_at(10).is_empty());
        assert_eq!(r.multiplicity(0, 5), 6);
    }

    #[test]
    fn hypercube_is_fully_symmetric() {
        let g = generators::hypercube(3).unwrap();
        let r = Refinement::compute(&g, None);
        assert_eq!(r.num_classes_at(r.stable_depth() + 3), 1);
    }

    #[test]
    fn star_centre_is_unique_at_depth_zero() {
        let g = generators::star(3).unwrap();
        let r = Refinement::compute(&g, None);
        assert!(r.is_unique(0, 0));
        assert!(!r.is_unique(1, 0));
        assert_eq!(r.unique_nodes_at(0), vec![0]);
        assert_eq!(r.classes_at(0).len(), 2);
    }

    #[test]
    fn oriented_ring_becomes_fully_separated() {
        // A ring with an asymmetric orientation pattern is feasible: all views distinct.
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let r = Refinement::compute(&g, None);
        let d = r.stable_depth();
        assert_eq!(r.num_classes_at(d), g.num_nodes());
        assert!(g.nodes().all(|v| r.is_unique(v, d)));
    }

    #[test]
    fn stability_means_no_further_refinement() {
        let g = generators::random_connected(20, 4, 8, 5).unwrap();
        let r = Refinement::compute(&g, None);
        let d = r.stable_depth();
        // Ask far beyond the computed depth: counts must not change.
        assert_eq!(r.num_classes_at(d), r.num_classes_at(d + 50));
        for v in g.nodes() {
            assert_eq!(r.class_at(v, d), r.class_at(v, d + 50));
        }
    }

    #[test]
    fn classes_partition_the_node_set() {
        let g = generators::random_connected(25, 5, 10, 9).unwrap();
        let r = Refinement::compute(&g, None);
        for h in [0, 1, 2, r.stable_depth()] {
            let classes = r.classes_at(h);
            let total: usize = classes.iter().map(Vec::len).sum();
            assert_eq!(total, g.num_nodes());
            assert_eq!(classes.len(), r.num_classes_at(h));
        }
    }

    #[test]
    fn joint_refinement_agrees_with_per_graph_views_across_graphs() {
        // Two different oriented rings: check cross-graph view equality against
        // explicit trees.
        let g1 = generators::oriented_ring(&[true, true, false, true]).unwrap();
        let g2 = generators::oriented_ring(&[true, false, true, true]).unwrap();
        let joint = JointRefinement::compute(&[&g1, &g2], Some(4));
        for h in 0..=4usize {
            for u in g1.nodes() {
                for v in g2.nodes() {
                    let t1 = ViewTree::build(&g1, u, h);
                    let t2 = ViewTree::build(&g2, v, h);
                    assert_eq!(
                        joint.same_view((0, u), (1, v), h),
                        t1 == t2,
                        "depth {h}, nodes {u}@g1 and {v}@g2"
                    );
                }
            }
        }
    }

    #[test]
    fn joint_refinement_identical_graphs_pair_up() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let joint = JointRefinement::compute(&[&g, &g], None);
        // Every node's view is shared with its copy in the other graph, so nothing is
        // unique, and each multiplicity is exactly 2 at the stable depth.
        let d = joint.stable_depth() + 2;
        assert!(joint.unique_nodes_at(d).is_empty());
        for v in g.nodes() {
            assert_eq!(joint.multiplicity((0, v), d), 2);
            assert!(joint.same_view((0, v), (1, v), d));
        }
    }

    #[test]
    fn stop_on_unique_finds_the_same_first_depth() {
        // The early-stopping mode must agree with the full computation about the first
        // depth at which a unique view exists.
        for seed in 0..5u64 {
            let g = generators::random_connected(18, 4, 6, seed).unwrap();
            let full = Refinement::compute(&g, None);
            let fast = Refinement::compute_until_unique(&g);
            let first_full =
                (0..=full.stable_depth()).find(|&h| !full.unique_nodes_at(h).is_empty());
            let first_fast =
                (0..=fast.computed_depth()).find(|&h| !fast.unique_nodes_at(h).is_empty());
            assert_eq!(first_full, first_fast, "seed {seed}");
            if let Some(d) = first_fast {
                assert_eq!(
                    full.unique_nodes_at(d),
                    fast.unique_nodes_at(d),
                    "seed {seed}"
                );
            }
        }
        // On a fully symmetric graph the early-stopping mode still terminates (at
        // stability) and reports no unique nodes.
        let ring = generators::symmetric_ring(6).unwrap();
        let fast = Refinement::compute_until_unique(&ring);
        assert!(fast.unique_nodes_at(fast.computed_depth()).is_empty());
    }

    #[test]
    fn view_cmp_is_the_token_order_up_to_psi_s() {
        // `compute_until_unique` stops at ψ_S: every row the oracle's descent reads.
        for g in [
            generators::paper_three_node_line(),
            generators::star(4).unwrap(),
            generators::oriented_ring(&[true, true, false, true, false]).unwrap(),
            generators::oriented_ring(&[
                true, true, false, true, false, false, true, false, true, true,
            ])
            .unwrap(),
        ] {
            let r = Refinement::compute_until_unique(&g);
            let psi = r.computed_depth();
            assert!(r.has_unique_at(psi));
            for h in 0..=psi {
                let views: Vec<ViewTree> = g.nodes().map(|v| ViewTree::build(&g, v, h)).collect();
                for a in g.nodes() {
                    for b in g.nodes() {
                        assert_eq!(
                            r.view_cmp(&g, a, b, h),
                            views[a as usize].lex_cmp(&views[b as usize]),
                            "depth {h}, nodes {a} and {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stop_on_unique_handles_depth_zero() {
        let g = generators::star(3).unwrap();
        let fast = Refinement::compute_until_unique(&g);
        assert_eq!(fast.computed_depth(), 0);
        assert_eq!(fast.unique_nodes_at(0), vec![0]);
    }

    /// The views of every node as the full-information collector assembles them:
    /// each round grafts one fresh root over the neighbours' handles of the
    /// round before, so all nodes' views share one DAG of `n · (depth + 1)` nodes.
    fn collected_views(g: &PortGraph, depth: usize) -> Vec<View> {
        let mut level: Vec<View> = g.nodes().map(|v| View::leaf(g.degree(v) as u32)).collect();
        for _ in 0..depth {
            level = g
                .nodes()
                .map(|v| {
                    let children = g
                        .ports(v)
                        .map(|(p, u, q)| (p, q, level[u as usize].clone()))
                        .collect();
                    View::from_parts(g.degree(v) as u32, children)
                })
                .collect();
        }
        level
    }

    fn classifier_graphs() -> Vec<PortGraph> {
        vec![
            generators::paper_three_node_line(),
            generators::star(4).unwrap(),
            generators::oriented_ring(&[true, true, false, true, false]).unwrap(),
            generators::random_connected(14, 4, 5, 77).unwrap(),
            generators::random_connected(30, 4, 12, 3).unwrap(),
            // One class at every depth.
            generators::symmetric_ring(6).unwrap(),
        ]
    }

    #[test]
    fn classifier_gives_every_view_its_refinement_class() {
        for g in classifier_graphs() {
            let r = Refinement::compute(&g, None);
            // Past `stable_depth() + 1` the class rows are read clamped.
            let top = r.stable_depth() + 2;
            let mut classifier = ViewClassifier::new(&g, &r, top);
            let mut interner = crate::ViewInterner::new();
            for d in 0..=top {
                let built = interner.build_all(&g, d);
                let collected = collected_views(&g, d);
                for v in g.nodes() {
                    let want = Some(r.class_at(v, d));
                    let ctx = format!("{} nodes, node {v}, depth {d}", g.num_nodes());
                    // A fresh view per query: its nodes are freed after the call
                    // unless the classifier pins them, and a recycled address
                    // would hit a stale memo entry.
                    assert_eq!(
                        classifier.class_of(&View::build(&g, v, d), d),
                        want,
                        "{ctx}"
                    );
                    assert_eq!(classifier.class_of(&built[v as usize], d), want, "{ctx}");
                    assert_eq!(
                        classifier.class_of(&collected[v as usize], d),
                        want,
                        "{ctx}"
                    );
                    if d < top {
                        // A view of another depth is no node's view at this one.
                        let deeper = &collected_views(&g, d + 1)[v as usize];
                        assert_eq!(classifier.class_of(deeper, d), None, "{ctx}");
                        assert_eq!(classifier.class_of(&collected[v as usize], d + 1), None);
                    }
                }
            }
            // No graph here has a degree-7 node, so no node has this view.
            let star_centre = View::build(&generators::star(7).unwrap(), 0, 1);
            assert_eq!(classifier.class_of(&star_centre, 1), None);
            // A refinement cut short at ψ_S is read clamped one depth past it.
            let cut = Refinement::compute_until_unique(&g);
            let d = cut.computed_depth() + 1;
            let mut classifier = ViewClassifier::new(&g, &cut, d);
            for (v, view) in collected_views(&g, d).iter().enumerate() {
                let want = Some(cut.class_at(v as NodeId, d));
                assert_eq!(classifier.class_of(view, d), want, "node {v}");
            }
        }
    }

    #[test]
    fn classifier_memoises_each_distinct_collected_node_once() {
        for g in classifier_graphs() {
            let r = Refinement::compute(&g, None);
            let depth = r.stable_depth() + 1;
            let views = collected_views(&g, depth);
            let mut classifier = ViewClassifier::new(&g, &r, depth);
            for _ in 0..2 {
                for v in g.nodes() {
                    let class = classifier.class_of(&views[v as usize], depth);
                    assert_eq!(class, Some(r.class_at(v, depth)));
                }
                // One entry per node and depth of the shared DAG, and none added
                // by classifying the same views again.
                assert_eq!(classifier.memoised(), g.num_nodes() * (depth + 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "built for depths up to 2")]
    fn classifier_rejects_depths_it_was_not_built_for() {
        let g = generators::star(4).unwrap();
        let r = Refinement::compute(&g, None);
        ViewClassifier::new(&g, &r, 2).class_of(&View::build(&g, 0, 3), 3);
    }

    #[test]
    #[should_panic(expected = "graph index out of range")]
    fn joint_refinement_rejects_bad_graph_index() {
        let g = generators::star(3).unwrap();
        let joint = JointRefinement::compute(&[&g], None);
        joint.class_at((1, 0), 0);
    }
}
