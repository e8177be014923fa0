//! Feasibility and election indices `ψ_S`, `ψ_PE`, `ψ_PPE`, `ψ_CPPE`.
//!
//! For a graph `G` whose map is known to the nodes, version `Z` of leader election is
//! solvable in `h` rounds iff outputs that are constant on `B^h`-equivalence classes
//! can satisfy `Z`'s correctness condition (a node's decision after `h` rounds is a
//! function of `B^h(v)` only — Proposition 2.1 and its analogues). The minimum such
//! `h` is the `Z`-index `ψ_Z(G)`.
//!
//! Concretely:
//!
//! * `ψ_S(G)` — the least depth at which some node's view class is a singleton;
//! * `ψ_PE(G)` — the least depth at which some singleton class `{u}` admits, for every
//!   other class, a single port that is the first port of a simple path to `u` from
//!   *every* member of the class;
//! * `ψ_PPE(G)` / `ψ_CPPE(G)` — ditto with a single outgoing-port sequence /
//!   `(outgoing, incoming)`-pair sequence tracing a simple path to `u` from every
//!   member.
//!
//! All searches stop at the refinement's stable depth: deeper views carry no additional
//! information, so if a task is unsolvable there it is unsolvable at every time bound
//! (the graph is infeasible for that task).
//!
//! ## How the strong indices are computed
//!
//! `ψ_PE` needs no candidate search: for each leader one [`PeValidity`] table
//! decides every `(node, port)` pair in `O(n + m)`, and each class takes the lowest
//! port valid for all its members.
//!
//! For PPE and CPPE the per-class candidate search runs on the class quotient graph
//! ([`crate::quotient`]) as a ladder of four stages, cheapest and most scalable first:
//!
//! 1. **Uniform route lift** — BFS over the quotient's uniform edges yields one
//!    route per class whose lifted port sequence is valid for *every* member by
//!    construction (see the quotient module docs); it is still re-validated with
//!    the `paths` predicates as defense-in-depth.
//! 2. **Member shortest paths** — each member's concrete shortest path to the
//!    leader (from one BFS) is tried as a common candidate. For singleton classes
//!    this always succeeds, so at the depth where all views are distinct the
//!    whole assignment completes with no enumeration at all.
//! 3. **Guided merge finder** (PPE only) — synchronized walks from all members
//!    are forward-deterministic given the port script, so a common sequence must
//!    *merge* all walks into one by the time they reach the leader. Merges come
//!    from two searches: a corridor DFS that drives one pair of walks at a time
//!    down a landmark distance potential while keeping every walk simple, and
//!    an exhaustive DFS over the joint simple-script tree (run first for four
//!    or more members), which either merges the class or proves nothing does.
//!    A BFS in the synchronized pair graph only refutes: a pair whose
//!    component holds no merging move never merges. From the merged node the
//!    finder rides a shortest path to the leader that avoids every walk's
//!    earlier nodes. The result is only ever used after exact re-validation, so
//!    the heuristic cannot affect soundness — only which instances resolve.
//!    The merged prefix is leader-independent, so it is cached on the
//!    [`QuotientSearch`], keyed by depth and path budget, and computed once for
//!    all the leaders of one depth.
//! 4. **Joint bounded search** — a DFS over synchronized walks, pruning any
//!    branch where a walk revisits a node, loses its port, or reaches the leader
//!    before the others. Exhausting it is a sound proof that no common sequence
//!    exists; exceeding `max_paths` explored steps returns
//!    [`IndexError::PathBudgetExceeded`], the typed escape hatch.
//!
//! For CPPE the ladder collapses: a complete port sequence `((p_1,q_1) … (p_L,q_L))`
//! replayed *backward* from the leader is deterministic — the incoming port `q_L`
//! pins the predecessor `neighbor(leader, q_L)`, and so on down to the start — so
//! at most one node can validly output any given sequence, and a class with two
//! or more members can never share one. CPPE assignments therefore exist exactly
//! at the depths where every view class is a singleton, where stage 2 always
//! succeeds; no bounded search is ever needed and `ψ_CPPE` is exact at any scale.
//!
//! One depth × leader loop serves every index and the map solver:
//! [`pe_election`], [`ppe_election`] and [`cppe_election`] return the least depth,
//! the first unique node at it that can lead, and the per-node assignment. A
//! budget error waits for the end of its depth, since a later leader's success
//! there still gives the least depth; the remaining leaders only look for one.
//!
//! The pre-quotient implementations are kept as `*_enumerated` — the oracle for
//! the equivalence tests and the baseline for the `bench_index` benchmark.

use crate::paths::{
    cppe_sequence_is_valid, pe_port_is_valid, ppe_sequence_is_valid, simple_paths, PeValidity,
};
use crate::quotient::QuotientSearch;
use crate::refinement::Refinement;
use anet_graph::{NodeId, Port, PortGraph};

/// Error produced by the exact index computations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The simple-path enumeration cap was reached without an answer; the result would
    /// not be sound, so none is returned. Increase `max_paths` or use a smaller graph.
    PathBudgetExceeded {
        /// The cap that was in force.
        max_paths: usize,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::PathBudgetExceeded { max_paths } => write!(
                f,
                "simple-path enumeration cap of {max_paths} paths exceeded; result would be unsound"
            ),
        }
    }
}

impl std::error::Error for IndexError {}

/// Feasibility of a graph in the sense of the paper: leader election (in the strong
/// formulations) is possible knowing the map iff the views of all nodes are distinct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feasibility {
    /// Are all (infinite) views distinct?
    pub feasible: bool,
    /// If feasible, the least depth at which all truncated views are already distinct.
    pub views_distinct_at: Option<usize>,
    /// Number of distinct view classes once refinement stabilises.
    pub stable_classes: usize,
}

/// Compute feasibility by running refinement to stability (two nodes have equal
/// infinite views iff they have equal views at the stable depth).
pub fn feasibility(g: &PortGraph) -> Feasibility {
    let r = Refinement::compute(g, None);
    let n = g.num_nodes();
    let stable_classes = r.num_classes_at(r.stable_depth());
    if stable_classes != n {
        return Feasibility {
            feasible: false,
            views_distinct_at: None,
            stable_classes,
        };
    }
    let first = (0..=r.stable_depth())
        .find(|&h| r.num_classes_at(h) == n)
        .unwrap_or(r.stable_depth());
    Feasibility {
        feasible: true,
        views_distinct_at: Some(first),
        stable_classes,
    }
}

/// The four election indices of a graph. `None` means the corresponding task is not
/// solvable on this graph at any time bound, even knowing the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectionIndices {
    /// `ψ_S` — Selection index.
    pub s: Option<usize>,
    /// `ψ_PE` — Port Election index.
    pub pe: Option<usize>,
    /// `ψ_PPE` — Port Path Election index.
    pub ppe: Option<usize>,
    /// `ψ_CPPE` — Complete Port Path Election index.
    pub cppe: Option<usize>,
}

impl ElectionIndices {
    /// Does the hierarchy of Fact 1.1 hold (`ψ_CPPE ≥ ψ_PPE ≥ ψ_PE ≥ ψ_S`, with
    /// "unsolvable" treated as `+∞`)?
    pub fn satisfies_hierarchy(&self) -> bool {
        fn key(x: Option<usize>) -> usize {
            x.unwrap_or(usize::MAX)
        }
        key(self.cppe) >= key(self.ppe)
            && key(self.ppe) >= key(self.pe)
            && key(self.pe) >= key(self.s)
    }
}

/// `ψ_S(G)`: least depth at which some node has a unique view. `None` if no node ever
/// does (e.g. vertex-transitive port-symmetric graphs such as the symmetric ring).
pub fn psi_s(g: &PortGraph) -> Option<usize> {
    let r = Refinement::compute_until_unique(g);
    psi_s_with(&r)
}

/// `ψ_S` given a precomputed refinement.
pub fn psi_s_with(r: &Refinement) -> Option<usize> {
    (0..=r.stable_depth().max(r.computed_depth())).find(|&h| r.has_unique_at(h))
}

/// For a fixed depth and candidate leader, the Port Election output assignment: one
/// port per non-leader node, constant on view classes, such that every node's port is
/// the first port of a simple path to the leader. `None` if no such assignment exists.
///
/// PE needs no quotient and no route: one [`PeValidity`] table for the leader answers
/// every `(node, port)` pair, and each class takes the lowest port valid for all its
/// members, so the selected assignment is identical to [`pe_assignment_enumerated`]'s.
pub fn pe_assignment(
    g: &PortGraph,
    r: &Refinement,
    depth: usize,
    leader: NodeId,
) -> Option<Vec<Option<Port>>> {
    let valid = PeValidity::new(g, leader);
    let mut out: Vec<Option<Port>> = vec![None; g.num_nodes()];
    for class in r.classes_at(depth) {
        if class.contains(&leader) {
            // The leader's class must be the singleton {leader}; its output is "leader".
            if class.len() > 1 {
                return None;
            }
            continue;
        }
        let degree = g.degree(class[0]) as u32;
        let valid_port = (0..degree).find(|&p| class.iter().all(|&v| valid.is_valid(v, p)));
        match valid_port {
            Some(p) => {
                for &v in &class {
                    out[v as usize] = Some(p);
                }
            }
            None => return None,
        }
    }
    Some(out)
}

/// [`pe_assignment`] over the graph and refinement of a [`QuotientSearch`], the form
/// the depth × leader loop calls. It reads none of the search's caches.
pub fn pe_assignment_with(
    search: &mut QuotientSearch<'_>,
    depth: usize,
    leader: NodeId,
) -> Option<Vec<Option<Port>>> {
    pe_assignment(search.graph(), search.refinement(), depth, leader)
}

/// `ψ_PE(G)`: least depth at which some uniquely-identifiable node can serve as leader
/// with a class-uniform valid port assignment for all other nodes.
pub fn psi_pe(g: &PortGraph) -> Option<usize> {
    let r = Refinement::compute(g, None);
    let mut search = QuotientSearch::new(g, &r);
    pe_election(&mut search).map(|(h, ..)| h)
}

/// Which strong shade a candidate sequence is validated against.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shade {
    /// Outgoing ports only (`ppe_sequence_is_valid` on the projection).
    Ppe,
    /// Full `(outgoing, incoming)` pairs (`cppe_sequence_is_valid`).
    Cppe,
}

/// Is the full-pair candidate valid, under `shade`'s predicate, for every member?
fn candidate_valid_for_all(
    g: &PortGraph,
    class: &[NodeId],
    leader: NodeId,
    pairs: &[(Port, Port)],
    shade: Shade,
) -> bool {
    match shade {
        Shade::Ppe => {
            let ports: Vec<Port> = pairs.iter().map(|&(p, _)| p).collect();
            class
                .iter()
                .all(|&v| ppe_sequence_is_valid(g, v, &ports, leader))
        }
        Shade::Cppe => class
            .iter()
            .all(|&v| cppe_sequence_is_valid(g, v, pairs, leader)),
    }
}

/// Stage 4: DFS over synchronized walks of all members, stepped by the guided
/// finder's [`Walks`]. Every member follows the same outgoing port at every step;
/// a branch is pruned when a member's walk revisits one of its own nodes, a port
/// is missing, or a member reaches the leader before the others (its walk would
/// have to revisit the leader later). A sequence is found exactly when all walks
/// reach the leader simultaneously — by construction it is then valid for every
/// member, and returned as the first member's full port pairs. Exhausting the
/// search (`Ok(None)`) soundly proves no common sequence exists: any valid
/// sequence induces synchronized walks surviving every prune. Only PPE classes
/// get here: a CPPE class past stage 2 is a singleton, and stage 2 always assigns
/// singletons.
///
/// `explored` counts generated joint steps, one per port of walk 0's node;
/// exceeding `max_paths` of them returns the budget error.
fn joint_search(
    g: &PortGraph,
    members: &[NodeId],
    leader: NodeId,
    max_paths: usize,
    explored: &mut usize,
) -> Result<Option<Vec<(Port, Port)>>, IndexError> {
    let mut walks = Walks::new(members, g.num_nodes());
    let found = joint_step(g, &mut walks, leader, max_paths, explored)?;
    Ok(found.then_some(walks.script))
}

/// One level of [`joint_search`]: `Ok(true)` once every walk stands on the
/// leader, `Ok(false)` with the walks restored when every port from here is
/// pruned.
fn joint_step(
    g: &PortGraph,
    walks: &mut Walks,
    leader: NodeId,
    max_paths: usize,
    explored: &mut usize,
) -> Result<bool, IndexError> {
    for p in 0..g.degree(walks.positions[0]) as Port {
        *explored += 1;
        if *explored > max_paths {
            return Err(IndexError::PathBudgetExceeded { max_paths });
        }
        if !walks.try_step(g, p) {
            continue;
        }
        if walks.positions.iter().all(|&u| u == leader) {
            return Ok(true);
        }
        if !walks.positions.contains(&leader) && joint_step(g, walks, leader, max_paths, explored)?
        {
            return Ok(true);
        }
        walks.undo_step();
    }
    Ok(false)
}

/// A leader-independent merged prefix produced by the guided finder: a common
/// port script that drives every member of one class onto a single node.
#[derive(Debug)]
struct MergedPrefix {
    /// The script as the first member's `(outgoing, incoming)` pairs.
    script: Vec<(Port, Port)>,
    /// The common position of all walks after the prefix.
    endpoint: NodeId,
    /// Union of the nodes visited by any member's walk (endpoint included).
    visited_union: Vec<bool>,
}

impl MergedPrefix {
    /// Package fully merged `walks` into a prefix, moving their script out.
    fn of(walks: Walks) -> MergedPrefix {
        let mut visited_union = vec![false; walks.n];
        for row in walks.visited.chunks(walks.n) {
            for (flag, &seen) in visited_union.iter_mut().zip(row) {
                *flag |= seen;
            }
        }
        MergedPrefix {
            script: walks.script,
            endpoint: walks.positions[0],
            visited_union,
        }
    }
}

/// The guided-merge cache a [`QuotientSearch`] carries: per class id, the merge
/// outcome at one (depth, path budget). The merge is leader-independent, so one
/// computation serves every candidate leader of a depth; only the
/// leader-avoidance check and the final suffix are per-leader. The budget is
/// part of the key because an outcome found short of budget (`Unknown`) would
/// be wrong under a larger one.
#[derive(Debug, Default)]
pub(crate) struct MergeCache {
    key: Option<(usize, usize)>,
    /// Some class at this depth was proved sequence-free: the whole depth is
    /// refuted for every leader, so later leaders return `Ok(None)` instantly.
    /// A PPE refutation refutes CPPE too, since a CPPE sequence projects to a
    /// PPE one.
    refuted: bool,
    by_class: std::collections::HashMap<u32, MergeOutcome>,
    /// Landmark tables are depth-independent, computed once per cache lifetime.
    landmarks: Option<Landmarks>,
    /// Lazily sized near-field pair table (outer `None` = not yet sized,
    /// inner `None` = graph too large for `n²` bits).
    pair_scratch: Option<Option<PairScratch>>,
}

impl MergeCache {
    fn reset(&mut self, depth: usize, max_paths: usize) {
        if self.key != Some((depth, max_paths)) {
            self.key = Some((depth, max_paths));
            self.refuted = false;
            self.by_class.clear();
        }
    }
}

/// Landmark BFS distance tables that steer the guided merge finder. The gap
/// `max_L |d_L(x) − d_L(y)|` is an admissible lower bound on the number of
/// synchronized steps needed to bring walkers at `x` and `y` together: one
/// shared port moves each walker across one edge, so each `d_L` changes by at
/// most one and the gap closes by at most two per step. The gap both orders
/// ports (walk down the potential) and prunes depth-limited search — essential
/// on large-diameter graphs (e.g. circulants) where class partners start
/// hundreds of hops apart and blind search in the pair graph is hopeless.
#[derive(Debug)]
struct Landmarks {
    dists: Vec<Vec<u32>>,
}

impl Landmarks {
    /// Number of landmark BFS trees (farthest-point placement from node 0).
    const COUNT: usize = 8;

    /// Run [`Landmarks::COUNT`] BFS passes, each rooted at the node farthest
    /// from all previous roots (classic farthest-point landmark placement).
    fn compute(g: &PortGraph) -> Landmarks {
        let n = g.num_nodes();
        let mut dists: Vec<Vec<u32>> = Vec::with_capacity(Self::COUNT);
        let mut next: NodeId = 0;
        for _ in 0..Self::COUNT {
            dists.push(g.bfs_distances(next));
            let mut best = (0u32, next);
            for v in 0..n {
                let m = dists.iter().map(|d| d[v]).min().unwrap_or(0);
                if m > best.0 {
                    best = (m, v as NodeId);
                }
            }
            next = best.1;
        }
        Landmarks { dists }
    }

    /// `max_L |d_L(x) − d_L(y)|` — admissible estimate of the merge distance.
    fn gap(&self, x: NodeId, y: NodeId) -> u32 {
        self.dists
            .iter()
            .map(|d| d[x as usize].abs_diff(d[y as usize]))
            .max()
            .unwrap_or(0)
    }
}

/// Walk state of the guided finder and the joint search: one position and
/// visited set per member, and the script of shared steps that led there.
struct Walks {
    positions: Vec<NodeId>,
    /// `visited[i * n + v]`: has member `i`'s walk visited `v`?
    visited: Vec<bool>,
    /// Walk 0's `(outgoing, incoming)` pair for every committed step, whichever
    /// pair of walks the step was meant to merge.
    script: Vec<(Port, Port)>,
    /// The positions each committed step left, one per walk, for
    /// [`Walks::undo_step`]; [`Walks::try_step`] stages its targets past them.
    trail: Vec<NodeId>,
    n: usize,
}

impl Walks {
    fn new(members: &[NodeId], n: usize) -> Self {
        let mut visited = vec![false; members.len() * n];
        for (i, &m) in members.iter().enumerate() {
            visited[i * n + m as usize] = true;
        }
        Walks {
            positions: members.to_vec(),
            visited,
            script: Vec::new(),
            trail: Vec::new(),
            n,
        }
    }

    /// Apply one shared port to every walk. Transactional: returns `false` with
    /// the state untouched if any walk lacks the port or would revisit one of
    /// its own nodes; otherwise commits all walks and the step's script pair.
    fn try_step(&mut self, g: &PortGraph, p: Port) -> bool {
        let base = self.trail.len();
        let mut incoming = 0;
        for (i, &v) in self.positions.iter().enumerate() {
            match g.neighbor(v, p) {
                Some((u, q)) if !self.visited[i * self.n + u as usize] => {
                    if i == 0 {
                        incoming = q;
                    }
                    self.trail.push(u);
                }
                _ => {
                    self.trail.truncate(base);
                    return false;
                }
            }
        }
        for (i, (pos, staged)) in self
            .positions
            .iter_mut()
            .zip(&mut self.trail[base..])
            .enumerate()
        {
            std::mem::swap(pos, staged);
            self.visited[i * self.n + *pos as usize] = true;
        }
        self.script.push((p, incoming));
        true
    }

    /// Revert the most recent committed [`Walks::try_step`].
    fn undo_step(&mut self) {
        let base = self.trail.len() - self.positions.len();
        for ((pos, row), &old) in self
            .positions
            .iter_mut()
            .zip(self.visited.chunks_mut(self.n))
            .zip(&self.trail[base..])
        {
            row[*pos as usize] = false;
            *pos = old;
        }
        self.trail.truncate(base);
        self.script.pop();
    }

    /// Index of the first walk not co-located with walk 0, if any.
    fn first_distinct_index(&self) -> Option<usize> {
        let a = self.positions[0];
        self.positions.iter().position(|&b| b != a)
    }
}

/// Depth-limited DFS on the full synchronized walk state: drive walk `i` and
/// walk `j` together (landmark gap ≤ `target_gap`; exact merge when 0) while
/// keeping every member's walk simple. Ports are tried in order of the
/// post-step landmark gap (immediate merges first), so on graphs with
/// informative landmarks the search walks nearly straight toward the partner;
/// simplicity dead ends are handled by backtracking. On success `walks` holds
/// the reached state and its script; on failure it is restored. `ops` counts
/// DFS expansions, capped at `max_ops`.
#[allow(clippy::too_many_arguments)]
fn merge_dfs(
    g: &PortGraph,
    walks: &mut Walks,
    i: usize,
    j: usize,
    lm: &Landmarks,
    target_gap: u32,
    limit: u32,
    salt: Port,
    max_ops: usize,
    ops: &mut usize,
    seen: &mut std::collections::HashMap<u64, u32>,
) -> bool {
    let (a, b) = (walks.positions[i], walks.positions[j]);
    if a == b || (target_gap > 0 && lm.gap(a, b) <= target_gap) {
        return true;
    }
    // Admissible prune: each step closes the landmark gap by at most two.
    if limit == 0 || lm.gap(a, b).saturating_sub(target_gap).div_ceil(2) > limit {
        return false;
    }
    // Depth-dominance table: where the heuristic is flat (e.g. the near field of
    // a large-diameter graph) plain DFS churns exponentially on permutations of
    // the same few states. Re-expanding a state is useful only with strictly
    // more remaining depth than any earlier expansion — anything else
    // re-explores a subtree of what already failed. The key hashes the FULL
    // position vector: with more than two walks the same target pair recurs
    // with the other walks elsewhere, and pruning those would be far too
    // aggressive. (Heuristic: positions can recur with different visited sets,
    // which the table ignores.)
    let state_key = walks
        .positions
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
            (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    match seen.entry(state_key) {
        std::collections::hash_map::Entry::Occupied(mut e) => {
            if *e.get() >= limit {
                return false;
            }
            e.insert(limit);
        }
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(limit);
        }
    }
    *ops += 1;
    if *ops > max_ops {
        return false;
    }
    let degree = g.degree(a).min(g.degree(b)) as Port;
    let mut order: Vec<(u32, Port, Port)> = Vec::with_capacity(degree as usize);
    for p in 0..degree {
        let (Some((ua, _)), Some((ub, _))) = (g.neighbor(a, p), g.neighbor(b, p)) else {
            continue;
        };
        let key = if ua == ub { 0 } else { 1 + lm.gap(ua, ub) };
        // `salt` rotates the tie-break among equal-key ports so that restart
        // attempts explore genuinely different prefixes even for size-2
        // classes, where the target-pair rule cannot vary.
        order.push((key, (p + salt) % degree, p));
    }
    order.sort_unstable();
    for &(_, _, p) in &order {
        if !walks.try_step(g, p) {
            continue;
        }
        if merge_dfs(
            g,
            walks,
            i,
            j,
            lm,
            target_gap,
            limit - 1,
            salt,
            max_ops,
            ops,
            seen,
        ) {
            return true;
        }
        walks.undo_step();
    }
    false
}

/// Reusable `n²`-bit visited table for the near-field pair search, one bit per
/// ordered pair state. Reset is sparse: only words touched by the previous
/// search are zeroed, so a probe costs proportional to the component it
/// explored, not to `n²`.
#[derive(Debug)]
struct PairScratch {
    words: Vec<u64>,
    touched: Vec<u32>,
    n: u64,
}

impl PairScratch {
    /// Largest graph for which the table is allocated (`n²/8` bytes — 32 MiB
    /// at the bound). Beyond it the finder falls back to pure corridor DFS.
    const MAX_N: usize = 16_384;

    /// Allocate the table for `g`, or `None` if the graph is too large.
    fn for_graph(g: &PortGraph) -> Option<PairScratch> {
        let n = g.num_nodes();
        (1..=Self::MAX_N).contains(&n).then(|| PairScratch {
            words: vec![0u64; (n * n).div_ceil(64)],
            touched: Vec::new(),
            n: n as u64,
        })
    }

    fn reset(&mut self) {
        for &w in &self.touched {
            self.words[w as usize] = 0;
        }
        self.touched.clear();
    }

    /// Mark the pair state `(a, b)` visited; `false` if it already was.
    fn visit(&mut self, a: NodeId, b: NodeId) -> bool {
        let s = a as u64 * self.n + b as u64;
        let (w, bit) = ((s / 64) as usize, 1u64 << (s % 64));
        if self.words[w] & bit != 0 {
            return false;
        }
        if self.words[w] == 0 {
            self.touched.push(w as u32);
        }
        self.words[w] |= bit;
        true
    }
}

/// Exact near-field refutation for one pair of walks standing at `(a, b)`: a
/// BFS over the synchronized pair graph (simplicity relaxed) that stops after
/// `alternatives` merging moves or `max_states` expanded states. `true` only
/// when it exhausts the pair component without a single merging move: the two
/// walkers can then never coincide from these positions, under any script.
fn near_field_never_merges(
    g: &PortGraph,
    (a, b): (NodeId, NodeId),
    scratch: &mut PairScratch,
    max_states: usize,
    alternatives: usize,
    ops: &mut usize,
) -> bool {
    scratch.reset();
    scratch.visit(a, b);
    let mut queue = std::collections::VecDeque::from([(a, b)]);
    let mut merging_moves = 0usize;
    let mut explored = 0usize;
    'bfs: while let Some((a, b)) = queue.pop_front() {
        explored += 1;
        if explored > max_states {
            break;
        }
        let degree = g.degree(a).min(g.degree(b)) as Port;
        for p in 0..degree {
            let (Some((ua, _)), Some((ub, _))) = (g.neighbor(a, p), g.neighbor(b, p)) else {
                continue;
            };
            if ua == ub {
                merging_moves += 1;
                if merging_moves >= alternatives {
                    break 'bfs;
                }
            } else if scratch.visit(ua, ub) {
                queue.push_back((ua, ub));
            }
        }
    }
    // Pair-BFS states are an order of magnitude cheaper than DFS expansions;
    // scale them before charging the shared ops budget.
    *ops += explored / 8 + 1;
    merging_moves == 0 && explored <= max_states
}

/// How one [`guided_merge`] attempt picks the next pair of walks to merge.
/// Different phase orders commit to different prefixes, and a prefix that
/// strands a later phase in one order often succeeds in another — restarting
/// with a new strategy is the cheap cure for greedy commitment.
#[derive(Clone, Copy)]
enum TargetRule {
    /// The distinct pair with the smallest landmark gap (easiest merge first).
    Nearest,
    /// Walk 0 and the first walk not co-located with it.
    First,
    /// The distinct pair with the largest landmark gap (hardest merge first).
    Farthest,
}

/// Outcome of one [`merge_phase`] (merging one pair of walks).
enum PhaseResult {
    /// The target pair is merged; the steps are committed to `walks`.
    Merged,
    /// Exact proof that the target pair can never coincide from its current
    /// positions (only class-refuting when nothing was committed before it).
    NeverMerges,
    /// No conclusion within the budget.
    Failed,
}

/// Merge one pair of walks: corridor DFS down the landmark potential all the
/// way to the merge; failing that, approach until the pair is near and run the
/// exact refutation [`near_field_never_merges`]; if it does not refute, commit
/// a few rotated shift steps to move the window and try again. Without the
/// `n²` table (`scratch` is `None`) only the corridor DFS runs, as on small
/// graphs every field is the near field.
#[allow(clippy::too_many_arguments)]
fn merge_phase(
    g: &PortGraph,
    walks: &mut Walks,
    i: usize,
    j: usize,
    lm: &Landmarks,
    scratch: &mut Option<PairScratch>,
    salt: Port,
    max_ops: usize,
    ops: &mut usize,
    seen: &mut std::collections::HashMap<u64, u32>,
) -> PhaseResult {
    /// Landmark gap below which the pair counts as near.
    const NEAR_GAP: u32 = 12;
    /// Pair-state cap of one near-field probe.
    const NEAR_STATES: usize = 150_000;
    /// Merging moves after which a probe stops, which bounds its charge.
    const NEAR_ALTERNATIVES: usize = 64;
    /// Probe rounds before the phase gives up.
    const ROUNDS: usize = 4;
    /// Committed steps between rounds, to shift the probe window.
    const SHIFT_STEPS: usize = 6;

    for round in 0..ROUNDS {
        if *ops > max_ops {
            return PhaseResult::Failed;
        }
        // Only a share of the remaining budget goes to the corridor DFS, so
        // the exact probe below always gets its turn.
        let dfs_cap = *ops + max_ops.saturating_sub(*ops) / 2;
        // (a) The simplicity-aware corridor DFS, all the way to the merge.
        // Iterative deepening; the extra widest round only when the landmark
        // gap is small, where the admissible bound is a gross underestimate of
        // the simplicity-constrained merge depth.
        let h0 = lm.gap(walks.positions[i], walks.positions[j]).max(4);
        let mults: &[u32] = if h0 <= 8 { &[1, 2, 4, 8] } else { &[1, 2, 4] };
        for &mult in mults {
            seen.clear();
            let limit = mult * (h0 + 8);
            if merge_dfs(g, walks, i, j, lm, 0, limit, salt, dfs_cap, ops, seen) {
                return PhaseResult::Merged;
            }
            if *ops > dfs_cap {
                break;
            }
        }
        let Some(scratch) = scratch.as_mut() else {
            return PhaseResult::Failed;
        };
        // (b) Approach until the landmark gap is small enough for the probe.
        let gap = lm.gap(walks.positions[i], walks.positions[j]);
        if gap > NEAR_GAP {
            let mut near = false;
            for mult in [1u32, 2, 4] {
                seen.clear();
                let limit = mult * (gap + 8);
                if merge_dfs(
                    g, walks, i, j, lm, NEAR_GAP, limit, salt, dfs_cap, ops, seen,
                ) {
                    near = true;
                    break;
                }
                if *ops > dfs_cap {
                    break;
                }
            }
            if !near {
                return PhaseResult::Failed;
            }
        }
        // (c) Exact near-field probe — charged like a DFS expansion up front,
        // so a starved call degrades to "no conclusion" instead of doing
        // unpaid work (the typed budget contract: the escape hatch must stay
        // reachable at tiny budgets).
        *ops += 1;
        if *ops > max_ops {
            return PhaseResult::Failed;
        }
        let pair = (walks.positions[i], walks.positions[j]);
        if near_field_never_merges(g, pair, scratch, NEAR_STATES, NEAR_ALTERNATIVES, ops) {
            return PhaseResult::NeverMerges;
        }
        // (d) Shift the window so the next round starts from fresh positions;
        // the preferred port rotates with the round and attempt.
        for s in 0..SHIFT_STEPS {
            let degree = g.degree(walks.positions[i]) as Port;
            let rotated = |off: Port| (off + salt + round as Port + s as Port) % degree;
            if !(0..degree).any(|off| walks.try_step(g, rotated(off))) {
                return PhaseResult::Failed;
            }
        }
    }
    PhaseResult::Failed
}

/// Outcome of one [`merge_attempt`].
enum AttemptResult {
    /// All walks are co-located; `walks` holds the merged state and its script.
    Done,
    /// Some pair of members provably never coincides: no common sequence
    /// exists for this class at this depth, for any leader.
    NoSequence,
    /// No conclusion.
    Failed,
}

/// One full merge attempt: repeatedly pick a target pair by `rule` and merge
/// it with [`merge_phase`].
#[allow(clippy::too_many_arguments)]
fn merge_attempt(
    g: &PortGraph,
    walks: &mut Walks,
    lm: &Landmarks,
    scratch: &mut Option<PairScratch>,
    rule: TargetRule,
    salt: Port,
    max_ops: usize,
    ops: &mut usize,
    seen: &mut std::collections::HashMap<u64, u32>,
) -> AttemptResult {
    while let Some(first_j) = walks.first_distinct_index() {
        if *ops > max_ops {
            return AttemptResult::Failed;
        }
        let k = walks.positions.len();
        let distinct_pairs =
            || (0..k).flat_map(move |i| (i + 1..k).filter_map(move |j| (i != j).then_some((i, j))));
        let gap_of = |&(i, j): &(usize, usize)| lm.gap(walks.positions[i], walks.positions[j]);
        let (i, j) = match rule {
            TargetRule::First => Some((0, first_j)),
            TargetRule::Nearest => distinct_pairs()
                .filter(|&(i, j)| walks.positions[i] != walks.positions[j])
                .min_by_key(gap_of),
            TargetRule::Farthest => distinct_pairs()
                .filter(|&(i, j)| walks.positions[i] != walks.positions[j])
                .max_by_key(gap_of),
        }
        .expect("a distinct pair exists");
        match merge_phase(g, walks, i, j, lm, scratch, salt, max_ops, ops, seen) {
            PhaseResult::Merged => continue,
            // The refutation is only class-refuting when the probe ran from
            // the original member positions — i.e. nothing was committed
            // before it (the probe itself commits nothing).
            PhaseResult::NeverMerges if walks.script.is_empty() => {
                return AttemptResult::NoSequence
            }
            PhaseResult::NeverMerges | PhaseResult::Failed => return AttemptResult::Failed,
        }
    }
    AttemptResult::Done
}

/// Exhaustive depth-unbounded DFS over the joint simple-script tree of all
/// walks: every branch keeps every member's walk simple ([`Walks::try_step`]),
/// success is full co-location. No heuristics, no pruning, no depth limit —
/// so exhausting the tree without a merge is a *sound, leader-independent*
/// proof that no common sequence merges this class (any valid PPE sequence
/// ends all members on the leader, i.e. merges them). The tree is finite
/// (simple walks) and, with several members, usually tiny: each extra member
/// must avoid backtracking at every step, thinning the branching factor
/// geometrically. Returns `None` when the ops budget ran out (no conclusion;
/// the walks are left mid-search), `Some(true)` with `walks` holding the
/// merged state, `Some(false)` for the exhausted-tree refutation.
fn exhaustive_merge_dfs(
    g: &PortGraph,
    walks: &mut Walks,
    max_ops: usize,
    ops: &mut usize,
) -> Option<bool> {
    if walks.first_distinct_index().is_none() {
        return Some(true);
    }
    *ops += 1;
    if *ops > max_ops {
        return None;
    }
    let degree = walks
        .positions
        .iter()
        .map(|&v| g.degree(v))
        .min()
        .unwrap_or(0) as Port;
    for p in 0..degree {
        if !walks.try_step(g, p) {
            continue;
        }
        if exhaustive_merge_dfs(g, walks, max_ops, ops)? {
            return Some(true);
        }
        walks.undo_step();
    }
    Some(false)
}

/// Outcome of [`guided_merge`] for one class.
#[derive(Debug)]
enum MergeOutcome {
    /// A common prefix merging every member was found and committed.
    Merged(MergedPrefix),
    /// Exact proof that some pair of members can never be driven onto one
    /// node from their starting positions: no common sequence exists for this
    /// class at this depth, for any leader.
    NoSequence,
    /// No conclusion within the budget.
    Unknown,
}

/// Stage 3, the guided merge finder: drive all members' synchronized walks onto
/// one node by merging one pair at a time with [`merge_phase`], restarting with
/// a different pair order when an attempt dead-ends. Heuristic and bounded —
/// [`MergeOutcome::Unknown`] means "no conclusion"; only the exact near-field
/// refutation and the exhausted refuter yield [`MergeOutcome::NoSequence`].
/// The caller re-validates any produced prefix plus suffix with the exact
/// predicates. Merged walks stay merged: co-located walks follow the same
/// ports to the same nodes, and [`Walks::try_step`] commits all or none.
fn guided_merge(
    g: &PortGraph,
    members: &[NodeId],
    lm: &Landmarks,
    scratch: &mut Option<PairScratch>,
    max_ops: usize,
    ops: &mut usize,
) -> MergeOutcome {
    const RULES: [TargetRule; 3] = [TargetRule::Nearest, TargetRule::First, TargetRule::Farthest];
    let n = g.num_nodes();
    // With several members the joint simple-script tree thins geometrically
    // (every member must keep its walk simple under one shared port choice),
    // so the exhaustive search usually either finds a merge or refutes the
    // class outright in a few thousand expansions — run it first. For pairs
    // and triples the tree is typically far too wide to exhaust; the guided
    // attempts go first and the refuter mops up with the remaining budget.
    let refuter_first = members.len() >= 4;
    if refuter_first {
        if let Some(out) = exhaustive_stage(g, members, n, *ops + max_ops / 4, ops) {
            return out;
        }
    }
    let per_attempt = (max_ops / 2).max(1);
    let mut seen = std::collections::HashMap::new();
    for (attempt, rule) in RULES.into_iter().enumerate() {
        let mut walks = Walks::new(members, n);
        let mut attempt_ops = 0usize;
        let done = merge_attempt(
            g,
            &mut walks,
            lm,
            scratch,
            rule,
            attempt as Port,
            per_attempt,
            &mut attempt_ops,
            &mut seen,
        );
        *ops += attempt_ops;
        match done {
            AttemptResult::Failed => continue,
            AttemptResult::NoSequence => return MergeOutcome::NoSequence,
            AttemptResult::Done => return MergeOutcome::Merged(MergedPrefix::of(walks)),
        }
    }
    if !refuter_first {
        if let Some(out) = exhaustive_stage(g, members, n, max_ops, ops) {
            return out;
        }
    }
    MergeOutcome::Unknown
}

/// Run [`exhaustive_merge_dfs`] on fresh walks up to `cap` total ops; `None`
/// when the budget ran out without a conclusion.
fn exhaustive_stage(
    g: &PortGraph,
    members: &[NodeId],
    n: usize,
    cap: usize,
    ops: &mut usize,
) -> Option<MergeOutcome> {
    let mut walks = Walks::new(members, n);
    Some(if exhaustive_merge_dfs(g, &mut walks, cap, ops)? {
        MergeOutcome::Merged(MergedPrefix::of(walks))
    } else {
        MergeOutcome::NoSequence
    })
}

/// The `*_enumerated` oracles' candidate-sequence search: bounded simple-path
/// enumeration from the class representative, as before the quotient search
/// existed — except that the enumeration now also carries a DFS *step* budget (see
/// [`simple_paths`]), so topologies whose dead-end wandering used to spin forever
/// without completing a single path (shuffled circulants from ~256 nodes) surface
/// the typed budget error instead of hanging. `explored` counts tested candidates.
fn common_sequence<T, F>(
    g: &PortGraph,
    class: &[NodeId],
    leader: NodeId,
    max_paths: usize,
    explored: &mut usize,
    extract: impl Fn(&PortGraph, &[NodeId]) -> T,
    valid: F,
) -> Result<Option<T>, IndexError>
where
    F: Fn(&PortGraph, NodeId, &T) -> bool,
{
    let enumeration = simple_paths(g, class[0], leader, max_paths);
    let complete = enumeration.is_complete();
    for path in enumeration.items() {
        *explored += 1;
        let candidate = extract(g, path);
        if class.iter().all(|&v| valid(g, v, &candidate)) {
            return Ok(Some(candidate));
        }
    }
    if complete {
        Ok(None)
    } else {
        Err(IndexError::PathBudgetExceeded { max_paths })
    }
}

/// The cached per-class merge outcome: compute [`guided_merge`] on a cache
/// miss, sharing landmark tables and the near-field scratch. Returns the
/// outcome and the ops the computation charged (0 on a cache hit).
fn merge_outcome_cached<'c>(
    cache: &'c mut MergeCache,
    g: &PortGraph,
    class_id: u32,
    class: &[NodeId],
    max_paths: usize,
) -> (&'c MergeOutcome, usize) {
    let MergeCache {
        by_class,
        landmarks,
        pair_scratch,
        ..
    } = cache;
    let lm = landmarks.get_or_insert_with(|| Landmarks::compute(g));
    let scratch = pair_scratch.get_or_insert_with(|| PairScratch::for_graph(g));
    let mut ops = 0usize;
    let out = by_class
        .entry(class_id)
        .or_insert_with(|| guided_merge(g, class, lm, scratch, max_paths, &mut ops));
    (out, ops)
}

/// The shared PPE/CPPE assignment driver: per class, run the candidate ladder
/// (uniform route → member shortest paths → guided merge → joint search) and
/// assign the first candidate valid for every member. Returns full port pairs
/// per node; PPE projects to outgoing ports afterwards.
///
/// With `find_only` set, the sound-but-expensive joint search is skipped: an
/// unresolved class yields the budget error rather than burning the budget
/// again. [`least_depth_election`] switches to this mode for the remaining
/// leaders of a depth once one leader has already produced an error — at that
/// point only a *success* can change the depth's outcome, so refutation work on
/// further leaders is wasted.
fn strong_assignment_inner(
    search: &mut QuotientSearch<'_>,
    depth: usize,
    leader: NodeId,
    max_paths: usize,
    shade: Shade,
    find_only: bool,
) -> Result<Option<CppeAssignment>, IndexError> {
    search.merge.reset(depth, max_paths);
    // Some earlier leader's run proved a class at this depth sequence-free;
    // the proof is leader-independent, so every leader's answer here is known.
    if search.merge.refuted {
        return Ok(None);
    }
    // The CPPE collapse (backward determinism, see the module docs): a class
    // with two or more members can never share a complete port sequence, so an
    // assignment exists iff every class at this depth is a singleton.
    if shade == Shade::Cppe
        && search.refinement().num_classes_at(depth) < search.graph().num_nodes()
    {
        return Ok(None);
    }
    search.prepare(depth, leader);
    let g = search.graph();
    let classes = search.refinement().classes_at(depth);
    // Refute hunt: before assigning anything, probe the multi-member classes
    // largest first for an exact sequence-free proof — the joint simple-script
    // tree thins geometrically with the member count, so the largest classes
    // conclude fastest, and a single refutation settles this depth for every
    // leader at once. Without it, an unresolved class encountered first would
    // turn a (provably) refuted depth into a budget error. Only PPE classes
    // have several members here (CPPE got past the collapse above).
    let mut multi: Vec<&Vec<NodeId>> = classes
        .iter()
        .filter(|c| c.len() >= 4 && !c.contains(&leader))
        .collect();
    multi.sort_unstable_by_key(|c| std::cmp::Reverse(c.len()));
    for class in multi {
        let class_id = search.quotient().class_of(class[0]);
        let (outcome, ops) = merge_outcome_cached(&mut search.merge, g, class_id, class, max_paths);
        let refuted = matches!(outcome, MergeOutcome::NoSequence);
        search.stats.paths_explored += ops;
        if refuted {
            search.merge.refuted = true;
            return Ok(None);
        }
    }
    let mut out: Vec<Option<Vec<(Port, Port)>>> = vec![None; g.num_nodes()];
    for class in classes {
        if class.contains(&leader) {
            if class.len() > 1 {
                return Ok(None);
            }
            continue;
        }
        let mut found: Option<Vec<(Port, Port)>> = None;
        // Stage 1: the lifted uniform route (valid for all members by construction,
        // re-validated as defense-in-depth).
        let class_id = search.quotient().class_of(class[0]);
        if let Some(pairs) = search.route_full(class_id) {
            search.stats.paths_explored += 1;
            if candidate_valid_for_all(g, &class, leader, &pairs, shade) {
                found = Some(pairs);
            } else {
                debug_assert!(false, "a uniform route lifted to an invalid sequence");
            }
        }
        // Stage 2: each member's concrete shortest path as a common candidate
        // (always succeeds for singleton classes).
        if found.is_none() {
            for &m in &class {
                if let Some(pairs) = search.concrete_path_full(m) {
                    search.stats.paths_explored += 1;
                    if candidate_valid_for_all(g, &class, leader, &pairs, shade) {
                        found = Some(pairs);
                        break;
                    }
                }
            }
        }
        // Stage 3 (PPE only: a CPPE class gets here only as a singleton, which
        // stage 2 always assigns): the guided merge finder, with the
        // leader-independent prefix cached on the search.
        if found.is_none() && class.len() > 1 {
            let (outcome, ops) =
                merge_outcome_cached(&mut search.merge, g, class_id, &class, max_paths);
            search.stats.paths_explored += ops;
            match outcome {
                // The refutation is exact and leader-independent: no common
                // sequence merges this class for any leader at this depth.
                MergeOutcome::NoSequence => {
                    search.merge.refuted = true;
                    return Ok(None);
                }
                // Per-leader parts: none of the walks may have touched the
                // leader, and a suffix to it must avoid all of them.
                MergeOutcome::Merged(prefix) if prefix.endpoint == leader => {
                    let pairs = prefix.script.clone();
                    if candidate_valid_for_all(g, &class, leader, &pairs, shade) {
                        found = Some(pairs);
                    }
                }
                MergeOutcome::Merged(prefix) if !prefix.visited_union[leader as usize] => {
                    let unvisited = |u: NodeId| !prefix.visited_union[u as usize];
                    let suffix =
                        g.bfs_path(prefix.endpoint, usize::MAX, unvisited, |u| u == leader);
                    if let Some(path) = suffix {
                        let mut pairs = prefix.script.clone();
                        pairs.extend(g.full_ports_of_path(&path));
                        search.stats.paths_explored += 1;
                        if candidate_valid_for_all(g, &class, leader, &pairs, shade) {
                            found = Some(pairs);
                        }
                    }
                }
                MergeOutcome::Merged(_) | MergeOutcome::Unknown => {}
            }
        }
        // Stage 4: joint synchronized-walk search — sound in both directions
        // when it completes within the step budget; past it, the typed escape
        // hatch fires.
        if found.is_none() {
            if find_only {
                return Err(IndexError::PathBudgetExceeded { max_paths });
            }
            let mut explored = 0usize;
            let joint = joint_search(g, &class, leader, max_paths, &mut explored);
            search.stats.paths_explored += explored;
            match joint? {
                Some(pairs) => {
                    debug_assert!(candidate_valid_for_all(g, &class, leader, &pairs, shade));
                    found = Some(pairs);
                }
                None => return Ok(None),
            }
        }
        let pairs = found.expect("every arm either assigns or returns");
        for &v in &class {
            out[v as usize] = Some(pairs.clone());
        }
    }
    Ok(Some(out))
}

/// For a fixed depth and candidate leader, the Port Path Election output assignment:
/// one outgoing-port sequence per non-leader node, constant on view classes, tracing a
/// simple path to the leader from every member. `Ok(None)` if no assignment exists.
/// The search's guided-merge cache is shared with every other call on it.
pub fn ppe_assignment_with(
    search: &mut QuotientSearch<'_>,
    depth: usize,
    leader: NodeId,
    max_paths: usize,
) -> Result<Option<Vec<Option<Vec<Port>>>>, IndexError> {
    strong_assignment_inner(search, depth, leader, max_paths, Shade::Ppe, false)
        .map(|full| full.map(outgoing_ports))
}

/// The PPE projection of a full-pair assignment: outgoing ports only.
fn outgoing_ports(full: CppeAssignment) -> Vec<Option<Vec<Port>>> {
    full.into_iter()
        .map(|seq| seq.map(|pairs| pairs.into_iter().map(|(p, _)| p).collect()))
        .collect()
}

/// The full (outgoing, incoming) port sequence of a path, one pair per edge.
pub type FullPath = Vec<(Port, Port)>;

/// Per-node CPPE output assignment: `None` for the leader, the full port sequence
/// of a simple path to the leader otherwise.
pub type CppeAssignment = Vec<Option<FullPath>>;

/// For a fixed depth and candidate leader, the Complete Port Path Election output
/// assignment (pairs of ports per edge). `Ok(None)` if no assignment exists.
pub fn cppe_assignment_with(
    search: &mut QuotientSearch<'_>,
    depth: usize,
    leader: NodeId,
    max_paths: usize,
) -> Result<Option<CppeAssignment>, IndexError> {
    strong_assignment_inner(search, depth, leader, max_paths, Shade::Cppe, false)
}

/// A least-depth election on the map: the depth, the first unique node at that
/// depth that can lead, and the per-node assignment (`None` at the leader).
pub type Elected<T> = (usize, NodeId, Vec<Option<T>>);

/// The one depth × leader loop behind every ψ and the map solver: at each depth,
/// least first, try every unique node as leader and return the first `assign`
/// success. A budget error does not end the search at once: a success later at
/// the same depth still soundly gives the least depth (every smaller depth was
/// fully resolved), so the error is returned only when its depth ends without
/// one, and the remaining leaders of that depth run find-only (the last
/// argument of `assign`).
fn least_depth_election<T>(
    search: &mut QuotientSearch<'_>,
    mut assign: impl FnMut(
        &mut QuotientSearch<'_>,
        usize,
        NodeId,
        bool,
    ) -> Result<Option<Vec<Option<T>>>, IndexError>,
) -> Result<Option<Elected<T>>, IndexError> {
    let r = search.refinement();
    for h in 0..=r.stable_depth() {
        let mut deferred: Option<IndexError> = None;
        for leader in r.unique_nodes_at(h) {
            match assign(search, h, leader, deferred.is_some()) {
                Ok(Some(assignment)) => return Ok(Some((h, leader, assignment))),
                Ok(None) => {}
                Err(e) => {
                    deferred.get_or_insert(e);
                }
            }
        }
        if let Some(e) = deferred {
            return Err(e);
        }
    }
    Ok(None)
}

/// The least-depth Port Election on the search's graph (`None` if the graph
/// admits none): its depth is `ψ_PE`.
pub fn pe_election(search: &mut QuotientSearch<'_>) -> Option<Elected<Port>> {
    // The PE assignment has no budget, so the loop never errs.
    least_depth_election(search, |s, h, leader, _| {
        Ok(pe_assignment_with(s, h, leader))
    })
    .unwrap_or(None)
}

/// The least-depth Port Path Election on the search's graph, whose depth is
/// `ψ_PPE`; `max_paths` bounds the search work per class.
pub fn ppe_election(
    search: &mut QuotientSearch<'_>,
    max_paths: usize,
) -> Result<Option<Elected<Vec<Port>>>, IndexError> {
    least_depth_election(search, |s, h, leader, find_only| {
        strong_assignment_inner(s, h, leader, max_paths, Shade::Ppe, find_only)
            .map(|full| full.map(outgoing_ports))
    })
}

/// The least-depth Complete Port Path Election on the search's graph, whose
/// depth is `ψ_CPPE`.
pub fn cppe_election(
    search: &mut QuotientSearch<'_>,
    max_paths: usize,
) -> Result<Option<Elected<FullPath>>, IndexError> {
    least_depth_election(search, |s, h, leader, find_only| {
        strong_assignment_inner(s, h, leader, max_paths, Shade::Cppe, find_only)
    })
}

/// `ψ_PPE(G)`: exact Port Path Election index.
pub fn psi_ppe(g: &PortGraph, max_paths: usize) -> Result<Option<usize>, IndexError> {
    let r = Refinement::compute(g, None);
    let mut search = QuotientSearch::new(g, &r);
    Ok(ppe_election(&mut search, max_paths)?.map(|(h, ..)| h))
}

/// `ψ_CPPE(G)`: exact Complete Port Path Election index.
pub fn psi_cppe(g: &PortGraph, max_paths: usize) -> Result<Option<usize>, IndexError> {
    let r = Refinement::compute(g, None);
    let mut search = QuotientSearch::new(g, &r);
    Ok(cppe_election(&mut search, max_paths)?.map(|(h, ..)| h))
}

/// Compute all four election indices (exact).
pub fn compute_all(g: &PortGraph, max_paths: usize) -> Result<ElectionIndices, IndexError> {
    let s = psi_s(g);
    let r = Refinement::compute(g, None);
    let mut search = QuotientSearch::new(g, &r);
    let pe = pe_election(&mut search).map(|(h, ..)| h);
    let ppe = ppe_election(&mut search, max_paths)?.map(|(h, ..)| h);
    let cppe = cppe_election(&mut search, max_paths)?.map(|(h, ..)| h);
    Ok(ElectionIndices { s, pe, ppe, cppe })
}

// ---------------------------------------------------------------------------
// Pre-quotient reference implementations: the oracle for the equivalence tests
// and the baseline side of `bench_index`.
// ---------------------------------------------------------------------------

/// [`pe_assignment`] by the BFS reference: [`pe_port_is_valid`], one BFS of `G − v`
/// per tested `(node, port)` pair, in place of the [`PeValidity`] table. Kept as the
/// equivalence-test oracle.
pub fn pe_assignment_enumerated(
    g: &PortGraph,
    r: &Refinement,
    depth: usize,
    leader: NodeId,
) -> Option<Vec<Option<Port>>> {
    let classes = r.classes_at(depth);
    let mut out: Vec<Option<Port>> = vec![None; g.num_nodes()];
    for class in classes {
        if class.contains(&leader) {
            if class.len() > 1 {
                return None;
            }
            continue;
        }
        let degree = g.degree(class[0]) as u32;
        let valid_port =
            (0..degree).find(|&p| class.iter().all(|&v| pe_port_is_valid(g, v, p, leader)));
        match valid_port {
            Some(p) => {
                for &v in &class {
                    out[v as usize] = Some(p);
                }
            }
            None => return None,
        }
    }
    Some(out)
}

/// [`ppe_assignment_with`] by pure bounded enumeration (the pre-quotient
/// implementation). Kept as the equivalence-test oracle and bench baseline.
pub fn ppe_assignment_enumerated(
    g: &PortGraph,
    r: &Refinement,
    depth: usize,
    leader: NodeId,
    max_paths: usize,
) -> Result<Option<Vec<Option<Vec<Port>>>>, IndexError> {
    let classes = r.classes_at(depth);
    let mut out: Vec<Option<Vec<Port>>> = vec![None; g.num_nodes()];
    let mut explored = 0usize;
    for class in classes {
        if class.contains(&leader) {
            if class.len() > 1 {
                return Ok(None);
            }
            continue;
        }
        let found = common_sequence(
            g,
            &class,
            leader,
            max_paths,
            &mut explored,
            |g, path| g.outgoing_ports_of_path(path),
            |g, v, seq: &Vec<Port>| ppe_sequence_is_valid(g, v, seq, leader),
        )?;
        match found {
            Some(seq) => {
                for &v in &class {
                    out[v as usize] = Some(seq.clone());
                }
            }
            None => return Ok(None),
        }
    }
    Ok(Some(out))
}

/// [`cppe_assignment_with`] by pure bounded enumeration (the pre-quotient
/// implementation). Kept as the equivalence-test oracle and bench baseline.
pub fn cppe_assignment_enumerated(
    g: &PortGraph,
    r: &Refinement,
    depth: usize,
    leader: NodeId,
    max_paths: usize,
) -> Result<Option<CppeAssignment>, IndexError> {
    let classes = r.classes_at(depth);
    let mut out: Vec<Option<Vec<(Port, Port)>>> = vec![None; g.num_nodes()];
    let mut explored = 0usize;
    for class in classes {
        if class.contains(&leader) {
            if class.len() > 1 {
                return Ok(None);
            }
            continue;
        }
        let found = common_sequence(
            g,
            &class,
            leader,
            max_paths,
            &mut explored,
            |g, path| g.full_ports_of_path(path),
            |g, v, seq: &Vec<(Port, Port)>| cppe_sequence_is_valid(g, v, seq, leader),
        )?;
        match found {
            Some(seq) => {
                for &v in &class {
                    out[v as usize] = Some(seq.clone());
                }
            }
            None => return Ok(None),
        }
    }
    Ok(Some(out))
}

/// `ψ_PPE` by pure bounded enumeration (the pre-quotient implementation, which
/// aborts on the first budget error).
pub fn psi_ppe_enumerated(g: &PortGraph, max_paths: usize) -> Result<Option<usize>, IndexError> {
    let r = Refinement::compute(g, None);
    for h in 0..=r.stable_depth() {
        for leader in r.unique_nodes_at(h) {
            if ppe_assignment_enumerated(g, &r, h, leader, max_paths)?.is_some() {
                return Ok(Some(h));
            }
        }
    }
    Ok(None)
}

/// `ψ_CPPE` by pure bounded enumeration (the pre-quotient implementation, which
/// aborts on the first budget error).
pub fn psi_cppe_enumerated(g: &PortGraph, max_paths: usize) -> Result<Option<usize>, IndexError> {
    let r = Refinement::compute(g, None);
    for h in 0..=r.stable_depth() {
        for leader in r.unique_nodes_at(h) {
            if cppe_assignment_enumerated(g, &r, h, leader, max_paths)?.is_some() {
                return Ok(Some(h));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;

    #[test]
    fn symmetric_ring_is_infeasible_for_everything() {
        let g = generators::symmetric_ring(4).unwrap();
        let f = feasibility(&g);
        assert!(!f.feasible);
        assert_eq!(f.stable_classes, 1);
        let idx = compute_all(&g, 1000).unwrap();
        assert_eq!(
            idx,
            ElectionIndices {
                s: None,
                pe: None,
                ppe: None,
                cppe: None
            }
        );
        assert!(idx.satisfies_hierarchy());
    }

    #[test]
    fn star_has_selection_index_zero() {
        // The centre has unique degree, so ψ_S = 0 — the paper's own example of
        // "ψ_S(G) = 0 iff G contains a node whose degree is unique".
        let g = generators::star(3).unwrap();
        assert_eq!(psi_s(&g), Some(0));
        // The star is feasible: the leaves are distinguished by the far-end port of
        // their unique edge (the augmented view records both port numbers).
        let f = feasibility(&g);
        assert!(f.feasible);
        // PE is solvable in 0 rounds: every leaf's only port leads to the centre.
        assert_eq!(psi_pe(&g), Some(0));
    }

    #[test]
    fn paper_three_node_line_cppe_index_is_one() {
        // Quoted in Section 1: for the 3-node line with ports 0,0,1,0, ψ_CPPE(G) = 1.
        // (PPE, by contrast, is solvable in 0 rounds on this graph: both endpoints
        // output the outgoing-port sequence (0), which is a simple path to the centre
        // from either of them; CPPE needs 1 round because the centre-side port of the
        // two pendant edges differs.)
        let g = generators::paper_three_node_line();
        let idx = compute_all(&g, 1000).unwrap();
        assert_eq!(idx.cppe, Some(1));
        assert_eq!(idx.ppe, Some(0));
        assert_eq!(idx.pe, Some(0));
        // The centre has unique degree: ψ_S = 0.
        assert_eq!(idx.s, Some(0));
        assert!(idx.satisfies_hierarchy());
    }

    #[test]
    fn feasible_oriented_ring_indices() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let f = feasibility(&g);
        assert!(f.feasible);
        assert_eq!(f.stable_classes, 5);
        let idx = compute_all(&g, 1000).unwrap();
        assert!(idx.s.is_some());
        assert!(idx.cppe.is_some());
        assert!(idx.satisfies_hierarchy());
        // All nodes have degree 2, so no node is unique at depth 0.
        assert!(idx.s.unwrap() >= 1);
    }

    #[test]
    fn hierarchy_holds_on_random_graphs() {
        for seed in 0..8u64 {
            let g = generators::random_connected(10, 4, 3, seed).unwrap();
            let idx = compute_all(&g, 20_000).unwrap();
            assert!(idx.satisfies_hierarchy(), "seed {seed}: {idx:?}");
        }
    }

    #[test]
    fn pe_assignment_is_class_uniform_and_valid() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let r = Refinement::compute(&g, None);
        let h = psi_pe(&g).unwrap();
        let leader = r
            .unique_nodes_at(h)
            .into_iter()
            .find(|&u| pe_assignment(&g, &r, h, u).is_some())
            .unwrap();
        let assignment = pe_assignment(&g, &r, h, leader).unwrap();
        for v in g.nodes() {
            if v == leader {
                assert!(assignment[v as usize].is_none());
            } else {
                let p = assignment[v as usize].unwrap();
                assert!(pe_port_is_valid(&g, v, p, leader));
            }
        }
        // Uniform on classes.
        for class in r.classes_at(h) {
            let vals: Vec<_> = class.iter().map(|&v| assignment[v as usize]).collect();
            assert!(vals.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn ppe_and_cppe_assignments_trace_simple_paths() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let r = Refinement::compute(&g, None);
        let h = psi_cppe(&g, 1000).unwrap().unwrap();
        let leader = r
            .unique_nodes_at(h)
            .into_iter()
            .find(|&u| {
                cppe_assignment_with(&mut QuotientSearch::new(&g, &r), h, u, 1000)
                    .unwrap()
                    .is_some()
            })
            .unwrap();
        let ppe = ppe_assignment_with(&mut QuotientSearch::new(&g, &r), h, leader, 1000)
            .unwrap()
            .unwrap();
        let cppe = cppe_assignment_with(&mut QuotientSearch::new(&g, &r), h, leader, 1000)
            .unwrap()
            .unwrap();
        for v in g.nodes() {
            if v == leader {
                continue;
            }
            assert!(ppe_sequence_is_valid(
                &g,
                v,
                ppe[v as usize].as_ref().unwrap(),
                leader
            ));
            assert!(cppe_sequence_is_valid(
                &g,
                v,
                cppe[v as usize].as_ref().unwrap(),
                leader
            ));
        }
    }

    #[test]
    fn path_budget_error_is_reported() {
        // A 4-cycle with a pendant node: at depth 0 the three degree-2 cycle nodes form
        // one class with no uniform quotient edge and no common shortest-path
        // candidate, so the search degrades to the guided merge and then to the
        // joint walk — and with a budget of 1 the joint walk's budget fires, so the
        // computation must refuse to conclude (the typed escape hatch).
        use anet_graph::GraphBuilder;
        let mut b = GraphBuilder::with_nodes(5);
        for i in 0..4u32 {
            b.add_edge(i, 0, (i + 1) % 4, 1).unwrap();
        }
        b.add_edge(0, 2, 4, 0).unwrap();
        let g = b.build().unwrap();
        let r = Refinement::compute(&g, None);
        let res = ppe_assignment_with(&mut QuotientSearch::new(&g, &r), 0, 0, 1);
        assert_eq!(res, Err(IndexError::PathBudgetExceeded { max_paths: 1 }));
        // With a generous budget the computation terminates with a definite answer.
        assert!(ppe_assignment_with(&mut QuotientSearch::new(&g, &r), 0, 0, 10_000).is_ok());
        assert!(psi_ppe(&g, 10_000).is_ok());
        // The enumerated oracle agrees about the tight budget.
        assert_eq!(
            ppe_assignment_enumerated(&g, &r, 0, 0, 1),
            Err(IndexError::PathBudgetExceeded { max_paths: 1 })
        );
    }

    /// Stage 4 on fixed instances: its three outcomes and the exact number of
    /// joint steps it counts for each.
    #[test]
    fn joint_search_outcomes_and_explored_counts() {
        use anet_graph::GraphBuilder;
        let run = |g: &PortGraph, members: &[NodeId], leader: NodeId, max_paths: usize| {
            let mut explored = 0usize;
            let out = joint_search(g, members, leader, max_paths, &mut explored);
            (out, explored)
        };
        // Two members, each two edges below the leader 0 behind a dead-end
        // leaf on port 0: the search tries the leaves, backtracks, and meets
        // at the leader over port 1 twice.
        let mut b = GraphBuilder::with_nodes(7);
        for (a, pa, c, pc) in [
            (3, 0, 5, 0),
            (3, 1, 1, 0),
            (4, 0, 6, 0),
            (4, 1, 2, 0),
            (1, 1, 0, 0),
            (2, 1, 0, 1),
        ] {
            b.add_edge(a, pa, c, pc).unwrap();
        }
        let forked = b.build().unwrap();
        let (out, explored) = run(&forked, &[3, 4], 0, 100);
        let pairs = out.unwrap().expect("a common sequence exists");
        assert_eq!(pairs, vec![(1, 0), (1, 0)]);
        assert_eq!(explored, 5);
        let ports: Vec<Port> = pairs.iter().map(|&(p, _)| p).collect();
        for v in [3, 4] {
            assert!(ppe_sequence_is_valid(&forked, v, &ports, 0), "member {v}");
        }
        // Three leaves of a star reach its centre in one step.
        let star = generators::star(3).unwrap();
        let (out, explored) = run(&star, &[1, 2, 3], 0, 100);
        assert_eq!(out, Ok(Some(vec![(0, 0)])));
        assert_eq!(explored, 1);

        // On the symmetric ring the two walks stay one apart, so one of them
        // always meets the leader first: the search is exhausted.
        let ring = generators::symmetric_ring(5).unwrap();
        assert_eq!(run(&ring, &[1, 2], 0, 100), (Ok(None), 6));
        // The 4-cycle with a pendant on node 0: every port sends one of the
        // three cycle members into the leader early.
        let mut b = GraphBuilder::with_nodes(5);
        for i in 0..4u32 {
            b.add_edge(i, 0, (i + 1) % 4, 1).unwrap();
        }
        b.add_edge(0, 2, 4, 0).unwrap();
        let pendant = b.build().unwrap();
        assert_eq!(run(&pendant, &[1, 2, 3], 0, 100), (Ok(None), 2));

        // A budget one step short of either outcome fires on the step past it.
        let budget = |max_paths| Err(IndexError::PathBudgetExceeded { max_paths });
        assert_eq!(run(&forked, &[3, 4], 0, 4), (budget(4), 5));
        assert_eq!(run(&ring, &[1, 2], 0, 5), (budget(5), 6));
        assert_eq!(run(&pendant, &[1, 2, 3], 0, 1), (budget(1), 2));
    }

    /// Stage 3 on fixed depth-0 view classes: which pass decides each one, the
    /// merged script where there is one, and the exact ops charged.
    #[test]
    fn guided_merge_outcomes_and_ops() {
        let run = |g: &PortGraph, members: &[NodeId], max_ops: usize| {
            let classes = Refinement::compute(g, None).classes_at(0);
            assert!(classes.contains(&members.to_vec()), "{members:?}");
            let lm = Landmarks::compute(g);
            let mut scratch = PairScratch::for_graph(g);
            let mut ops = 0usize;
            let out = guided_merge(g, members, &lm, &mut scratch, max_ops, &mut ops);
            (out, ops)
        };
        let merged = |out: MergeOutcome| match out {
            MergeOutcome::Merged(prefix) => (prefix.script, prefix.endpoint),
            other => panic!("expected a merge, got {other:?}"),
        };
        // Refuter first (four or more members): the four nodes of K4 are
        // permuted by every port, so no script merges them.
        let k4 = generators::complete(4).unwrap();
        let (out, ops) = run(&k4, &[0, 1, 2, 3], 1000);
        assert!(matches!(out, MergeOutcome::NoSequence));
        assert_eq!(ops, 4);
        // Refuter first, merging four members in four steps.
        let g = generators::random_connected(5, 4, 3, 6).unwrap();
        let (out, ops) = run(&g, &[0, 2, 3, 4], 1000);
        assert_eq!(
            (merged(out), ops),
            ((vec![(0, 0), (1, 2), (0, 0), (2, 0)], 1), 4)
        );
        // The Nearest attempt's corridor DFS merges three members.
        let g = generators::random_connected(7, 4, 3, 0).unwrap();
        let (out, ops) = run(&g, &[2, 4, 5], 1000);
        assert_eq!(
            (merged(out), ops),
            ((vec![(0, 2), (1, 1), (3, 0), (1, 0)], 1), 4)
        );
        // The Nearest attempt ends without a merge; the First attempt merges
        // all three members with one port.
        let g = generators::random_connected(7, 4, 3, 1).unwrap();
        let (out, ops) = run(&g, &[0, 1, 3], 1000);
        assert_eq!((merged(out), ops), ((vec![(1, 1)], 4), 23));
        // In this tree the pair probe from the members' own positions finds no
        // merging move at all: the class is refuted.
        let g = generators::random_connected(8, 3, 0, 1).unwrap();
        let (out, ops) = run(&g, &[0, 1], 1000);
        assert!(matches!(out, MergeOutcome::NoSequence));
        assert_eq!(ops, 10);
        // Three inconclusive attempts and a refuter cut short: no conclusion.
        let g = generators::random_connected(5, 3, 1, 6).unwrap();
        let (out, ops) = run(&g, &[0, 4], 50);
        assert!(matches!(out, MergeOutcome::Unknown));
        assert_eq!(ops, 51);
    }

    #[test]
    fn feasibility_depth_is_minimal() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let f = feasibility(&g);
        let d = f.views_distinct_at.unwrap();
        let r = Refinement::compute(&g, None);
        assert_eq!(r.num_classes_at(d), g.num_nodes());
        if d > 0 {
            assert!(r.num_classes_at(d - 1) < g.num_nodes());
        }
    }

    #[test]
    fn index_error_displays_cap() {
        let e = IndexError::PathBudgetExceeded { max_paths: 7 };
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn quotient_and_enumerated_indices_agree_on_random_graphs() {
        for seed in 0..8u64 {
            let g = generators::random_connected(10, 4, 3, seed).unwrap();
            let new_ppe = psi_ppe(&g, 20_000).unwrap();
            let new_cppe = psi_cppe(&g, 20_000).unwrap();
            assert_eq!(new_ppe, psi_ppe_enumerated(&g, 20_000).unwrap(), "{seed}");
            assert_eq!(new_cppe, psi_cppe_enumerated(&g, 20_000).unwrap(), "{seed}");
        }
    }
}
