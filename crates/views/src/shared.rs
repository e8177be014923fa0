//! A concurrent, sharded hash-consing table: one canonical DAG shared by many
//! threads (and, in the multi-tenant election service, by many tenants).
//!
//! A [`crate::ViewInterner`] is single-threaded by construction (`&mut self`
//! everywhere). [`SharedViewInterner`] is the node table such interners can share
//! instead of each keeping a private one: [`crate::ViewInterner::shared`] files
//! every canonical node here, while the canonicalisation memo stays private to
//! each interner. The table uses **lock striping**: it is split across `S` shards,
//! each a plain node map behind its own `Mutex`, and a node is filed in the shard
//! selected by its structural hash. Filing a node therefore takes exactly one
//! short-lived shard lock; threads interning *different* structures almost always
//! hit different shards and proceed without contention, while threads interning the
//! *same* structure serialise on one shard and resolve to the same `Arc` node —
//! which is precisely the cross-tenant dedup the election service wants: isomorphic
//! subtrees from different requests become one shared node.
//!
//! Why cross-shard structures stay canonical: a node's children are canonicalized
//! (bottom-up) before the node itself, each child lives in the single shard its own
//! hash selects, and every shard keeps its canonical nodes alive — so the
//! pointer-based node keys (invariant 2 of the [`crate::interned`] thread-safety
//! contract) are stable and globally unique even though parent and child may live
//! in different shards. No operation ever holds two shard locks at once, so the
//! striping cannot deadlock.
//!
//! The table counts hits and misses ([`SharedViewInterner::stats`]): a *hit* is
//! a filed structure that already had a canonical node — on a multi-tenant mix this
//! is the measured "how much work did tenants share" axis reported in
//! `BENCH_service_*.json`.
//!
//! ```
//! use anet_views::{SharedViewInterner, View, ViewInterner};
//! use std::thread;
//!
//! // Two threads intern the views of the same symmetric ring concurrently; every
//! // equal view resolves to the same shared node.
//! let g = anet_graph::generators::symmetric_ring(6).unwrap();
//! let table = SharedViewInterner::new();
//! let build = || ViewInterner::shared(&table).build(&g, 0, 3);
//! let (a, b) = thread::scope(|s| {
//!     let ta = s.spawn(build);
//!     let tb = s.spawn(build);
//!     (ta.join().unwrap(), tb.join().unwrap())
//! });
//! assert!(View::ptr_eq(&a, &b));
//! assert!(table.stats().hits > 0);
//! ```

// anet-lint: deny(lock-order)
// anet-lint: deny(panic-path)

use crate::interned::{node_hash, node_key, NodeKey};
use crate::View;
use anet_graph::Port;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Acquire `mutex`, treating a poisoned lock as fatal.
///
/// This is the workspace's **single** audited poisoned-lock decision point: a
/// poisoned mutex means another thread panicked while holding the guard, so the
/// protected data (an interner shard, the service queue) may be mid-mutation and
/// no recovery story exists — continuing would silently corrupt canonical DAG
/// identities or drop queued jobs. Every other call site goes through this
/// helper instead of repeating `lock().expect(…)`, so the panic-path lint can
/// hold the rest of the tree to "no unwrap/expect" while this one site stays
/// deliberately, visibly panicking.
pub fn lock_or_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // anet-lint: allow(panic-path) — the one audited poisoned-lock panic; see above.
    mutex
        .lock()
        .expect("mutex poisoned: a thread panicked while holding this lock")
}

/// [`Condvar::wait`] with the same poisoned-lock policy as [`lock_or_poison`]:
/// a poisoned wait means a peer panicked while holding the mutex this condvar
/// guards, and the condition state is unrecoverable.
pub fn wait_or_poison<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    // anet-lint: allow(panic-path) — same audited poisoned-lock policy as lock_or_poison.
    condvar
        .wait(guard)
        .expect("mutex poisoned during condvar wait")
}

/// Counters of a [`SharedViewInterner`]: how much structure was deduplicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternerStats {
    /// Filed structures that already had a canonical node (work shared).
    pub hits: u64,
    /// Filed structures that created a new canonical node (work done once).
    pub misses: u64,
    /// Distinct subtrees currently held across all shards (= total misses).
    pub distinct_subtrees: usize,
}

impl InternerStats {
    /// Fraction of filings that were deduplicated, in `[0, 1]` (`0.0` before any
    /// filing).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent hash-consing table: `S` lock-striped shards of canonical nodes,
/// routed by structural hash. Structurally equal views interned through
/// [`ViewInterner::shared`] over one `SharedViewInterner` — from any thread, any
/// tenant, any graph — resolve to the same `Arc` node.
///
/// All methods take `&self`; the type is `Send + Sync` and is meant to be shared
/// behind an `Arc` (the election service hands one to every worker).
///
/// [`ViewInterner::shared`]: crate::ViewInterner::shared
pub struct SharedViewInterner {
    /// Power-of-two shard array; a node lives in `shards[hash & (len - 1)]`.
    shards: Box<[Mutex<HashMap<NodeKey, View>>]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for SharedViewInterner {
    fn default() -> Self {
        SharedViewInterner::new()
    }
}

/// Default shard count: enough stripes that a worker pool on any current machine
/// rarely collides on unrelated structures, small enough to stay cache-friendly.
const DEFAULT_SHARDS: usize = 64;

impl SharedViewInterner {
    /// A shared interner with the default shard count.
    pub fn new() -> Self {
        SharedViewInterner::with_shards(DEFAULT_SHARDS)
    }

    /// A shared interner with at least `shards` stripes (rounded up to a power of
    /// two, minimum 1). Shard count affects contention only, never results: the
    /// canonical DAG and all hashes are identical for any shard count.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        SharedViewInterner {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of shards (always a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a node with this structural hash lives in. The hash is already a
    /// SplitMix64-mixed value, so the low bits are well distributed.
    fn shard(&self, hash: u64) -> &Mutex<HashMap<NodeKey, View>> {
        &self.shards[(hash as usize) & (self.shards.len() - 1)]
    }

    /// File the canonical node for `(degree, children)`; the children must already
    /// be canonical handles from this table. One shard lock, held only for the map
    /// lookup/insert.
    pub(crate) fn node(&self, degree: u32, children: Vec<(Port, Port, View)>) -> View {
        let hash = node_hash(degree, &children);
        let mut hit = true;
        let view = lock_or_poison(self.shard(hash))
            .entry(node_key(degree, &children))
            .or_insert_with(|| {
                hit = false;
                View::from_parts(degree, children)
            })
            .clone();
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        view
    }

    /// Distinct subtrees currently held, summed across shards. Takes every shard
    /// lock in turn (never two at once).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_or_poison(s).len()).sum()
    }

    /// Has nothing been interned yet?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters and current size. The counters are `Relaxed` atomics:
    /// exact totals once all writer threads are joined, a close approximation while
    /// they run.
    pub fn stats(&self) -> InternerStats {
        InternerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            distinct_subtrees: self.len(),
        }
    }
}

impl std::fmt::Debug for SharedViewInterner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SharedViewInterner")
            .field("shards", &self.shards.len())
            .field("distinct_subtrees", &stats.distinct_subtrees)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

// The whole point of the type: it is shareable across scoped worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedViewInterner>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ViewInterner, ViewTree};
    use anet_graph::generators;

    #[test]
    fn shared_interner_agrees_with_owned_interner() {
        let g = generators::random_connected(18, 4, 6, 11).unwrap();
        let shared = SharedViewInterner::new();
        let mut owned = ViewInterner::new();
        for depth in 0..=3usize {
            let a = ViewInterner::shared(&shared).build_all(&g, depth);
            let b = owned.build_all(&g, depth);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x, y, "depth {depth}");
                assert_eq!(x.structural_hash(), y.structural_hash());
                assert_eq!(x.tokens(), y.tokens());
            }
        }
    }

    #[test]
    fn equal_structures_resolve_to_one_node_across_calls() {
        let g = generators::symmetric_ring(6).unwrap();
        let shared = SharedViewInterner::with_shards(4);
        let a = ViewInterner::shared(&shared).build_all(&g, 4);
        let b = ViewInterner::shared(&shared).build_all(&g, 4);
        assert!(View::ptr_eq(&a[0], &b[5]));
        // One distinct subtree per depth 0..=4, regardless of how often rebuilt.
        assert_eq!(shared.len(), 5);
        let stats = shared.stats();
        assert_eq!(stats.misses, 5);
        assert!(stats.hits > 0);
        assert!(stats.hit_rate() > 0.9, "{stats:?}");
    }

    #[test]
    fn shard_count_does_not_change_the_canonical_dag() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        for shards in [1usize, 2, 7, 64] {
            let shared = SharedViewInterner::with_shards(shards);
            assert!(shared.num_shards().is_power_of_two());
            let views = ViewInterner::shared(&shared).build_all(&g, 3);
            let owned = ViewInterner::new().build_all(&g, 3);
            for (x, y) in views.iter().zip(&owned) {
                assert_eq!(x, y, "{shards} shards");
            }
            assert_eq!(shared.len(), shared.stats().misses as usize);
        }
    }

    #[test]
    fn intern_canonicalizes_foreign_views() {
        let g = generators::random_connected(14, 4, 5, 21).unwrap();
        let shared = SharedViewInterner::new();
        let built = ViewInterner::shared(&shared).build_all(&g, 3);
        for v in g.nodes() {
            let foreign = View::from_tree(&ViewTree::build(&g, v, 3));
            let canonical = ViewInterner::shared(&shared).intern(&foreign);
            assert!(View::ptr_eq(&canonical, &built[v as usize]), "node {v}");
        }
        let tree = View::from_tree(&ViewTree::build(&g, 0, 3));
        assert!(View::ptr_eq(
            &ViewInterner::shared(&shared).intern(&tree),
            &built[0]
        ));
    }

    #[test]
    fn handle_memo_persists_across_calls_in_shared_mode() {
        let g = generators::random_connected(14, 4, 5, 21).unwrap();
        let source = ViewInterner::new().build_all(&g, 3);
        let shared = SharedViewInterner::new();
        let mut handle = ViewInterner::shared(&shared);
        let first: Vec<View> = source.iter().map(|v| handle.intern(v)).collect();
        let hits_before = shared.stats().hits;
        // Re-interning through the same interner is pure memo hits: the shared table
        // is not consulted again.
        let second: Vec<View> = source.iter().map(|v| handle.intern(v)).collect();
        assert_eq!(shared.stats().hits, hits_before);
        for (x, y) in first.iter().zip(&second) {
            assert!(View::ptr_eq(x, y));
        }
        // A private interner produces equal (but privately canonical) views.
        let mut own = ViewInterner::new();
        for (v, canonical) in source.iter().zip(&first) {
            assert_eq!(&own.intern(v), canonical);
        }
    }

    #[test]
    fn cross_tenant_dedup_shares_subtrees_between_different_graphs() {
        // Two different tenants (different rings) still share every per-depth
        // subtree their views have in common — here all of them, since all nodes
        // are degree 2 and the orientations only differ near the top.
        let a = generators::symmetric_ring(6).unwrap();
        let b = generators::symmetric_ring(8).unwrap();
        let shared = SharedViewInterner::new();
        let va = ViewInterner::shared(&shared)
            .build_all(&a, 4)
            .swap_remove(0);
        let vb = ViewInterner::shared(&shared)
            .build_all(&b, 4)
            .swap_remove(0);
        assert!(View::ptr_eq(&va, &vb), "isomorphic balls collapse");
        let stats = shared.stats();
        assert!(stats.hits >= stats.misses, "{stats:?}");
    }
}
