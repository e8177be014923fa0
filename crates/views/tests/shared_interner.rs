//! Concurrency stress test of [`SharedViewInterner`]: many std threads interning
//! views of *overlapping* graph families must agree — pointer-equal canonical
//! roots, stable structural hashes, and exact agreement with the single-threaded
//! [`ViewInterner`] — whatever the interleaving.

use anet_graph::{generators, PortGraph};
use anet_views::{SharedViewInterner, View, ViewInterner};
use std::sync::Arc;

const THREADS: usize = 8;
const ROUNDS: usize = 12;
const DEPTH: usize = 4;

/// One observed canonical root, keyed by (graph index, depth, node).
type Observation = ((usize, usize, usize), View);

/// Overlapping families: every thread works a window of this pool, so every
/// graph is interned by several threads at once and isomorphic structure is
/// interned by *all* of them.
fn graph_pool() -> Vec<PortGraph> {
    vec![
        generators::symmetric_ring(6).unwrap(),
        generators::symmetric_ring(9).unwrap(),
        generators::oriented_ring(&[true, true, false, true, false]).unwrap(),
        generators::oriented_ring(&[true, false, true, true, false, false]).unwrap(),
        generators::star(5).unwrap(),
        generators::star(7).unwrap(),
        generators::hypercube(3).unwrap(),
        generators::paper_three_node_line(),
        generators::random_connected(12, 4, 4, 11).unwrap(),
        generators::random_connected(14, 4, 5, 23).unwrap(),
    ]
}

#[test]
fn concurrent_interning_of_overlapping_families_is_canonical() {
    let graphs = Arc::new(graph_pool());
    let shared = Arc::new(SharedViewInterner::with_shards(8));

    // Each thread repeatedly builds all views of a sliding window of the pool at
    // every depth, returning the roots it observed keyed by (graph, depth, node).
    let per_thread: Vec<Vec<Observation>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let graphs = Arc::clone(&graphs);
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for round in 0..ROUNDS {
                        // Sliding, overlapping window: threads t and t+1 share
                        // half their graphs every round.
                        for offset in 0..graphs.len() / 2 {
                            let g_index = (t + round + offset) % graphs.len();
                            let graph = &graphs[g_index];
                            for depth in 0..=DEPTH {
                                let views = ViewInterner::shared(&shared).build_all(graph, depth);
                                for (node, view) in views.into_iter().enumerate() {
                                    seen.push(((g_index, depth, node), view));
                                }
                            }
                        }
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress thread panicked"))
            .collect()
    });

    // Reference: a fresh single-threaded interner over the same graphs.
    let mut reference = ViewInterner::new();
    let mut expected: std::collections::HashMap<(usize, usize, usize), View> =
        std::collections::HashMap::new();
    for (g_index, graph) in graphs.iter().enumerate() {
        for depth in 0..=DEPTH {
            for (node, view) in reference.build_all(graph, depth).into_iter().enumerate() {
                expected.insert((g_index, depth, node), view);
            }
        }
    }

    // Every thread's every observation must be (a) pointer-identical to every
    // other thread's observation of the same coordinate, and (b) structurally
    // equal — same hash, same token stream — to the single-threaded result.
    let mut canonical: std::collections::HashMap<(usize, usize, usize), View> =
        std::collections::HashMap::new();
    let mut observations = 0usize;
    for seen in &per_thread {
        for (key, view) in seen {
            observations += 1;
            let single = &expected[key];
            assert_eq!(view, single, "{key:?} disagrees with ViewInterner");
            assert_eq!(
                view.structural_hash(),
                single.structural_hash(),
                "{key:?} hash unstable"
            );
            assert_eq!(view.tokens(), single.tokens(), "{key:?} tokens differ");
            match canonical.get(key) {
                Some(first) => assert!(
                    View::ptr_eq(first, view),
                    "{key:?} resolved to two distinct canonical nodes"
                ),
                None => {
                    canonical.insert(*key, view.clone());
                }
            }
        }
    }
    assert!(observations > THREADS * ROUNDS, "stress ran");

    // Dedup really happened: misses count exactly the distinct subtrees, and the
    // overwhelming majority of filings across threads were hits.
    let stats = shared.stats();
    assert_eq!(stats.distinct_subtrees, stats.misses as usize);
    assert!(stats.hits > stats.misses * 10, "{stats:?}");
    assert!(stats.hit_rate() > 0.9, "{stats:?}");
}

#[test]
fn concurrent_and_sequential_tables_hold_the_same_dag() {
    // Interning the whole pool concurrently or sequentially must produce tables
    // of identical size: the canonical DAG is schedule-independent.
    let graphs = graph_pool();
    let concurrent = Arc::new(SharedViewInterner::with_shards(4));
    std::thread::scope(|scope| {
        for chunk in graphs.chunks(3) {
            let concurrent = Arc::clone(&concurrent);
            scope.spawn(move || {
                for graph in chunk {
                    ViewInterner::shared(&concurrent).build_all(graph, DEPTH);
                }
            });
        }
    });
    let sequential = SharedViewInterner::with_shards(1);
    for graph in &graphs {
        ViewInterner::shared(&sequential).build_all(graph, DEPTH);
    }
    assert_eq!(concurrent.len(), sequential.len());
    assert_eq!(
        concurrent.stats().misses,
        sequential.stats().misses,
        "distinct-subtree counts must be schedule-independent"
    );
}
