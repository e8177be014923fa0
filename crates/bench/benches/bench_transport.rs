//! P1 — the metered wire transport: full-information collection with every
//! message serialised through each [`ViewCodec`], timed side by side against
//! the zero-serialisation fast path, plus the CONGEST-style capped stream.
//!
//! Beyond the timings, the run records the codecs' measured footprints as
//! metrics: total bits on the wire for tree vs dag vs delta on a small random
//! 3-regular workload and on the canonical 9×9 torus (the README's
//! bits-on-the-wire table is generated from these), and the physical round
//! count of a capped run next to its logical plan. Expected shape: the delta
//! codec lands strictly below the dag codec once views deepen (round r ships
//! only the frontier the receiver cannot already know), and both collapse the
//! tree codec's `Θ((Δ−1)^h)` blowup to the number of distinct subviews.
//!
//! Run with `cargo bench -p anet-bench --bench bench_transport`. Set
//! `ANET_BENCH_JSON_DIR=<dir>` to also emit `BENCH_bench_transport.json`
//! (schema `anet-bench/v1`); CI gates that artifact against
//! `crates/bench/baselines/bench_transport_smoke.json` via `bench_diff`.

use anet_bench::Harness;
use anet_graph::PortGraph;
use anet_sim::{
    run_full_information_metered, run_full_information_traced, Backend, RunReport, WireStats,
};
use anet_trace::NoopSink;
use anet_views::ViewCodec;
use anet_workloads::families::{RandomRegularFamily, TorusFamily};

/// Collect `rounds` rounds of views through `codec` on `backend` (capped or not),
/// deciding nothing, and return the report and the bit accounting.
fn metered(
    g: &PortGraph,
    rounds: usize,
    backend: Backend,
    codec: ViewCodec,
) -> (RunReport, WireStats) {
    let (_, report, stats) =
        run_full_information_metered(g, rounds, backend, codec, &NoopSink, |_| ());
    (report, stats)
}

/// The unmetered sequential fast path over the same rounds.
fn unmetered(g: &PortGraph, rounds: usize) -> RunReport {
    run_full_information_traced(g, rounds, Backend::Sequential, &NoopSink, |v| v.size()).1
}

fn main() {
    let mut h = Harness::new("transport");

    // The timing workload: a random 3-regular graph small enough that the tree
    // codec's exponential views stay tractable, deep enough (r = 3) that the
    // codecs separate. 96 nodes, 288 directed edges.
    let rr = RandomRegularFamily::new(3, vec![96], 0xA5EED).generate(96);
    let rounds = 3;

    // Reference point: the unmetered sequential fast path (no serialisation).
    h.bench("unmetered_seq_rr3_n96_r3", 10, || unmetered(&rr, rounds));

    // One timed run per codec; the per-codec totals become metrics below.
    for codec in ViewCodec::ALL {
        h.bench(&format!("metered_{codec}_rr3_n96_r3"), 10, || {
            metered(&rr, rounds, Backend::Sequential, codec)
                .1
                .total_bits()
        });
    }

    // The capped stream: same graph, default (dag) codec, 64 bits per directed
    // edge per physical round. Measures the streaming loop's overhead, and the
    // physical round count shows the inflation next to the logical plan.
    h.bench("capped_b64_dag_rr3_n96_r3", 10, || {
        metered(&rr, rounds, Backend::capped(64), ViewCodec::Dag)
            .0
            .rounds
    });

    // The chunked-metering reference point (ROADMAP): delta metering at 10⁴
    // nodes, next to the unmetered run of the same rounds on the same graph.
    let rr_large = RandomRegularFamily::new(3, vec![10_000], 1).generate(10_000);
    h.bench("unmetered_seq_rr3_n10000_r3", 5, || {
        unmetered(&rr_large, rounds)
    });
    h.bench("metered_delta_rr3_n10000_r3", 5, || {
        metered(&rr_large, rounds, Backend::Sequential, ViewCodec::Delta)
            .1
            .total_bits()
    });

    for codec in ViewCodec::ALL {
        let (_, stats) = metered(&rr, rounds, Backend::Sequential, codec);
        h.metric(
            &format!("{codec}_total_bits_rr3_n96_r3"),
            stats.total_bits() as i64,
        );
    }

    // Bits on the wire across the three codecs on the fully symmetric canonical
    // 9×9 torus (Δ = 4, every node's view identical), r = 4: the tree codec
    // re-ships the unfolded `4·3^{h-1}` frontier every round, the dag codec
    // ships one node per distinct subview, the delta codec ships only what the
    // receiver cannot predict from the previous round. These metrics are the
    // source of the README bits-on-the-wire table.
    let torus = TorusFamily::generate(9, 9);
    let torus_rounds = 4;
    for codec in ViewCodec::ALL {
        let (_, stats) = metered(&torus, torus_rounds, Backend::Sequential, codec);
        h.metric(
            &format!("{codec}_total_bits_torus9x9_r4"),
            stats.total_bits() as i64,
        );
        h.metric(
            &format!("{codec}_max_edge_bits_torus9x9_r4"),
            stats.max_edge_bits() as i64,
        );
    }

    // The capped run's physical round count (logical plan: 3 rounds).
    let (report, stats) = metered(&rr, rounds, Backend::capped(64), ViewCodec::Dag);
    h.metric(
        "capped_b64_physical_rounds_rr3_n96_r3",
        report.rounds as i64,
    );
    h.metric(
        "capped_b64_total_bits_rr3_n96_r3",
        stats.total_bits() as i64,
    );

    h.report();
}
