//! Old-vs-new election-index solver timings: the class-quotient search
//! (`psi_ppe` / `psi_cppe`) against the retired per-node simple-path
//! enumeration (`psi_*_enumerated`) across the workload families.
//!
//! The enumeration side only appears where it finishes in bench-able time:
//! n = 16 on every family and n = 256 on random-regular. On torus/circulant
//! topologies at n ≥ 256 the old DFS wanders exponentially among dead-end
//! prefixes that never complete into candidate paths; the path budget (which
//! counts completed paths only) never triggers, and only the step cap added
//! alongside the quotient search (`simple_paths_bounded`) makes it return at
//! all. The random-regular row at n = 256 is the honest head-to-head: both
//! sides get the same 50 000-path budget; the enumeration burns the whole
//! budget and still fails while the quotient search succeeds three orders of
//! magnitude faster (compare the means of `psi_{ppe,cppe}_old_rr_n256` and
//! `psi_{ppe,cppe}_new_rr_n256`).
//!
//! Every quotient-search point resolves its index inside the default budget
//! except PPE on the shuffled circulant at n = 4096, whose depth-1 classes are
//! genuinely hard: that point measures the typed fail-fast path (a few seconds
//! to `PathBudgetExceeded`, where the enumeration would never return) — hence
//! the `.ok()` on the timed calls.
//!
//! Run with `cargo bench -p anet-bench --bench bench_index`.

use anet_bench::Harness;
use anet_constructions::GraphFamily;
use anet_views::election_index::{psi_cppe, psi_cppe_enumerated, psi_ppe, psi_ppe_enumerated};
use anet_workloads::{CirculantFamily, RandomRegularFamily, TorusFamily};

/// The map solver's default path budget (both sides get the same allowance).
const MAX_PATHS: usize = 50_000;

fn main() {
    let mut h = Harness::new("index");

    let rr = RandomRegularFamily::new(3, vec![16, 256, 4096, 10_000], 0xA5EED);
    let torus = TorusFamily::new(vec![(4, 4), (16, 16), (64, 64), (100, 100)]).shuffled(41);
    let circ = CirculantFamily::powers_of_two(vec![16, 256, 4096, 10_000], 3).shuffled(41);
    let families: [(&str, &dyn GraphFamily); 3] = [("rr", &rr), ("torus", &torus), ("circ", &circ)];

    for (name, family) in families {
        for instance in family.instances(4) {
            let g = &instance.graph;
            let n = g.num_nodes();
            eprintln!("[bench_index] {name} n={n}");
            let samples = if n >= 4096 { 3 } else { 5 };
            h.bench(&format!("psi_ppe_new_{name}_n{n}"), samples, || {
                psi_ppe(g, MAX_PATHS).ok()
            });
            h.bench(&format!("psi_cppe_new_{name}_n{n}"), samples, || {
                psi_cppe(g, MAX_PATHS).ok()
            });
            // The enumeration baseline, where it terminates: n = 16 everywhere;
            // n = 256 only on random-regular, whose sparse neighbourhoods keep
            // the DFS linear in the budget (~8 µs per completed path).
            if n == 16 || (n == 256 && name == "rr") {
                h.bench(&format!("psi_ppe_old_{name}_n{n}"), samples, || {
                    psi_ppe_enumerated(g, MAX_PATHS).ok()
                });
                h.bench(&format!("psi_cppe_old_{name}_n{n}"), samples, || {
                    psi_cppe_enumerated(g, MAX_PATHS).ok()
                });
            }
        }
    }

    h.report();
}
