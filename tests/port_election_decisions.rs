//! The Lemma 3.9 solver's decisions, pinned. On members of `U_{4,1}`, `U_{5,1}`
//! and `U_{4,2}`, every run of `PortElectionSolver` must elect in exactly `k`
//! rounds, pass verification and give the same outputs on every backend, under
//! every wire codec, with a bandwidth cap and with a shared view interner
//! attached; one FNV-1a-64 value of those outputs is pinned per member. The
//! other suites that run this solver compare execution paths with each other or
//! only verify the outputs, so a decision rule that changed on every path at
//! once would still pass them; it fails here.

use four_shades::constructions::UClass;
use four_shades::graph::PortGraph;
use four_shades::prelude::*;
use four_shades::views::{SharedViewInterner, ViewCodec};
use std::sync::Arc;

/// FNV-1a-64 of a run's outputs, node by node: `Leader` folds as `u64::MAX` and
/// `FirstPort(p)` as `p`, each as eight little-endian bytes.
fn fingerprint(outputs: &[NodeOutput]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for output in outputs {
        let word = match output {
            NodeOutput::Leader => u64::MAX,
            NodeOutput::FirstPort(p) => u64::from(*p),
            other => panic!("Port Election outputs a port or leader, not {other:?}"),
        };
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The member `G_σ` with `σ_j = 1 + (a·j + b) mod (Δ − 1)`.
fn member(class: &UClass, a: u64, b: u64) -> PortGraph {
    let base = class.delta as u64 - 1;
    let sigma: Vec<u32> = (0..class.y())
        .map(|j| 1 + ((a * j + b) % base) as u32)
        .collect();
    class.member(&sigma).unwrap().labeled.graph
}

/// Every configuration the decisions must survive, by label: each smoke backend,
/// a 64-bit cap, metering under each codec, and a shared interner.
fn configurations(k: usize) -> Vec<(String, ElectionBuilder)> {
    let base = || Election::task(Task::PortElection).solver(PortElectionSolver::new(k));
    let mut configs: Vec<(String, ElectionBuilder)> = Backend::smoke_set()
        .into_iter()
        .chain([Backend::capped(64)])
        .map(|backend| (backend.label(), base().backend(backend)))
        .collect();
    configs.extend(
        ViewCodec::ALL
            .into_iter()
            .map(|codec| (format!("metered {codec}"), base().metered(codec))),
    );
    configs.push((
        "shared interner".to_string(),
        base().shared_interner(Arc::new(SharedViewInterner::new())),
    ));
    configs
}

/// Run every configuration on `g` and return the one fingerprint they share.
fn run_all(name: &str, g: &PortGraph, k: usize, configs: &[(String, ElectionBuilder)]) -> u64 {
    let mut seen = None;
    for (label, builder) in configs {
        let ctx = format!("{name} on {label}");
        let report = builder.run(g).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert!(report.verdict.is_ok(), "{ctx}: {:?}", report.verdict);
        if !matches!(report.backend, Backend::Capped { .. }) {
            assert_eq!(report.rounds, k, "{ctx}");
        }
        let hash = fingerprint(&report.outputs);
        assert_eq!(*seen.get_or_insert(hash), hash, "{ctx}");
    }
    seen.expect("at least one configuration")
}

/// The σ rules `(a, b)` of the small members: five distinct σ for both Δ − 1 = 3
/// and Δ − 1 = 4.
const RULES: [(u64, u64); 5] = [(0, 0), (1, 0), (1, 2), (2, 1), (3, 1)];

#[test]
fn lemma_3_9_outputs_are_pinned_on_small_u_members() {
    let pinned: [((usize, usize), [u64; 5]); 2] = [
        (
            (4, 1),
            [
                0x0ba5_96a0_557f_3a79,
                0xcad3_9bbb_b9a1_8a19,
                0xc7bf_c6d5_7d18_fa39,
                0x73fa_43c4_ff83_8479,
                0xf00c_34c9_16b8_c6d9,
            ],
        ),
        (
            (5, 1),
            [
                0xb206_2fff_293f_ff5b,
                0x3ca8_3f25_4ceb_b35b,
                0x12eb_68ff_8367_e35b,
                0xc21d_4ff1_557a_035b,
                0x649e_d675_8113_075b,
            ],
        ),
    ];
    for ((delta, k), hashes) in pinned {
        let class = UClass::new(delta, k).unwrap();
        let configs = configurations(k);
        let got = RULES.map(|(a, b)| {
            let name = format!("U_{{{delta},{k}}} σ = 1 + ({a}·j + {b}) mod {}", delta - 1);
            run_all(&name, &member(&class, a, b), k, &configs)
        });
        assert_eq!(got, hashes, "U_{{{delta},{k}}}, σ rules {RULES:?}");
    }
}

#[test]
fn lemma_3_9_outputs_are_pinned_on_a_u_4_2_member() {
    let class = UClass::new(4, 2).unwrap();
    let g = member(&class, 1, 0);
    assert_eq!(g.num_nodes(), 86_022);
    // Two configurations keep this member's cost down: the sequential backend
    // and metering under the delta codec.
    let configs: Vec<(String, ElectionBuilder)> = configurations(class.k)
        .into_iter()
        .filter(|(label, _)| label == "seq" || label == "metered delta")
        .collect();
    assert_eq!(configs.len(), 2);
    let got = run_all("U_{4,2} σ = 1 + j mod 3", &g, class.k, &configs);
    assert_eq!(got, 0xfcd0_40c5_1961_7599);
}
