//! The Lemma 4.8 solver's decisions, pinned. On chains of 2, 3, 8, 16 and 64
//! gadgets of `J_{2,4}`, every run of `CppeSolver` must elect `ρ_0` in exactly `k`
//! rounds, pass verification and give the same outputs on every backend, under
//! every wire codec, with a bandwidth cap and with a shared view interner
//! attached; one FNV-1a-64 value of those outputs is pinned per chain. The other
//! suites that run this solver compare execution paths with each other or only
//! verify the outputs, so a decision rule that changed on every path at once
//! would still pass them; it fails here.

use four_shades::constructions::JClass;
use four_shades::prelude::*;
use four_shades::views::{SharedViewInterner, ViewCodec};
use std::sync::Arc;

/// FNV-1a-64 of a run's outputs, node by node: `Leader` folds as `u64::MAX` and
/// `FullPath` as its length followed by each `(p, q)` as `p` then `q`, each word
/// as eight little-endian bytes.
fn fingerprint(outputs: &[NodeOutput]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for output in outputs {
        match output {
            NodeOutput::Leader => fold(u64::MAX),
            NodeOutput::FullPath(pairs) => {
                fold(pairs.len() as u64);
                for &(p, q) in pairs {
                    fold(u64::from(p));
                    fold(u64::from(q));
                }
            }
            other => panic!("CPPE outputs a full path or leader, not {other:?}"),
        }
    }
    hash
}

/// Every configuration the decisions must survive on a chain of `gadgets`, by
/// label: each smoke backend, a 64-bit cap, metering under each codec, and a
/// shared interner.
fn configurations(class: &JClass, gadgets: usize) -> Vec<(String, ElectionBuilder)> {
    let base = || {
        let member = class.template(Some(gadgets)).unwrap();
        Election::task(Task::CompletePortPathElection).solver(CppeSolver::new(member, class.k))
    };
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

/// Run every configuration on the chain of `gadgets` and return the one
/// fingerprint they share.
fn run_all(class: &JClass, gadgets: usize, configs: &[(String, ElectionBuilder)]) -> u64 {
    let member = class.template(Some(gadgets)).unwrap();
    let g = &member.labeled.graph;
    let mut seen = None;
    for (label, builder) in configs {
        let ctx = format!("{gadgets} gadgets on {label}");
        let report = builder.run(g).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert!(report.verdict.is_ok(), "{ctx}: {:?}", report.verdict);
        assert_eq!(
            report.leader(),
            Some(member.rho(0)),
            "{ctx}: the leader is ρ_0"
        );
        if !matches!(report.backend, Backend::Capped { .. }) {
            assert_eq!(report.rounds, class.k, "{ctx}");
        }
        let hash = fingerprint(&report.outputs);
        assert_eq!(*seen.get_or_insert(hash), hash, "{ctx}");
    }
    seen.expect("at least one configuration")
}

#[test]
fn lemma_4_8_outputs_are_pinned_on_short_j_chains() {
    let class = JClass::new(2, 4).unwrap();
    let pinned: [(usize, u64); 4] = [
        (2, 0x6e0b_b4f1_cc08_4fd3),
        (3, 0x418f_8606_a797_8b47),
        (8, 0x7fd2_53d6_5053_21b9),
        (16, 0xd6dd_a6f2_65e7_e3f9),
    ];
    for (gadgets, hash) in pinned {
        let configs = configurations(&class, gadgets);
        assert_eq!(configs.len(), 12);
        let got = run_all(&class, gadgets, &configs);
        assert_eq!(
            got, hash,
            "J_{{2,4}} chain of {gadgets} gadgets: {got:#018x}"
        );
    }
}

#[test]
fn lemma_4_8_outputs_are_pinned_on_a_64_gadget_chain() {
    let class = JClass::new(2, 4).unwrap();
    // Two configurations keep this chain's cost down: the sequential backend and
    // metering under the delta codec.
    let configs: Vec<(String, ElectionBuilder)> = configurations(&class, 64)
        .into_iter()
        .filter(|(label, _)| label == "seq" || label == "metered delta")
        .collect();
    assert_eq!(configs.len(), 2);
    let got = run_all(&class, 64, &configs);
    assert_eq!(got, 0xc31d_f322_974d_691b, "{got:#018x}");
}
