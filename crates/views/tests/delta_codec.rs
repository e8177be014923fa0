//! Property tests of the delta view codec — the wire format behind the metered
//! transport's `delta` mode, which encodes round r's view against the round r−1
//! view the receiver already holds. Same adversarial style as the DAG codec's
//! suite: SplitMix64-driven corruption, exhaustive prefix truncation, and the
//! decode-against-the-wrong-base attack unique to a stateful codec — every
//! malformed input must land on a typed [`DecodeError`], never a panic, and the
//! successful decodes must be self-consistent.

use anet_graph::rng::Rng;
use anet_graph::{generators, PortGraph};
use anet_views::dag_encoding::encode_view_dag;
use anet_views::delta_encoding::{decode_view_delta, encode_view_delta};
use anet_views::encoding::DecodeError;
use anet_views::{BitString, View};

/// The same deterministic pool the DAG codec suite uses: trees, rings, stars,
/// and random connected graphs of varying degree.
fn graph_pool() -> Vec<PortGraph> {
    let mut pool = vec![
        generators::paper_three_node_line(),
        generators::star(5).unwrap(),
        generators::symmetric_ring(6).unwrap(),
        generators::oriented_ring(&[true, true, false, true, false]).unwrap(),
        generators::full_tree(3, 3).unwrap().0,
    ];
    for seed in 0..6u64 {
        pool.push(generators::random_connected(20, 5, 8, seed).unwrap());
    }
    pool
}

#[test]
fn round_trip_is_identity_with_and_without_a_base() {
    for g in graph_pool() {
        for v in 0..g.num_nodes().min(4) {
            for depth in 1..=3usize {
                let view = View::build(&g, v as u32, depth);
                let base = View::build(&g, v as u32, depth - 1);
                // Standalone (round 1: no previous message exists).
                let lone = encode_view_delta(&view, depth, None);
                let (decoded, h) = decode_view_delta(&lone, None).unwrap();
                assert_eq!((decoded, h), (view.clone(), depth), "node {v} standalone");
                // Against the successive-round base, decoded with the same base.
                let delta = encode_view_delta(&view, depth, Some(&base));
                let (decoded, h) = decode_view_delta(&delta, Some(&base)).unwrap();
                assert_eq!((decoded, h), (view, depth), "node {v} depth {depth}");
            }
        }
    }
}

#[test]
fn delta_never_beats_dag_by_less_than_it_costs_and_wins_on_successive_rounds() {
    // The adaptive encoder guarantees delta ≤ dag + 1 bit (the has_base flag) on
    // *any* pair, and on real successive-round pairs — where the receiver's base
    // shares almost every subtree — it must actually win somewhere.
    let mut strict_wins = 0usize;
    for g in graph_pool() {
        for depth in 2..=3usize {
            let view = View::build(&g, 0, depth);
            let base = View::build(&g, 0, depth - 1);
            let dag = encode_view_dag(&view, depth).len();
            let delta = encode_view_delta(&view, depth, Some(&base)).len();
            assert!(
                delta <= dag + 1,
                "delta {delta} vs dag {dag} at depth {depth}"
            );
            if delta < dag {
                strict_wins += 1;
            }
        }
    }
    assert!(
        strict_wins > 0,
        "delta never beat dag on a successive-round pair"
    );
    // And on the fully symmetric ring the win is unconditional from depth 3 up:
    // the base covers every subtree except the one new frontier level. (At depth
    // 2 the 16-bit base fingerprint still outweighs the sharing, so the adaptive
    // encoder falls back to standalone — dag + 1 flag bit.)
    let g = generators::symmetric_ring(7).unwrap();
    for depth in 3..=8usize {
        let view = View::build(&g, 0, depth);
        let base = View::build(&g, 0, depth - 1);
        let dag = encode_view_dag(&view, depth).len();
        let delta = encode_view_delta(&view, depth, Some(&base)).len();
        assert!(
            delta < dag,
            "ring depth {depth}: delta {delta} !< dag {dag}"
        );
    }
}

#[test]
fn decoding_against_the_wrong_base_is_rejected() {
    let g = generators::symmetric_ring(6).unwrap();
    let view = View::build(&g, 0, 3);
    let base = View::build(&g, 0, 2);
    let delta = encode_view_delta(&view, 3, Some(&base));
    // The pair genuinely shares structure, so the encoder chose the based form:
    // decoding with no base at all must fail…
    assert!(matches!(
        decode_view_delta(&delta, None),
        Err(DecodeError::BaseMismatch)
    ));
    // …and so must decoding against bases the encoder never saw — a different
    // depth of the right graph, and views of entirely different graphs.
    let wrong_bases = [
        View::build(&g, 0, 1),
        View::build(&generators::star(5).unwrap(), 0, 2),
        View::build(&generators::random_connected(20, 5, 8, 3).unwrap(), 0, 2),
    ];
    for (i, wrong) in wrong_bases.iter().enumerate() {
        match decode_view_delta(&delta, Some(wrong)) {
            Err(DecodeError::BaseMismatch) => {}
            other => panic!("wrong base {i} produced {other:?}"),
        }
    }
    // The right base still works after all the failed attempts (decoding takes
    // the base by reference and must not consume or mutate it).
    let (decoded, h) = decode_view_delta(&delta, Some(&base)).unwrap();
    assert_eq!((decoded, h), (view, 3));
}

#[test]
fn every_prefix_truncation_is_classified_never_a_panic() {
    for g in graph_pool().into_iter().take(6) {
        let view = View::build(&g, 0, 2);
        let base = View::build(&g, 0, 1);
        for bits in [
            encode_view_delta(&view, 2, None),
            encode_view_delta(&view, 2, Some(&base)),
        ] {
            let rendered = bits.to_binary_string();
            for cut in 0..bits.len() {
                let prefix = BitString::from_binary_string(&rendered[..cut]).unwrap();
                match decode_view_delta(&prefix, Some(&base)) {
                    Err(_) => {}
                    Ok(decoded) => {
                        panic!("prefix of {cut}/{} bits decoded: {decoded:?}", bits.len())
                    }
                }
            }
        }
    }
}

#[test]
fn random_bit_flips_never_panic_and_valid_decodes_are_self_consistent() {
    // SplitMix64 corruption sweep over based encodings: flip 1–4 bits, decode
    // with the *correct* base. Every outcome is a classified DecodeError or a
    // valid view, and a valid view must round-trip against the same base.
    let mut rng = Rng::seed(0xDE17AC0DE);
    let pool = graph_pool();
    let mut decoded_ok = 0usize;
    let mut rejected = 0usize;
    for case in 0..400usize {
        let g = &pool[case % pool.len()];
        let root = (case % g.num_nodes()) as u32;
        let depth = 1 + case % 3;
        let view = View::build(g, root, depth);
        let base = View::build(g, root, depth - 1);
        let bits = encode_view_delta(&view, depth, Some(&base));
        let mut corrupted: Vec<char> = bits.to_binary_string().chars().collect();
        for _ in 0..1 + rng.below(4) {
            let i = rng.below(corrupted.len());
            corrupted[i] = if corrupted[i] == '0' { '1' } else { '0' };
        }
        let corrupted =
            BitString::from_binary_string(&corrupted.iter().collect::<String>()).unwrap();
        match decode_view_delta(&corrupted, Some(&base)) {
            Err(
                DecodeError::Truncated
                | DecodeError::BadWidth
                | DecodeError::HeightTooLarge { .. }
                | DecodeError::EmptyTable
                | DecodeError::BadNodeId { .. }
                | DecodeError::DuplicateNode { .. }
                | DecodeError::ValueTooLarge
                | DecodeError::BaseMismatch
                | DecodeError::TooDeep { .. },
            ) => rejected += 1,
            Ok((decoded, h)) => {
                decoded_ok += 1;
                let again = encode_view_delta(&decoded, h, Some(&base));
                let (recovered, h2) = decode_view_delta(&again, Some(&base))
                    .expect("re-encoding a decoded view against the same base is valid");
                assert_eq!((recovered, h2), (decoded, h));
            }
        }
    }
    assert!(rejected > 0, "no corruption was rejected");
    assert!(
        decoded_ok > 0,
        "no corruption decoded to a different valid view"
    );
}

#[test]
fn random_noise_strings_never_panic_with_or_without_a_base() {
    let mut rng = Rng::seed(0x5EEDDE17A);
    let base = View::build(&generators::symmetric_ring(6).unwrap(), 0, 2);
    for case in 0..500usize {
        let len = rng.below(160);
        let mut bits = BitString::new();
        for _ in 0..len {
            bits.push_bit(rng.gen_bool());
        }
        // Arbitrary noise must terminate with *some* classification either way.
        let supplied = (case % 2 == 0).then_some(&base);
        let _ = decode_view_delta(&bits, supplied);
    }
}
