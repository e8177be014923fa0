//! Property tests of the shared-DAG view codec, in the style of the JSON parser's
//! adversarial write→parse tests: SplitMix64-generated inputs, exhaustive prefix
//! truncation, and random bit-level corruption — the decoder must classify every
//! malformed string with a [`DecodeError`] and never panic, loop, or over-allocate,
//! while every well-formed string round-trips losslessly and agrees with the
//! unfolded-tree codec.

use anet_graph::rng::Rng;
use anet_graph::{generators, PortGraph};
use anet_views::dag_encoding::{decode_view_dag, encode_view_dag};
use anet_views::encoding::{self, DecodeError};
use anet_views::{BitString, View, ViewInterner};

/// A deterministic pool of graphs spanning the shapes the codec must handle: trees,
/// rings, stars, and random connected graphs of varying degree.
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
fn round_trip_is_identity_and_agrees_with_the_tree_codec() {
    for g in graph_pool() {
        let mut interner = ViewInterner::new();
        for depth in 0..=3usize {
            let views = interner.build_all(&g, depth);
            for (v, view) in views.iter().enumerate() {
                let dag = encode_view_dag(view, depth);
                let (from_dag, dh) = decode_view_dag(&dag).unwrap();
                assert_eq!(dh, depth, "node {v}");
                assert_eq!(&from_dag, view, "node {v}");
                // Same view through the tree codec: identical decoded structure.
                let tree = encoding::encode_view_interned(view, depth);
                let (from_tree, th) = encoding::decode_view_interned(&tree).unwrap();
                assert_eq!(th, depth);
                assert_eq!(from_dag, from_tree, "node {v}: codecs disagree");
            }
        }
    }
}

#[test]
fn dag_bits_grow_linearly_on_a_symmetric_family_while_tree_bits_grow_exponentially() {
    // On the symmetric ring every node's B^h is one shared node per depth: the DAG
    // table has h + 1 entries (O(h) bits), while the unfolded tree has 2^{h+1} − 1
    // nodes (Ω(2^h) bits). This is the advice-size collapse of the codec, asserted
    // rather than eyeballed; `bench_views` records the same gap as metrics in
    // `BENCH_bench_views.json`.
    let g = generators::symmetric_ring(7).unwrap();
    let mut interner = ViewInterner::new();
    let mut previous_dag = 0usize;
    for h in 1..=14usize {
        let view = interner.build_all(&g, h).swap_remove(0);
        let dag = encode_view_dag(&view, h).len();
        let tree = encoding::encode_view_interned(&view, h).len();
        assert!(tree >= (1usize << h), "tree bits at h={h}: {tree}");
        assert!(dag <= 64 * (h + 1), "dag bits at h={h}: {dag}");
        // Linear growth per depth step, not multiplicative.
        assert!(
            dag >= previous_dag && dag - previous_dag <= 64,
            "dag bits jumped {previous_dag} -> {dag} at h={h}"
        );
        previous_dag = dag;
        // And the exponential/linear pair still round-trips losslessly.
        let (decoded, dh) = decode_view_dag(&encode_view_dag(&view, h)).unwrap();
        assert_eq!((decoded, dh), (view, h));
    }
}

#[test]
fn every_prefix_truncation_is_classified_never_a_panic() {
    for g in graph_pool().into_iter().take(6) {
        let view = View::build(&g, 0, 2);
        let bits = encode_view_dag(&view, 2);
        let rendered = bits.to_binary_string();
        for cut in 0..bits.len() {
            let prefix = BitString::from_binary_string(&rendered[..cut]).unwrap();
            match decode_view_dag(&prefix) {
                Err(_) => {}
                Ok(decoded) => panic!("prefix of {cut}/{} bits decoded: {decoded:?}", bits.len()),
            }
        }
    }
}

#[test]
fn random_bit_flips_never_panic_and_valid_decodes_are_self_consistent() {
    // The adversarial corruption sweep: flip 1–4 random bits of a valid encoding.
    // Every outcome must be either a classified DecodeError or a valid view — and a
    // valid view must itself round-trip through the codec (the decoder never hands
    // back something the encoder cannot reproduce losslessly).
    let mut rng = Rng::seed(0xDA6_C0DE);
    let pool = graph_pool();
    let mut decoded_ok = 0usize;
    let mut rejected = 0usize;
    for case in 0..400usize {
        let g = &pool[case % pool.len()];
        let root = (case % g.num_nodes()) as u32;
        let view = View::build(g, root, 1 + case % 3);
        let bits = encode_view_dag(&view, 1 + case % 3);
        let mut corrupted: Vec<char> = bits.to_binary_string().chars().collect();
        for _ in 0..1 + rng.below(4) {
            let i = rng.below(corrupted.len());
            corrupted[i] = if corrupted[i] == '0' { '1' } else { '0' };
        }
        let corrupted =
            BitString::from_binary_string(&corrupted.iter().collect::<String>()).unwrap();
        match decode_view_dag(&corrupted) {
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
                let (again, h2) = decode_view_dag(&encode_view_dag(&decoded, h))
                    .expect("re-encoding a decoded view is always valid");
                assert_eq!((again, h2), (decoded, h));
            }
        }
    }
    // The sweep must actually exercise both outcomes (flips in value fields produce
    // different-but-valid views; flips in structure fields produce rejections).
    assert!(rejected > 0, "no corruption was rejected");
    assert!(
        decoded_ok > 0,
        "no corruption decoded to a different valid view"
    );
}

#[test]
fn random_noise_strings_never_panic() {
    let mut rng = Rng::seed(0x5EED_B175);
    for _ in 0..500 {
        let len = rng.below(160);
        let mut bits = BitString::new();
        for _ in 0..len {
            bits.push_bit(rng.gen_bool());
        }
        // Decoding arbitrary noise must terminate with *some* classification.
        let _ = decode_view_dag(&bits);
    }
}

#[test]
fn decoded_views_from_hostile_encoders_still_behave() {
    // A non-canonical but well-formed table (e.g. unreferenced extra entries) is
    // accepted as long as it violates no invariant: the decoder is permissive about
    // *unused* nodes but strict about ids and duplicates.
    let mut bits = BitString::new();
    bits.push_uint(3, 6); // w = 3
    bits.push_uint(0, 3); // height 0
    bits.push_varint(2); // two entries…
    bits.push_uint(1, 3); // a degree-1 cut leaf (never referenced)
    bits.push_bit(false);
    bits.push_uint(2, 3); // a degree-2 cut leaf (the root)
    bits.push_bit(false);
    bits.push_varint(1); // root id -> entry 1
    let (view, h) = decode_view_dag(&bits).unwrap();
    assert_eq!(h, 0);
    assert_eq!(view.degree(), 2);
    assert_eq!(view.children().len(), 0);
}
