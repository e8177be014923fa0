//! Golden bits of the three view codecs. Round-trip tests pass whenever the encoder
//! and decoder change together; this suite pins what the encoders *write*. Per
//! codec, every encoding of a fixed corpus is folded, as its `0`/`1` rendering,
//! into one FNV-1a-64 value, pinned together with the codec's total bit count.
//! A change to any bit of any format changes a pinned value.
//!
//! Corpus: the paper's three-node line, `star(4)`, the symmetric 5- and 6-rings,
//! the oriented 5-ring and `random_connected(16, 4, 6, s)` for `s` in `0..4`;
//! every node at every depth `0..=4`. The tree and DAG codecs encode `B^h(v)`; the
//! delta codec encodes it standalone and, from depth 1, against `B^{h−1}(v)`.
//!
//! A second test pins what the DAG and delta *decoders* answer, on those
//! encodings and on strings forged from them: every proper prefix at a fixed
//! stride and 16 seeded single-bit flips of each. Every delta string is decoded
//! with no base, with `B^{h−1}(v)` (the true base of a based string) and, from
//! depth 2, with the wrong base `B^{h−2}(v)`. Each outcome is folded exactly: a
//! decoded view by its structural hash, size and height plus the header's
//! height, an error by its `Debug` rendering with every field. The fold and the
//! count per outcome variant are pinned, so a decoder refactor that reports a
//! different error, or the same error with a different `index`, `id` or
//! `limit`, fails it.

use anet_graph::rng::Rng;
use anet_graph::{generators, PortGraph};
use anet_views::dag_encoding::{decode_view_dag, encode_view_dag};
use anet_views::delta_encoding::{decode_view_delta, encode_view_delta};
use anet_views::encoding::{encode_view_interned, DecodeError};
use anet_views::{BitString, View};
use std::collections::BTreeMap;

/// FNV-1a-64 over a sequence of bit strings, each rendered as `0`/`1` text and
/// closed by a `|` byte so that two corpora that only regroup their bits differ.
struct Fold {
    hash: u64,
    bits: usize,
}

impl Fold {
    fn new() -> Self {
        Fold {
            hash: 0xcbf2_9ce4_8422_2325,
            bits: 0,
        }
    }

    fn add(&mut self, encoding: &BitString) {
        self.add_bytes(encoding.to_binary_string().as_bytes());
        self.bits += encoding.len();
    }

    fn add_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes.iter().chain(b"|") {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn corpus() -> Vec<PortGraph> {
    let mut graphs = vec![
        generators::paper_three_node_line(),
        generators::star(4).unwrap(),
        generators::symmetric_ring(5).unwrap(),
        generators::symmetric_ring(6).unwrap(),
        generators::oriented_ring(&[true, true, false, true, false]).unwrap(),
    ];
    for seed in 0..4u64 {
        graphs.push(generators::random_connected(16, 4, 6, seed).unwrap());
    }
    graphs
}

#[test]
fn every_codec_writes_the_pinned_bits() {
    let (mut tree, mut dag, mut delta) = (Fold::new(), Fold::new(), Fold::new());
    for g in corpus() {
        for v in g.nodes() {
            for h in 0..=4usize {
                let view = View::build(&g, v, h);
                tree.add(&encode_view_interned(&view, h));
                dag.add(&encode_view_dag(&view, h));
                delta.add(&encode_view_delta(&view, h, None));
                if h > 0 {
                    let base = View::build(&g, v, h - 1);
                    delta.add(&encode_view_delta(&view, h, Some(&base)));
                }
            }
        }
    }
    assert_eq!(
        (tree.hash, tree.bits),
        (0xdf53_53e8_86c7_68a6, 67_334),
        "tree"
    );
    assert_eq!((dag.hash, dag.bits), (0xd518_2f2c_792f_dbdc, 76_175), "dag");
    assert_eq!(
        (delta.hash, delta.bits),
        (0x777a_9bde_b745_3a23, 144_308),
        "delta"
    );
}

/// Stride between the proper prefixes decoded in the outcome pin.
const PREFIX_STRIDE: usize = 5;
/// Seeded single-bit flips decoded per encoding in the outcome pin.
const FLIPS: usize = 16;

/// The outcome fold of the decoder pin: the exact results, and a count per
/// variant (`Ok` or the error's variant name).
struct Outcomes {
    fold: Fold,
    counts: BTreeMap<String, usize>,
}

impl Outcomes {
    fn new() -> Self {
        Outcomes {
            fold: Fold::new(),
            counts: BTreeMap::new(),
        }
    }

    fn add(&mut self, result: Result<(View, usize), DecodeError>) {
        match result {
            Ok((view, height)) => {
                let mut bytes = Vec::new();
                for word in [
                    view.structural_hash(),
                    view.size() as u64,
                    view.height() as u64,
                    height as u64,
                ] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
                self.fold.add_bytes(&bytes);
                *self.counts.entry("Ok".into()).or_default() += 1;
            }
            Err(err) => {
                let rendered = format!("{err:?}");
                self.fold.add_bytes(rendered.as_bytes());
                let variant = rendered
                    .split([' ', '{'])
                    .next()
                    .unwrap_or_default()
                    .to_string();
                *self.counts.entry(variant).or_default() += 1;
            }
        }
    }
}

/// `bits` itself, its proper prefixes at [`PREFIX_STRIDE`], and [`FLIPS`]
/// single-bit flips at positions drawn from `rng`.
fn forgeries(bits: &BitString, rng: &mut Rng) -> Vec<BitString> {
    let text = bits.to_binary_string();
    let mut out = vec![bits.clone()];
    for cut in (0..bits.len()).step_by(PREFIX_STRIDE) {
        out.push(BitString::from_binary_string(&text[..cut]).unwrap());
    }
    for _ in 0..FLIPS {
        let at = rng.below(bits.len());
        let mut flipped = text.clone().into_bytes();
        flipped[at] ^= b'0' ^ b'1';
        out.push(BitString::from_binary_string(std::str::from_utf8(&flipped).unwrap()).unwrap());
    }
    out
}

#[test]
fn every_decoder_outcome_is_pinned() {
    let (mut dag, mut delta) = (Outcomes::new(), Outcomes::new());
    let mut rng = Rng::seed(0xC0DE_C5EE_D000_0029);
    for g in corpus() {
        for v in g.nodes() {
            let views: Vec<View> = (0..=4usize).map(|h| View::build(&g, v, h)).collect();
            for (h, view) in views.iter().enumerate() {
                for bits in forgeries(&encode_view_dag(view, h), &mut rng) {
                    dag.add(decode_view_dag(&bits));
                }
                // No base; the previous depth (the true base of a based string,
                // unused by a standalone one); and from depth 2 a wrong base.
                let bases: Vec<Option<&View>> = std::iter::once(None)
                    .chain(views[..h].iter().rev().take(2).map(Some))
                    .collect();
                let mut strings = vec![encode_view_delta(view, h, None)];
                if h > 0 {
                    strings.push(encode_view_delta(view, h, Some(&views[h - 1])));
                }
                for string in strings {
                    for bits in forgeries(&string, &mut rng) {
                        for &base in &bases {
                            delta.add(decode_view_delta(&bits, base));
                        }
                    }
                }
            }
        }
    }
    let counts = |o: &Outcomes| -> Vec<(String, usize)> {
        o.counts.iter().map(|(k, &n)| (k.clone(), n)).collect()
    };
    let named = |pairs: &[(&str, usize)]| -> Vec<(String, usize)> {
        pairs.iter().map(|&(k, n)| (k.to_string(), n)).collect()
    };
    assert_eq!(
        counts(&dag),
        named(&[
            ("BadNodeId", 2395),
            ("BadWidth", 77),
            ("DuplicateNode", 723),
            ("EmptyTable", 177),
            ("HeightTooLarge", 101),
            ("Ok", 2872),
            ("TooDeep", 288),
            ("Truncated", 16276),
        ]),
        "dag outcome counts"
    );
    assert_eq!(dag.fold.hash, 0x6f85_36ca_a6f5_18d0, "dag outcomes");
    assert_eq!(
        counts(&delta),
        named(&[
            ("BadNodeId", 10602),
            ("BadWidth", 194),
            ("BaseMismatch", 15309),
            ("DuplicateNode", 2527),
            ("EmptyTable", 238),
            ("HeightTooLarge", 526),
            ("Ok", 12944),
            ("TooDeep", 1343),
            ("Truncated", 75713),
        ]),
        "delta outcome counts"
    );
    assert_eq!(delta.fold.hash, 0xa0f3_63c4_25f4_64f8, "delta outcomes");
}
