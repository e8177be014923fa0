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

use anet_graph::{generators, PortGraph};
use anet_views::dag_encoding::encode_view_dag;
use anet_views::delta_encoding::encode_view_delta;
use anet_views::encoding::encode_view_interned;
use anet_views::{BitString, View};

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
        for byte in encoding.to_binary_string().bytes().chain([b'|']) {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bits += encoding.len();
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
