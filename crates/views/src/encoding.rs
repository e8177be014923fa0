//! Binary encoding of augmented truncated views, and [`ViewCodec`]: the one choice
//! of how a view becomes bits, for Theorem 2.2 advice and for every message of the
//! metered transport alike.
//!
//! Theorem 2.2 of the paper gives an oracle whose advice is a single encoded view
//! `B^{ψ_S(G)}(u)`, using `O((Δ−1)^{ψ_S(G)} log Δ)` bits: the view has at most
//! `Δ·(Δ−1)^{ψ_S−1}` edges and the two port numbers of an edge take `O(log Δ)` bits.
//! This module provides exactly such an encoding, together with a decoder, so the
//! distributed Selection algorithm can recover the view (and in particular its height,
//! which tells every node how many rounds to run).
//!
//! ## Format
//!
//! Every format of [`ViewCodec`] opens with the same header, written and read here:
//!
//! * 6 bits: `w` — the field width used for every subsequent integer
//!   (`w = max(width(Δ), width(max port), width(h))`, where `Δ` is the largest
//!   degree and `h` the height of the encoded view),
//! * `w` bits: the height `h` of the encoded view.
//!
//! The tree format follows it with the tree in pre-order: for every tree node, its
//! degree (`w` bits); for every non-leaf-level tree node additionally, for each of its
//! `degree` children in port order, the far-end port `q` (`w` bits) followed by the
//! child's encoding. The outgoing port `p` is *not* stored: children appear in port
//! order, so `p` is implied — this saves a factor close to 2 and matches the paper's
//! accounting of "each edge's two port numbers" (the implied one is free).
//!
//! The encoding length is therefore `6 + w·(1 + #tree nodes + #tree edges)`, i.e.
//! `O((Δ−1)^h log Δ)` as in the paper.
//!
//! This is the paper's *unfolded* accounting: repeated subtrees are written once per
//! occurrence. The sibling [`crate::dag_encoding`] module serialises the shared DAG
//! instead (one table record per *distinct* subtree), which collapses symmetric views
//! from `Θ(Δ^h)` to `O(h)` encoded nodes, and [`crate::delta_encoding`] writes only
//! the records a base view the decoder already holds does not cover.

// anet-lint: deny(panic-path)

use crate::bits::{BitReader, BitString};
use crate::dag_encoding::{decode_view_dag, encode_view_dag};
use crate::delta_encoding::{decode_view_delta, encode_view_delta};
use crate::interned::View;

/// Errors produced while decoding an encoded view in any [`ViewCodec`] format (the
/// table conditions only arise in the DAG and delta formats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bit string ended before the view was complete (also reported for a
    /// malformed varint in the DAG format).
    Truncated,
    /// The header declared an invalid field width.
    BadWidth,
    /// DAG format: the node table is empty (a view always has a root).
    EmptyTable,
    /// DAG format: a child or root id does not reference an *earlier* table entry.
    /// Child ids must point strictly backwards (children precede parents in the
    /// topological table order), so any forward or out-of-range id — the bit patterns
    /// that would smuggle in a cycle — is rejected with this error.
    BadNodeId {
        /// The offending id.
        id: usize,
        /// Number of table entries legally referenceable at that point.
        limit: usize,
    },
    /// DAG format: a table entry is structurally identical to an earlier one. The
    /// encoder hash-conses before writing, so canonical encodings never contain
    /// duplicates; rejecting them keeps "distinct views ⇔ distinct encodings".
    DuplicateNode {
        /// Index of the duplicate entry.
        index: usize,
    },
    /// A degree or far-port field exceeds the `u32` domain of port graphs. Wide
    /// field widths are legal (the height field can need them), but no encoder can
    /// emit a degree or port above `u32::MAX`, so the value is forged rather than
    /// silently truncated.
    ValueTooLarge,
    /// Delta format: the encoding references a base view the decoder does not hold —
    /// either no base was supplied although the string declares one, or the supplied
    /// base disagrees with the declared base fingerprint / table size. (Best-effort:
    /// the fingerprint is 16 bits, so a colliding wrong base may instead surface as
    /// [`DecodeError::BadNodeId`] / [`DecodeError::DuplicateNode`] or as a decoded
    /// view that fails downstream equality — never as memory unsafety.)
    BaseMismatch,
    /// DAG and delta formats: a table entry is a subtree deeper than the header's
    /// height. Every entry an encoder writes is a subtree of a view of that height,
    /// so the entry is forged. Rejecting it keeps the decoded view no deeper than the
    /// height the header declares, which is what fixes how many rounds a node runs.
    TooDeep {
        /// Index of the offending entry.
        index: usize,
        /// The height the header declares.
        height: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "bit string too short for the declared view"),
            DecodeError::BadWidth => write!(f, "invalid field width in view encoding header"),
            DecodeError::EmptyTable => write!(f, "DAG node table is empty"),
            DecodeError::BadNodeId { id, limit } => {
                write!(f, "node id {id} out of range (must be < {limit})")
            }
            DecodeError::DuplicateNode { index } => {
                write!(f, "table entry {index} duplicates an earlier node")
            }
            DecodeError::ValueTooLarge => {
                write!(f, "degree or port field exceeds the u32 value domain")
            }
            DecodeError::BaseMismatch => {
                write!(
                    f,
                    "delta encoding references a base view the decoder does not hold"
                )
            }
            DecodeError::TooDeep { index, height } => {
                write!(
                    f,
                    "table entry {index} is deeper than the declared height {height}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// How a view becomes bits: the one codec for Theorem 2.2 advice and for the
/// messages of the metered transport. All three formats are lossless and
/// self-delimiting and open with the same header; they differ only in what they
/// charge for repeated structure.
///
/// * [`ViewCodec::Tree`] — the pre-order unfolded-tree format of this module
///   (the original Theorem 2.2 accounting: `O((Δ−1)^h log Δ)` bits).
/// * [`ViewCodec::Dag`] — the hash-consed shared-DAG format of
///   [`crate::dag_encoding`]: `O(distinct subtrees)` table entries, so symmetric
///   views collapse from exponential to linear in the height.
/// * [`ViewCodec::Delta`] — the format of [`crate::delta_encoding`]: the DAG table
///   written against a base view the decoder already holds (on a metered edge, the
///   previous round's message), never more than one bit above `Dag`.
///
/// The formats are **not** self-describing relative to each other (a DAG bit string
/// may also parse as some tree encoding), so encoder and decoder must agree on the
/// codec out of band — exactly like the height parameter. The default is `Dag`: the
/// format a capped backend meters in when no codec is named. (The Theorem 2.2
/// advice solver ships `Tree` unless asked otherwise: the paper's accounting.)
///
/// ```
/// use anet_views::{View, ViewCodec};
/// let g = anet_graph::generators::symmetric_ring(5).unwrap();
/// let (base, view) = (View::build(&g, 0, 7), View::build(&g, 0, 8));
/// let [tree, dag, delta] = ViewCodec::ALL.map(|codec| codec.encode(&view, 8, Some(&base)));
/// assert!(delta.len() < dag.len() && dag.len() < tree.len());
/// for (codec, bits) in ViewCodec::ALL.into_iter().zip([tree, dag, delta]) {
///     assert_eq!(codec.decode(&bits, Some(&base)).unwrap(), (view.clone(), 8));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ViewCodec {
    /// The unfolded pre-order tree format ([`encode_view_interned`]).
    Tree,
    /// The hash-consed shared-DAG format ([`encode_view_dag`]).
    #[default]
    Dag,
    /// The DAG table against a base view ([`encode_view_delta`]).
    Delta,
}

impl ViewCodec {
    /// Every codec, baseline to sharpest: tree, dag, delta.
    pub const ALL: [ViewCodec; 3] = [ViewCodec::Tree, ViewCodec::Dag, ViewCodec::Delta];

    /// Encode `view`, built at truncation depth `height`, in this format. `Delta`
    /// encodes against `base`, the view the decoder will hold (`None`: the
    /// standalone form); `Tree` and `Dag` ignore it.
    pub fn encode(self, view: &View, height: usize, base: Option<&View>) -> BitString {
        match self {
            ViewCodec::Tree => encode_view_interned(view, height),
            ViewCodec::Dag => encode_view_dag(view, height),
            ViewCodec::Delta => encode_view_delta(view, height, base),
        }
    }

    /// Decode a view previously produced by [`ViewCodec::encode`] with the same
    /// codec and, for `Delta`, a structurally equal base; returns the view and its
    /// height. `Tree` and `Dag` ignore `base`.
    pub fn decode(
        self,
        bits: &BitString,
        base: Option<&View>,
    ) -> Result<(View, usize), DecodeError> {
        match self {
            ViewCodec::Tree => decode_view_interned(bits),
            ViewCodec::Dag => decode_view_dag(bits),
            ViewCodec::Delta => decode_view_delta(bits, base),
        }
    }

    /// Stable lowercase label used in solver and scenario names, sweep artifacts and
    /// tables: `tree`, `dag`, `delta`, in variant order.
    pub fn label(self) -> &'static str {
        ["tree", "dag", "delta"][self as usize]
    }
}

impl std::fmt::Display for ViewCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The field width of `view`'s encodings at `height`: wide enough for its largest
/// degree, its largest port and the height.
fn field_width(view: &View, height: usize) -> usize {
    let max_val = u64::from(view.max_degree())
        .max(view.max_port().map(u64::from).unwrap_or(0))
        .max(height as u64);
    BitString::width_for(max_val)
}

/// Write the header every format opens with — the 6-bit field width `w`, then
/// `height` in `w` bits — and return `w`.
pub(crate) fn write_header(view: &View, height: usize, bits: &mut BitString) -> usize {
    let w = field_width(view, height);
    assert!(w <= 63, "view values too large to encode");
    bits.push_uint(w as u64, 6);
    bits.push_uint(height as u64, w);
    w
}

/// Read the header [`write_header`] writes: the field width and the height.
pub(crate) fn read_header(r: &mut BitReader<'_>) -> Result<(usize, usize), DecodeError> {
    let w = r.read_uint(6).ok_or(DecodeError::Truncated)? as usize;
    if w == 0 || w > 63 {
        return Err(DecodeError::BadWidth);
    }
    let height = r.read_uint(w).ok_or(DecodeError::Truncated)? as usize;
    Ok((w, height))
}

/// The exact length [`encode_view_interned`] would produce, computed in closed form
/// (`6 + w · (1 + #tree nodes + #tree edges)` = `6 + 2·w·size`) from the handle's
/// precomputed metadata — `O(distinct nodes)` for the width scan, without
/// materialising the exponential unfolded encoding. This is how DAG-codec advice
/// runs report their tree-bits counterpart (saturating: a view whose unfolded size
/// saturates [`View::size`] could not be materialised by the tree codec either).
pub fn tree_encoded_size_bits(view: &View, height: usize) -> usize {
    6 + 2usize
        .saturating_mul(field_width(view, height))
        .saturating_mul(view.size())
}

/// Encode an augmented truncated view of the given height in the unfolded-tree
/// format ([`ViewCodec::Tree`]).
///
/// `height` must be the truncation depth the view was built with (it cannot always be
/// recovered from the tree itself: a view that happens to hit only degree-1 nodes stops
/// branching early). The output is the *unfolded* tree however much the handle
/// shares; an owned [`crate::ViewTree`] is encoded through [`View::from_tree`].
pub fn encode_view_interned(view: &View, height: usize) -> BitString {
    let mut bits = BitString::new();
    let w = write_header(view, height, &mut bits);
    encode_interned_node(view, height, w, &mut bits);
    bits
}

fn encode_interned_node(node: &View, remaining: usize, w: usize, bits: &mut BitString) {
    bits.push_uint(u64::from(node.degree()), w);
    if remaining == 0 {
        return;
    }
    debug_assert_eq!(
        node.children().len(),
        node.degree() as usize,
        "non-leaf view nodes have one child per port"
    );
    for (_, q, child) in node.children() {
        bits.push_uint(u64::from(*q), w);
        encode_interned_node(child, remaining - 1, w, bits);
    }
}

/// Decode a view previously produced by [`encode_view_interned`]; returns the view
/// (unshared internally — run it through [`crate::ViewInterner::intern`] to collapse
/// repeated subtrees, or [`View::to_tree`] for the owned form) and its height.
pub fn decode_view_interned(bits: &BitString) -> Result<(View, usize), DecodeError> {
    let mut r = bits.reader();
    let (w, height) = read_header(&mut r)?;
    let view = decode_interned_node(&mut r, height, w)?;
    Ok((view, height))
}

/// Read a `w`-bit degree or far-port field, rejecting values outside the `u32`
/// domain of port graphs instead of silently truncating them (shared by the tree
/// and DAG decoders).
pub(crate) fn read_u32_field(r: &mut BitReader<'_>, w: usize) -> Result<u32, DecodeError> {
    let raw = r.read_uint(w).ok_or(DecodeError::Truncated)?;
    u32::try_from(raw).map_err(|_| DecodeError::ValueTooLarge)
}

fn decode_interned_node(
    r: &mut BitReader<'_>,
    remaining: usize,
    w: usize,
) -> Result<View, DecodeError> {
    let degree = read_u32_field(r, w)?;
    // No `reserve(degree)`: the declared degree is attacker-controlled and may be
    // astronomically larger than the bits backing it (same hardening as the DAG
    // decoder) — the Vec grows as children are actually read.
    let mut children = Vec::new();
    if remaining > 0 {
        for p in 0..degree {
            let q = read_u32_field(r, w)?;
            let child = decode_interned_node(r, remaining - 1, w)?;
            children.push((p, q, child));
        }
    }
    Ok(View::from_parts(degree, children))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view_tree::ViewTree;
    use anet_graph::generators;

    /// The tree codec on an owned tree, through the lossless conversions.
    fn encode_tree(view: &ViewTree, height: usize) -> BitString {
        encode_view_interned(&View::from_tree(view), height)
    }

    fn decode_tree(bits: &BitString) -> Result<(ViewTree, usize), DecodeError> {
        decode_view_interned(bits).map(|(view, height)| (view.to_tree(), height))
    }

    #[test]
    fn round_trip_on_line_views() {
        let g = generators::paper_three_node_line();
        for v in g.nodes() {
            for h in 0..=3usize {
                let view = ViewTree::build(&g, v, h);
                let bits = encode_tree(&view, h);
                let (decoded, dh) = decode_tree(&bits).unwrap();
                assert_eq!(dh, h);
                assert_eq!(decoded, view);
            }
        }
    }

    #[test]
    fn round_trip_on_random_graphs() {
        for seed in 0..5u64 {
            let g = generators::random_connected(18, 5, 7, seed).unwrap();
            for v in [0u32, 7, 17] {
                for h in 0..=3usize {
                    let view = ViewTree::build(&g, v, h);
                    let bits = encode_tree(&view, h);
                    let (decoded, dh) = decode_tree(&bits).unwrap();
                    assert_eq!((decoded, dh), (view, h));
                }
            }
        }
    }

    #[test]
    fn encoding_size_is_within_paper_bound() {
        // Theorem 2.2: O((Δ−1)^h log Δ) bits. We check against the explicit count
        // (1 + nodes + edges)·⌈log₂(Δ+1)⌉ + 6 with a small constant slack.
        let (g, root) = generators::full_tree(4, 3).unwrap();
        let delta = g.max_degree() as u64;
        for h in 1..=3usize {
            let view = ViewTree::build(&g, root, h);
            let bits = encode_tree(&view, h);
            let w = BitString::width_for(delta.max(h as u64));
            let exact = 6 + w * (1 + view.size() + view.num_edges());
            assert_eq!(bits.len(), exact);
            let asymptotic = 4 * (delta as usize) * (delta as usize - 1).pow(h as u32 - 1) * w;
            assert!(bits.len() <= asymptotic + 6 + w);
        }
    }

    #[test]
    fn truncated_bitstring_reports_error() {
        let g = generators::star(3).unwrap();
        let view = ViewTree::build(&g, 0, 2);
        let bits = encode_tree(&view, 2);
        let short =
            BitString::from_binary_string(&bits.to_binary_string()[..bits.len() - 5]).unwrap();
        assert_eq!(decode_tree(&short), Err(DecodeError::Truncated));
    }

    #[test]
    fn empty_bitstring_is_truncated() {
        assert_eq!(decode_tree(&BitString::new()), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_width_detected() {
        let mut bits = BitString::new();
        bits.push_uint(0, 6); // width 0 is invalid
        bits.push_uint(0, 8);
        assert_eq!(decode_tree(&bits), Err(DecodeError::BadWidth));
    }

    #[test]
    fn degree_fields_beyond_u32_are_rejected_not_truncated() {
        let mut bits = BitString::new();
        bits.push_uint(33, 6); // w = 33 (legal: the height field may need it)
        bits.push_uint(1, 33); // height 1
        bits.push_uint(1u64 << 32, 33); // root degree 2^32: outside the u32 domain
        assert_eq!(decode_tree(&bits), Err(DecodeError::ValueTooLarge));
    }

    #[test]
    fn huge_declared_degree_fails_without_allocating() {
        // w = 32, height 1, root degree u32::MAX, no bits behind it: the decoder
        // must hit Truncated while reading children, never pre-allocate ~4G slots.
        let mut bits = BitString::new();
        bits.push_uint(32, 6);
        bits.push_uint(1, 32);
        bits.push_uint(u64::from(u32::MAX), 32);
        assert_eq!(decode_tree(&bits), Err(DecodeError::Truncated));
    }

    #[test]
    fn distinct_views_have_distinct_encodings() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let views: Vec<_> = g.nodes().map(|v| ViewTree::build(&g, v, 3)).collect();
        let encs: Vec<_> = views.iter().map(|v| encode_tree(v, 3)).collect();
        for i in 0..views.len() {
            for j in 0..views.len() {
                assert_eq!(views[i] == views[j], encs[i] == encs[j]);
            }
        }
    }

    #[test]
    fn codec_labels_round_trip() {
        // Labels name codecs in scenario names and sweep artifacts: distinct, and
        // mapped back through `ALL`. The default is the DAG format.
        for codec in ViewCodec::ALL {
            let parsed = ViewCodec::ALL
                .into_iter()
                .find(|c| c.label() == codec.label());
            assert_eq!(parsed, Some(codec));
            assert_eq!(format!("{codec}"), codec.label());
        }
        assert_eq!(
            ViewCodec::ALL.map(ViewCodec::label),
            ["tree", "dag", "delta"]
        );
        assert_eq!(ViewCodec::default(), ViewCodec::Dag);
    }

    #[test]
    fn closed_form_size_matches_the_materialised_encoding() {
        for seed in 0..4u64 {
            let g = generators::random_connected(15, 5, 6, seed).unwrap();
            for v in [0u32, 7, 14] {
                for h in 0..=3usize {
                    let view = View::build(&g, v, h);
                    assert_eq!(
                        tree_encoded_size_bits(&view, h),
                        encode_view_interned(&view, h).len(),
                        "node {v} depth {h}"
                    );
                }
            }
        }
        // And it stays O(distinct nodes) on views whose unfolded encoding could
        // never be materialised: B^50 of the symmetric ring is 2^51 − 1 tree nodes.
        let ring = generators::symmetric_ring(5).unwrap();
        let deep = crate::ViewInterner::new()
            .build_all(&ring, 50)
            .swap_remove(0);
        let w = BitString::width_for(50);
        assert_eq!(
            tree_encoded_size_bits(&deep, 50),
            6 + 2 * w * ((1usize << 51) - 1)
        );
    }

    #[test]
    fn interned_encoding_is_bit_identical_to_owned() {
        for seed in 0..4u64 {
            let g = generators::random_connected(14, 5, 6, seed).unwrap();
            for v in [0u32, 5, 13] {
                for h in 0..=3usize {
                    let owned = ViewTree::build(&g, v, h);
                    let shared = View::build(&g, v, h);
                    let owned_bits = encode_tree(&owned, h);
                    assert_eq!(encode_view_interned(&shared, h), owned_bits);
                    let (decoded, dh) = decode_view_interned(&owned_bits).unwrap();
                    assert_eq!(dh, h);
                    assert_eq!(decoded, shared);
                    assert_eq!(decoded.to_tree(), owned);
                }
            }
        }
    }
}
