//! Shared-DAG binary encoding of augmented truncated views.
//!
//! The tree format in [`crate::encoding`] writes the *unfolded* view: a subtree that
//! occurs `t` times is written `t` times, so advice for a depth-`h` view costs
//! `Θ((Δ−1)^h log Δ)` bits even when the whole view is one shared node per depth
//! (as the hash-consing [`crate::ViewInterner`] produces on symmetric topologies). This
//! module serialises the **shared DAG itself**: a topologically ordered node table —
//! children strictly before parents — with one entry per *distinct* subtree, plus the
//! root's table id. The size is `O(distinct subtrees · (Δ log Δ + log #nodes))` bits:
//! linear in the height on symmetric families, never worse than the tree format by
//! more than the table ids.
//!
//! ## Format
//!
//! * the header every [`crate::ViewCodec`] format opens with ([`crate::encoding`]):
//!   6 bits of field width `w` (`w = max(width(Δ), width(max port), width(h))`),
//!   then the truncation depth `h` in `w` bits (stored for the same reason as in the
//!   tree format: a degree-0 view of any depth is a bare leaf),
//! * the node table, which the delta format ([`crate::delta_encoding`]) writes
//!   and reads with the same two functions:
//!   * varint: `N`, the number of table entries (≥ 1),
//!   * `N` node records; record `i` describes one distinct subtree:
//!     * `w` bits: the node's degree,
//!     * if the degree is non-zero, 1 bit: does the node have children? (0 for nodes
//!       at the truncation cut),
//!     * if it does, for each of its `degree` children in outgoing-port order (the
//!       outgoing port is implied, as in the tree format): the far-end port `q`
//!       (`w` bits) followed by the child's table id as a varint — which must
//!       reference an **earlier** record (`id < i`),
//!   * varint: the root's table id (`< N`).
//!
//! Ids are written with [`BitString::push_varint`] (5 bits for ids below 16), so
//! small tables pay almost nothing for the indirection.
//!
//! ## Canonical form
//!
//! [`encode_view_dag`] hash-conses by record while it writes, without building a
//! canonical copy of the view: it walks the view in post-order, once per distinct
//! node address, and a subtree takes the next table id the first time its record —
//! its degree and, per child, both ports and the child's id — completes. So
//! structurally equal subtrees always collapse to one table entry regardless of how
//! the handle was built (`ViewInterner::build_all`, `View::from_tree`, a collector
//! run, …), and the table comes out in first-visit post-order of the view's
//! structure. Encoding is therefore a deterministic function of the view's
//! *structure*: equal views produce identical bit strings and distinct views produce
//! distinct ones, exactly like the tree format. [`decode_view_dag`] files each
//! record it reads in the same kind of record table, and enforces every invariant
//! that could corrupt the *decoded view* — backward-only ids (which makes cycles
//! unrepresentable), no duplicate table entries, no entry deeper than the declared
//! height, degree/port fields within the `u32` domain, no reading past the string —
//! each rejected with a typed [`DecodeError`]. Like the tree decoder, it stays permissive where the
//! decoded view is unaffected: unreferenced table entries, bits after the root id,
//! and non-minimal varints are accepted (so some encoder-unreachable bit strings
//! decode; canonicity claims are about encoder *output*, not about the decoder's
//! accepted language).
//!
//! ```
//! use anet_views::dag_encoding::{decode_view_dag, encode_view_dag};
//! use anet_views::{encoding, View};
//!
//! // On a symmetric ring every depth shares one node: B^9 unfolds to 2^10 − 1 tree
//! // nodes but is a 10-entry DAG, and the encodings show exactly that gap.
//! let g = anet_graph::generators::symmetric_ring(6).unwrap();
//! let view = View::build(&g, 0, 9);
//! let dag = encode_view_dag(&view, 9);
//! let tree = encoding::encode_view_interned(&view, 9);
//! assert!(dag.len() < 400 && tree.len() > 6000);
//!
//! // Lossless: the decoded view is structurally identical (and shared again).
//! let (decoded, height) = decode_view_dag(&dag).unwrap();
//! assert_eq!(height, 9);
//! assert_eq!(decoded, view);
//! ```

// anet-lint: deny(panic-path)

use crate::bits::{BitReader, BitString};
use crate::encoding::{read_header, read_u32_field, write_header, DecodeError};
use crate::interned::View;
use anet_graph::{Port, WordMap};
use std::collections::hash_map::Entry;

/// Encode `view` (built at truncation depth `height`) as a shared DAG.
///
/// The table hash-conses by record, so the cost is linear in the number of
/// *distinct* subtrees (`O(h)` on symmetric views of any height), and
/// equal-but-unshared inputs produce identical bit strings.
pub fn encode_view_dag(view: &View, height: usize) -> BitString {
    let mut bits = BitString::new();
    let w = write_header(view, height, &mut bits);
    write_table(view, w, &mut IdTable::default(), &mut bits);
    bits
}

/// One node table record: the degree and, per child, the two ports and the
/// child's table id. The outgoing port `p` is implied on the wire (children come
/// in port order) but stays in the record, as in the interner's node key, so two
/// hand-built nodes that differ only in `p` never share an id.
type Record = (u32, Vec<(Port, Port, u64)>);

/// The ids of a node table: one per distinct subtree, in the order the table
/// holds them. The DAG format starts empty; the delta format starts from the base
/// view's ids ([`IdTable::of_base`]).
#[derive(Default)]
pub(crate) struct IdTable {
    /// Node address → id, so a subtree shared in a walked view is walked once.
    /// The walked views are borrowed for the whole encode or decode call, which
    /// keeps every address stable and unique.
    by_node: WordMap<usize, u64>,
    /// Record → id: structurally equal subtrees get one id however they were built.
    by_record: WordMap<Record, u64>,
    /// One handle per id, in id order: the first node found with each record.
    nodes: Vec<View>,
}

impl IdTable {
    /// The ids of `base`'s distinct subtrees, `0..K` in first-visit post-order:
    /// the order the table writer would emit them in, given the same way on the
    /// encode and the decode side without writing or reading any bits.
    pub(crate) fn of_base(base: &View) -> IdTable {
        let mut ids = IdTable::default();
        ids.walk(base, &mut |_| ());
        ids
    }

    /// Number of ids given out.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Give `node` and every subtree below it an id, in post-order, and return
    /// `node`'s. A record the table does not hold yet takes the next id and is
    /// handed to `new_record` first.
    fn walk<F: FnMut(&Record)>(&mut self, node: &View, new_record: &mut F) -> u64 {
        if let Some(&id) = self.by_node.get(&node.node_id()) {
            return id;
        }
        let children = node
            .children()
            .iter()
            .map(|(p, q, child)| (*p, *q, self.walk(child, new_record)))
            .collect();
        let record = (node.degree(), children);
        let id = match self.by_record.entry(record) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(slot) => {
                new_record(slot.key());
                let id = self.nodes.len() as u64;
                slot.insert(id);
                self.nodes.push(node.clone());
                id
            }
        };
        self.by_node.insert(node.node_id(), id);
        id
    }
}

/// Write the node table of `root`: the record count, a record for every subtree
/// `ids` does not yet hold, in first-visit post-order, then `root`'s id. The DAG
/// format starts from an empty table; the delta format from the base view's ids.
pub(crate) fn write_table(root: &View, w: usize, ids: &mut IdTable, bits: &mut BitString) {
    let known = ids.len();
    let mut records = BitString::new();
    let root_id = ids.walk(root, &mut |(degree, children): &Record| {
        records.push_uint(u64::from(*degree), w);
        if *degree > 0 {
            records.push_bit(!children.is_empty());
            for (_, q, child_id) in children {
                records.push_uint(u64::from(*q), w);
                records.push_varint(*child_id);
            }
        }
    });
    bits.push_varint((ids.len() - known) as u64);
    bits.append(&records);
    bits.push_varint(root_id);
}

/// Decode a view previously produced by [`encode_view_dag`]; returns the view (with
/// its subtree sharing restored) and the stored truncation depth.
///
/// The decoder validates the invariants of the canonical form: a non-empty table,
/// child and root ids that reference strictly earlier entries (so adversarial ids
/// cannot form cycles or dangle), no two entries encoding the same subtree, and no
/// entry deeper than the declared height. It never allocates proportionally to a
/// *declared* count, only to bits actually present, so a huge forged `N` just reads
/// off the end of the string.
pub fn decode_view_dag(bits: &BitString) -> Result<(View, usize), DecodeError> {
    let mut r = bits.reader();
    let (w, height) = read_header(&mut r)?;
    let view = read_table(&mut r, w, height, &mut IdTable::default())?;
    Ok((view, height))
}

/// Read a node table [`write_table`] wrote and return its root. `ids` holds the
/// entries already known: none for the DAG format, the base view's for the delta
/// format. Each record read takes the next id and is built with
/// [`View::from_parts`] over the handles its child ids name; the table as a whole
/// must not be empty.
pub(crate) fn read_table(
    r: &mut BitReader<'_>,
    w: usize,
    height: usize,
    ids: &mut IdTable,
) -> Result<View, DecodeError> {
    let count = r.read_varint().ok_or(DecodeError::Truncated)?;
    if count == 0 && ids.nodes.is_empty() {
        return Err(DecodeError::EmptyTable);
    }
    for index in 0..count as usize {
        let (record, children) = read_record(r, w, &ids.nodes)?;
        if children
            .iter()
            .any(|(_, _, child)| child.height() >= height)
        {
            return Err(DecodeError::TooDeep { index, height });
        }
        // A record the table already holds (a base record included) duplicates an
        // earlier entry, which the canonical form forbids.
        let Entry::Vacant(slot) = ids.by_record.entry(record) else {
            return Err(DecodeError::DuplicateNode { index });
        };
        let degree = slot.key().0;
        slot.insert(ids.nodes.len() as u64);
        ids.nodes.push(View::from_parts(degree, children));
    }
    let root = r.read_varint().ok_or(DecodeError::Truncated)? as usize;
    ids.nodes.get(root).cloned().ok_or(DecodeError::BadNodeId {
        id: root,
        limit: ids.nodes.len(),
    })
}

/// The children of a decoded node, as [`View::from_parts`] takes them.
type Children = Vec<(Port, Port, View)>;

/// Read one node record against the entries `earlier` in the table: the record
/// itself, and the children it names as handles.
fn read_record(
    r: &mut BitReader<'_>,
    w: usize,
    earlier: &[View],
) -> Result<(Record, Children), DecodeError> {
    let degree = read_u32_field(r, w)?;
    // No `reserve(degree)`: the declared degree is attacker-controlled and may be
    // astronomically larger than the bits backing it.
    let mut ids = Vec::new();
    let mut children = Vec::new();
    if degree > 0 && r.read_bit().ok_or(DecodeError::Truncated)? {
        for p in 0..degree {
            let q = read_u32_field(r, w)?;
            let id = r.read_varint().ok_or(DecodeError::Truncated)? as usize;
            let child = earlier.get(id).cloned().ok_or(DecodeError::BadNodeId {
                id,
                limit: earlier.len(),
            })?;
            ids.push((p, q, id as u64));
            children.push((p, q, child));
        }
    }
    Ok(((degree, ids), children))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::encode_view_interned;
    use crate::view_tree::ViewTree;
    use crate::ViewCodec;
    use anet_graph::generators;

    #[test]
    fn round_trip_on_simple_graphs() {
        for g in [
            generators::paper_three_node_line(),
            generators::star(4).unwrap(),
            generators::oriented_ring(&[true, true, false, true, false]).unwrap(),
        ] {
            for v in g.nodes() {
                for h in 0..=3usize {
                    let view = View::build(&g, v, h);
                    let bits = encode_view_dag(&view, h);
                    let (decoded, dh) = decode_view_dag(&bits).unwrap();
                    assert_eq!(dh, h);
                    assert_eq!(decoded, view);
                }
            }
        }
    }

    #[test]
    fn round_trip_on_random_graphs() {
        for seed in 0..5u64 {
            let g = generators::random_connected(18, 5, 7, seed).unwrap();
            for v in [0u32, 7, 17] {
                for h in 0..=3usize {
                    let view = View::build(&g, v, h);
                    let bits = encode_view_dag(&view, h);
                    let (decoded, dh) = decode_view_dag(&bits).unwrap();
                    assert_eq!(dh, h);
                    assert_eq!(decoded, view);
                    assert_eq!(decoded.to_tree(), view.to_tree());
                }
            }
        }
    }

    #[test]
    fn encoding_is_canonical_across_construction_paths() {
        // Interned, unshared-from-tree and collector-style handles of the same view
        // must all produce one bit string.
        let g = generators::random_connected(14, 4, 6, 3).unwrap();
        for v in [0u32, 6, 13] {
            let interned = View::build(&g, v, 3);
            let unshared = View::from_tree(&ViewTree::build(&g, v, 3));
            assert!(!View::ptr_eq(&interned, &unshared));
            assert_eq!(encode_view_dag(&interned, 3), encode_view_dag(&unshared, 3));
            let owned = View::from_tree(&ViewTree::build(&g, v, 3));
            assert_eq!(encode_view_dag(&owned, 3), encode_view_dag(&interned, 3));
        }
    }

    #[test]
    fn distinct_views_have_distinct_encodings() {
        let g = generators::oriented_ring(&[true, true, false, true, false]).unwrap();
        let views: Vec<_> = g.nodes().map(|v| View::build(&g, v, 3)).collect();
        let encs: Vec<_> = views.iter().map(|v| encode_view_dag(v, 3)).collect();
        for i in 0..views.len() {
            for j in 0..views.len() {
                assert_eq!(views[i] == views[j], encs[i] == encs[j]);
            }
        }
    }

    #[test]
    fn symmetric_views_encode_in_linear_not_exponential_size() {
        // One distinct node per depth: B^60 unfolds to 2^61 − 1 tree nodes, far past
        // anything the tree codec could materialise, yet the DAG table has 61 entries.
        let g = generators::symmetric_ring(5).unwrap();
        let deep = View::build(&g, 0, 60);
        let bits = encode_view_dag(&deep, 60);
        assert!(bits.len() < 61 * 40, "{} bits", bits.len());
        let (decoded, h) = decode_view_dag(&bits).unwrap();
        assert_eq!(h, 60);
        assert_eq!(decoded, deep);
        // The decoded view is shared again: both children of the root are one node.
        assert!(View::ptr_eq(
            &decoded.children()[0].2,
            &decoded.children()[1].2
        ));
    }

    #[test]
    fn agrees_with_the_tree_codec_where_both_apply() {
        for seed in 0..4u64 {
            let g = generators::random_connected(16, 4, 6, seed).unwrap();
            for v in [0u32, 5, 15] {
                for h in 0..=3usize {
                    let owned = ViewTree::build(&g, v, h);
                    let view = View::build(&g, v, h);
                    let (from_dag, hd) = decode_view_dag(&encode_view_dag(&view, h)).unwrap();
                    let (from_tree, ht) =
                        crate::encoding::decode_view_interned(&encode_view_interned(&view, h))
                            .unwrap();
                    assert_eq!((hd, ht), (h, h));
                    assert_eq!(from_dag, from_tree);
                    assert_eq!(from_dag.to_tree(), owned);
                }
            }
        }
    }

    #[test]
    fn dag_is_never_larger_than_tree_plus_id_overhead_on_branching_views() {
        // On views with repetition the DAG should win outright; check a torus-like
        // repetitive graph and a random one.
        let ring = generators::symmetric_ring(8).unwrap();
        let v = View::build(&ring, 0, 8);
        assert!(encode_view_dag(&v, 8).len() < encode_view_interned(&v, 8).len());
    }

    #[test]
    fn truncated_input_reports_truncated_everywhere() {
        let g = generators::random_connected(12, 4, 5, 1).unwrap();
        let bits = encode_view_dag(&View::build(&g, 0, 2), 2);
        // Every proper prefix must fail cleanly with Truncated (never panic, never
        // succeed — the root id is the final field, so no prefix is complete).
        for cut in 0..bits.len() {
            let prefix = BitString::from_binary_string(&bits.to_binary_string()[..cut]).unwrap();
            assert_eq!(
                decode_view_dag(&prefix),
                Err(DecodeError::Truncated),
                "prefix of {cut} bits"
            );
        }
    }

    #[test]
    fn zero_width_header_is_rejected() {
        let mut bits = BitString::new();
        bits.push_uint(0, 6);
        bits.push_uint(0, 8);
        assert_eq!(decode_view_dag(&bits), Err(DecodeError::BadWidth));
    }

    #[test]
    fn empty_table_is_rejected() {
        let mut bits = BitString::new();
        bits.push_uint(3, 6); // w = 3
        bits.push_uint(0, 3); // height 0
        bits.push_varint(0); // N = 0
        assert_eq!(decode_view_dag(&bits), Err(DecodeError::EmptyTable));
    }

    #[test]
    fn forward_and_out_of_range_child_ids_are_rejected() {
        // Hand-build: w=3, h=1, N=2; entry 0 is a degree-1 node whose child id points
        // forwards (to itself / a later entry) — the shape a cycle would need.
        for bad_id in [0u64, 1, 7] {
            let mut bits = BitString::new();
            bits.push_uint(3, 6);
            bits.push_uint(1, 3);
            bits.push_varint(2);
            bits.push_uint(1, 3); // degree 1
            bits.push_bit(true); // has children
            bits.push_uint(0, 3); // far port
            bits.push_varint(bad_id); // references entry 0 itself or later: illegal
            let err = decode_view_dag(&bits).unwrap_err();
            assert_eq!(
                err,
                DecodeError::BadNodeId {
                    id: bad_id as usize,
                    limit: 0
                }
            );
        }
    }

    #[test]
    fn out_of_range_root_id_is_rejected() {
        let g = generators::star(3).unwrap();
        let bits = encode_view_dag(&View::build(&g, 0, 1), 1);
        // Rewrite the trailing root id (the last varint) to an out-of-range value.
        let s = bits.to_binary_string();
        let mut forged = BitString::from_binary_string(&s[..s.len() - 5]).unwrap();
        forged.push_varint(9);
        match decode_view_dag(&forged) {
            Err(DecodeError::BadNodeId { id: 9, .. }) => {}
            other => panic!("expected BadNodeId for the forged root, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_table_entries_are_rejected() {
        // Two identical leaf records: the second is a non-canonical duplicate.
        let mut bits = BitString::new();
        bits.push_uint(3, 6);
        bits.push_uint(0, 3);
        bits.push_varint(2);
        bits.push_uint(2, 3); // leaf of degree 2, no children (cut)
        bits.push_bit(false);
        bits.push_uint(2, 3); // identical leaf again
        bits.push_bit(false);
        bits.push_varint(1);
        assert_eq!(
            decode_view_dag(&bits),
            Err(DecodeError::DuplicateNode { index: 1 })
        );
    }

    #[test]
    fn degree_and_port_fields_beyond_u32_are_rejected_not_truncated() {
        // Width 33 is legal (the height field may need it), but a degree of 2^32
        // would truncate to 0 under a silent `as u32`: the decoder must reject it.
        let mut bits = BitString::new();
        bits.push_uint(33, 6); // w = 33
        bits.push_uint(0, 33); // height 0
        bits.push_varint(1);
        bits.push_uint(1u64 << 32, 33); // degree 2^32: outside the u32 domain
        bits.push_bit(false);
        bits.push_varint(0);
        assert_eq!(decode_view_dag(&bits), Err(DecodeError::ValueTooLarge));

        // Same for a far-port field.
        let mut bits = BitString::new();
        bits.push_uint(33, 6);
        bits.push_uint(1, 33); // height 1
        bits.push_varint(2);
        bits.push_uint(1, 33); // leaf of degree 1 (cut)
        bits.push_bit(false);
        bits.push_uint(1, 33); // node of degree 1…
        bits.push_bit(true); // …with a child
        bits.push_uint(1u64 << 32, 33); // far port 2^32
        bits.push_varint(0);
        bits.push_varint(1);
        assert_eq!(decode_view_dag(&bits), Err(DecodeError::ValueTooLarge));
    }

    #[test]
    fn huge_declared_node_count_fails_without_allocating() {
        // N = 2^40 with no table behind it: must report Truncated promptly (the
        // decoder allocates per record actually read, not per declared count).
        let mut bits = BitString::new();
        bits.push_uint(3, 6);
        bits.push_uint(0, 3);
        bits.push_varint(1 << 40);
        assert_eq!(decode_view_dag(&bits), Err(DecodeError::Truncated));
    }

    #[test]
    fn tree_entry_points_round_trip() {
        // Owned trees ride the codec through the lossless conversions.
        let g = generators::random_connected(10, 3, 4, 2).unwrap();
        let tree = ViewTree::build(&g, 0, 2);
        let (decoded, h) = decode_view_dag(&encode_view_dag(&View::from_tree(&tree), 2)).unwrap();
        assert_eq!((decoded.to_tree(), h), (tree, 2));
    }

    #[test]
    fn records_deeper_than_the_declared_height_are_rejected() {
        // A chain of five degree-1 records under a declared height of 1: record 2
        // is a subtree of height 2, which no view of height 1 contains. The delta
        // format reads the same table after its cleared has_base bit.
        for codec in [ViewCodec::Dag, ViewCodec::Delta] {
            let mut bits = BitString::new();
            bits.push_uint(3, 6); // w = 3
            bits.push_uint(1, 3); // height 1
            if codec == ViewCodec::Delta {
                bits.push_bit(false); // standalone: no base
            }
            bits.push_varint(5);
            bits.push_uint(1, 3); // record 0: a degree-1 leaf at the cut
            bits.push_bit(false);
            for child in 0..4u64 {
                bits.push_uint(1, 3); // records 1..=4: degree 1, child = previous record
                bits.push_bit(true);
                bits.push_uint(0, 3);
                bits.push_varint(child);
            }
            bits.push_varint(4); // root: the top of the chain
            assert_eq!(
                codec.decode(&bits, None),
                Err(DecodeError::TooDeep {
                    index: 2,
                    height: 1
                }),
                "{codec}"
            );
        }
    }
}
