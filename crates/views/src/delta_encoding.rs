//! Delta binary encoding of augmented truncated views against a base view.
//!
//! In the metered transport (`anet-sim`), the message a node sends in round `r` is
//! its accumulated view — one depth deeper than the message it sent on the same edge
//! in round `r − 1`, which the receiver still holds. The hash-consing
//! [`ViewInterner`] makes the shared substructure between the two explicit: interning
//! base and target into one table turns every subtree the receiver already knows into
//! a pointer-identical canonical node. This module serialises only the *new* table
//! entries, referencing the base's entries by id; the receiver reconstructs the base
//! half of the table from its own copy.
//!
//! ## Format
//!
//! * the header every [`crate::ViewCodec`] format opens with: 6 bits of field width
//!   `w` (`w = max(width(Δ), width(max port), width(h))`, computed from the
//!   **target**; base nodes are referenced, never re-emitted, so their fields don't
//!   matter), then the truncation depth `h` of the target in `w` bits,
//! * 1 bit: `has_base` — does the encoding reference a base view?
//! * if `has_base`:
//!   * 16 bits: a fingerprint of the base (the low 16 bits of the canonical base
//!     root's structural hash) — a best-effort check that encoder and decoder hold
//!     the same base,
//!   * varint: `K`, the number of distinct nodes of the base (the base half of the
//!     table: ids `0..K` in first-visit post-order of the canonical base DAG),
//! * the node table of the [`crate::dag_encoding`] format, written and read by the
//!   same two functions: the number `M` of *new* records, the records, with child
//!   ids ranging over the **combined** table (base ids `< K`, new ids from `K`), and
//!   the root's combined-table id.
//!
//! ## Adaptive: never worse than the DAG format by more than one bit
//!
//! Sharing between `B^{r−1}(v)` and `B^r(v)` is a graph property, not a given: a
//! node of `B^r(v)` is some `B^{r−d}(u)` for a length-`d` walk `v → u`, so a subtree
//! shared with the base needs walks of *both parities* to `u` — on bipartite graphs
//! (even rings, hypercubes, even tori) successive views share **nothing**. The
//! encoder therefore interns the target once and writes both tables — standalone, then
//! against the base interned into the same interner — and emits whichever form is
//! shorter. The standalone form is the DAG format plus the `has_base` bit, so
//! `delta ≤ dag + 1` always, and `delta < dag` wherever real sharing exists (odd
//! cycles somewhere in range: non-bipartite graphs, odd rings/tori).
//!
//! [`decode_view_delta`] enforces the same invariants as the DAG decoder (backward
//! ids, no duplicates — including a new record duplicating a base node —, no record
//! deeper than the declared height, `u32` domains, no reading past the end) and
//! additionally rejects a declared base the decoder does not hold with
//! [`DecodeError::BaseMismatch`]. A supplied-but-unused base is fine: the standalone
//! form ignores it.
//!
//! ```
//! use anet_views::delta_encoding::{decode_view_delta, encode_view_delta};
//! use anet_views::View;
//!
//! // Successive-depth views on an odd ring share almost everything.
//! let g = anet_graph::generators::symmetric_ring(5).unwrap();
//! let base = View::build(&g, 0, 7);
//! let next = View::build(&g, 0, 8);
//! let delta = encode_view_delta(&next, 8, Some(&base));
//! let dag = anet_views::dag_encoding::encode_view_dag(&next, 8);
//! assert!(delta.len() < dag.len());
//! let (decoded, h) = decode_view_delta(&delta, Some(&base)).unwrap();
//! assert_eq!((decoded, h), (next, 8));
//! ```

// anet-lint: deny(panic-path)

use crate::bits::BitString;
use crate::dag_encoding::{read_table, write_table};
use crate::encoding::{read_header, write_header, DecodeError};
use crate::interned::{View, ViewInterner};
use std::collections::HashMap;

/// Width of the base-fingerprint field.
const FINGERPRINT_BITS: usize = 16;

/// The 16-bit base fingerprint: low bits of the canonical root's structural hash.
fn fingerprint(base: &View) -> u64 {
    base.structural_hash() & ((1 << FINGERPRINT_BITS) - 1)
}

/// Assign table ids to every distinct node of `view` in first-visit post-order —
/// the order the table writer emits records in — collecting the canonical handles
/// in id order. Used to pre-fill the base half of the combined table on both the
/// encode and the decode side without writing or reading any bits.
fn assign_ids(node: &View, ids: &mut HashMap<usize, u64>, order: &mut Vec<View>) {
    if ids.contains_key(&node.node_id()) {
        return;
    }
    for (_, _, child) in node.children() {
        assign_ids(child, ids, order);
    }
    // Re-check: a child may equal this node only in cyclic structures, which views
    // cannot form, but the guard keeps the id assignment append-only regardless.
    if !ids.contains_key(&node.node_id()) {
        ids.insert(node.node_id(), ids.len() as u64);
        order.push(node.clone());
    }
}

/// Encode `view` (built at truncation depth `height`) against `base`: the receiver
/// must hold a structurally equal base to decode. With `base = None` (round 1: no
/// previous message exists) the output is the standalone form — the DAG format plus
/// a cleared `has_base` bit.
///
/// Adaptive: the view is interned once and both tables are written; the shorter
/// form is returned (a tie keeps the standalone form), so the result is never more
/// than one bit longer than [`crate::dag_encoding::encode_view_dag`].
pub fn encode_view_delta(view: &View, height: usize, base: Option<&View>) -> BitString {
    let mut interner = ViewInterner::new();
    let canonical = interner.intern(view);
    let mut standalone = BitString::new();
    let w = write_header(&canonical, height, &mut standalone);
    let mut based = standalone.clone();
    standalone.push_bit(false);
    write_table(&canonical, w, &mut HashMap::new(), &mut standalone);
    let Some(base) = base else {
        return standalone;
    };
    // Interning the base into the SAME table makes every subtree the target shares
    // with it pointer-identical, so the table writer references it by id.
    let canonical_base = interner.intern(base);
    let mut ids = HashMap::new();
    assign_ids(&canonical_base, &mut ids, &mut Vec::new());
    based.push_bit(true);
    based.push_uint(fingerprint(&canonical_base), FINGERPRINT_BITS);
    based.push_varint(ids.len() as u64);
    write_table(&canonical, w, &mut ids, &mut based);
    if based.len() < standalone.len() {
        based
    } else {
        standalone
    }
}

/// Decode a view previously produced by [`encode_view_delta`]; returns the view and
/// the stored truncation depth. `base` must be structurally equal to the encoder's
/// base whenever the encoding declares one ([`DecodeError::BaseMismatch`] otherwise,
/// best-effort via the 16-bit fingerprint and the declared table size); a supplied
/// base is ignored when the encoding is standalone.
pub fn decode_view_delta(
    bits: &BitString,
    base: Option<&View>,
) -> Result<(View, usize), DecodeError> {
    let mut r = bits.reader();
    let (w, height) = read_header(&mut r)?;
    let has_base = r.read_bit().ok_or(DecodeError::Truncated)?;
    let mut interner = ViewInterner::new();
    let mut nodes: Vec<View> = Vec::new();
    if has_base {
        let declared_print = r
            .read_uint(FINGERPRINT_BITS)
            .ok_or(DecodeError::Truncated)?;
        let declared_k = r.read_varint().ok_or(DecodeError::Truncated)?;
        let base = base.ok_or(DecodeError::BaseMismatch)?;
        let canonical_base = interner.intern(base);
        assign_ids(&canonical_base, &mut HashMap::new(), &mut nodes);
        if fingerprint(&canonical_base) != declared_print || nodes.len() as u64 != declared_k {
            return Err(DecodeError::BaseMismatch);
        }
    }
    // With a base, zero new records is legal (a fully shared target); standalone,
    // an empty table is the DAG format's EmptyTable condition.
    let view = read_table(&mut r, w, height, &mut nodes, &mut interner)?;
    Ok((view, height))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag_encoding::encode_view_dag;
    use anet_graph::generators;

    #[test]
    fn standalone_round_trips_and_costs_dag_plus_one_bit() {
        for seed in 0..4u64 {
            let g = generators::random_connected(16, 4, 6, seed).unwrap();
            for v in [0u32, 5, 15] {
                for h in 0..=3usize {
                    let view = View::build(&g, v, h);
                    let bits = encode_view_delta(&view, h, None);
                    assert_eq!(bits.len(), encode_view_dag(&view, h).len() + 1);
                    let (decoded, dh) = decode_view_delta(&bits, None).unwrap();
                    assert_eq!((decoded, dh), (view, h));
                }
            }
        }
    }

    #[test]
    fn based_round_trips_on_successive_depths() {
        for g in [
            generators::symmetric_ring(5).unwrap(),
            generators::random_connected(14, 4, 6, 9).unwrap(),
        ] {
            for v in [0u32, 3] {
                for h in 1..=4usize {
                    let base = View::build(&g, v, h - 1);
                    let view = View::build(&g, v, h);
                    let bits = encode_view_delta(&view, h, Some(&base));
                    let (decoded, dh) = decode_view_delta(&bits, Some(&base)).unwrap();
                    assert_eq!((decoded, dh), (view.clone(), h));
                    // Adaptive bound holds whatever the encoder chose.
                    assert!(bits.len() <= encode_view_dag(&view, h).len() + 1);
                }
            }
        }
    }

    #[test]
    fn sharing_beats_the_dag_format_on_odd_rings() {
        let g = generators::symmetric_ring(5).unwrap();
        let base = View::build(&g, 0, 7);
        let view = View::build(&g, 0, 8);
        let delta = encode_view_delta(&view, 8, Some(&base));
        assert!(delta.len() < encode_view_dag(&view, 8).len());
    }

    #[test]
    fn shareless_pairs_fall_back_to_standalone() {
        // On the 3-node path, B^1(end) = {leaf(2), B^1} and B^2(end) =
        // {leaf(1), B^1(centre), B^2} are disjoint node sets (the parity
        // obstruction: a shared node needs walks of both parities to one node),
        // so the adaptive encoder must pick the standalone form (dag + 1 bit).
        let g = generators::paper_three_node_line();
        let base = View::build(&g, 0, 1);
        let view = View::build(&g, 0, 2);
        let bits = encode_view_delta(&view, 2, Some(&base));
        assert_eq!(bits.len(), encode_view_dag(&view, 2).len() + 1);
        // And a standalone string decodes with or without a base on hand.
        assert_eq!(
            decode_view_delta(&bits, Some(&base)).unwrap().0,
            decode_view_delta(&bits, None).unwrap().0
        );
    }

    #[test]
    fn missing_base_is_rejected() {
        let g = generators::symmetric_ring(5).unwrap();
        let base = View::build(&g, 0, 4);
        let view = View::build(&g, 0, 5);
        let bits = encode_view_delta(&view, 5, Some(&base));
        // The odd ring shares, so the encoder really used the base.
        assert!(bits.bit(6 + BitString::width_for(5)), "has_base set");
        assert_eq!(
            decode_view_delta(&bits, None),
            Err(DecodeError::BaseMismatch)
        );
    }

    #[test]
    fn wrong_base_is_rejected() {
        let g = generators::symmetric_ring(5).unwrap();
        let base = View::build(&g, 0, 4);
        let view = View::build(&g, 0, 5);
        let wrong = View::build(&g, 0, 3);
        assert_ne!(fingerprint(&base), fingerprint(&wrong));
        let bits = encode_view_delta(&view, 5, Some(&base));
        assert_eq!(
            decode_view_delta(&bits, Some(&wrong)),
            Err(DecodeError::BaseMismatch)
        );
    }
}
