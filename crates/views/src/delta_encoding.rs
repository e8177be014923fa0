//! Delta binary encoding of augmented truncated views against a base view.
//!
//! In the metered transport (`anet-sim`), the message a node sends in round `r` is
//! its accumulated view — one depth deeper than the message it sent on the same edge
//! in round `r − 1`, which the receiver still holds. The record table of
//! [`crate::dag_encoding`] makes the shared substructure between the two explicit:
//! both sides give the base's distinct subtrees the ids `0..K` by the same walk over
//! the base itself, so every subtree of the target the receiver already knows,
//! shared handle or structurally equal copy, has a base id. This module serialises
//! only the *new* table entries, referencing the base's entries by id; the receiver
//! fills the base half of the table with its own base's handles, so a decoded view
//! shares those subtrees with the receiver's base instead of copying them.
//!
//! ## Format
//!
//! * the header every [`crate::ViewCodec`] format opens with: 6 bits of field width
//!   `w` (`w = max(width(Δ), width(max port), width(h))`, computed from the
//!   **target**; base nodes are referenced, never re-emitted, so their fields don't
//!   matter), then the truncation depth `h` of the target in `w` bits,
//! * 1 bit: `has_base` — does the encoding reference a base view?
//! * if `has_base`:
//!   * 16 bits: a fingerprint of the base (the low 16 bits of the base root's
//!     structural hash) — a best-effort check that encoder and decoder hold the
//!     same base,
//!   * varint: `K`, the number of distinct subtrees of the base (the base half of
//!     the table: ids `0..K` in first-visit post-order of the base's structure),
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
//! encoder therefore writes both tables — standalone, then against the base's ids —
//! and emits whichever form is shorter. The standalone form is the DAG format plus the `has_base` bit, so
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
use crate::dag_encoding::{read_table, write_table, IdTable};
use crate::encoding::{read_header, write_header, DecodeError};
use crate::interned::View;

/// Width of the base-fingerprint field.
const FINGERPRINT_BITS: usize = 16;

/// The 16-bit base fingerprint: low bits of the base root's structural hash.
fn fingerprint(base: &View) -> u64 {
    base.structural_hash() & ((1 << FINGERPRINT_BITS) - 1)
}

/// Encode `view` (built at truncation depth `height`) against `base`: the receiver
/// must hold a structurally equal base to decode. With `base = None` (round 1: no
/// previous message exists) the output is the standalone form — the DAG format plus
/// a cleared `has_base` bit.
///
/// Adaptive: both tables are written; the shorter form is returned (a tie keeps
/// the standalone form), so the result is never more than one bit longer than
/// [`crate::dag_encoding::encode_view_dag`].
pub fn encode_view_delta(view: &View, height: usize, base: Option<&View>) -> BitString {
    let mut standalone = BitString::new();
    let w = write_header(view, height, &mut standalone);
    let mut based = standalone.clone();
    standalone.push_bit(false);
    write_table(view, w, &mut IdTable::default(), &mut standalone);
    let Some(base) = base else {
        return standalone;
    };
    // With the base's records in the table, every subtree the target shares with
    // the base, shared handle or not, is referenced by its base id.
    let mut ids = IdTable::of_base(base);
    based.push_bit(true);
    based.push_uint(fingerprint(base), FINGERPRINT_BITS);
    based.push_varint(ids.len() as u64);
    write_table(view, w, &mut ids, &mut based);
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
/// base is ignored when the encoding is standalone. A based decode references
/// `base`'s own subtrees wherever the encoding names a base id.
pub fn decode_view_delta(
    bits: &BitString,
    base: Option<&View>,
) -> Result<(View, usize), DecodeError> {
    let mut r = bits.reader();
    let (w, height) = read_header(&mut r)?;
    let has_base = r.read_bit().ok_or(DecodeError::Truncated)?;
    let mut ids = IdTable::default();
    if has_base {
        let declared_print = r
            .read_uint(FINGERPRINT_BITS)
            .ok_or(DecodeError::Truncated)?;
        let declared_k = r.read_varint().ok_or(DecodeError::Truncated)?;
        let base = base.ok_or(DecodeError::BaseMismatch)?;
        if fingerprint(base) != declared_print {
            return Err(DecodeError::BaseMismatch);
        }
        ids = IdTable::of_base(base);
        if ids.len() as u64 != declared_k {
            return Err(DecodeError::BaseMismatch);
        }
    }
    // With a base, zero new records is legal (a fully shared target); standalone,
    // an empty table is the DAG format's EmptyTable condition.
    let view = read_table(&mut r, w, height, &mut ids)?;
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

    /// Every distinct node of `view`, by address.
    fn nodes_of(view: &View) -> Vec<View> {
        fn visit(node: &View, seen: &mut std::collections::HashSet<usize>, out: &mut Vec<View>) {
            if seen.insert(node.node_id()) {
                out.push(node.clone());
                for (_, _, child) in node.children() {
                    visit(child, seen, out);
                }
            }
        }
        let mut out = Vec::new();
        visit(view, &mut std::collections::HashSet::new(), &mut out);
        out
    }

    #[test]
    fn a_based_decode_shares_the_receivers_base() {
        // On the odd ring both children of B^8's root are B^7 itself, so a based
        // decode that references the base instead of copying it hands back the
        // receiver's own base handle there.
        let g = generators::symmetric_ring(5).unwrap();
        let base = View::build(&g, 0, 7);
        let view = View::build(&g, 0, 8);
        let bits = encode_view_delta(&view, 8, Some(&base));
        let (decoded, _) = decode_view_delta(&bits, Some(&base)).unwrap();
        assert_eq!(decoded, view);
        assert!(View::ptr_eq(&decoded.children()[0].2, &base));
        assert!(View::ptr_eq(&decoded.children()[1].2, &base));
        // A standalone decode builds every node afresh.
        let lone = encode_view_delta(&view, 8, None);
        let (decoded, _) = decode_view_delta(&lone, Some(&base)).unwrap();
        assert_eq!(decoded, view);
        let base_nodes = nodes_of(&base);
        for node in nodes_of(&decoded) {
            assert!(base_nodes.iter().all(|b| !View::ptr_eq(b, &node)));
        }
    }

    #[test]
    fn a_new_record_repeating_a_base_subtree_is_a_duplicate() {
        // Against B^7 of the odd ring (base ids 0..8, B^d at id d), a first new
        // record spelling out B^1 again — degree 2, both children the leaf at id 0 —
        // duplicates base entry 1.
        let g = generators::symmetric_ring(5).unwrap();
        let base = View::build(&g, 0, 7);
        let b1 = View::build(&g, 0, 1);
        let w = BitString::width_for(8);
        let mut bits = BitString::new();
        bits.push_uint(w as u64, 6);
        bits.push_uint(8, w);
        bits.push_bit(true);
        bits.push_uint(fingerprint(&base), FINGERPRINT_BITS);
        bits.push_varint(8);
        bits.push_varint(1);
        bits.push_uint(2, w);
        bits.push_bit(true);
        for (_, q, _) in b1.children() {
            bits.push_uint(u64::from(*q), w);
            bits.push_varint(0);
        }
        bits.push_varint(8);
        assert_eq!(
            decode_view_delta(&bits, Some(&base)),
            Err(DecodeError::DuplicateNode { index: 0 })
        );
        // The same record is new against a standalone table.
        let mut lone = BitString::new();
        lone.push_uint(w as u64, 6);
        lone.push_uint(1, w);
        lone.push_bit(false);
        lone.push_varint(2);
        lone.push_uint(2, w);
        lone.push_bit(false);
        lone.push_uint(2, w);
        lone.push_bit(true);
        for (_, q, _) in b1.children() {
            lone.push_uint(u64::from(*q), w);
            lone.push_varint(0);
        }
        lone.push_varint(1);
        assert_eq!(decode_view_delta(&lone, None), Ok((b1, 1)));
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
