//! Parts 2 and 3 of Section 4.1: the component graph `H` and the gadget `Ĥ`.
//!
//! The component `H` is the disjoint union of the layer graphs
//! `L_0, L_1, …, L_{k−1}` together with **two** copies of `L_k` (`L_{k,1}`, `L_{k,2}`),
//! joined by inter-layer edges (Part 2 of the construction, quoted rule by rule in the
//! code below). The gadget `Ĥ` (Part 3) consists of four copies of `H` — called left,
//! top, right and bottom — whose `r^0_0` nodes are merged into a single node `ρ` of
//! degree `4μ`, the port blocks at `ρ` being `0..μ` (left), `μ..2μ` (top), `2μ..3μ`
//! (right) and `3μ..4μ` (bottom).

use crate::layers::{append_layer, AppendedLayer};
use anet_graph::{GraphBuilder, GraphError, NodeId, Result};

/// Identifier of the four components of a gadget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// `H_L` — ports `0..μ` at `ρ`.
    Left,
    /// `H_T` — ports `μ..2μ` at `ρ`.
    Top,
    /// `H_R` — ports `2μ..3μ` at `ρ`.
    Right,
    /// `H_B` — ports `3μ..4μ` at `ρ`.
    Bottom,
}

impl Side {
    /// All four sides in the fixed order L, T, R, B.
    pub const ALL: [Side; 4] = [Side::Left, Side::Top, Side::Right, Side::Bottom];

    /// Index 0..4 of the side (also the port-block index at `ρ`).
    pub fn index(self) -> usize {
        match self {
            Side::Left => 0,
            Side::Top => 1,
            Side::Right => 2,
            Side::Bottom => 3,
        }
    }

    /// One-letter name used in labels.
    pub fn letter(self) -> &'static str {
        match self {
            Side::Left => "L",
            Side::Top => "T",
            Side::Right => "R",
            Side::Bottom => "B",
        }
    }
}

/// A component `H` appended into a builder.
///
/// When the component is part of a gadget, its `L_0` node is the shared `ρ` (created by
/// the caller); otherwise a fresh `r^0_0` node is created.
#[derive(Debug, Clone)]
pub struct ComponentH {
    /// Arity parameter `μ`.
    pub mu: usize,
    /// Depth parameter `k`.
    pub k: usize,
    /// The `L_0` node (`r^0_0`, or the shared `ρ`).
    pub r00: NodeId,
    /// Layers `L_1 … L_{k−1}` (index 0 holds `L_1`).
    pub layers: Vec<AppendedLayer>,
    /// The two copies of the top layer: `L_{k,1}` and `L_{k,2}`.
    pub top: [AppendedLayer; 2],
    /// Border nodes `w_{q,c}`: `border[c−1][q−1]` is `w_{q,c}` (Part 4 ordering).
    pub border: [Vec<NodeId>; 2],
}

impl ComponentH {
    /// `z`, the number of nodes of `L_k` (the number of border indices `q`).
    pub fn z(&self) -> usize {
        self.border[0].len()
    }

    /// Border node `w_{q,c}` (`q` 1-based, `c ∈ {1, 2}`).
    pub fn w(&self, q: usize, c: u8) -> NodeId {
        self.border[(c - 1) as usize][q - 1]
    }

    /// A layer handle: `layer(0)` is not available (use `r00`); `layer(m)` for
    /// `1 ≤ m ≤ k−1`; the two top copies via [`ComponentH::top`].
    pub fn layer(&self, m: usize) -> &AppendedLayer {
        assert!(m >= 1 && m < self.k, "layer index out of range");
        &self.layers[m - 1]
    }

    /// Every node of the component (including `r00`).
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let mut out = vec![self.r00];
        for l in &self.layers {
            out.extend_from_slice(&l.all);
        }
        for t in &self.top {
            out.extend_from_slice(&t.all);
        }
        out
    }
}

/// Append a component `H` into the builder. If `shared_l0` is `Some((rho, offset))`,
/// the component's `L_0` node is the existing node `rho` and the `L_0`–`L_1` edges use
/// ports `offset..offset+μ` at `rho` (this is how the gadget shares `ρ` between its
/// four components); otherwise a fresh `r^0_0` is created and ports `0..μ` are used.
pub fn append_component_h(
    b: &mut GraphBuilder,
    mu: usize,
    k: usize,
    shared_l0: Option<(NodeId, u32)>,
) -> Result<ComponentH> {
    if mu < 2 {
        return Err(GraphError::invalid("component H requires μ ≥ 2"));
    }
    if k < 4 {
        return Err(GraphError::invalid("component H requires k ≥ 4"));
    }
    let (r00, rho_offset) = match shared_l0 {
        Some((rho, offset)) => (rho, offset),
        None => (b.add_node(), 0),
    };

    // Layers L_1 … L_{k−1}.
    let mut layers = Vec::with_capacity(k - 1);
    for m in 1..k {
        layers.push(append_layer(b, mu, m)?);
    }
    // Two copies of L_k.
    let top1 = append_layer(b, mu, k)?;
    let top2 = append_layer(b, mu, k)?;

    // --- Edges between L_0 and L_1. -------------------------------------------------
    // "For each node v ∈ L1, add an edge {r00, v}. Label the ports at r00 using
    //  0, …, μ−1, and label the newly-created port at each node in L1 by μ−1."
    let l1 = &layers[0];
    for i in 0..mu as u8 {
        let v = l1.node(0, &[i]).expect("L1 node");
        b.add_edge(r00, rho_offset + u32::from(i), v, mu as u32 - 1)?;
    }

    // --- Edges between L_1 and L_2. -------------------------------------------------
    // "For each i ∈ 0, …, μ−1, add an edge between v00(i) and v20(i) [port μ at the L1
    //  node, port 2 at the L2 node]. Next, add an edge connecting v00(0) to r20 [ports
    //  μ+1 / μ], and an edge connecting v00(μ−1) to r21 [ports μ+1 / μ]."
    {
        let l2 = &layers[1];
        for i in 0..mu as u8 {
            let v1 = l1.node(0, &[i]).expect("L1 node");
            let v2 = l2.node(0, &[i]).expect("L2 middle node");
            b.add_edge(v1, mu as u32, v2, 2)?;
        }
        let first = l1.node(0, &[0]).expect("L1 node 0");
        let last = l1.node(0, &[mu as u8 - 1]).expect("L1 node μ−1");
        b.add_edge(first, mu as u32 + 1, l2.root(0), mu as u32)?;
        b.add_edge(last, mu as u32 + 1, l2.root(1), mu as u32)?;
    }

    // --- Edges between L_m and L_{m+1} for 2 ≤ m ≤ k−1. ------------------------------
    for m in 2..k {
        let is_last = m == k - 1;
        // Split the borrow: the lower layer is layers[m−1]; the upper layer is
        // layers[m] for m < k−1, or the two top copies for m = k−1.
        if !is_last {
            let (lower_slice, upper_slice) = layers.split_at(m);
            let lower = &lower_slice[m - 1];
            let upper = &upper_slice[0];
            connect_layers(b, mu, m, lower, upper, false)?;
        } else {
            let lower = &layers[m - 1];
            connect_layers(b, mu, m, lower, &top1, false)?;
            connect_layers(b, mu, m, lower, &top2, true)?;
        }
    }

    // Border node ordering (Part 4): the nodes of L_k written as v^k_{b,σ}, ordered by
    // the sequence (b, σ) lexicographically, duplicates dropped.
    let border1 = top1.border_order();
    let border2 = top2.border_order();
    debug_assert_eq!(border1.len(), border2.len());

    Ok(ComponentH {
        mu,
        k,
        r00,
        layers,
        top: [top1, top2],
        border: [border1, border2],
    })
}

/// Add the inter-layer edges between `L_m` (`lower`) and `L_{m+1}` (`upper`) for
/// `2 ≤ m ≤ k−1`, following Part 2 of the construction. When `second_copy` is true
/// (the `L_{k−1}`–`L_{k,2}` connection), the port used at every `L_{k−1}` endpoint is
/// its next free port ("increase the values of port labels used at nodes in L_{k−1} so
/// that they do not conflict"), while the ports at the `L_k` side stay as in the rule.
fn connect_layers(
    b: &mut GraphBuilder,
    mu: usize,
    m: usize,
    lower: &AppendedLayer,
    upper: &AppendedLayer,
    second_copy: bool,
) -> Result<()> {
    let mu32 = mu as u32;
    let lower_port = |b: &GraphBuilder, node: NodeId, standard: u32| -> u32 {
        if second_copy {
            b.next_free_port(node)
        } else {
            standard
        }
    };

    // Roots: r^m_b — r^{m+1}_b with ports μ+1 (at L_m) and μ (at L_{m+1}).
    for side in 0..2u8 {
        let lo = lower.root(side);
        let up = upper.root(side);
        let p = lower_port(b, lo, mu32 + 1);
        b.add_edge(lo, p, up, mu32)?;
    }

    // Non-middle, non-root nodes: v^m_{b,σ} — v^{m+1}_{b,σ} for 1 ≤ |σ| < ⌊m/2⌋, with
    // ports μ+2 (at L_m) and μ+1 (at L_{m+1}).
    for side in 0..2u8 {
        for depth in 1..(m / 2) {
            for sigma in lower.addresses_at_depth(side, depth) {
                let lo = lower.node(side, &sigma).expect("lower node");
                let up = upper.node(side, &sigma).expect("upper node");
                let p = lower_port(b, lo, mu32 + 2);
                b.add_edge(lo, p, up, mu32 + 1)?;
            }
        }
    }

    if m.is_multiple_of(2) {
        // Case 1: m even. Each middle node of L_m (|σ| = m/2) is connected to its two
        // corresponding middle nodes of L_{m+1}: ports 3 and 4 if m = 2, else 4 and 5,
        // at the L_m node; port 2 at both L_{m+1} nodes.
        let (pa, pb) = if m == 2 { (3u32, 4u32) } else { (4, 5) };
        for sigma in lower.addresses_at_depth(0, m / 2) {
            let lo = lower.node(0, &sigma).expect("middle node");
            let up0 = upper.node(0, &sigma).expect("upper middle 0");
            let up1 = upper.node(1, &sigma).expect("upper middle 1");
            let p = lower_port(b, lo, pa);
            b.add_edge(lo, p, up0, 2)?;
            let p = lower_port(b, lo, pb);
            b.add_edge(lo, p, up1, 2)?;
        }
    } else {
        // Case 2: m odd. Each middle node of L_m (|σ| = (m−1)/2, on each side) is
        // connected to its corresponding node of L_{m+1} (ports 3 / μ+1) and to the μ
        // middle nodes of L_{m+1} below it (ports 4+i at the L_m node; port 2 at the
        // target when coming from side 0, port 3 when coming from side 1).
        for side in 0..2u8 {
            for sigma in lower.addresses_at_depth(side, (m - 1) / 2) {
                let lo = lower.node(side, &sigma).expect("odd middle node");
                let up_same = upper.node(side, &sigma).expect("upper same-σ node");
                let p = lower_port(b, lo, 3);
                b.add_edge(lo, p, up_same, mu32 + 1)?;
                for i in 0..mu as u8 {
                    let mut deeper = sigma.clone();
                    deeper.push(i);
                    let target = upper.node(side, &deeper).expect("upper middle");
                    let p = lower_port(b, lo, 4 + u32::from(i));
                    let target_port = if side == 0 { 2 } else { 3 };
                    b.add_edge(lo, p, target, target_port)?;
                }
            }
        }
    }
    Ok(())
}

/// A gadget `Ĥ` appended into a builder.
#[derive(Debug, Clone)]
pub struct Gadget {
    /// The merged centre node `ρ` (degree `4μ`).
    pub rho: NodeId,
    /// The four components in the order L, T, R, B.
    pub components: [ComponentH; 4],
}

impl Gadget {
    /// The component on a given side.
    pub fn component(&self, side: Side) -> &ComponentH {
        &self.components[side.index()]
    }

    /// Border node `w_{q,c}` of the component on `side`.
    pub fn w(&self, side: Side, q: usize, c: u8) -> NodeId {
        self.component(side).w(q, c)
    }
}

/// Append a gadget `Ĥ` (Part 3 of the construction) into the builder.
pub fn append_gadget(b: &mut GraphBuilder, mu: usize, k: usize) -> Result<Gadget> {
    let rho = b.add_node();
    let mut components = Vec::with_capacity(4);
    for side in Side::ALL {
        let offset = (side.index() * mu) as u32;
        components.push(append_component_h(b, mu, k, Some((rho, offset)))?);
    }
    let components: [ComponentH; 4] = components
        .try_into()
        .map_err(|_| GraphError::invalid("internal error: expected four components"))?;
    Ok(Gadget { rho, components })
}

/// Build a standalone component `H` (used by tests and the Figure 5–7 regeneration).
pub fn component_h(mu: usize, k: usize) -> Result<(anet_graph::PortGraph, ComponentH)> {
    let mut b = GraphBuilder::new();
    let h = append_component_h(&mut b, mu, k, None)?;
    Ok((b.build()?, h))
}

/// Build a standalone gadget `Ĥ` (Figure 8).
pub fn gadget(mu: usize, k: usize) -> Result<(anet_graph::PortGraph, Gadget)> {
    let mut b = GraphBuilder::new();
    let g = append_gadget(&mut b, mu, k)?;
    Ok((b.build()?, g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::layer_size;

    #[test]
    fn component_builds_and_has_the_right_size() {
        let (g, h) = component_h(2, 4).unwrap();
        // |H| = Σ_{m=0}^{k−1} |L_m| + 2|L_k| = 1+2+4+6 + 2·10 = 33 for μ=2, k=4.
        let expected: u64 =
            (0..4).map(|m| layer_size(2, m).unwrap()).sum::<u64>() + 2 * layer_size(2, 4).unwrap();
        assert_eq!(g.num_nodes() as u64, expected);
        assert_eq!(expected, 33);
        assert_eq!(h.z(), 10);
        // r00 has degree μ.
        assert_eq!(g.degree(h.r00), 2);
    }

    #[test]
    fn component_parameters_validated() {
        assert!(component_h(1, 4).is_err());
        assert!(component_h(2, 3).is_err());
    }

    #[test]
    fn component_mu3_builds_too() {
        let (g, h) = component_h(3, 4).unwrap();
        let expected: u64 =
            (0..4).map(|m| layer_size(3, m).unwrap()).sum::<u64>() + 2 * layer_size(3, 4).unwrap();
        assert_eq!(g.num_nodes() as u64, expected);
        assert_eq!(h.z(), layer_size(3, 4).unwrap() as usize);
    }

    #[test]
    fn component_k5_and_k6_build() {
        // k = 5 exercises the odd top layer; k = 6 exercises the non-middle non-root
        // inter-layer rule (which needs ⌊m/2⌋ ≥ 2).
        for k in [5usize, 6] {
            let (g, h) = component_h(2, k).unwrap();
            let expected: u64 = (0..k).map(|m| layer_size(2, m).unwrap()).sum::<u64>()
                + 2 * layer_size(2, k).unwrap();
            assert_eq!(g.num_nodes() as u64, expected, "k = {k}");
            assert_eq!(h.z(), layer_size(2, k).unwrap() as usize);
        }
    }

    #[test]
    fn every_border_node_is_at_distance_k_from_r00() {
        // Claim 4 of Lemma 4.3 implies the unique inter-layer path from L_k to L_j has
        // length k − j; in particular every L_k node is at distance exactly k from r00
        // …at most k via the inter-layer edges, and at least k because consecutive
        // layers differ by one.
        let (g, h) = component_h(2, 4).unwrap();
        let dist = g.bfs_distances(h.r00);
        for copy in 1..=2u8 {
            for q in 1..=h.z() {
                let w = h.w(q, copy);
                assert_eq!(dist[w as usize], 4, "w_{q},{copy}");
            }
        }
    }

    #[test]
    fn lemma_4_3_every_node_misses_some_border_pair_at_depth_k_minus_1() {
        let (g, h) = component_h(2, 4).unwrap();
        let k = 4u32;
        for v in g.nodes() {
            let dist = g.bfs_distances(v);
            let exists =
                (1..=h.z()).any(|q| dist[h.w(q, 1) as usize] >= k && dist[h.w(q, 2) as usize] >= k);
            assert!(exists, "node {v} sees all border pairs within k−1");
        }
    }

    #[test]
    fn gadget_rho_has_degree_4mu_and_components_are_disjoint() {
        let (g, gad) = gadget(2, 4).unwrap();
        assert_eq!(g.degree(gad.rho), 8);
        // |Ĥ| = 4(|H| − 1) + 1.
        assert_eq!(g.num_nodes(), 4 * (33 - 1) + 1);
        // The port blocks at ρ lead into the four components in order L, T, R, B.
        for side in Side::ALL {
            let comp = gad.component(side);
            assert_eq!(comp.r00, gad.rho);
            let first_port = (side.index() * 2) as u32;
            let (l1_node, far) = g.neighbor(gad.rho, first_port).unwrap();
            assert_eq!(far, 1); // μ−1 = 1 at the L_1 node
                                // That node belongs to this side's component.
            assert!(comp.layer(1).all.contains(&l1_node));
        }
        // Components other than ρ are pairwise disjoint.
        let mut seen = std::collections::HashSet::new();
        for side in Side::ALL {
            for n in gad.component(side).all_nodes() {
                if n == gad.rho {
                    continue;
                }
                assert!(seen.insert(n), "node {n} shared between components");
            }
        }
    }

    #[test]
    fn rho_views_do_not_reach_the_border_before_depth_k() {
        // Proposition 4.4's engine: B^{k−1}(ρ) contains no L_k node.
        let (g, gad) = gadget(2, 4).unwrap();
        let dist = g.bfs_distances(gad.rho);
        for side in Side::ALL {
            for q in 1..=gad.component(side).z() {
                for copy in 1..=2u8 {
                    assert!(dist[gad.w(side, q, copy) as usize] >= 4);
                }
            }
        }
    }

    #[test]
    fn side_helpers() {
        assert_eq!(Side::Left.index(), 0);
        assert_eq!(Side::Bottom.letter(), "B");
        assert_eq!(Side::ALL.len(), 4);
    }
}
