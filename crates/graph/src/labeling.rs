//! Role labels for nodes of otherwise-anonymous graphs.
//!
//! The constructions of the paper are described in terms of named nodes
//! (`r_{j,b}`, `c_m`, `ρ_i`, `w_{q,1}` …). Nodes of the network itself remain
//! anonymous: a [`Labeling`] is *metadata* available to tests, oracles (which see the
//! whole graph anyway) and figure exporters, never to distributed algorithms.

use crate::error::GraphError;
use crate::graph::{NodeId, PortGraph};
use crate::Result;
use std::collections::BTreeMap;

/// A bidirectional mapping between node ids and unique role names, plus non-unique
/// group tags ("cycle node", "border node", …).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Labeling {
    name_to_node: BTreeMap<String, NodeId>,
    node_to_name: BTreeMap<NodeId, String>,
    groups: BTreeMap<String, Vec<NodeId>>,
}

impl Labeling {
    /// Empty labeling.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a unique role name to a node. Fails if the name is already used.
    /// A node may carry several names (aliases); lookups by node return the first
    /// name attached.
    pub fn name(&mut self, node: NodeId, name: impl Into<String>) -> Result<()> {
        let name = name.into();
        if self.name_to_node.contains_key(&name) {
            return Err(GraphError::DuplicateLabel { label: name });
        }
        self.name_to_node.insert(name.clone(), node);
        self.node_to_name.entry(node).or_insert(name);
        Ok(())
    }

    /// Node carrying the given unique name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.name_to_node.get(name).copied()
    }

    /// Node carrying the given unique name, panicking with a useful message otherwise.
    /// Constructions use this internally for names they themselves created.
    pub fn expect_node(&self, name: &str) -> NodeId {
        self.node(name)
            .unwrap_or_else(|| panic!("labeling has no node named {name:?}"))
    }

    /// First name of a node, if any.
    pub fn name_of(&self, node: NodeId) -> Option<&str> {
        self.node_to_name.get(&node).map(String::as_str)
    }

    /// Add a node to a (non-unique) group tag.
    pub fn tag(&mut self, node: NodeId, group: impl Into<String>) {
        self.groups.entry(group.into()).or_default().push(node);
    }

    /// All nodes in a group, in insertion order. Empty if the group does not exist.
    pub fn group(&self, group: &str) -> &[NodeId] {
        self.groups.get(group).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All `(name, node)` pairs in name order.
    pub fn names(&self) -> impl Iterator<Item = (&str, NodeId)> {
        self.name_to_node.iter().map(|(s, &v)| (s.as_str(), v))
    }

    /// Shift every node id by `offset`. Used when a labelled subgraph is appended into
    /// a larger construction.
    pub fn shifted(&self, offset: NodeId) -> Labeling {
        Labeling {
            name_to_node: self
                .name_to_node
                .iter()
                .map(|(k, &v)| (k.clone(), v + offset))
                .collect(),
            node_to_name: self
                .node_to_name
                .iter()
                .map(|(&k, v)| (k + offset, v.clone()))
                .collect(),
            groups: self
                .groups
                .iter()
                .map(|(k, vs)| (k.clone(), vs.iter().map(|&v| v + offset).collect()))
                .collect(),
        }
    }
}

/// A [`PortGraph`] together with the role labels of its nodes. This is what every
/// construction in `anet-constructions` returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledGraph {
    /// The anonymous network itself.
    pub graph: PortGraph,
    /// Role metadata (oracle/test-side only).
    pub labels: Labeling,
}

impl LabeledGraph {
    /// Bundle a graph with its labels.
    pub fn new(graph: PortGraph, labels: Labeling) -> Self {
        LabeledGraph { graph, labels }
    }

    /// Shortcut: node carrying a unique role name (panics if missing).
    pub fn node(&self, name: &str) -> NodeId {
        self.labels.expect_node(name)
    }

    /// Shortcut: members of a group.
    pub fn group(&self, group: &str) -> &[NodeId] {
        self.labels.group(group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn tiny() -> PortGraph {
        let mut b = GraphBuilder::with_nodes(2);
        b.add_edge(0, 0, 1, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn unique_names_round_trip() {
        let mut l = Labeling::new();
        l.name(0, "root").unwrap();
        l.name(1, "leaf").unwrap();
        assert_eq!(l.node("root"), Some(0));
        assert_eq!(l.node("leaf"), Some(1));
        assert_eq!(l.name_of(0), Some("root"));
        assert_eq!(l.node("nope"), None);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut l = Labeling::new();
        l.name(0, "x").unwrap();
        assert!(matches!(
            l.name(1, "x").unwrap_err(),
            GraphError::DuplicateLabel { .. }
        ));
    }

    #[test]
    fn aliases_allowed_on_same_node() {
        let mut l = Labeling::new();
        l.name(0, "r_1,1").unwrap();
        l.name(0, "first-root").unwrap();
        assert_eq!(l.node("r_1,1"), Some(0));
        assert_eq!(l.node("first-root"), Some(0));
        // name_of returns the first attached name.
        assert_eq!(l.name_of(0), Some("r_1,1"));
    }

    #[test]
    fn groups_accumulate() {
        let mut l = Labeling::new();
        l.tag(0, "cycle");
        l.tag(1, "cycle");
        l.tag(1, "root");
        assert_eq!(l.group("cycle"), &[0, 1]);
        assert_eq!(l.group("root"), &[1]);
        assert_eq!(l.group("missing"), &[] as &[NodeId]);
    }

    #[test]
    fn shifted_moves_all_ids() {
        let mut l = Labeling::new();
        l.name(0, "a").unwrap();
        l.tag(1, "g");
        let s = l.shifted(10);
        assert_eq!(s.node("a"), Some(10));
        assert_eq!(s.group("g"), &[11]);
        assert_eq!(s.name_of(10), Some("a"));
    }

    #[test]
    fn labeled_graph_accessors() {
        let mut l = Labeling::new();
        l.name(0, "left").unwrap();
        l.tag(1, "ends");
        let lg = LabeledGraph::new(tiny(), l);
        assert_eq!(lg.node("left"), 0);
        assert_eq!(lg.group("ends"), &[1]);
        assert_eq!(lg.graph.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "no node named")]
    fn expect_node_panics_on_missing() {
        let l = Labeling::new();
        l.expect_node("ghost");
    }
}
