//! Graphviz (DOT) export.
//!
//! Used by the `exp_figures` experiment binary to regenerate the paper's figures: each
//! figure of the paper is a drawing of a construction, and the DOT output contains the
//! same information (nodes, edges and both port labels per edge, plus role names).

use crate::graph::PortGraph;
use crate::labeling::Labeling;
use std::fmt::Write as _;

/// Options controlling DOT output.
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Graph name in the DOT header.
    pub name: String,
    /// Show role names (from a [`Labeling`]) as node labels when available.
    pub show_role_names: bool,
    /// Show the two port numbers of every edge as head/tail labels.
    pub show_ports: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            name: "G".to_string(),
            show_role_names: true,
            show_ports: true,
        }
    }
}

/// Render a graph (optionally with role labels) to DOT format.
pub fn to_dot(g: &PortGraph, labels: Option<&Labeling>, opts: &DotOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph {} {{", sanitize(&opts.name));
    let _ = writeln!(out, "  node [shape=circle, fontsize=10];");
    for v in g.nodes() {
        let role = labels.and_then(|l| {
            if opts.show_role_names {
                l.name_of(v)
            } else {
                None
            }
        });
        match role {
            Some(name) => {
                let _ = writeln!(out, "  n{v} [label=\"{}\"];", escape(name));
            }
            None => {
                let _ = writeln!(out, "  n{v} [label=\"\"];");
            }
        }
    }
    for e in g.edges() {
        if opts.show_ports {
            let _ = writeln!(
                out,
                "  n{} -- n{} [taillabel=\"{}\", headlabel=\"{}\", fontsize=8];",
                e.u, e.v, e.port_u, e.port_v
            );
        } else {
            let _ = writeln!(out, "  n{} -- n{};", e.u, e.v);
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "G".to_string()
    } else {
        cleaned
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::labeling::Labeling;

    #[test]
    fn dot_contains_all_edges_and_ports() {
        let g = generators::paper_three_node_line();
        let dot = to_dot(&g, None, &DotOptions::default());
        assert!(dot.starts_with("graph G {"));
        assert!(dot.trim_end().ends_with('}'));
        // Two edges, each rendered once.
        assert_eq!(dot.matches(" -- ").count(), 2);
        // Port labels of the paper's line: 0,0 and 1,0.
        assert!(dot.contains("taillabel=\"0\", headlabel=\"0\""));
        assert!(dot.contains("taillabel=\"1\", headlabel=\"0\""));
    }

    #[test]
    fn role_names_appear_when_requested() {
        let g = generators::paper_three_node_line();
        let mut l = Labeling::new();
        l.name(1, "centre").unwrap();
        let dot = to_dot(&g, Some(&l), &DotOptions::default());
        assert!(dot.contains("label=\"centre\""));

        let dot_no_roles = to_dot(
            &g,
            Some(&l),
            &DotOptions {
                show_role_names: false,
                ..DotOptions::default()
            },
        );
        assert!(!dot_no_roles.contains("centre"));
    }

    #[test]
    fn ports_can_be_hidden() {
        let g = generators::paper_three_node_line();
        let dot = to_dot(
            &g,
            None,
            &DotOptions {
                show_ports: false,
                ..DotOptions::default()
            },
        );
        assert!(!dot.contains("taillabel"));
    }

    #[test]
    fn graph_name_is_sanitized_and_labels_escaped() {
        let g = generators::paper_three_node_line();
        let dot = to_dot(
            &g,
            None,
            &DotOptions {
                name: "G_{4,1} (i=3)".to_string(),
                ..DotOptions::default()
            },
        );
        assert!(dot.starts_with("graph G__4_1___i_3_ {"));

        let mut l = Labeling::new();
        l.name(0, "say \"hi\"").unwrap();
        let dot = to_dot(&g, Some(&l), &DotOptions::default());
        assert!(dot.contains("say \\\"hi\\\""));
    }
}
