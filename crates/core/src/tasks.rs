//! The four election tasks, their outputs, verifiers and weakenings.
//!
//! * `S` (*Selection*): one node outputs `leader`, all others output `non-leader`.
//! * `PE` (*Port Election*): non-leaders output the first port of a simple path from
//!   themselves to the leader.
//! * `PPE` (*Port Path Election*): non-leaders output the sequence of outgoing ports
//!   `(p_1, …, p_ℓ)` of a simple path from themselves to the leader.
//! * `CPPE` (*Complete Port Path Election*): non-leaders output the full sequence
//!   `(p_1, q_1, …, p_ℓ, q_ℓ)` of both port numbers of every edge of such a path.
//!
//! Fact 1.1 (the election-index hierarchy) rests on the observation that a solution to
//! a stronger task can be transformed *locally and without communication* into a
//! solution of any weaker one; [`NodeOutput::weaken`] implements those transformations.

use anet_graph::{NodeId, Port, PortGraph};
use anet_views::paths;

/// The four shades of leader election, in increasing order of strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Task {
    /// `S` — Selection.
    Selection,
    /// `PE` — Port Election.
    PortElection,
    /// `PPE` — Port Path Election.
    PortPathElection,
    /// `CPPE` — Complete Port Path Election.
    CompletePortPathElection,
}

impl Task {
    /// All four tasks, weakest first.
    pub const ALL: [Task; 4] = [
        Task::Selection,
        Task::PortElection,
        Task::PortPathElection,
        Task::CompletePortPathElection,
    ];

    /// The paper's abbreviation (`S`, `PE`, `PPE`, `CPPE`).
    pub fn abbreviation(self) -> &'static str {
        match self {
            Task::Selection => "S",
            Task::PortElection => "PE",
            Task::PortPathElection => "PPE",
            Task::CompletePortPathElection => "CPPE",
        }
    }

    /// The next weaker task, if any.
    pub fn weaker(self) -> Option<Task> {
        match self {
            Task::Selection => None,
            Task::PortElection => Some(Task::Selection),
            Task::PortPathElection => Some(Task::PortElection),
            Task::CompletePortPathElection => Some(Task::PortPathElection),
        }
    }
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.abbreviation())
    }
}

/// The output of a single node for one of the four tasks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeOutput {
    /// The node declares itself the leader (any task).
    Leader,
    /// `S`: the node is not the leader.
    NonLeader,
    /// `PE`: the first port of a simple path to the leader.
    FirstPort(Port),
    /// `PPE`: the outgoing ports of a simple path to the leader.
    PortPath(Vec<Port>),
    /// `CPPE`: the (outgoing, incoming) port pairs of a simple path to the leader.
    FullPath(Vec<(Port, Port)>),
}

impl NodeOutput {
    /// Which task this output shape belongs to (Leader belongs to all of them).
    pub fn task(&self) -> Option<Task> {
        match self {
            NodeOutput::Leader => None,
            NodeOutput::NonLeader => Some(Task::Selection),
            NodeOutput::FirstPort(_) => Some(Task::PortElection),
            NodeOutput::PortPath(_) => Some(Task::PortPathElection),
            NodeOutput::FullPath(_) => Some(Task::CompletePortPathElection),
        }
    }

    /// The Fact 1.1 weakening: convert an output for a stronger task into an output for
    /// `target`. Returns `None` when the conversion is not defined (e.g. weakening a
    /// Selection output into a Port Election output).
    pub fn weaken(&self, target: Task) -> Option<NodeOutput> {
        if let NodeOutput::Leader = self {
            return Some(NodeOutput::Leader);
        }
        match (self, target) {
            // Anything weakens to Selection.
            (_, Task::Selection) => Some(NodeOutput::NonLeader),
            // CPPE → PPE: drop the incoming ports.
            (NodeOutput::FullPath(pairs), Task::PortPathElection) => Some(NodeOutput::PortPath(
                pairs.iter().map(|&(p, _)| p).collect(),
            )),
            // CPPE → PE and PPE → PE: keep the first outgoing port.
            (NodeOutput::FullPath(pairs), Task::PortElection) => {
                pairs.first().map(|&(p, _)| NodeOutput::FirstPort(p))
            }
            (NodeOutput::PortPath(ports), Task::PortElection) => {
                ports.first().map(|&p| NodeOutput::FirstPort(p))
            }
            // CPPE → CPPE, PPE → PPE, PE → PE.
            (out, t) if out.task() == Some(t) => Some(out.clone()),
            _ => None,
        }
    }
}

/// Why an output assignment fails to solve a task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The number of outputs does not match the number of nodes.
    WrongLength {
        /// Outputs provided.
        got: usize,
        /// Nodes in the graph.
        expected: usize,
    },
    /// No node output `Leader`.
    NoLeader,
    /// More than one node output `Leader`.
    MultipleLeaders {
        /// The offending nodes.
        leaders: Vec<NodeId>,
    },
    /// A node produced an output of the wrong shape for the task.
    WrongShape {
        /// The node.
        node: NodeId,
    },
    /// A non-leader output fails the task's path condition.
    InvalidPath {
        /// The node whose output is invalid.
        node: NodeId,
    },
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::WrongLength { got, expected } => {
                write!(f, "{got} outputs for {expected} nodes")
            }
            TaskError::NoLeader => write!(f, "no node elected itself leader"),
            TaskError::MultipleLeaders { leaders } => {
                write!(f, "multiple leaders: {leaders:?}")
            }
            TaskError::WrongShape { node } => {
                write!(f, "node {node} produced an output of the wrong shape")
            }
            TaskError::InvalidPath { node } => {
                write!(f, "node {node}'s output is not a valid path to the leader")
            }
        }
    }
}

impl std::error::Error for TaskError {}

/// A verified election outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectionOutcome {
    /// The elected leader.
    pub leader: NodeId,
}

/// Verify that `outputs` (indexed by node) solve `task` on `graph`.
///
/// Cost per shade: `S` is `O(n)`; `PE` is `O(n + m)`, one [`paths::PeValidity`]
/// table for the leader and an `O(1)` lookup per node; `PPE` and `CPPE` walk and
/// sort each node's path, `O(L log L)` for a path of `L` ports, so `O(n · D log D)`
/// when every output is at most `D` long.
pub fn verify(
    task: Task,
    graph: &PortGraph,
    outputs: &[NodeOutput],
) -> Result<ElectionOutcome, TaskError> {
    if outputs.len() != graph.num_nodes() {
        return Err(TaskError::WrongLength {
            got: outputs.len(),
            expected: graph.num_nodes(),
        });
    }
    let leaders: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| outputs[v as usize] == NodeOutput::Leader)
        .collect();
    let leader = match leaders.as_slice() {
        [] => return Err(TaskError::NoLeader),
        [single] => *single,
        _ => return Err(TaskError::MultipleLeaders { leaders }),
    };

    let pe_valid = (task == Task::PortElection).then(|| paths::PeValidity::new(graph, leader));
    for v in graph.nodes() {
        if v == leader {
            continue;
        }
        let out = &outputs[v as usize];
        let ok = match (task, out) {
            (Task::Selection, NodeOutput::NonLeader) => true,
            (Task::PortElection, NodeOutput::FirstPort(p)) => {
                pe_valid.as_ref().is_some_and(|t| t.is_valid(v, *p))
            }
            (Task::PortPathElection, NodeOutput::PortPath(ports)) => {
                paths::ppe_sequence_is_valid(graph, v, ports, leader)
            }
            (Task::CompletePortPathElection, NodeOutput::FullPath(pairs)) => {
                paths::cppe_sequence_is_valid(graph, v, pairs, leader)
            }
            _ => return Err(TaskError::WrongShape { node: v }),
        };
        if !ok {
            return Err(TaskError::InvalidPath { node: v });
        }
    }
    Ok(ElectionOutcome { leader })
}

/// Weaken a full output assignment from a stronger task to `target` (Fact 1.1) —
/// returns `None` if any single output cannot be weakened.
pub fn weaken_outputs(outputs: &[NodeOutput], target: Task) -> Option<Vec<NodeOutput>> {
    outputs.iter().map(|o| o.weaken(target)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;

    fn line_outputs_cppe() -> (PortGraph, Vec<NodeOutput>) {
        // Leader = centre of the 3-node line.
        let g = generators::paper_three_node_line();
        let outs = vec![
            NodeOutput::FullPath(vec![(0, 0)]),
            NodeOutput::Leader,
            NodeOutput::FullPath(vec![(0, 1)]),
        ];
        (g, outs)
    }

    #[test]
    fn task_metadata() {
        assert_eq!(Task::Selection.abbreviation(), "S");
        assert_eq!(Task::CompletePortPathElection.to_string(), "CPPE");
        assert_eq!(Task::PortElection.weaker(), Some(Task::Selection));
        assert_eq!(Task::Selection.weaker(), None);
        assert_eq!(Task::ALL.len(), 4);
    }

    #[test]
    fn verify_selection() {
        let g = generators::paper_three_node_line();
        let good = vec![
            NodeOutput::NonLeader,
            NodeOutput::Leader,
            NodeOutput::NonLeader,
        ];
        assert_eq!(verify(Task::Selection, &g, &good).unwrap().leader, 1);

        let none = vec![NodeOutput::NonLeader; 3];
        assert_eq!(verify(Task::Selection, &g, &none), Err(TaskError::NoLeader));

        let two = vec![
            NodeOutput::Leader,
            NodeOutput::Leader,
            NodeOutput::NonLeader,
        ];
        assert!(matches!(
            verify(Task::Selection, &g, &two),
            Err(TaskError::MultipleLeaders { .. })
        ));

        let short = vec![NodeOutput::Leader];
        assert!(matches!(
            verify(Task::Selection, &g, &short),
            Err(TaskError::WrongLength { .. })
        ));
    }

    #[test]
    fn verify_port_election() {
        let g = generators::paper_three_node_line();
        let good = vec![
            NodeOutput::FirstPort(0),
            NodeOutput::Leader,
            NodeOutput::FirstPort(0),
        ];
        assert!(verify(Task::PortElection, &g, &good).is_ok());

        // Node 0 pointing at a nonexistent port is invalid.
        let bad = vec![
            NodeOutput::FirstPort(1),
            NodeOutput::Leader,
            NodeOutput::FirstPort(0),
        ];
        assert_eq!(
            verify(Task::PortElection, &g, &bad),
            Err(TaskError::InvalidPath { node: 0 })
        );

        // A dead end at the cut vertex: with node 2 leading, node 1's port 0
        // reaches node 0, from which the leader is reachable only through node 1.
        let dead_end = vec![
            NodeOutput::FirstPort(0),
            NodeOutput::FirstPort(0),
            NodeOutput::Leader,
        ];
        assert_eq!(
            verify(Task::PortElection, &g, &dead_end),
            Err(TaskError::InvalidPath { node: 1 })
        );

        // A port far past the degree is invalid, not a panic.
        let huge = vec![
            NodeOutput::FirstPort(u32::MAX),
            NodeOutput::Leader,
            NodeOutput::FirstPort(0),
        ];
        assert_eq!(
            verify(Task::PortElection, &g, &huge),
            Err(TaskError::InvalidPath { node: 0 })
        );

        // Selection-shaped output is the wrong shape for PE.
        let wrong = vec![
            NodeOutput::NonLeader,
            NodeOutput::Leader,
            NodeOutput::FirstPort(0),
        ];
        assert_eq!(
            verify(Task::PortElection, &g, &wrong),
            Err(TaskError::WrongShape { node: 0 })
        );
    }

    #[test]
    fn verify_ppe_and_cppe() {
        let (g, cppe) = line_outputs_cppe();
        assert_eq!(
            verify(Task::CompletePortPathElection, &g, &cppe)
                .unwrap()
                .leader,
            1
        );
        // Wrong incoming port at node 2.
        let bad = vec![
            NodeOutput::FullPath(vec![(0, 0)]),
            NodeOutput::Leader,
            NodeOutput::FullPath(vec![(0, 0)]),
        ];
        assert_eq!(
            verify(Task::CompletePortPathElection, &g, &bad),
            Err(TaskError::InvalidPath { node: 2 })
        );

        let ppe = vec![
            NodeOutput::PortPath(vec![0]),
            NodeOutput::Leader,
            NodeOutput::PortPath(vec![0]),
        ];
        assert!(verify(Task::PortPathElection, &g, &ppe).is_ok());
    }

    #[test]
    fn weakening_implements_fact_1_1() {
        let (g, cppe) = line_outputs_cppe();
        // CPPE → PPE → PE → S, each verified on the same graph.
        let ppe = weaken_outputs(&cppe, Task::PortPathElection).unwrap();
        assert!(verify(Task::PortPathElection, &g, &ppe).is_ok());
        let pe = weaken_outputs(&cppe, Task::PortElection).unwrap();
        assert!(verify(Task::PortElection, &g, &pe).is_ok());
        let s = weaken_outputs(&cppe, Task::Selection).unwrap();
        assert!(verify(Task::Selection, &g, &s).is_ok());
        // A PPE output weakens to PE and S but not to CPPE.
        let ppe_out = NodeOutput::PortPath(vec![0, 1]);
        assert_eq!(
            ppe_out.weaken(Task::PortElection),
            Some(NodeOutput::FirstPort(0))
        );
        assert_eq!(ppe_out.weaken(Task::CompletePortPathElection), None);
        // NonLeader cannot be strengthened.
        assert_eq!(NodeOutput::NonLeader.weaken(Task::PortElection), None);
        // Leader stays Leader under every weakening.
        assert_eq!(
            NodeOutput::Leader.weaken(Task::Selection),
            Some(NodeOutput::Leader)
        );
    }

    #[test]
    fn output_task_shapes() {
        assert_eq!(NodeOutput::Leader.task(), None);
        assert_eq!(NodeOutput::NonLeader.task(), Some(Task::Selection));
        assert_eq!(
            NodeOutput::FullPath(vec![]).task(),
            Some(Task::CompletePortPathElection)
        );
    }
}
