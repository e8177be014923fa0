//! The Complete Port Path Election algorithm of Lemma 4.8.
//!
//! On every member `J_Y` of `J_{μ,k}`, CPPE is solvable in `k` rounds when every node
//! knows a map of the graph. The elected leader is `ρ_0`, the centre of gadget `Ĥ_0`.
//! After `k` rounds a node can see the whole `k`-th layer of the component it lives in
//! and therefore decode the gadget index `x` encoded there (Part 4 of the
//! construction); knowing the map it then outputs the full port sequence of a simple
//! path to `ρ_0`: first a path to `ρ_x` (spliced onto the pre-computed inter-centre
//! path `P_x` at their first common node, so the concatenation stays simple), then the
//! pre-computed paths `P_x, P_{x−1}, …, P_1` down to `ρ_0`.
//!
//! The implementation evaluates the paper's case analysis on the map (the
//! construction handles from [`anet_constructions::j_class::JMember`] play the role of
//! the map every node is given). The output is a function of the map and `B^k(v)`,
//! so it is evaluated once per refinement class at depth `k` and the class table is
//! run through the full-information simulator, as the Lemma 3.9 solver's is.
//! Correctness of the produced outputs is established by the CPPE verifier in
//! `tasks`, and time-optimality (`ψ_CPPE = k`, Lemma 4.9) by the structural results
//! verified in `anet-constructions` (no node has a unique view at depth `k−1`).

use crate::engine::{RunContext, SolverRun};
use crate::map_algorithms::run_rule_by_class;
use crate::tasks::NodeOutput;
use anet_constructions::component::Side;
use anet_constructions::j_class::JMember;
use anet_graph::{GraphError, NodeId, Port, Result};
use anet_views::Refinement;
use std::collections::HashMap;

/// Solve CPPE on a member of `J_{μ,k}` in `k = member`'s class parameter rounds,
/// given the map; the leader is `ρ_0`. The rule is read off the map once per
/// refinement class at depth `k`, and the `k` view-collection rounds run under
/// `ctx` (backend, trace sink, wire codec) like every other solver's, each node
/// outputting its view's class entry. Lemma 4.8 splices pre-computed paths from the
/// map, so the run reports no advice and no search.
pub fn solve_cppe_on_j(member: &JMember, k: usize, ctx: &RunContext<'_>) -> Result<SolverRun> {
    let graph = &member.labeled.graph;
    let count = member.num_gadgets();
    if count < 2 {
        return Err(GraphError::invalid("the chain has fewer than 2 gadgets"));
    }

    // Map every node to its gadget index (ρ nodes map to their own gadget).
    let mut gadget_of: Vec<usize> = vec![usize::MAX; graph.num_nodes()];
    for (i, gadget) in member.gadgets.iter().enumerate() {
        gadget_of[gadget.rho as usize] = i;
        for side in Side::ALL {
            for n in gadget.component(side).all_nodes() {
                gadget_of[n as usize] = i;
            }
        }
    }
    if gadget_of.contains(&usize::MAX) {
        return Err(GraphError::invalid("some node belongs to no gadget"));
    }

    // Pre-compute the inter-centre paths P_i : ρ_i → ρ_{i−1} (node sequences) and their
    // full port encodings σ_i.
    let mut paths: Vec<Vec<NodeId>> = Vec::with_capacity(count);
    let mut sigmas: Vec<Vec<(Port, Port)>> = Vec::with_capacity(count);
    paths.push(Vec::new()); // unused slot for i = 0
    sigmas.push(Vec::new());
    for i in 1..count {
        let p = graph.shortest_path(member.rho(i), member.rho(i - 1));
        sigmas.push(graph.full_ports_of_path(&p));
        paths.push(p);
    }
    // Suffix concatenations σ_x · σ_{x−1} · … · σ_1.
    let mut suffix: Vec<Vec<(Port, Port)>> = vec![Vec::new(); count];
    for x in 1..count {
        let mut s = sigmas[x].clone();
        s.extend_from_slice(&suffix[x - 1]);
        suffix[x] = s;
    }

    // Per-gadget membership sets of P_x, for the splicing step.
    let mut on_path: Vec<HashMap<NodeId, usize>> = vec![HashMap::new(); count];
    for x in 1..count {
        for (idx, &n) in paths[x].iter().enumerate() {
            on_path[x].insert(n, idx);
        }
    }

    // The output of one node, which is the output of its whole class at depth `k`.
    let output_of = |v: NodeId| -> Result<NodeOutput> {
        let x = gadget_of[v as usize];
        if v == member.rho(0) {
            return Ok(NodeOutput::Leader);
        }
        if v == member.rho(x) {
            return Ok(NodeOutput::FullPath(suffix[x].clone()));
        }
        // Path Q_x from v to ρ_x, restricted to gadget x (a shortest path never needs
        // to leave the gadget, and restricting keeps the final concatenation simple).
        let in_gadget = |n: NodeId| gadget_of[n as usize] == x;
        let q = graph
            .bfs_path(v, usize::MAX, in_gadget, |n| n == member.rho(x))
            .ok_or_else(|| GraphError::invalid("node cannot reach its gadget centre"))?;
        if x == 0 {
            return Ok(NodeOutput::FullPath(graph.full_ports_of_path(&q)));
        }
        // Splice onto P_x at the first common node u.
        let (cut, path_idx) = q
            .iter()
            .enumerate()
            .find_map(|(qi, n)| on_path[x].get(n).map(|&pi| (qi, pi)))
            .unwrap_or((q.len() - 1, 0));
        let s_x = graph.full_ports_of_path(&q[..=cut]);
        let t_x = graph.full_ports_of_path(&paths[x][path_idx..]);
        let mut full = s_x;
        full.extend(t_x);
        full.extend_from_slice(&suffix[x - 1]);
        Ok(NodeOutput::FullPath(full))
    };
    let refinement = Refinement::compute(graph, Some(k));
    run_rule_by_class(graph, &refinement, k, output_of, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{verify, weaken_outputs, Task};
    use anet_constructions::JClass;

    #[test]
    fn solves_cppe_on_a_capped_chain() {
        let class = JClass::new(2, 4).unwrap();
        let member = class.template(Some(5)).unwrap();
        let run = solve_cppe_on_j(&member, class.k, &RunContext::default()).unwrap();
        assert_eq!(run.rounds, class.k);
        let outcome = verify(
            Task::CompletePortPathElection,
            &member.labeled.graph,
            &run.outputs,
        )
        .unwrap();
        assert_eq!(outcome.leader, member.rho(0));
    }

    #[test]
    fn cppe_solution_weakens_to_all_weaker_tasks_fact_1_1() {
        let class = JClass::new(2, 4).unwrap();
        let member = class.template(Some(3)).unwrap();
        let g = &member.labeled.graph;
        let run = solve_cppe_on_j(&member, class.k, &RunContext::default()).unwrap();
        for task in [Task::PortPathElection, Task::PortElection, Task::Selection] {
            let weak = weaken_outputs(&run.outputs, task).unwrap();
            verify(task, g, &weak).unwrap_or_else(|e| panic!("{task}: {e}"));
        }
    }

    #[test]
    fn outputs_of_rho_nodes_follow_the_centre_chain() {
        let class = JClass::new(2, 4).unwrap();
        let member = class.template(Some(4)).unwrap();
        let g = &member.labeled.graph;
        let run = solve_cppe_on_j(&member, class.k, &RunContext::default()).unwrap();
        // ρ_3's output path must pass through ρ_2 and ρ_1 before reaching ρ_0.
        if let NodeOutput::FullPath(pairs) = &run.outputs[member.rho(3) as usize] {
            let nodes = g.follow_full_ports(member.rho(3), pairs).unwrap();
            for i in (0..3).rev() {
                assert!(nodes.contains(&member.rho(i)), "missing rho{i}");
            }
            assert_eq!(*nodes.last().unwrap(), member.rho(0));
        } else {
            panic!("rho3 must output a full path");
        }
    }

    #[test]
    fn rejects_degenerate_chains() {
        let class = JClass::new(2, 4).unwrap();
        assert!(class.template(Some(1)).is_err());
    }
}
