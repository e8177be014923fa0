//! Run reports: the uniform result types of every backend.
//!
//! The synchronous round loop itself lives in [`crate::backend`].

/// Statistics about a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Number of rounds executed.
    pub rounds: usize,
    /// Total number of messages delivered over the whole run (a message sent on a port
    /// with no neighbour cannot happen: ports always correspond to edges).
    pub messages_delivered: usize,
}

/// Outcome of a run: per-node outputs in node order, plus statistics.
#[derive(Debug, Clone)]
pub struct RunOutcome<O> {
    /// `outputs[v]` is the output of node `v`.
    pub outputs: Vec<O>,
    /// Run statistics.
    pub report: RunReport,
}

#[cfg(test)]
mod tests {
    use crate::backend::Backend;
    use crate::model::NodeAlgorithm;
    use anet_graph::generators;

    /// Flood-max on degrees: every node repeatedly broadcasts the largest degree it has
    /// heard of. (Degrees are the only initial asymmetry available to anonymous nodes.)
    #[derive(Clone)]
    struct MaxDegreeFlood {
        best: usize,
    }

    impl NodeAlgorithm for MaxDegreeFlood {
        type Message = usize;
        type Output = usize;

        fn send_into(&mut self, _round: usize, outbox: &mut [Option<usize>]) {
            outbox.fill(Some(self.best));
        }

        fn receive(&mut self, _round: usize, inbox: &mut [Option<usize>]) {
            for m in inbox.iter_mut().filter_map(Option::take) {
                self.best = self.best.max(m);
            }
        }

        fn output(&self) -> usize {
            self.best
        }
    }

    fn flood_factory(degree: usize) -> MaxDegreeFlood {
        MaxDegreeFlood { best: degree }
    }

    #[test]
    fn flooding_converges_after_diameter_rounds() {
        let g = generators::star(4).unwrap();
        let out = Backend::Sequential.run(&g, &flood_factory, 2);
        assert!(out.outputs.iter().all(|&b| b == 4));

        // A "broom": a path 0-1-2-3-4 with two extra leaves on node 0, so node 0 has
        // degree 3 and node 4 only learns that after 4 rounds.
        let mut b = anet_graph::GraphBuilder::with_nodes(7);
        for i in 0..4u32 {
            let pu = if i == 0 { 0 } else { 1 };
            b.add_edge(i, pu, i + 1, 0).unwrap();
        }
        b.add_edge(0, 1, 5, 0).unwrap();
        b.add_edge(0, 2, 6, 0).unwrap();
        let broom = b.build().unwrap();
        let out_short = Backend::Sequential.run(&broom, &flood_factory, 1);
        assert!(out_short.outputs.iter().any(|&b| b != 3));
        let out_full = Backend::Sequential.run(&broom, &flood_factory, broom.diameter() as usize);
        assert!(out_full.outputs.iter().all(|&b| b == 3));
    }

    #[test]
    fn message_accounting_counts_deliveries() {
        // The routing phase is shared by every backend, so the accounting must be
        // byte-identical across them: 5 nodes × 2 ports × 3 rounds deliveries.
        let g = generators::symmetric_ring(5).unwrap();
        for backend in Backend::smoke_set() {
            let out = backend.run(&g, &flood_factory, 3);
            assert_eq!(out.report.messages_delivered, 30, "{backend}");
            assert_eq!(out.report.rounds, 3, "{backend}");
        }
    }

    #[test]
    fn zero_rounds_returns_initial_outputs() {
        let g = generators::star(3).unwrap();
        let out = Backend::Sequential.run(&g, &flood_factory, 0);
        assert_eq!(out.outputs, vec![3, 1, 1, 1]);
        assert_eq!(out.report.messages_delivered, 0);
    }

    #[test]
    fn parallel_run_matches_sequential() {
        // Engine-equivalence: every backend must produce identical outputs *and*
        // identical reports for the same algorithm on the same graph.
        let g = generators::random_connected(60, 5, 30, 123).unwrap();
        let rounds = 4;
        let seq = Backend::Sequential.run(&g, &flood_factory, rounds);
        for backend in Backend::smoke_set() {
            let out = backend.run(&g, &flood_factory, rounds);
            assert_eq!(out.outputs, seq.outputs, "{backend}");
            assert_eq!(out.report, seq.report, "{backend}");
        }
    }

    /// An algorithm that echoes what it receives, used to check that port routing is
    /// faithful (the message sent through port p of v arrives at the far end's port q).
    struct PortEcho {
        /// `(round, port, payload)` triples received.
        log: Vec<(usize, usize, (u32, u32))>,
        node_tag: u32,
    }

    impl NodeAlgorithm for PortEcho {
        type Message = (u32, u32); // (sender tag, sender port)
        type Output = Vec<(usize, usize, (u32, u32))>;

        fn send_into(&mut self, _round: usize, outbox: &mut [Option<(u32, u32)>]) {
            for (p, slot) in outbox.iter_mut().enumerate() {
                *slot = Some((self.node_tag, p as u32));
            }
        }

        fn receive(&mut self, round: usize, inbox: &mut [Option<(u32, u32)>]) {
            for (p, m) in inbox.iter_mut().enumerate() {
                if let Some(m) = m.take() {
                    self.log.push((round, p, m));
                }
            }
        }

        fn output(&self) -> Vec<(usize, usize, (u32, u32))> {
            self.log.clone()
        }
    }

    #[test]
    fn routing_respects_port_numbers() {
        // NOTE: the node_tag here is test instrumentation (the factory closure uses a
        // counter), not information available to a real anonymous algorithm.
        use std::sync::atomic::{AtomicU32, Ordering};
        let g = generators::paper_three_node_line();
        let counter = AtomicU32::new(0);
        let factory = |_degree: usize| PortEcho {
            log: Vec::new(),
            node_tag: counter.fetch_add(1, Ordering::SeqCst),
        };
        let out = Backend::Sequential.run(&g, &factory, 1);
        // Node 1 (the centre, tag 1) must receive on port 0 the message node 0 sent on
        // its port 0, and on port 1 the message node 2 sent on its port 0.
        let centre_log = &out.outputs[1];
        assert!(centre_log.contains(&(1, 0, (0, 0))));
        assert!(centre_log.contains(&(1, 1, (2, 0))));
        // Node 0 receives on its port 0 the message node 1 sent on its port 0.
        assert!(out.outputs[0].contains(&(1, 0, (1, 0))));
        // Node 2 receives on its port 0 the message node 1 sent on its port 1.
        assert!(out.outputs[2].contains(&(1, 0, (1, 1))));
    }
}
