//! Traits implemented by distributed algorithms running in the LOCAL model.

/// A per-node deterministic algorithm.
///
/// A node instance is created by an [`AlgorithmFactory`] knowing only the node's degree
/// (and whatever global information — e.g. oracle advice or a map of the graph — the
/// factory itself was constructed with, which models information given identically to
/// every node). In each round the engine calls [`NodeAlgorithm::send_into`], routes the
/// messages along the edges, and then calls [`NodeAlgorithm::receive`] with the
/// messages that arrived, indexed by the *local* port they arrived on. After the
/// allotted number of rounds, [`NodeAlgorithm::output`] is read.
pub trait NodeAlgorithm: Send {
    /// Message type exchanged on edges. The LOCAL model does not restrict its size.
    type Message: Clone + Send;
    /// The node's final output.
    type Output: Clone + Send;

    /// Write the messages to send in round `round` (1-based) into `outbox`: one slot
    /// per local port `0..degree`, owned by the engine and reused across rounds.
    /// Every slot reads `None` on entry, so a port left untouched stays silent.
    fn send_into(&mut self, round: usize, outbox: &mut [Option<Self::Message>]);

    /// Consume the messages delivered in round `round`; `inbox[p]` is the message that
    /// arrived through local port `p`, if any. The slice is a buffer owned by the
    /// round engine and reused across rounds (so large runs do not reallocate one
    /// `Vec` per node per round); take messages out with [`Option::take`] — whatever
    /// is left in the slots is discarded when the engine refills them next round.
    fn receive(&mut self, round: usize, inbox: &mut [Option<Self::Message>]);

    /// The node's output after the allotted rounds have elapsed.
    fn output(&self) -> Self::Output;
}

/// Creates per-node algorithm instances.
///
/// The factory is what the "algorithm designer" ships: it may capture advice, a map of
/// the graph, or nothing. It is handed only the degree of the node it instantiates —
/// nodes are anonymous, so no identifier is available.
pub trait AlgorithmFactory: Sync {
    /// The per-node algorithm this factory creates.
    type Algo: NodeAlgorithm;

    /// Instantiate the algorithm for a node of degree `degree`.
    fn create(&self, degree: usize) -> Self::Algo;
}

/// Blanket implementation so closures `Fn(usize) -> A` can be used as factories.
impl<A, F> AlgorithmFactory for F
where
    A: NodeAlgorithm,
    F: Fn(usize) -> A + Sync,
{
    type Algo = A;

    fn create(&self, degree: usize) -> A {
        self(degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial algorithm: counts rounds, never talks.
    struct Silent {
        rounds_seen: usize,
    }

    impl NodeAlgorithm for Silent {
        type Message = ();
        type Output = usize;

        fn send_into(&mut self, _round: usize, _outbox: &mut [Option<()>]) {}

        fn receive(&mut self, _round: usize, _inbox: &mut [Option<()>]) {
            self.rounds_seen += 1;
        }

        fn output(&self) -> usize {
            self.rounds_seen
        }
    }

    #[test]
    fn closures_are_factories() {
        let factory = |_degree: usize| Silent { rounds_seen: 0 };
        let mut node = factory.create(3);
        let mut outbox = [None, None, None];
        node.send_into(1, &mut outbox);
        assert!(outbox.iter().all(Option::is_none));
        node.receive(1, &mut [None, None, None]);
        assert_eq!(node.output(), 1);
    }
}
