//! The typed event taxonomy.

/// A phase of the synchronous round loop. Every backend executes rounds as
/// send → route → receive; the phases differ only in how they are scheduled, so
/// per-phase timings are comparable across backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Nodes compute and hand their per-port outboxes to the engine.
    Send,
    /// The engine moves each message to the far end of its edge (the communication
    /// phase proper; this is where messages are counted).
    Route,
    /// Nodes read their inboxes and update local state.
    Receive,
}

impl Phase {
    /// Stable lowercase label used in trace artifacts and tables.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Send => "send",
            Phase::Route => "route",
            Phase::Receive => "receive",
        }
    }

    /// All phases in execution order.
    pub const ALL: [Phase; 3] = [Phase::Send, Phase::Route, Phase::Receive];

    /// Parse a label produced by [`Phase::label`].
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.label() == label)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One trace event. Events are small `Copy` values: recording one is a couple of
/// integer stores, and a disabled sink costs a single branch.
///
/// Every variant carries a `trace_id` correlating the event with one logical run:
/// `0` for standalone runs, the request id in the multi-tenant service, the cell
/// index in a sweep artifact. [`TraceEvent::with_trace_id`] rewrites it, which is how
/// the [`Tagged`](crate::Tagged) sink stamps per-request ids without the emitting
/// layer knowing about them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// A run (one simulation of `rounds` rounds on `nodes` nodes) begins.
    RunStart {
        /// Correlation id of the run.
        trace_id: u64,
        /// Number of nodes in the simulated graph.
        nodes: u64,
        /// Number of rounds the run will execute.
        rounds: u64,
    },
    /// A synchronous round begins. Rounds are 1-based, matching the paper's
    /// convention (round 0 is the initial state).
    RoundStart {
        /// Correlation id of the run.
        trace_id: u64,
        /// The 1-based round number.
        round: u64,
    },
    /// One phase of a round took `ns` nanoseconds.
    PhaseTime {
        /// Correlation id of the run.
        trace_id: u64,
        /// The 1-based round number.
        round: u64,
        /// Which phase of the round loop.
        phase: Phase,
        /// Elapsed wall-clock nanoseconds.
        ns: u64,
    },
    /// A round completed, delivering `messages` messages totalling `payload_bytes`
    /// shallow bytes (delivered count × `size_of` the message type). For bit-exact
    /// wire accounting, metered runs additionally emit [`TraceEvent::RoundWire`]
    /// with the serialised size of everything that crossed an edge this round.
    RoundEnd {
        /// Correlation id of the run.
        trace_id: u64,
        /// The 1-based round number.
        round: u64,
        /// Messages delivered in this round.
        messages: u64,
        /// Shallow payload bytes delivered in this round.
        payload_bytes: u64,
    },
    /// Bits that physically crossed the wire in one round of a *metered* run: the
    /// exact serialised length of every message under the run's `ViewCodec`,
    /// summed over all directed edges (on a capped backend, the bits of a partial
    /// chunk count in the round they were transferred). Unmetered runs never emit
    /// this event, so profiles stay byte-identical when metering is off.
    RoundWire {
        /// Correlation id of the run.
        trace_id: u64,
        /// The 1-based round number.
        round: u64,
        /// Bits on the wire in this round, summed over all directed edges.
        bits: u64,
    },
    /// A run completed.
    RunEnd {
        /// Correlation id of the run.
        trace_id: u64,
        /// Rounds executed.
        rounds: u64,
        /// Total messages delivered over the whole run.
        messages: u64,
    },
    /// Interner traffic attributable to this run: how many hash-cons lookups hit an
    /// existing entry vs created a new one while the run executed. Deltas are
    /// computed from snapshots of the shared table's counters, so under concurrent
    /// runs a delta may include a neighbour's traffic; with one worker it is exact.
    InternerDelta {
        /// Correlation id of the run.
        trace_id: u64,
        /// Lookups that found an existing entry.
        hits: u64,
        /// Lookups that inserted a new entry.
        misses: u64,
    },
    /// A service worker executed the request `trace_id` in `ns` nanoseconds.
    WorkerExecute {
        /// Correlation id (the request id).
        trace_id: u64,
        /// Index of the worker that ran it.
        worker: u64,
        /// Service time in nanoseconds.
        ns: u64,
    },
}

impl TraceEvent {
    /// The event's correlation id.
    pub fn trace_id(&self) -> u64 {
        match *self {
            TraceEvent::RunStart { trace_id, .. }
            | TraceEvent::RoundStart { trace_id, .. }
            | TraceEvent::PhaseTime { trace_id, .. }
            | TraceEvent::RoundEnd { trace_id, .. }
            | TraceEvent::RoundWire { trace_id, .. }
            | TraceEvent::RunEnd { trace_id, .. }
            | TraceEvent::InternerDelta { trace_id, .. }
            | TraceEvent::WorkerExecute { trace_id, .. } => trace_id,
        }
    }

    /// The same event with its correlation id replaced.
    pub fn with_trace_id(mut self, id: u64) -> TraceEvent {
        match &mut self {
            TraceEvent::RunStart { trace_id, .. }
            | TraceEvent::RoundStart { trace_id, .. }
            | TraceEvent::PhaseTime { trace_id, .. }
            | TraceEvent::RoundEnd { trace_id, .. }
            | TraceEvent::RoundWire { trace_id, .. }
            | TraceEvent::RunEnd { trace_id, .. }
            | TraceEvent::InternerDelta { trace_id, .. }
            | TraceEvent::WorkerExecute { trace_id, .. } => *trace_id = id,
        }
        self
    }

    /// Stable snake_case kind tag, used as the `t` field of trace artifacts.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::RoundStart { .. } => "round_start",
            TraceEvent::PhaseTime { .. } => "phase",
            TraceEvent::RoundEnd { .. } => "round_end",
            TraceEvent::RoundWire { .. } => "wire",
            TraceEvent::RunEnd { .. } => "run_end",
            TraceEvent::InternerDelta { .. } => "interner",
            TraceEvent::WorkerExecute { .. } => "exec",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_round_trip() {
        for phase in Phase::ALL {
            assert_eq!(Phase::from_label(phase.label()), Some(phase));
            assert_eq!(format!("{phase}"), phase.label());
        }
        assert_eq!(Phase::from_label("compute"), None);
    }

    #[test]
    fn with_trace_id_rewrites_every_variant() {
        let events = [
            TraceEvent::RunStart {
                trace_id: 0,
                nodes: 4,
                rounds: 2,
            },
            TraceEvent::RoundStart {
                trace_id: 0,
                round: 1,
            },
            TraceEvent::PhaseTime {
                trace_id: 0,
                round: 1,
                phase: Phase::Route,
                ns: 10,
            },
            TraceEvent::RoundEnd {
                trace_id: 0,
                round: 1,
                messages: 8,
                payload_bytes: 128,
            },
            TraceEvent::RoundWire {
                trace_id: 0,
                round: 1,
                bits: 517,
            },
            TraceEvent::RunEnd {
                trace_id: 0,
                rounds: 2,
                messages: 16,
            },
            TraceEvent::InternerDelta {
                trace_id: 0,
                hits: 3,
                misses: 1,
            },
            TraceEvent::WorkerExecute {
                trace_id: 0,
                worker: 2,
                ns: 99,
            },
        ];
        for event in events {
            assert_eq!(event.trace_id(), 0);
            let tagged = event.with_trace_id(42);
            assert_eq!(tagged.trace_id(), 42);
            // Only the id changed: re-tagging with 0 restores the original.
            assert_eq!(tagged.with_trace_id(0), event);
        }
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            "run_start",
            "round_start",
            "phase",
            "round_end",
            "wire",
            "run_end",
            "interner",
            "exec",
        ];
        let mut dedup = kinds.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), kinds.len());
    }
}
