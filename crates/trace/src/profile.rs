//! Aggregating an event stream into the per-round profile reports carry.

use crate::event::{Phase, TraceEvent};
use std::collections::BTreeMap;

/// One round's aggregate: messages delivered, shallow payload bytes, and wall-clock
/// nanoseconds per phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStat {
    /// The 1-based round number.
    pub round: u64,
    /// Messages delivered in this round.
    pub messages: u64,
    /// Shallow payload bytes delivered in this round (delivered count × message
    /// size; see [`TraceEvent::RoundEnd`]).
    pub payload_bytes: u64,
    /// Nanoseconds spent in the send phase.
    pub send_ns: u64,
    /// Nanoseconds spent in the routing phase.
    pub route_ns: u64,
    /// Nanoseconds spent in the receive phase.
    pub receive_ns: u64,
    /// Bits that crossed the wire in this round, summed over all directed edges —
    /// exact serialised sizes under the run's codec ([`TraceEvent::RoundWire`]).
    /// Zero on unmetered runs, which never emit wire events.
    pub wire_bits: u64,
}

impl RoundStat {
    /// Nanoseconds spent in the given phase.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Send => self.send_ns,
            Phase::Route => self.route_ns,
            Phase::Receive => self.receive_ns,
        }
    }

    /// Total nanoseconds across all three phases.
    pub fn total_ns(&self) -> u64 {
        self.send_ns + self.route_ns + self.receive_ns
    }
}

/// A per-round profile of one (or several merged) runs: message counts, payload
/// bytes and per-phase nanoseconds for every executed round, with peak queries.
///
/// Built from a recorded event stream; rounds are kept sorted by round number. The
/// engine attaches one of these to `ElectionReport` when tracing or profiling is
/// requested, and the equivalence suite asserts that
/// [`total_messages`](RoundProfile::total_messages) equals the report's
/// `messages_delivered` on every backend.
///
/// ```
/// use anet_trace::{Phase, RoundProfile, TraceEvent};
///
/// let events = [
///     TraceEvent::RoundEnd { trace_id: 0, round: 1, messages: 6, payload_bytes: 96 },
///     TraceEvent::PhaseTime { trace_id: 0, round: 1, phase: Phase::Route, ns: 1500 },
///     TraceEvent::RoundEnd { trace_id: 0, round: 2, messages: 10, payload_bytes: 160 },
/// ];
/// let profile = RoundProfile::from_events(&events);
/// assert_eq!(profile.len(), 2);
/// assert_eq!(profile.total_messages(), 16);
/// assert_eq!(profile.peak_messages().unwrap().round, 2);
/// assert_eq!(profile.phase_ns(Phase::Route), 1500);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundProfile {
    rounds: Vec<RoundStat>,
}

impl RoundProfile {
    /// Aggregate an event stream into per-round stats, regardless of trace id (use
    /// [`RoundProfile::for_trace`] to restrict to one run). Only round-scoped
    /// events contribute; run markers, interner deltas and worker events are
    /// ignored. Order-insensitive: timings and counts for the same round
    /// accumulate.
    pub fn from_events(events: &[TraceEvent]) -> RoundProfile {
        let mut rounds: BTreeMap<u64, RoundStat> = BTreeMap::new();
        fn stat(rounds: &mut BTreeMap<u64, RoundStat>, round: u64) -> &mut RoundStat {
            let entry = rounds.entry(round).or_default();
            entry.round = round;
            entry
        }
        for event in events {
            match *event {
                TraceEvent::PhaseTime {
                    round, phase, ns, ..
                } => match phase {
                    Phase::Send => stat(&mut rounds, round).send_ns += ns,
                    Phase::Route => stat(&mut rounds, round).route_ns += ns,
                    Phase::Receive => stat(&mut rounds, round).receive_ns += ns,
                },
                TraceEvent::RoundEnd {
                    round,
                    messages,
                    payload_bytes,
                    ..
                } => {
                    let s = stat(&mut rounds, round);
                    s.messages += messages;
                    s.payload_bytes += payload_bytes;
                }
                TraceEvent::RoundWire { round, bits, .. } => {
                    stat(&mut rounds, round).wire_bits += bits;
                }
                TraceEvent::RoundStart { round, .. } => {
                    stat(&mut rounds, round);
                }
                TraceEvent::RunStart { .. }
                | TraceEvent::RunEnd { .. }
                | TraceEvent::InternerDelta { .. }
                | TraceEvent::WorkerExecute { .. } => {}
            }
        }
        RoundProfile {
            rounds: rounds.into_values().collect(),
        }
    }

    /// [`RoundProfile::from_events`] restricted to events of one trace id.
    pub fn for_trace(events: &[TraceEvent], trace_id: u64) -> RoundProfile {
        let filtered: Vec<TraceEvent> = events
            .iter()
            .copied()
            .filter(|e| e.trace_id() == trace_id)
            .collect();
        RoundProfile::from_events(&filtered)
    }

    /// The per-round stats, sorted by round number.
    pub fn rounds(&self) -> &[RoundStat] {
        &self.rounds
    }

    /// Number of profiled rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no rounds were profiled (a zero-round run).
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Sum of per-round message counts. The equivalence suite checks this equals
    /// the report-level `messages_delivered` exactly.
    pub fn total_messages(&self) -> u64 {
        self.rounds.iter().map(|r| r.messages).sum()
    }

    /// Sum of per-round shallow payload bytes.
    pub fn total_payload_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.payload_bytes).sum()
    }

    /// Sum of per-round wire bits — the run's total bits-on-the-wire under its
    /// codec. Zero for unmetered runs. The transport equivalence suite checks this
    /// reconciles exactly with the report's per-edge counters.
    pub fn total_wire_bits(&self) -> u64 {
        self.rounds.iter().map(|r| r.wire_bits).sum()
    }

    /// Total nanoseconds spent in the given phase across all rounds.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.rounds.iter().map(|r| r.phase_ns(phase)).sum()
    }

    /// The round that delivered the most messages (first such round on ties).
    pub fn peak_messages(&self) -> Option<&RoundStat> {
        self.rounds.iter().max_by(|a, b| {
            a.messages.cmp(&b.messages).then(b.round.cmp(&a.round)) // prefer the earlier round on ties
        })
    }

    /// The most expensive round by summed phase nanoseconds (first on ties).
    pub fn peak_time(&self) -> Option<&RoundStat> {
        self.rounds
            .iter()
            .max_by(|a, b| a.total_ns().cmp(&b.total_ns()).then(b.round.cmp(&a.round)))
    }

    /// Re-emit the profile as a canonical event stream under the given trace id:
    /// per round, a `RoundStart`, one `PhaseTime` per phase, and a `RoundEnd`. This
    /// is how the sweep driver serialises per-cell profiles into the trace
    /// artifact; `RoundProfile::from_events(&p.to_events(id))` reproduces `p`.
    pub fn to_events(&self, trace_id: u64) -> Vec<TraceEvent> {
        let mut events = Vec::with_capacity(self.rounds.len() * 5);
        for stat in &self.rounds {
            events.push(TraceEvent::RoundStart {
                trace_id,
                round: stat.round,
            });
            for phase in Phase::ALL {
                events.push(TraceEvent::PhaseTime {
                    trace_id,
                    round: stat.round,
                    phase,
                    ns: stat.phase_ns(phase),
                });
            }
            events.push(TraceEvent::RoundEnd {
                trace_id,
                round: stat.round,
                messages: stat.messages,
                payload_bytes: stat.payload_bytes,
            });
            // Only metered rounds re-emit a wire event, so unmetered profiles
            // replay to exactly the stream an unmetered run records.
            if stat.wire_bits > 0 {
                events.push(TraceEvent::RoundWire {
                    trace_id,
                    round: stat.round,
                    bits: stat.wire_bits,
                });
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
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
                phase: Phase::Send,
                ns: 100,
            },
            TraceEvent::PhaseTime {
                trace_id: 0,
                round: 1,
                phase: Phase::Route,
                ns: 200,
            },
            TraceEvent::PhaseTime {
                trace_id: 0,
                round: 1,
                phase: Phase::Receive,
                ns: 300,
            },
            TraceEvent::RoundEnd {
                trace_id: 0,
                round: 1,
                messages: 8,
                payload_bytes: 128,
            },
            TraceEvent::RoundStart {
                trace_id: 0,
                round: 2,
            },
            TraceEvent::PhaseTime {
                trace_id: 0,
                round: 2,
                phase: Phase::Route,
                ns: 50,
            },
            TraceEvent::RoundEnd {
                trace_id: 0,
                round: 2,
                messages: 6,
                payload_bytes: 96,
            },
            TraceEvent::RunEnd {
                trace_id: 0,
                rounds: 2,
                messages: 14,
            },
        ]
    }

    #[test]
    fn from_events_aggregates_per_round() {
        let profile = RoundProfile::from_events(&sample_events());
        assert_eq!(profile.len(), 2);
        let r1 = profile.rounds()[0];
        assert_eq!(r1.round, 1);
        assert_eq!(r1.messages, 8);
        assert_eq!(r1.payload_bytes, 128);
        assert_eq!((r1.send_ns, r1.route_ns, r1.receive_ns), (100, 200, 300));
        assert_eq!(r1.total_ns(), 600);
        assert_eq!(profile.total_messages(), 14);
        assert_eq!(profile.total_payload_bytes(), 224);
        assert_eq!(profile.phase_ns(Phase::Route), 250);
    }

    #[test]
    fn peaks_prefer_the_earlier_round_on_ties() {
        let profile = RoundProfile::from_events(&sample_events());
        assert_eq!(profile.peak_messages().unwrap().round, 1);
        assert_eq!(profile.peak_time().unwrap().round, 1);
        let tied = RoundProfile::from_events(&[
            TraceEvent::RoundEnd {
                trace_id: 0,
                round: 1,
                messages: 5,
                payload_bytes: 0,
            },
            TraceEvent::RoundEnd {
                trace_id: 0,
                round: 2,
                messages: 5,
                payload_bytes: 0,
            },
        ]);
        assert_eq!(tied.peak_messages().unwrap().round, 1);
    }

    #[test]
    fn for_trace_filters_by_id() {
        let mut events = sample_events();
        events.push(TraceEvent::RoundEnd {
            trace_id: 9,
            round: 1,
            messages: 1000,
            payload_bytes: 0,
        });
        let all = RoundProfile::from_events(&events);
        assert_eq!(all.total_messages(), 1014, "from_events merges ids");
        let only_zero = RoundProfile::for_trace(&events, 0);
        assert_eq!(only_zero.total_messages(), 14);
        let only_nine = RoundProfile::for_trace(&events, 9);
        assert_eq!(only_nine.total_messages(), 1000);
    }

    #[test]
    fn to_events_round_trips() {
        let profile = RoundProfile::from_events(&sample_events());
        let replayed = profile.to_events(3);
        assert!(replayed.iter().all(|e| e.trace_id() == 3));
        assert_eq!(RoundProfile::from_events(&replayed), profile);
    }

    #[test]
    fn wire_events_aggregate_and_replay() {
        let mut events = sample_events();
        events.push(TraceEvent::RoundWire {
            trace_id: 0,
            round: 1,
            bits: 300,
        });
        events.push(TraceEvent::RoundWire {
            trace_id: 0,
            round: 1,
            bits: 17,
        });
        let profile = RoundProfile::from_events(&events);
        assert_eq!(profile.rounds()[0].wire_bits, 317);
        assert_eq!(profile.rounds()[1].wire_bits, 0);
        assert_eq!(profile.total_wire_bits(), 317);
        // Round-trip holds with a mix of metered and unmetered rounds.
        assert_eq!(RoundProfile::from_events(&profile.to_events(7)), profile);
        // Unmetered profiles replay without any wire events at all.
        let unmetered = RoundProfile::from_events(&sample_events());
        assert!(unmetered
            .to_events(0)
            .iter()
            .all(|e| !matches!(e, TraceEvent::RoundWire { .. })));
    }

    #[test]
    fn empty_profile_has_no_peaks() {
        let profile = RoundProfile::from_events(&[]);
        assert!(profile.is_empty());
        assert_eq!(profile.peak_messages(), None);
        assert_eq!(profile.peak_time(), None);
        assert_eq!(profile.total_messages(), 0);
    }
}
