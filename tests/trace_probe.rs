//! Workspace-level acceptance of the tracing layer: the probe sees the same
//! per-round message stream on every execution backend, the stream reconciles
//! exactly with the report-level accounting, and a recorded stream survives the
//! round trip through the versioned `anet-trace/v1` artifact.

use four_shades::constructions::{GClass, UClass};
use four_shades::graph::generators;
use four_shades::graph::PortGraph;
use four_shades::prelude::*;
use four_shades::sim::full_info::ViewMessage;
use four_shades::sim::{run_full_information_metered, ViewCollectorFactory};
use four_shades::trace::{Phase, Recorder, RoundProfile, Tagged, TraceEvent};
use four_shades::views::ViewCodec;
use four_shades::workloads::{chrome_trace_json, parse_trace, TraceFile};
use std::sync::Arc;

/// Graphs from distinct families, all feasible for the map-based solver. The
/// paper line and the star solve from degrees alone (zero rounds — a valid,
/// empty profile); the class members actually communicate.
fn probe_graphs() -> Vec<(String, PortGraph)> {
    vec![
        (
            "G(4,1)-member".to_string(),
            GClass::new(4, 1).unwrap().member(4).unwrap().labeled.graph,
        ),
        (
            "U(4,1)-member".to_string(),
            UClass::new(4, 1)
                .unwrap()
                .member(&[2u32; 9])
                .unwrap()
                .labeled
                .graph,
        ),
        (
            "paper-line".to_string(),
            generators::paper_three_node_line(),
        ),
        ("star-6".to_string(), generators::star(6).unwrap()),
    ]
}

/// The per-round message/payload sequence is a property of the algorithm, not of
/// the execution backend: every backend in the smoke set reports the identical
/// sequence, and its sum is exactly the report's `messages_delivered`.
#[test]
fn per_round_counts_are_identical_across_every_smoke_backend() {
    let mut saw_rounds = false;
    for (name, graph) in probe_graphs() {
        let reference = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .profiled()
            .run(&graph)
            .expect("probe graphs are feasible")
            .round_profile
            .expect("profiled run attaches a profile");
        saw_rounds |= !reference.is_empty();
        for backend in Backend::smoke_set() {
            let report = Election::task(Task::Selection)
                .solver(MapSolver::default())
                .backend(backend)
                .profiled()
                .run(&graph)
                .unwrap();
            let profile = report.round_profile.as_ref().unwrap();
            // Timings differ run to run; the counted stream must not.
            let counts: Vec<(u64, u64, u64)> = profile
                .rounds()
                .iter()
                .map(|s| (s.round, s.messages, s.payload_bytes))
                .collect();
            let expected: Vec<(u64, u64, u64)> = reference
                .rounds()
                .iter()
                .map(|s| (s.round, s.messages, s.payload_bytes))
                .collect();
            assert_eq!(counts, expected, "{name} on {backend}");
            assert_eq!(
                profile.total_messages() as usize,
                report.messages_delivered,
                "{name} on {backend}: per-round sums reconcile with the report"
            );
            assert_eq!(profile.len(), report.rounds, "{name} on {backend}");
        }
    }
    assert!(saw_rounds, "at least one probe graph actually communicated");
}

/// The advice solvers run through the same probe seam: a Theorem 2.2 run on a
/// `U_{4,1}` member profiles every round too, on every backend.
#[test]
fn advice_solver_rounds_reconcile_on_every_backend() {
    let class = UClass::new(4, 1).unwrap();
    let graph = class.member(&[2u32; 9]).unwrap().labeled.graph;
    for backend in Backend::smoke_set() {
        let report = Election::task(Task::Selection)
            .solver(AdviceSolver::theorem_2_2())
            .backend(backend)
            .profiled()
            .run(&graph)
            .unwrap();
        let profile = report.round_profile.as_ref().unwrap();
        assert_eq!(profile.total_messages() as usize, report.messages_delivered);
        assert_eq!(profile.len(), report.rounds, "ψ_S rounds, all profiled");
    }
}

/// Recorded streams survive the artifact: tag two runs with distinct ids through
/// one shared recorder, serialise them as `anet-trace/v1`, parse the text back,
/// and recover each run's profile exactly. The chrome export of the same file is
/// a well-formed trace-event document.
#[test]
fn recorded_streams_round_trip_through_the_versioned_artifact() {
    let recorder = Arc::new(Recorder::new());
    let mut reports = Vec::new();
    for (id, (_, graph)) in probe_graphs().into_iter().take(2).enumerate() {
        let report = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .trace_sink(Arc::new(Tagged::new(recorder.clone(), id as u64)))
            .run(&graph)
            .unwrap();
        reports.push(report);
    }
    let events = recorder.drain();

    let mut file = TraceFile::new("probe");
    for id in 0..reports.len() {
        let run_events: Vec<TraceEvent> = events
            .iter()
            .copied()
            .filter(|e| e.trace_id() == id as u64)
            .collect();
        assert!(!run_events.is_empty(), "tagging kept the streams apart");
        file.push_run(id as u64, format!("probe-{id}"), run_events);
    }

    let parsed = parse_trace(&file.render()).expect("the artifact parses back");
    assert_eq!(parsed, file, "lossless text round trip");
    for (id, report) in reports.iter().enumerate() {
        let run = &parsed.runs[id];
        let profile = RoundProfile::for_trace(&run.events, id as u64);
        assert_eq!(
            profile.total_messages() as usize,
            report.messages_delivered,
            "run {id}: parsed-back rounds reconcile with the live report"
        );
    }

    let chrome = chrome_trace_json(&parsed);
    let rendered = chrome.render_pretty();
    assert!(rendered.contains("\"traceEvents\""));
    assert!(rendered.contains("\"displayTimeUnit\""));
    // One slice per phase per round plus per-run metadata: never empty here.
    assert!(rendered.contains("\"ph\": \"X\""));
}

/// The event stream a run on `nodes` nodes must emit, `ns` fields zeroed.
/// `spans[r]` is the number of physical rounds logical round `r + 1` occupies,
/// and `ends[p]` the `(messages, wire bits)` of physical round `p + 1`.
fn expected_layout(nodes: u64, spans: &[usize], ends: &[(u64, u64)]) -> Vec<TraceEvent> {
    let message_bytes = std::mem::size_of::<ViewMessage>() as u64;
    let phase = |round, phase| TraceEvent::PhaseTime {
        trace_id: 0,
        round,
        phase,
        ns: 0,
    };
    let mut events = vec![TraceEvent::RunStart {
        trace_id: 0,
        nodes,
        rounds: spans.len() as u64,
    }];
    let mut physical = 0u64;
    for &span in spans {
        for step in 1..=span {
            physical += 1;
            let (messages, bits) = ends[physical as usize - 1];
            events.push(TraceEvent::RoundStart {
                trace_id: 0,
                round: physical,
            });
            if step == 1 {
                events.push(phase(physical, Phase::Send));
            }
            events.push(phase(physical, Phase::Route));
            if step == span {
                events.push(phase(physical, Phase::Receive));
            }
            events.push(TraceEvent::RoundEnd {
                trace_id: 0,
                round: physical,
                messages,
                payload_bytes: messages * message_bytes,
            });
            if bits > 0 {
                events.push(TraceEvent::RoundWire {
                    trace_id: 0,
                    round: physical,
                    bits,
                });
            }
        }
    }
    events.push(TraceEvent::RunEnd {
        trace_id: 0,
        rounds: physical,
        messages: ends.iter().map(|&(messages, _)| messages).sum(),
    });
    events
}

/// A recorder's events with every phase timing zeroed.
fn without_timings(recorder: &Recorder) -> Vec<TraceEvent> {
    let mut events = recorder.drain();
    for event in &mut events {
        if let TraceEvent::PhaseTime { ns, .. } = event {
            *ns = 0;
        }
    }
    events
}

/// Golden layout of the round loop's event stream on the paper's three-node
/// line over two logical rounds: which phase lands in which physical round,
/// on every smoke backend, on a metered run and on a capped run whose views
/// stream over several physical rounds.
#[test]
fn trace_layout_is_pinned_for_every_backend_and_the_metered_transport() {
    let g = generators::paper_three_node_line();
    let rounds = 2;
    let unmetered = expected_layout(3, &[1, 1], &[(4, 0), (4, 0)]);
    for backend in Backend::smoke_set() {
        let recorder = Recorder::new();
        backend.run_traced(&g, &ViewCollectorFactory, rounds, &recorder);
        assert_eq!(without_timings(&recorder), unmetered, "{backend}");
    }

    let recorder = Recorder::new();
    run_full_information_metered(
        &g,
        rounds,
        Backend::Sequential,
        ViewCodec::Dag,
        &recorder,
        |v| v.degree(),
    );
    let metered = expected_layout(3, &[1, 1], &[(4, 100), (4, 158)]);
    assert_eq!(without_timings(&recorder), metered, "metered dag");

    let recorder = Recorder::new();
    run_full_information_metered(
        &g,
        rounds,
        Backend::capped(8),
        ViewCodec::default(),
        &recorder,
        |v| v.degree(),
    );
    let capped = expected_layout(
        3,
        &[4, 6],
        &[
            (0, 32),
            (0, 32),
            (2, 32),
            (2, 4),
            (0, 32),
            (0, 32),
            (0, 32),
            (0, 32),
            (2, 24),
            (2, 6),
        ],
    );
    assert_eq!(without_timings(&recorder), capped, "cap8");
}
