//! The versioned `anet-trace/v2` artifact: JSON-lines serialisation of trace
//! event streams, with a hardened parser and a Chrome trace-event export.
//!
//! A trace artifact is one file of newline-delimited JSON objects:
//!
//! 1. a **header** declaring the schema, a label and the exact number of run
//!    and event lines that follow —
//!    `{"schema": "anet-trace/v2", "label": "smoke", "runs": 2, "events": 34}`;
//! 2. per run, one **meta** line naming the run —
//!    `{"t": "meta", "id": 0, "name": "torus2d/S/map/seq · torus2d-3x4"}`;
//! 3. the run's **event** lines, one per [`TraceEvent`], keyed by the event's
//!    [`kind`](TraceEvent::kind) —
//!    `{"t": "phase", "id": 0, "round": 1, "phase": "route", "ns": 1500}`.
//!
//! The declared counts make truncation detectable: a file that lost its tail
//! parses line-by-line but fails the final count check with
//! [`TraceIoError::CountMismatch`]. Forged or corrupted lines fail earlier with
//! a typed error naming the line — the same hardening standard as the shared-DAG
//! view codec. [`parse_trace`] accepts exactly what [`TraceFile::render`] emits.
//!
//! The `trace_report` binary in `anet-bench` renders these files as per-round
//! tables; [`chrome_trace_json`] converts one into the Chrome trace-event format
//! that `chrome://tracing` / Perfetto load directly (see `docs/OBSERVABILITY.md`).

// anet-lint: deny(panic-path)

use crate::json::{Json, JsonError};
use anet_trace::{Phase, TraceEvent};
use std::path::Path;

/// The schema tag written into every trace artifact header. Version 2 dropped
/// the `steal` event kind.
pub const TRACE_SCHEMA: &str = "anet-trace/v2";

/// One logical run inside a trace artifact: a correlation id (the `trace_id`
/// stamped on the run's events), a display name, and the event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRun {
    /// The correlation id all of this run's events carry.
    pub id: u64,
    /// Human-readable name (scenario × instance for sweep cells, tenant/request
    /// for service traces).
    pub name: String,
    /// The run's events, in emission order.
    pub events: Vec<TraceEvent>,
}

/// An in-memory trace artifact: what [`parse_trace`] returns and
/// [`TraceFile::render`] serialises.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceFile {
    /// The label from the header (mirrors the sweep / bench label).
    pub label: String,
    /// The runs, in file order.
    pub runs: Vec<TraceRun>,
}

impl TraceFile {
    /// An empty artifact with the given label.
    pub fn new(label: impl Into<String>) -> TraceFile {
        TraceFile {
            label: label.into(),
            runs: Vec::new(),
        }
    }

    /// Append one run. The caller is responsible for `id` uniqueness (the parser
    /// rejects duplicates).
    pub fn push_run(&mut self, id: u64, name: impl Into<String>, events: Vec<TraceEvent>) {
        self.runs.push(TraceRun {
            id,
            name: name.into(),
            events,
        });
    }

    /// Total number of event lines across all runs.
    pub fn total_events(&self) -> usize {
        self.runs.iter().map(|r| r.events.len()).sum()
    }

    /// Serialise to the `anet-trace/v2` JSON-lines format.
    pub fn render(&self) -> String {
        let header = Json::Object(vec![
            ("schema".to_string(), Json::str(TRACE_SCHEMA)),
            ("label".to_string(), Json::str(&self.label)),
            ("runs".to_string(), Json::count(self.runs.len())),
            ("events".to_string(), Json::count(self.total_events())),
        ]);
        let mut out = header.render();
        out.push('\n');
        for run in &self.runs {
            let meta = Json::Object(vec![
                ("t".to_string(), Json::str("meta")),
                ("id".to_string(), Json::Int(run.id as i64)),
                ("name".to_string(), Json::str(&run.name)),
            ]);
            out.push_str(&meta.render());
            out.push('\n');
            for event in &run.events {
                out.push_str(&event_to_json(event).render());
                out.push('\n');
            }
        }
        out
    }

    /// Write the rendered artifact to `path` (creating parent directories).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.render())
    }
}

/// Read and parse a trace artifact from disk.
pub fn read_trace(path: &Path) -> Result<TraceFile, TraceIoError> {
    let text = std::fs::read_to_string(path).map_err(TraceIoError::Io)?;
    parse_trace(&text)
}

/// Parse the `anet-trace/v2` JSON-lines format. Every malformation is a typed
/// [`TraceIoError`] naming the offending (1-based) line; truncated or padded
/// files fail the header's declared-count check.
pub fn parse_trace(text: &str) -> Result<TraceFile, TraceIoError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .filter(|(_, l)| !l.trim().is_empty());

    let (header_no, header_text) = lines.next().ok_or(TraceIoError::Empty)?;
    let header = json_line(header_no, header_text)?;
    let schema = header.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != TRACE_SCHEMA {
        return Err(TraceIoError::Schema {
            found: schema.to_string(),
        });
    }
    let label = str_field(&header, header_no, "label")?.to_string();
    let declared_runs = u64_field(&header, header_no, "runs")?;
    let declared_events = u64_field(&header, header_no, "events")?;

    let mut file = TraceFile::new(label);
    let mut found_events: u64 = 0;
    for (line_no, line_text) in lines {
        let value = json_line(line_no, line_text)?;
        let t = str_field(&value, line_no, "t")?;
        let id = u64_field(&value, line_no, "id")?;
        if t == "meta" {
            if file.runs.iter().any(|r| r.id == id) {
                return Err(TraceIoError::DuplicateRun { line: line_no, id });
            }
            let name = str_field(&value, line_no, "name")?.to_string();
            file.push_run(id, name, Vec::new());
            continue;
        }
        let event = event_from_json(&value, t, id, line_no)?;
        let run = file
            .runs
            .iter_mut()
            .find(|r| r.id == id)
            .ok_or(TraceIoError::UnknownRun { line: line_no, id })?;
        run.events.push(event);
        found_events += 1;
    }

    if file.runs.len() as u64 != declared_runs {
        return Err(TraceIoError::CountMismatch {
            field: "runs",
            declared: declared_runs,
            found: file.runs.len() as u64,
        });
    }
    if found_events != declared_events {
        return Err(TraceIoError::CountMismatch {
            field: "events",
            declared: declared_events,
            found: found_events,
        });
    }
    Ok(file)
}

/// Render one event as its artifact line (without the trailing newline).
pub fn event_to_json(event: &TraceEvent) -> Json {
    let mut fields = vec![
        ("t".to_string(), Json::str(event.kind())),
        ("id".to_string(), Json::Int(event.trace_id() as i64)),
    ];
    let mut num = |key: &str, value: u64| fields.push((key.to_string(), Json::Int(value as i64)));
    match *event {
        TraceEvent::RunStart { nodes, rounds, .. } => {
            num("nodes", nodes);
            num("rounds", rounds);
        }
        TraceEvent::RoundStart { round, .. } => num("round", round),
        TraceEvent::PhaseTime {
            round, phase, ns, ..
        } => {
            num("round", round);
            fields.push(("phase".to_string(), Json::str(phase.label())));
            fields.push(("ns".to_string(), Json::Int(ns as i64)));
        }
        TraceEvent::RoundEnd {
            round,
            messages,
            payload_bytes,
            ..
        } => {
            num("round", round);
            num("messages", messages);
            num("payload_bytes", payload_bytes);
        }
        TraceEvent::RoundWire { round, bits, .. } => {
            num("round", round);
            num("bits", bits);
        }
        TraceEvent::RunEnd {
            rounds, messages, ..
        } => {
            num("rounds", rounds);
            num("messages", messages);
        }
        TraceEvent::InternerDelta { hits, misses, .. } => {
            num("hits", hits);
            num("misses", misses);
        }
        TraceEvent::WorkerExecute { worker, ns, .. } => {
            num("worker", worker);
            num("ns", ns);
        }
    }
    Json::Object(fields)
}

fn event_from_json(
    value: &Json,
    kind: &str,
    trace_id: u64,
    line: usize,
) -> Result<TraceEvent, TraceIoError> {
    let num = |field: &'static str| u64_field(value, line, field);
    Ok(match kind {
        "run_start" => TraceEvent::RunStart {
            trace_id,
            nodes: num("nodes")?,
            rounds: num("rounds")?,
        },
        "round_start" => TraceEvent::RoundStart {
            trace_id,
            round: num("round")?,
        },
        "phase" => {
            let label = str_field(value, line, "phase")?;
            let phase = Phase::from_label(label).ok_or(TraceIoError::BadValue {
                line,
                field: "phase",
            })?;
            TraceEvent::PhaseTime {
                trace_id,
                round: num("round")?,
                phase,
                ns: num("ns")?,
            }
        }
        "round_end" => TraceEvent::RoundEnd {
            trace_id,
            round: num("round")?,
            messages: num("messages")?,
            payload_bytes: num("payload_bytes")?,
        },
        "wire" => TraceEvent::RoundWire {
            trace_id,
            round: num("round")?,
            bits: num("bits")?,
        },
        "run_end" => TraceEvent::RunEnd {
            trace_id,
            rounds: num("rounds")?,
            messages: num("messages")?,
        },
        "interner" => TraceEvent::InternerDelta {
            trace_id,
            hits: num("hits")?,
            misses: num("misses")?,
        },
        "exec" => TraceEvent::WorkerExecute {
            trace_id,
            worker: num("worker")?,
            ns: num("ns")?,
        },
        other => {
            return Err(TraceIoError::UnknownKind {
                line,
                kind: other.to_string(),
            })
        }
    })
}

fn json_line(line: usize, text: &str) -> Result<Json, TraceIoError> {
    Json::parse(text).map_err(|error| TraceIoError::Json { line, error })
}

fn str_field<'a>(obj: &'a Json, line: usize, field: &'static str) -> Result<&'a str, TraceIoError> {
    match obj.get(field) {
        None => Err(TraceIoError::MissingField { line, field }),
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(TraceIoError::BadValue { line, field }),
    }
}

fn u64_field(obj: &Json, line: usize, field: &'static str) -> Result<u64, TraceIoError> {
    match obj.get(field) {
        None => Err(TraceIoError::MissingField { line, field }),
        Some(Json::Int(i)) if *i >= 0 => Ok(*i as u64),
        Some(_) => Err(TraceIoError::BadValue { line, field }),
    }
}

/// Why a trace artifact failed to read back. Every variant names what was wrong
/// and (for line-scoped faults) where, so CI failures on corrupted artifacts are
/// actionable without opening the file.
#[derive(Debug)]
pub enum TraceIoError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// The file has no non-empty lines (no header).
    Empty,
    /// A line is not valid JSON.
    Json {
        /// 1-based line number.
        line: usize,
        /// The underlying JSON parse error.
        error: JsonError,
    },
    /// The header's schema tag is not [`TRACE_SCHEMA`].
    Schema {
        /// What the header declared (empty if absent or not a string).
        found: String,
    },
    /// A required field is absent.
    MissingField {
        /// 1-based line number.
        line: usize,
        /// The missing key.
        field: &'static str,
    },
    /// A field is present but has the wrong type or an out-of-range value.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The offending key.
        field: &'static str,
    },
    /// An event line's `t` tag names no known event kind.
    UnknownKind {
        /// 1-based line number.
        line: usize,
        /// The unrecognised tag.
        kind: String,
    },
    /// An event line references a run id with no preceding meta line.
    UnknownRun {
        /// 1-based line number.
        line: usize,
        /// The unknown correlation id.
        id: u64,
    },
    /// Two meta lines declare the same run id.
    DuplicateRun {
        /// 1-based line number of the second declaration.
        line: usize,
        /// The duplicated correlation id.
        id: u64,
    },
    /// The header's declared line counts do not match the file body — the
    /// signature of a truncated (or padded) artifact.
    CountMismatch {
        /// Which count disagreed (`"runs"` or `"events"`).
        field: &'static str,
        /// What the header declared.
        declared: u64,
        /// What the body contained.
        found: u64,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace artifact unreadable: {e}"),
            TraceIoError::Empty => write!(f, "trace artifact is empty (no header line)"),
            TraceIoError::Json { line, error } => {
                write!(f, "trace artifact line {line}: {error}")
            }
            TraceIoError::Schema { found } => write!(
                f,
                "trace artifact schema is {found:?}, expected {TRACE_SCHEMA:?}"
            ),
            TraceIoError::MissingField { line, field } => {
                write!(f, "trace artifact line {line}: missing field {field:?}")
            }
            TraceIoError::BadValue { line, field } => write!(
                f,
                "trace artifact line {line}: field {field:?} has the wrong type or value"
            ),
            TraceIoError::UnknownKind { line, kind } => {
                write!(f, "trace artifact line {line}: unknown event kind {kind:?}")
            }
            TraceIoError::UnknownRun { line, id } => write!(
                f,
                "trace artifact line {line}: event references run {id} with no meta line"
            ),
            TraceIoError::DuplicateRun { line, id } => {
                write!(f, "trace artifact line {line}: duplicate meta for run {id}")
            }
            TraceIoError::CountMismatch {
                field,
                declared,
                found,
            } => write!(
                f,
                "trace artifact is truncated or padded: header declares {declared} {field}, body has {found}"
            ),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Json { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Convert a trace artifact into the Chrome trace-event format (the
/// `{"traceEvents": [...]}` JSON that `chrome://tracing` and Perfetto load).
///
/// [`TraceEvent`]s carry durations, not wall-clock timestamps, so the timeline
/// is synthesised: per run, phase durations accumulate into back-to-back
/// complete (`"ph": "X"`) slices, which renders each run as a gap-free lane of
/// send/route/receive blocks. Each run becomes one process (`pid` = the run id,
/// named via a `process_name` metadata event); per-round message counts become
/// counter (`"ph": "C"`) samples on the same lane. Times are microseconds, as
/// the format requires.
pub fn chrome_trace_json(file: &TraceFile) -> Json {
    let mut trace_events = Vec::new();
    for run in &file.runs {
        let pid = Json::Int(run.id as i64);
        trace_events.push(Json::Object(vec![
            ("name".to_string(), Json::str("process_name")),
            ("ph".to_string(), Json::str("M")),
            ("pid".to_string(), pid.clone()),
            ("tid".to_string(), Json::Int(0)),
            (
                "args".to_string(),
                Json::Object(vec![("name".to_string(), Json::str(&run.name))]),
            ),
        ]));
        let mut cursor_ns: u64 = 0;
        for event in &run.events {
            match *event {
                TraceEvent::PhaseTime {
                    round, phase, ns, ..
                } => {
                    trace_events.push(Json::Object(vec![
                        (
                            "name".to_string(),
                            Json::str(format!("round {round} {}", phase.label())),
                        ),
                        ("cat".to_string(), Json::str(phase.label())),
                        ("ph".to_string(), Json::str("X")),
                        ("pid".to_string(), pid.clone()),
                        ("tid".to_string(), Json::Int(0)),
                        ("ts".to_string(), Json::Float(cursor_ns as f64 / 1e3)),
                        ("dur".to_string(), Json::Float(ns as f64 / 1e3)),
                    ]));
                    cursor_ns += ns;
                }
                TraceEvent::RoundEnd { messages, .. } => {
                    trace_events.push(Json::Object(vec![
                        ("name".to_string(), Json::str("messages")),
                        ("ph".to_string(), Json::str("C")),
                        ("pid".to_string(), pid.clone()),
                        ("tid".to_string(), Json::Int(0)),
                        ("ts".to_string(), Json::Float(cursor_ns as f64 / 1e3)),
                        (
                            "args".to_string(),
                            Json::Object(vec![(
                                "messages".to_string(),
                                Json::Int(messages as i64),
                            )]),
                        ),
                    ]));
                }
                // Exhaustive on purpose: deciding whether a new TraceEvent
                // variant appears on the timeline must be a conscious choice
                // here, not a silent drop. RoundWire stays off the timeline:
                // bit totals are durationless (they live in the round tables
                // of `trace_report` and the sweep artifact instead).
                TraceEvent::RunStart { .. }
                | TraceEvent::RoundStart { .. }
                | TraceEvent::RoundWire { .. }
                | TraceEvent::RunEnd { .. }
                | TraceEvent::InternerDelta { .. }
                | TraceEvent::WorkerExecute { .. } => {}
            }
        }
    }
    Json::Object(vec![
        ("traceEvents".to_string(), Json::Array(trace_events)),
        ("displayTimeUnit".to_string(), Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> TraceFile {
        let mut file = TraceFile::new("unit");
        file.push_run(
            0,
            "torus2d/S/map/seq · torus2d-3x4",
            vec![
                TraceEvent::RunStart {
                    trace_id: 0,
                    nodes: 12,
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
                    ns: 1500,
                },
                TraceEvent::RoundEnd {
                    trace_id: 0,
                    round: 1,
                    messages: 48,
                    payload_bytes: 768,
                },
                TraceEvent::RoundWire {
                    trace_id: 0,
                    round: 1,
                    bits: 517,
                },
                TraceEvent::RunEnd {
                    trace_id: 0,
                    rounds: 2,
                    messages: 96,
                },
                TraceEvent::InternerDelta {
                    trace_id: 0,
                    hits: 30,
                    misses: 4,
                },
            ],
        );
        file.push_run(
            7,
            "service tenant-a req 7",
            vec![
                TraceEvent::WorkerExecute {
                    trace_id: 7,
                    worker: 0,
                    ns: 17_000,
                },
                TraceEvent::WorkerExecute {
                    trace_id: 7,
                    worker: 1,
                    ns: 42_000,
                },
            ],
        );
        file
    }

    #[test]
    fn render_parse_round_trips_every_event_kind() {
        let file = sample_file();
        let text = file.render();
        assert!(text.starts_with(&format!("{{\"schema\":\"{TRACE_SCHEMA}\"")));
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, file);
        assert_eq!(parsed.total_events(), 9);
    }

    #[test]
    fn write_read_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("anet-trace-io-test-rw");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("TRACE_unit.jsonl");
        let file = sample_file();
        file.write(&path).unwrap();
        assert_eq!(read_trace(&path).unwrap(), file);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_artifacts_fail_the_count_check() {
        let text = sample_file().render();
        // Drop the last line: line-by-line parsing still succeeds, the declared
        // event count does not.
        let truncated: String = {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.pop();
            lines.join("\n")
        };
        match parse_trace(&truncated) {
            Err(TraceIoError::CountMismatch {
                field: "events",
                declared: 9,
                found: 8,
            }) => {}
            other => panic!("expected an events CountMismatch, got {other:?}"),
        }
        // Drop a whole run (meta + events): the runs count catches it first.
        let without_second_run: String = text
            .lines()
            .take_while(|l| !l.contains("service tenant-a"))
            .collect::<Vec<_>>()
            .join("\n");
        match parse_trace(&without_second_run) {
            Err(TraceIoError::CountMismatch { field: "runs", .. }) => {}
            other => panic!("expected a runs CountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn padded_artifacts_fail_the_count_check() {
        let mut text = sample_file().render();
        text.push_str("{\"t\":\"exec\",\"id\":7,\"worker\":0,\"ns\":1}\n");
        assert!(matches!(
            parse_trace(&text),
            Err(TraceIoError::CountMismatch {
                field: "events",
                declared: 9,
                found: 10,
            })
        ));
    }

    #[test]
    fn forged_lines_are_rejected_with_typed_errors() {
        let valid = sample_file().render();
        let forge = |needle: &str, replacement: &str| valid.replacen(needle, replacement, 1);

        // Not JSON at all.
        assert!(matches!(
            parse_trace(&forge("{\"t\":\"round_start\"", "not json {")),
            Err(TraceIoError::Json { .. })
        ));
        // Unknown event kind.
        assert!(matches!(
            parse_trace(&forge("\"t\":\"round_start\"", "\"t\":\"teleport\"")),
            Err(TraceIoError::UnknownKind { kind, .. }) if kind == "teleport"
        ));
        // Wrong field type.
        assert!(matches!(
            parse_trace(&forge("\"ns\":1500", "\"ns\":\"fast\"")),
            Err(TraceIoError::BadValue { field: "ns", .. })
        ));
        // Negative count.
        assert!(matches!(
            parse_trace(&forge("\"messages\":48", "\"messages\":-48")),
            Err(TraceIoError::BadValue {
                field: "messages",
                ..
            })
        ));
        // Missing field.
        assert!(matches!(
            parse_trace(&forge(",\"round\":1,\"phase\"", ",\"phase\"")),
            Err(TraceIoError::MissingField { field: "round", .. })
        ));
        // Unknown phase label.
        assert!(matches!(
            parse_trace(&forge("\"phase\":\"route\"", "\"phase\":\"warp\"")),
            Err(TraceIoError::BadValue { field: "phase", .. })
        ));
        // Event for a run that was never declared.
        assert!(matches!(
            parse_trace(&forge(
                "{\"t\":\"exec\",\"id\":7",
                "{\"t\":\"exec\",\"id\":9"
            )),
            Err(TraceIoError::UnknownRun { id: 9, .. })
        ));
        // Duplicate run declaration.
        assert!(matches!(
            parse_trace(&forge("\"t\":\"meta\",\"id\":7", "\"t\":\"meta\",\"id\":0")),
            Err(TraceIoError::DuplicateRun { id: 0, .. })
        ));
        // Wrong schema tag.
        assert!(matches!(
            parse_trace(&forge(TRACE_SCHEMA, "anet-trace/v9")),
            Err(TraceIoError::Schema { found }) if found == "anet-trace/v9"
        ));
        // Empty file.
        assert!(matches!(parse_trace("  \n \n"), Err(TraceIoError::Empty)));
    }

    #[test]
    fn errors_render_with_line_numbers() {
        let text = sample_file().render();
        let forged = text.replacen("\"t\":\"round_start\"", "\"t\":\"teleport\"", 1);
        let err = parse_trace(&forged).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("line 4"), "{message}");
        assert!(message.contains("teleport"), "{message}");
    }

    #[test]
    fn chrome_export_synthesises_a_gap_free_timeline() {
        let mut file = TraceFile::new("chrome");
        file.push_run(
            3,
            "run three",
            vec![
                TraceEvent::PhaseTime {
                    trace_id: 3,
                    round: 1,
                    phase: Phase::Send,
                    ns: 1000,
                },
                TraceEvent::PhaseTime {
                    trace_id: 3,
                    round: 1,
                    phase: Phase::Route,
                    ns: 2000,
                },
                TraceEvent::RoundEnd {
                    trace_id: 3,
                    round: 1,
                    messages: 5,
                    payload_bytes: 80,
                },
            ],
        );
        let chrome = chrome_trace_json(&file);
        let events = chrome.get("traceEvents").and_then(Json::as_array).unwrap();
        // Metadata + two slices + one counter.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("name")),
            Some(&Json::str("run three"))
        );
        // Slices are back to back: the second starts where the first ends.
        assert_eq!(events[1].get("ts"), Some(&Json::Float(0.0)));
        assert_eq!(events[1].get("dur"), Some(&Json::Float(1.0)));
        assert_eq!(events[2].get("ts"), Some(&Json::Float(1.0)));
        assert_eq!(events[2].get("dur"), Some(&Json::Float(2.0)));
        // The counter samples after both phases.
        assert_eq!(events[3].get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(events[3].get("ts"), Some(&Json::Float(3.0)));
        // The whole document is itself valid JSON for chrome://tracing to load.
        assert!(Json::parse(&chrome.render_pretty()).is_ok());
    }
}
