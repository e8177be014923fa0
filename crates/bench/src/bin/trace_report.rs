//! `trace_report` — render an `anet-trace/v2` artifact for humans and for
//! chrome://tracing.
//!
//! Reads a JSON-lines trace file (as written by `sweep --trace-dir` or
//! `service_bench --trace-dir`), prints one per-round table per recorded run —
//! messages, payload bytes and send/route/receive nanoseconds, with peak-round
//! markers — and, with `--chrome OUT.json`, also writes the runs as a Chrome
//! trace-event document loadable in `chrome://tracing` / Perfetto.
//!
//! ```text
//! trace_report bench-json/TRACE_workloads_smoke.jsonl
//! trace_report bench-json/TRACE_workloads_smoke.jsonl --chrome smoke.chrome.json
//! trace_report bench-json/TRACE_workloads_smoke.jsonl --run 3
//! ```

use anet_bench::Table;
use anet_trace::{Phase, RoundProfile, TraceEvent};
use anet_workloads::{chrome_trace_json, read_trace, TraceRun};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: trace_report FILE [--chrome OUT.json] [--run ID]

  FILE             an anet-trace/v2 JSON-lines artifact
                   (sweep --trace-dir, service_bench --trace-dir)
  --chrome OUT     also write the runs as a Chrome trace-event document
                   (open in chrome://tracing or Perfetto)
  --run ID         only print the run with this trace id
";

/// Render one run's per-round profile as an aligned table.
fn run_table(run: &TraceRun) -> Table {
    let profile = RoundProfile::for_trace(&run.events, run.id);
    let peak_messages = profile.peak_messages().map(|s| s.round);
    let peak_time = profile.peak_time().map(|s| s.round);
    let wire = profile.total_wire_bits();
    let mut t = Table::new(
        format!(
            "run {} — {} ({} rounds, {} messages, {} payload bytes{})",
            run.id,
            run.name,
            profile.len(),
            profile.total_messages(),
            profile.total_payload_bytes(),
            if wire > 0 {
                format!(", {wire} wire bits")
            } else {
                String::new()
            },
        ),
        &[
            "round", "messages", "payload", "wire", "send", "route", "receive", "peak",
        ],
    );
    for stat in profile.rounds() {
        let peak = match (
            peak_messages == Some(stat.round),
            peak_time == Some(stat.round),
        ) {
            (true, true) => "msgs+time",
            (true, false) => "msgs",
            (false, true) => "time",
            (false, false) => "",
        };
        t.push_row(vec![
            stat.round.to_string(),
            stat.messages.to_string(),
            stat.payload_bytes.to_string(),
            stat.wire_bits.to_string(),
            format!("{}ns", stat.send_ns),
            format!("{}ns", stat.route_ns),
            format!("{}ns", stat.receive_ns),
            peak.to_string(),
        ]);
    }
    t
}

/// Summarise scheduler-level events (service traces only; sweep artifacts have
/// none, in which case nothing is printed).
fn scheduler_summary(runs: &[TraceRun]) -> Option<String> {
    let mut executes = 0u64;
    let mut exec_ns = 0u64;
    for run in runs {
        for event in &run.events {
            match *event {
                TraceEvent::WorkerExecute { ns, .. } => {
                    executes += 1;
                    exec_ns += ns;
                }
                // Exhaustive on purpose: a new TraceEvent variant must be a
                // compile error here, not silently absent from the summary.
                // RoundWire is a round-level event; it shows up in the per-run
                // tables' wire column, not in the scheduler summary.
                TraceEvent::RunStart { .. }
                | TraceEvent::RoundStart { .. }
                | TraceEvent::PhaseTime { .. }
                | TraceEvent::RoundEnd { .. }
                | TraceEvent::RoundWire { .. }
                | TraceEvent::RunEnd { .. }
                | TraceEvent::InternerDelta { .. } => {}
            }
        }
    }
    (executes > 0)
        .then(|| format!("scheduler: {executes} executed jobs ({exec_ns}ns total service time)"))
}

fn main() -> ExitCode {
    let mut file: Option<PathBuf> = None;
    let mut chrome: Option<PathBuf> = None;
    let mut only_run: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--chrome" => match args.next() {
                Some(out) => chrome = Some(PathBuf::from(out)),
                None => {
                    eprintln!("--chrome needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--run" => match args.next().and_then(|id| id.parse::<u64>().ok()) {
                Some(id) => only_run = Some(id),
                None => {
                    eprintln!("--run needs a trace id\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = file else {
        eprintln!("a trace file is required\n{USAGE}");
        return ExitCode::FAILURE;
    };

    let trace = match read_trace(&path) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("trace_report: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "trace_report: {:?} — {} runs, {} events",
        trace.label,
        trace.runs.len(),
        trace.total_events()
    );

    let selected: Vec<&TraceRun> = trace
        .runs
        .iter()
        .filter(|r| only_run.is_none_or(|id| r.id == id))
        .collect();
    if let Some(id) = only_run {
        if selected.is_empty() {
            eprintln!("trace_report: no run with trace id {id}");
            return ExitCode::FAILURE;
        }
    }
    for run in &selected {
        println!("{}", run_table(run));
    }

    // Cross-run totals, phase by phase — where does the grid spend its time?
    let mut totals = Table::new(
        "totals across printed runs",
        &["phase", "ns", "messages", "payload"],
    );
    let merged: Vec<TraceEvent> = selected
        .iter()
        .flat_map(|r| r.events.iter().copied())
        .collect();
    let all = RoundProfile::from_events(&merged);
    for phase in Phase::ALL {
        totals.push_row(vec![
            phase.label().to_string(),
            format!("{}", all.phase_ns(phase)),
            String::new(),
            String::new(),
        ]);
    }
    totals.push_row(vec![
        "all".to_string(),
        format!(
            "{}",
            Phase::ALL.iter().map(|&p| all.phase_ns(p)).sum::<u64>()
        ),
        all.total_messages().to_string(),
        all.total_payload_bytes().to_string(),
    ]);
    println!("{totals}");

    if let Some(summary) = scheduler_summary(&trace.runs) {
        println!("{summary}");
    }

    if let Some(out) = chrome {
        let document = chrome_trace_json(&trace);
        if let Err(e) = std::fs::write(&out, document.render_pretty()) {
            eprintln!("trace_report: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        println!(
            "trace_report: wrote {} (open in chrome://tracing)",
            out.display()
        );
    }
    ExitCode::SUCCESS
}
