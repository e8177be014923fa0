//! Golden output of the smoke and standard sweeps. The `--jobs` determinism test
//! compares two runs of the same build, so it passes whenever the scenarios, the
//! sweep driver and the election builder change together; these tests pin what
//! the sweep *writes*.
//!
//! `ScenarioRegistry::smoke()` runs through `run_sweep` with label `"smoke"` and a
//! trace directory, once at `jobs = 1` and once at `jobs = 2`. Two FNV-1a-64
//! values are pinned:
//!
//! * the BENCH document: `normalized_for_diff(..).render_pretty()`, together with
//!   its byte length, cell count and solved count;
//! * the trace artifact: per run, the line `"{id} {name}\n"`, then per event its
//!   `event_to_json` rendering with every `"ns"` value set to `0`, followed by a
//!   newline; together with the run count and the event count.
//!
//! `ScenarioRegistry::standard()` runs once at `jobs = 1` without a trace; its
//! BENCH document is pinned the same way, together with the grid totals of the
//! `classes_expanded` and `paths_explored` search counters.

use anet_workloads::json::Json;
use anet_workloads::sweep::read_bench_json;
use anet_workloads::trace_io::{event_to_json, read_trace};
use anet_workloads::{normalized_for_diff, run_sweep, ScenarioRegistry, SweepConfig};
use std::path::PathBuf;

/// FNV-1a-64 over a byte stream.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, text: &str) {
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// An event line with its wall-clock field zeroed.
fn without_ns(event: Json) -> Json {
    match event {
        Json::Object(fields) => Json::Object(
            fields
                .into_iter()
                .map(|(key, value)| {
                    let value = if key == "ns" { Json::Int(0) } else { value };
                    (key, value)
                })
                .collect(),
        ),
        other => other,
    }
}

#[test]
fn smoke_sweep_writes_the_pinned_bench_and_trace_artifacts() {
    for jobs in [1, 2] {
        let dir = std::env::temp_dir().join(format!("anet-smoke-golden-jobs{jobs}"));
        let _ = std::fs::remove_dir_all(&dir);
        let config = SweepConfig {
            out_dir: dir.clone(),
            label: "smoke".to_string(),
            jobs,
            trace_dir: Some(dir.clone()),
            ..SweepConfig::default()
        };
        let outcome = run_sweep(&ScenarioRegistry::smoke(), &config).unwrap();

        let bench = normalized_for_diff(&read_bench_json(&outcome.json_path).unwrap());
        let text = bench.render_pretty();
        let mut fold = Fold::new();
        fold.add(&text);
        assert_eq!(
            (outcome.cells, outcome.solved, text.len(), fold.0),
            (88, 88, 67_773, 0x06eb_34f1_0b62_bd8a),
            "BENCH document, jobs {jobs}"
        );

        let trace_path: PathBuf = outcome.trace_path.expect("a trace directory was set");
        let trace = read_trace(&trace_path).unwrap();
        let mut fold = Fold::new();
        for run in &trace.runs {
            fold.add(&format!("{} {}\n", run.id, run.name));
            for event in &run.events {
                fold.add(&without_ns(event_to_json(event)).render());
                fold.add("\n");
            }
        }
        assert_eq!(
            (trace.runs.len(), trace.total_events(), fold.0),
            (88, 654, 0xd56d_246f_a2a4_cf27),
            "trace artifact, jobs {jobs}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The standard grid at `jobs = 1`: cell and solved counts, the exact search
/// work of the election-index ladder summed over all cells, and the FNV-1a-64
/// of the normalised BENCH document. A change that moves the ladder's search
/// work fails here, not only in the CI job that runs the release sweep.
#[test]
fn standard_sweep_writes_the_pinned_bench_document_and_search_totals() {
    let dir = std::env::temp_dir().join("anet-standard-golden");
    let _ = std::fs::remove_dir_all(&dir);
    let config = SweepConfig {
        out_dir: dir.clone(),
        label: "standard".to_string(),
        jobs: 1,
        ..SweepConfig::default()
    };
    let outcome = run_sweep(&ScenarioRegistry::standard(), &config).unwrap();
    let bench = normalized_for_diff(&read_bench_json(&outcome.json_path).unwrap());
    let total = |key: &str| -> i64 {
        let cells = bench.get("cells").and_then(Json::as_array).unwrap();
        cells.iter().filter_map(|c| c.get(key)?.as_int()).sum()
    };
    let text = bench.render_pretty();
    let mut fold = Fold::new();
    fold.add(&text);
    assert_eq!(
        (outcome.cells, outcome.solved),
        (188, 187),
        "cells and solved cells"
    );
    assert_eq!(
        (total("classes_expanded"), total("paths_explored")),
        (43_751, 139_015),
        "search work over all cells"
    );
    assert_eq!(
        (text.len(), fold.0),
        (138_510, 0x3541_4005_3308_1e44),
        "BENCH document"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
