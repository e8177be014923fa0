//! The sweep driver: run a registry selection, collect reports, emit `BENCH_*.json`.
//!
//! Every cell of the emitted file is one engine run (scenario × family instance):
//! rounds, messages, advice bits, wall time, verdict — the machine-readable form of
//! the `ElectionReport`s the facade returns, so the perf trajectory of the engine can
//! be tracked file-over-file. The schema is versioned ([`SCHEMA`]); the in-tree
//! [`Json`] parser reads the files back.
//!
//! ## Schema history
//!
//! * `anet-workloads/v1` — the original cell fields (`scenario`, `family`,
//!   `instance`, `param`, `nodes`, `max_degree`, `task`, `solver`, `backend`,
//!   `solved`, `rounds`, `messages`, `advice_bits`, `wall_ms`, `leader`, `error`).
//! * `anet-workloads/v2` — adds per-cell `advice_tree_bits` and
//!   `advice_dag_bits`: the size the advice's encoded view takes under the
//!   unfolded-tree codec and under the shared-DAG codec (`null` for solvers whose
//!   advice is not an encoded view). `advice_bits` remains the bits actually
//!   shipped, which equals one of the two for the Theorem 2.2 pairs.
//! * `anet-workloads/v3` — adds per-cell `classes_expanded` and
//!   `paths_explored`: the cost counters of the map-side assignment search
//!   (quotient classes popped by the route BFS; search work, see
//!   `anet_views::SearchStats`). Zero for solvers that never search for an
//!   assignment; `null` only when the cell has no report at all.
//! * `anet-workloads/v4` (current) — adds the wire-metering fields: `wire_codec`
//!   (the message codec a metered cell serialised through), `wire_cap` (the
//!   bits-per-edge-per-round cap of a `Backend::Capped` run), `wire_bits` (total
//!   bits on the wire) and the `wire_round_bits` / `wire_edge_bits` breakdowns
//!   (per physical round / per directed edge — both sum to `wire_bits`). All
//!   `null` for unmetered cells.
//!
//! Each version is a strict superset of its predecessor: every older field is still
//! emitted with the same meaning, and the parser is a general JSON reader, so
//! tooling written against v1/v2/v3 files keeps working on v4 files (and this crate
//! keeps reading archived v1/v2/v3 files — missing keys simply look up as `None`).

use crate::json::Json;
use crate::scenario::{Scenario, ScenarioRegistry};
use crate::trace_io::TraceFile;
use anet_election::engine::BatchRow;
use anet_trace::TraceEvent;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The schema tag written into every emitted sweep file (see the module docs for
/// the version history).
pub const SCHEMA: &str = "anet-workloads/v4";

/// Configuration of one sweep run.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Directory the `BENCH_*.json` file is written to (created if missing).
    pub out_dir: PathBuf,
    /// Case-insensitive substring filter on scenario names (`None` = run everything).
    pub filter: Option<String>,
    /// Label baked into the file name (`BENCH_workloads_<label>.json`).
    pub label: String,
    /// Print one progress line per scenario to stdout.
    pub verbose: bool,
    /// Worker threads the scenarios are fanned out over (via the work-stealing
    /// pool in `anet-sim`); `1` (the default) runs the grid sequentially on the
    /// calling thread. Whatever the value, the emitted JSON is identical modulo
    /// timing fields — see [`normalized_for_diff`].
    pub jobs: usize,
    /// When set, run every cell with round-level profiling and write an
    /// `anet-trace/v1` artifact (`TRACE_workloads_<label>.jsonl`) into this
    /// directory: one run per profiled cell, whose trace id is the cell's index
    /// in the emitted `cells` array. The `BENCH_*.json` itself is byte-identical
    /// whether or not tracing is on — profiles travel only through the artifact.
    pub trace_dir: Option<PathBuf>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            out_dir: PathBuf::from("."),
            filter: None,
            label: "sweep".to_string(),
            verbose: false,
            jobs: 1,
            trace_dir: None,
        }
    }
}

/// Summary of a finished sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Path of the emitted JSON file.
    pub json_path: PathBuf,
    /// Path of the emitted `anet-trace/v1` artifact, when
    /// [`SweepConfig::trace_dir`] was set.
    pub trace_path: Option<PathBuf>,
    /// Scenarios run (after filtering).
    pub scenarios: usize,
    /// Total cells (scenario × instance runs).
    pub cells: usize,
    /// Cells whose verifier accepted the outputs.
    pub solved: usize,
    /// Cells that failed or errored (infeasible instances report here by design).
    pub unsolved: usize,
    /// Wall time of the whole sweep.
    pub wall: Duration,
}

/// One cell rendered to JSON. Infeasible instances and solver refusals become cells
/// with `"solved": false` and an `"error"` string — a sweep never aborts mid-grid.
fn cell_json(scenario: &Scenario, row: &BatchRow) -> Json {
    let mut fields = vec![
        ("scenario".to_string(), Json::str(scenario.name())),
        ("family".to_string(), Json::str(&row.family)),
        ("instance".to_string(), Json::str(&row.instance)),
        ("param".to_string(), Json::Int(row.param as i64)),
        ("nodes".to_string(), Json::count(row.nodes)),
        ("max_degree".to_string(), Json::count(row.max_degree)),
        ("task".to_string(), Json::str(row.task.to_string())),
        (
            "solver".to_string(),
            Json::str(scenario.solver.label().to_string()),
        ),
        ("backend".to_string(), Json::str(scenario.backend.label())),
    ];
    match &row.report {
        Ok(report) => {
            fields.push(("solved".to_string(), Json::Bool(report.solved())));
            fields.push(("rounds".to_string(), Json::count(report.rounds)));
            fields.push((
                "messages".to_string(),
                Json::count(report.messages_delivered),
            ));
            fields.push((
                "advice_bits".to_string(),
                Json::opt_count(report.advice_bits),
            ));
            fields.push((
                "advice_tree_bits".to_string(),
                Json::opt_count(report.advice_tree_bits),
            ));
            fields.push((
                "advice_dag_bits".to_string(),
                Json::opt_count(report.advice_dag_bits),
            ));
            fields.push((
                "classes_expanded".to_string(),
                Json::count(report.search.classes_expanded),
            ));
            fields.push((
                "paths_explored".to_string(),
                Json::count(report.search.paths_explored),
            ));
            // v4 wire fields: populated only when the cell was metered (an
            // explicit codec or a capped backend); all null otherwise.
            match &report.wire {
                Some(wire) => {
                    fields.push(("wire_codec".to_string(), Json::str(wire.codec.label())));
                    fields.push((
                        "wire_cap".to_string(),
                        match wire.bits_per_edge_cap {
                            Some(cap) => Json::Int(cap as i64),
                            None => Json::Null,
                        },
                    ));
                    fields.push(("wire_bits".to_string(), Json::Int(wire.total_bits() as i64)));
                    fields.push((
                        "wire_round_bits".to_string(),
                        Json::Array(
                            wire.per_round_bits
                                .iter()
                                .map(|&b| Json::Int(b as i64))
                                .collect(),
                        ),
                    ));
                    fields.push((
                        "wire_edge_bits".to_string(),
                        Json::Array(
                            wire.per_edge_bits
                                .iter()
                                .map(|&b| Json::Int(b as i64))
                                .collect(),
                        ),
                    ));
                }
                None => {
                    fields.push(("wire_codec".to_string(), Json::Null));
                    fields.push(("wire_cap".to_string(), Json::Null));
                    fields.push(("wire_bits".to_string(), Json::Null));
                    fields.push(("wire_round_bits".to_string(), Json::Null));
                    fields.push(("wire_edge_bits".to_string(), Json::Null));
                }
            }
            fields.push((
                "wall_ms".to_string(),
                Json::Float(report.wall_time.as_secs_f64() * 1e3),
            ));
            fields.push((
                "leader".to_string(),
                match report.leader() {
                    Some(v) => Json::Int(v as i64),
                    None => Json::Null,
                },
            ));
            fields.push((
                "error".to_string(),
                match &report.verdict {
                    Ok(_) => Json::Null,
                    Err(e) => Json::str(e.to_string()),
                },
            ));
        }
        Err(e) => {
            fields.push(("solved".to_string(), Json::Bool(false)));
            fields.push(("rounds".to_string(), Json::Null));
            fields.push(("messages".to_string(), Json::Null));
            fields.push(("advice_bits".to_string(), Json::Null));
            fields.push(("advice_tree_bits".to_string(), Json::Null));
            fields.push(("advice_dag_bits".to_string(), Json::Null));
            fields.push(("classes_expanded".to_string(), Json::Null));
            fields.push(("paths_explored".to_string(), Json::Null));
            fields.push(("wire_codec".to_string(), Json::Null));
            fields.push(("wire_cap".to_string(), Json::Null));
            fields.push(("wire_bits".to_string(), Json::Null));
            fields.push(("wire_round_bits".to_string(), Json::Null));
            fields.push(("wire_edge_bits".to_string(), Json::Null));
            fields.push(("wall_ms".to_string(), Json::Null));
            fields.push(("leader".to_string(), Json::Null));
            fields.push(("error".to_string(), Json::str(e.to_string())));
        }
    }
    Json::Object(fields)
}

/// Run the selected scenarios of `registry` and write `BENCH_workloads_<label>.json`
/// into `config.out_dir`. Returns the outcome summary; IO failures (only) are errors.
pub fn run_sweep(
    registry: &ScenarioRegistry,
    config: &SweepConfig,
) -> std::io::Result<SweepOutcome> {
    let started = Instant::now();
    let selected: Vec<&Scenario> = match &config.filter {
        Some(f) => registry.select(f),
        None => registry.iter().collect(),
    };

    // Scenarios are grid points over a small set of family coordinates: the built-in
    // grids revisit each family once per task, solver and backend. Materialise each
    // family's instances once per (family, cap) coordinate and run every scenario
    // against the borrowed instances, instead of regenerating (and re-shuffling) the
    // graphs per scenario. The family half of the key is `instance_cache_key` (which
    // pins down every generation parameter, unlike the display name); the cap is part
    // of the key because some families (e.g. `UClass`) *spread* member indices across
    // the class, so different caps select different — not merely fewer — members.
    let mut instance_cache: HashMap<(String, usize), Vec<anet_constructions::FamilyInstance>> =
        HashMap::new();
    for scenario in &selected {
        let key = (scenario.family.instance_cache_key(), scenario.max_instances);
        instance_cache
            .entry(key)
            .or_insert_with(|| scenario.materialize());
    }

    // Fan the scenarios out over the work-stealing pool. `run_indexed` returns
    // rows in job (= scenario) order whatever thread ran what, so the emitted
    // cells — and hence the JSON, modulo timing fields — are independent of
    // `jobs`. With more than one job, each run gets a thread budget of its job's
    // fair share of the machine, so a scenario on a parallel backend cannot
    // oversubscribe the cores the other jobs are using (backend labels are
    // budget-independent, keeping report keys stable).
    let jobs = config.jobs.max(1);
    let per_job_budget = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .div_ceil(jobs);
    let profiled = config.trace_dir.is_some();
    let (rows_per_scenario, _pool_stats) = anet_sim::run_indexed(jobs, selected.len(), |i| {
        let scenario = selected[i];
        let key = (scenario.family.instance_cache_key(), scenario.max_instances);
        let mut election = scenario.election();
        if jobs > 1 {
            election = election.thread_budget(per_job_budget);
        }
        if profiled {
            election = election.profiled();
        }
        // The cache holds `materialize()` of this scenario's (family, cap)
        // coordinate: at most `max_instances` graphs.
        election.sweep(&scenario.family.family_name(), &instance_cache[&key])
    });

    let mut cells = Vec::new();
    let mut solved = 0usize;
    let mut unsolved = 0usize;
    let mut trace = profiled.then(|| TraceFile::new(&config.label));
    for (scenario, rows) in selected.iter().zip(&rows_per_scenario) {
        let scenario_solved = rows.iter().filter(|r| r.solved()).count();
        if config.verbose {
            println!(
                "  {:<60} {}/{} solved",
                scenario.name(),
                scenario_solved,
                rows.len()
            );
        }
        for row in rows {
            if row.solved() {
                solved += 1;
            } else {
                unsolved += 1;
            }
            // Serialise the cell's round profile into the trace artifact under the
            // cell's index as trace id (ids are assigned in output order, so they
            // are deterministic at any `jobs` count). Errored cells have no
            // report, hence no run — their ids simply do not occur in the file.
            if let Some(trace) = &mut trace {
                if let Some(profile) = row
                    .report
                    .as_ref()
                    .ok()
                    .and_then(|r| r.round_profile.as_ref())
                {
                    let report = row.report.as_ref().expect("profile implies a report");
                    let id = cells.len() as u64;
                    let mut events = Vec::with_capacity(profile.len() * 5 + 2);
                    events.push(TraceEvent::RunStart {
                        trace_id: id,
                        nodes: row.nodes as u64,
                        rounds: report.rounds as u64,
                    });
                    events.extend(profile.to_events(id));
                    events.push(TraceEvent::RunEnd {
                        trace_id: id,
                        rounds: report.rounds as u64,
                        messages: report.messages_delivered as u64,
                    });
                    trace.push_run(
                        id,
                        format!("{} · {}", scenario.name(), row.instance),
                        events,
                    );
                }
            }
            cells.push(cell_json(scenario, row));
        }
    }

    let wall = started.elapsed();
    let num_cells = cells.len();
    let generated_unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as i64)
        .unwrap_or(0);
    let document = Json::Object(vec![
        ("schema".to_string(), Json::str(SCHEMA)),
        ("label".to_string(), Json::str(&config.label)),
        (
            "generated_unix_ms".to_string(),
            Json::Int(generated_unix_ms),
        ),
        ("scenarios".to_string(), Json::count(selected.len())),
        (
            "summary".to_string(),
            Json::Object(vec![
                ("cells".to_string(), Json::count(num_cells)),
                ("solved".to_string(), Json::count(solved)),
                ("unsolved".to_string(), Json::count(unsolved)),
                (
                    "total_wall_ms".to_string(),
                    Json::Float(wall.as_secs_f64() * 1e3),
                ),
            ]),
        ),
        ("cells".to_string(), Json::Array(cells)),
    ]);

    std::fs::create_dir_all(&config.out_dir)?;
    let json_path = config
        .out_dir
        .join(format!("BENCH_workloads_{}.json", sanitize(&config.label)));
    std::fs::write(&json_path, document.render_pretty())?;

    let trace_path = match (&trace, &config.trace_dir) {
        (Some(trace), Some(dir)) => {
            let path = dir.join(format!("TRACE_workloads_{}.jsonl", sanitize(&config.label)));
            trace.write(&path)?;
            Some(path)
        }
        _ => None,
    };

    Ok(SweepOutcome {
        json_path,
        trace_path,
        scenarios: selected.len(),
        cells: num_cells,
        solved,
        unsolved,
        wall,
    })
}

/// Keep file names portable: labels become `[a-zA-Z0-9_-]` only.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Read an emitted `BENCH_*.json` back (used by tests and tooling to assert
/// well-formedness without an external JSON library).
pub fn read_bench_json(path: &Path) -> std::io::Result<Json> {
    let text = std::fs::read_to_string(path)?;
    Json::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// A copy of a bench document with every timing field (`wall_ms`,
/// `total_wall_ms`, `generated_unix_ms`) replaced by `0`, leaving only the
/// deterministic content. Two sweeps of the same grid — at any
/// [`jobs`](SweepConfig::jobs) count — render byte-identically after
/// normalisation; the bench-diff tooling and the `--jobs` determinism tests
/// compare through this.
pub fn normalized_for_diff(doc: &Json) -> Json {
    const TIMING_KEYS: [&str; 3] = ["wall_ms", "total_wall_ms", "generated_unix_ms"];
    match doc {
        Json::Object(fields) => Json::Object(
            fields
                .iter()
                .map(|(key, value)| {
                    let value = if TIMING_KEYS.contains(&key.as_str()) {
                        Json::Int(0)
                    } else {
                        normalized_for_diff(value)
                    };
                    (key.clone(), value)
                })
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(normalized_for_diff).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::RandomRegularFamily;
    use crate::scenario::SolverSpec;
    use anet_election::engine::{Backend, ViewCodec};
    use anet_election::tasks::Task;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("anet-workloads-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sweep_emits_well_formed_versioned_json() {
        let mut registry = ScenarioRegistry::new();
        registry
            .register(Scenario::new(
                RandomRegularFamily::new(3, vec![16], 0xA5EED),
                Task::Selection,
                SolverSpec::Map,
                Backend::Sequential,
                1,
            ))
            .unwrap();
        let config = SweepConfig {
            out_dir: tmp_dir("emit"),
            label: "unit test".to_string(),
            ..SweepConfig::default()
        };
        let outcome = run_sweep(&registry, &config).unwrap();
        assert_eq!(outcome.scenarios, 1);
        assert_eq!(outcome.cells, 1);
        assert_eq!(outcome.solved, 1);
        // The label is sanitised into the file name.
        assert!(outcome
            .json_path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("BENCH_workloads_unit_test"));

        let doc = read_bench_json(&outcome.json_path).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let cells = doc.get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        assert_eq!(cell.get("nodes").and_then(Json::as_int), Some(16));
        assert_eq!(cell.get("task").and_then(Json::as_str), Some("S"));
        assert_eq!(cell.get("solved"), Some(&Json::Bool(true)));
        assert_eq!(cell.get("error"), Some(&Json::Null));
        // v2 fields are always present; the map solver has no encoded-view advice.
        assert_eq!(cell.get("advice_tree_bits"), Some(&Json::Null));
        assert_eq!(cell.get("advice_dag_bits"), Some(&Json::Null));
        // v3 fields: the map solver searched for a PE-class assignment, so the
        // search counters are present and non-null (classes may legitimately be 0
        // for Selection, which needs no assignment beyond the unique view).
        assert!(cell
            .get("classes_expanded")
            .and_then(Json::as_int)
            .is_some());
        assert!(cell.get("paths_explored").and_then(Json::as_int).is_some());
        let _ = std::fs::remove_dir_all(&config.out_dir);
    }

    #[test]
    fn advice_scenarios_record_both_codec_sizes_per_cell() {
        for (spec, shipped_key) in [
            (SolverSpec::MinTimeAdvice, "advice_tree_bits"),
            (SolverSpec::MinTimeAdviceDag, "advice_dag_bits"),
        ] {
            let mut registry = ScenarioRegistry::new();
            registry
                .register(Scenario::new(
                    RandomRegularFamily::new(3, vec![16], 0xA5EED),
                    Task::Selection,
                    spec,
                    Backend::Sequential,
                    1,
                ))
                .unwrap();
            let config = SweepConfig {
                out_dir: tmp_dir(&format!("codec-{}", spec.label())),
                label: spec.label().to_string(),
                ..SweepConfig::default()
            };
            let outcome = run_sweep(&registry, &config).unwrap();
            let doc = read_bench_json(&outcome.json_path).unwrap();
            let cell = &doc.get("cells").and_then(Json::as_array).unwrap()[0];
            let tree = cell.get("advice_tree_bits").and_then(Json::as_int);
            let dag = cell.get("advice_dag_bits").and_then(Json::as_int);
            let shipped = cell.get("advice_bits").and_then(Json::as_int);
            assert!(tree.is_some() && dag.is_some(), "{spec:?}");
            // Whatever codec the scenario ships, the shipped size is that codec's.
            assert_eq!(shipped, cell.get(shipped_key).and_then(Json::as_int));
            let _ = std::fs::remove_dir_all(&config.out_dir);
        }
    }

    #[test]
    fn parser_reads_archived_v1_files() {
        // A v1-era cell (no advice_tree_bits / advice_dag_bits): the general parser
        // accepts it and the absent keys look up as None — tooling that trends old
        // BENCH files against new ones keeps working.
        let v1 = r#"{
          "schema": "anet-workloads/v1",
          "label": "archive",
          "cells": [
            {"scenario": "torus2d/S/map/seq", "nodes": 9, "solved": true,
             "advice_bits": null, "error": null}
          ]
        }"#;
        let doc = Json::parse(v1).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("anet-workloads/v1")
        );
        let cell = &doc.get("cells").and_then(Json::as_array).unwrap()[0];
        assert_eq!(cell.get("nodes").and_then(Json::as_int), Some(9));
        assert_eq!(cell.get("advice_tree_bits"), None);
        assert_eq!(cell.get("advice_dag_bits"), None);
    }

    #[test]
    fn parser_reads_archived_v2_files() {
        // A v2-era cell (no classes_expanded / paths_explored): the general parser
        // accepts it and the absent v3 counters look up as None, so bench-diff
        // tooling can trend archived v2 files against fresh v3 ones.
        let v2 = r#"{
          "schema": "anet-workloads/v2",
          "label": "archive",
          "cells": [
            {"scenario": "rr3/PPE/map/seq", "nodes": 16, "solved": true,
             "advice_bits": null, "advice_tree_bits": null, "advice_dag_bits": null,
             "error": null}
          ]
        }"#;
        let doc = Json::parse(v2).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("anet-workloads/v2")
        );
        let cell = &doc.get("cells").and_then(Json::as_array).unwrap()[0];
        assert_eq!(cell.get("nodes").and_then(Json::as_int), Some(16));
        assert_eq!(cell.get("advice_tree_bits"), Some(&Json::Null));
        assert_eq!(cell.get("classes_expanded"), None);
        assert_eq!(cell.get("paths_explored"), None);
    }

    #[test]
    fn parser_reads_archived_v3_files() {
        // A v3-era cell (no wire_* fields): the general parser accepts it and the
        // absent v4 fields look up as None, so bench-diff tooling can trend
        // archived v3 files against fresh v4 ones.
        let v3 = r#"{
          "schema": "anet-workloads/v3",
          "label": "archive",
          "cells": [
            {"scenario": "rr3/S/map/seq", "nodes": 16, "solved": true,
             "advice_bits": null, "advice_tree_bits": null, "advice_dag_bits": null,
             "classes_expanded": 0, "paths_explored": 0, "error": null}
          ]
        }"#;
        let doc = Json::parse(v3).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("anet-workloads/v3")
        );
        let cell = &doc.get("cells").and_then(Json::as_array).unwrap()[0];
        assert_eq!(cell.get("classes_expanded").and_then(Json::as_int), Some(0));
        assert_eq!(cell.get("wire_codec"), None);
        assert_eq!(cell.get("wire_cap"), None);
        assert_eq!(cell.get("wire_bits"), None);
        assert_eq!(cell.get("wire_round_bits"), None);
        assert_eq!(cell.get("wire_edge_bits"), None);
    }

    #[test]
    fn metered_cells_record_wire_fields_and_capped_cells_record_the_cap() {
        let mut registry = ScenarioRegistry::new();
        registry
            .register(
                Scenario::new(
                    RandomRegularFamily::new(3, vec![16], 0xA5EED),
                    Task::Selection,
                    SolverSpec::Map,
                    Backend::Sequential,
                    1,
                )
                .metered(ViewCodec::Dag),
            )
            .unwrap();
        registry
            .register(Scenario::new(
                RandomRegularFamily::new(3, vec![16], 0xA5EED),
                Task::Selection,
                SolverSpec::Map,
                Backend::capped(32),
                1,
            ))
            .unwrap();
        let config = SweepConfig {
            out_dir: tmp_dir("wire"),
            label: "wire".to_string(),
            ..SweepConfig::default()
        };
        let outcome = run_sweep(&registry, &config).unwrap();
        assert_eq!(outcome.cells, 2);
        assert_eq!(outcome.solved, 2);
        let doc = read_bench_json(&outcome.json_path).unwrap();
        let cells = doc.get("cells").and_then(Json::as_array).unwrap();
        let sum = |cell: &Json, key: &str| {
            cell.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|j| Json::as_int(j).unwrap())
                .sum::<i64>()
        };
        let metered = &cells[0];
        assert_eq!(
            metered.get("wire_codec").and_then(Json::as_str),
            Some("dag")
        );
        assert_eq!(metered.get("wire_cap"), Some(&Json::Null));
        let total = metered.get("wire_bits").and_then(Json::as_int).unwrap();
        assert!(total > 0);
        // Both breakdowns reconcile with the total.
        assert_eq!(sum(metered, "wire_round_bits"), total);
        assert_eq!(sum(metered, "wire_edge_bits"), total);
        // The capped cell is metered implicitly (default codec), records its cap,
        // ships the same bits, and pays for the cap in physical rounds.
        let capped = &cells[1];
        assert_eq!(capped.get("wire_codec").and_then(Json::as_str), Some("dag"));
        assert_eq!(capped.get("wire_cap").and_then(Json::as_int), Some(32));
        assert_eq!(capped.get("wire_bits").and_then(Json::as_int), Some(total));
        assert!(
            capped.get("rounds").and_then(Json::as_int).unwrap()
                >= metered.get("rounds").and_then(Json::as_int).unwrap()
        );
        let _ = std::fs::remove_dir_all(&config.out_dir);
    }

    #[test]
    fn sweep_records_infeasible_cells_instead_of_failing() {
        use crate::families::TorusFamily;
        let mut registry = ScenarioRegistry::new();
        // Canonical torus: fully symmetric, infeasible for election.
        registry
            .register(Scenario::new(
                TorusFamily::new(vec![(3, 3)]),
                Task::Selection,
                SolverSpec::Map,
                Backend::Sequential,
                1,
            ))
            .unwrap();
        let config = SweepConfig {
            out_dir: tmp_dir("infeasible"),
            label: "infeasible".to_string(),
            ..SweepConfig::default()
        };
        let outcome = run_sweep(&registry, &config).unwrap();
        assert_eq!(outcome.cells, 1);
        assert_eq!(outcome.solved, 0);
        assert_eq!(outcome.unsolved, 1);
        let doc = read_bench_json(&outcome.json_path).unwrap();
        let cell = &doc.get("cells").and_then(Json::as_array).unwrap()[0];
        assert_eq!(cell.get("solved"), Some(&Json::Bool(false)));
        assert!(cell.get("error").and_then(Json::as_str).is_some());
        let _ = std::fs::remove_dir_all(&config.out_dir);
    }

    #[test]
    fn instance_cache_distinguishes_same_named_families_with_different_sizes() {
        // Two RandomRegular families share a display name (it omits the size list)
        // but generate different graphs; the sweep's instance cache must key on
        // `instance_cache_key`, not the name, or the second scenario would silently
        // run the first scenario's graphs.
        let mut registry = ScenarioRegistry::new();
        registry
            .register(Scenario::new(
                RandomRegularFamily::new(3, vec![16], 0xA5EED),
                Task::Selection,
                SolverSpec::Map,
                Backend::Sequential,
                1,
            ))
            .unwrap();
        registry
            .register(Scenario::new(
                RandomRegularFamily::new(3, vec![24], 0xA5EED),
                Task::PortElection,
                SolverSpec::Map,
                Backend::Sequential,
                1,
            ))
            .unwrap();
        let config = SweepConfig {
            out_dir: tmp_dir("cache-key"),
            label: "cache key".to_string(),
            ..SweepConfig::default()
        };
        let outcome = run_sweep(&registry, &config).unwrap();
        assert_eq!(outcome.cells, 2);
        let doc = read_bench_json(&outcome.json_path).unwrap();
        let cells = doc.get("cells").and_then(Json::as_array).unwrap();
        let nodes: Vec<i64> = cells
            .iter()
            .map(|c| c.get("nodes").and_then(Json::as_int).unwrap())
            .collect();
        assert_eq!(nodes, vec![16, 24]);
        let _ = std::fs::remove_dir_all(&config.out_dir);
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential_after_normalisation() {
        use crate::families::{HypercubeFamily, TorusFamily};
        // A small grid that still spans families, shades, solvers and backends —
        // including parallel backends, whose threads the per-job budget caps.
        let registry = || {
            let mut registry = ScenarioRegistry::new();
            let scenarios = [
                (Task::Selection, SolverSpec::Map, Backend::Sequential),
                (Task::PortElection, SolverSpec::Map, Backend::parallel(2)),
                (
                    Task::Selection,
                    SolverSpec::MinTimeAdviceDag,
                    Backend::Batching,
                ),
            ];
            for (task, solver, backend) in scenarios {
                registry
                    .register(Scenario::new(
                        RandomRegularFamily::new(3, vec![16, 24], 0xA5EED),
                        task,
                        solver,
                        backend,
                        2,
                    ))
                    .unwrap();
                registry
                    .register(Scenario::new(
                        TorusFamily::new(vec![(3, 4), (4, 4)]).shuffled(41),
                        task,
                        solver,
                        backend,
                        2,
                    ))
                    .unwrap();
            }
            registry
                .register(Scenario::new(
                    HypercubeFamily::new(vec![3]).shuffled(41),
                    Task::Selection,
                    SolverSpec::Map,
                    Backend::AdaptiveParallel,
                    1,
                ))
                .unwrap();
            // Metered and capped scenarios: the wire meter's bit counts (arrays
            // included) must also be deterministic at any jobs count.
            registry
                .register(
                    Scenario::new(
                        RandomRegularFamily::new(3, vec![16, 24], 0xA5EED),
                        Task::Selection,
                        SolverSpec::Map,
                        Backend::Sequential,
                        2,
                    )
                    .metered(ViewCodec::Delta),
                )
                .unwrap();
            registry
                .register(Scenario::new(
                    RandomRegularFamily::new(3, vec![16], 0xA5EED),
                    Task::Selection,
                    SolverSpec::Map,
                    Backend::capped(32),
                    1,
                ))
                .unwrap();
            registry
        };
        let run = |jobs: usize| {
            let config = SweepConfig {
                out_dir: tmp_dir(&format!("jobs-{jobs}")),
                label: format!("jobs {jobs}"),
                jobs,
                ..SweepConfig::default()
            };
            let outcome = run_sweep(&registry(), &config).unwrap();
            let doc = read_bench_json(&outcome.json_path).unwrap();
            let _ = std::fs::remove_dir_all(&config.out_dir);
            (outcome, normalized_for_diff(&doc))
        };
        let (outcome_seq, mut doc_seq) = run(1);
        let (outcome_par, doc_par) = run(4);
        assert_eq!(outcome_seq.cells, outcome_par.cells);
        assert_eq!(outcome_seq.solved, outcome_par.solved);
        assert_eq!(outcome_seq.unsolved, outcome_par.unsolved);
        // The labels differ ("jobs 1" vs "jobs 4") by construction; align them and
        // require everything else to render byte-identically.
        if let Json::Object(fields) = &mut doc_seq {
            for (key, value) in fields.iter_mut() {
                if key == "label" {
                    *value = Json::str("jobs 4");
                }
            }
        }
        assert_eq!(doc_seq.render_pretty(), doc_par.render_pretty());
    }

    #[test]
    fn normalisation_zeroes_exactly_the_timing_fields() {
        let doc = Json::Object(vec![
            ("wall_ms".to_string(), Json::Float(12.5)),
            ("solved".to_string(), Json::Bool(true)),
            (
                "summary".to_string(),
                Json::Object(vec![
                    ("total_wall_ms".to_string(), Json::Float(99.0)),
                    ("cells".to_string(), Json::Int(3)),
                ]),
            ),
            (
                "cells".to_string(),
                Json::Array(vec![Json::Object(vec![(
                    "wall_ms".to_string(),
                    Json::Null,
                )])]),
            ),
            ("generated_unix_ms".to_string(), Json::Int(1_700_000_000)),
        ]);
        let normalized = normalized_for_diff(&doc);
        assert_eq!(normalized.get("wall_ms"), Some(&Json::Int(0)));
        assert_eq!(normalized.get("solved"), Some(&Json::Bool(true)));
        assert_eq!(normalized.get("generated_unix_ms"), Some(&Json::Int(0)));
        let summary = normalized.get("summary").unwrap();
        assert_eq!(summary.get("total_wall_ms"), Some(&Json::Int(0)));
        assert_eq!(summary.get("cells"), Some(&Json::Int(3)));
        let cell = &normalized.get("cells").and_then(Json::as_array).unwrap()[0];
        assert_eq!(cell.get("wall_ms"), Some(&Json::Int(0)));
    }

    #[test]
    fn trace_dir_emits_an_artifact_and_leaves_bench_json_byte_identical() {
        use crate::families::TorusFamily;
        use crate::trace_io::read_trace;
        use anet_trace::{RoundProfile, TraceEvent};
        // A grid mixing solved cells, an advice solver, and an infeasible family
        // (canonical torus) whose cells error and therefore carry no trace run.
        let registry = || {
            let mut registry = ScenarioRegistry::new();
            registry
                .register(Scenario::new(
                    RandomRegularFamily::new(3, vec![16, 24], 0xA5EED),
                    Task::Selection,
                    SolverSpec::Map,
                    Backend::Batching,
                    2,
                ))
                .unwrap();
            registry
                .register(Scenario::new(
                    RandomRegularFamily::new(3, vec![16], 0xA5EED),
                    Task::Selection,
                    SolverSpec::MinTimeAdviceDag,
                    Backend::Sequential,
                    1,
                ))
                .unwrap();
            registry
                .register(Scenario::new(
                    TorusFamily::new(vec![(3, 3)]),
                    Task::Selection,
                    SolverSpec::Map,
                    Backend::Sequential,
                    1,
                ))
                .unwrap();
            registry
        };
        let run = |trace: bool| {
            let tag = if trace { "trace-on" } else { "trace-off" };
            let out_dir = tmp_dir(tag);
            let config = SweepConfig {
                out_dir: out_dir.clone(),
                label: "tracing".to_string(),
                trace_dir: trace.then(|| out_dir.clone()),
                ..SweepConfig::default()
            };
            let outcome = run_sweep(&registry(), &config).unwrap();
            let doc = read_bench_json(&outcome.json_path).unwrap();
            let artifact = outcome.trace_path.as_ref().map(|p| read_trace(p).unwrap());
            let _ = std::fs::remove_dir_all(&out_dir);
            (doc, artifact)
        };

        let (doc_off, no_artifact) = run(false);
        assert!(no_artifact.is_none());
        let (doc_on, artifact) = run(true);
        // The NoopSink guarantee, end to end: the BENCH JSON is byte-identical
        // whether or not the trace artifact was recorded alongside it.
        assert_eq!(
            normalized_for_diff(&doc_off).render_pretty(),
            normalized_for_diff(&doc_on).render_pretty()
        );

        let artifact = artifact.unwrap();
        assert_eq!(artifact.label, "tracing");
        let cells = doc_on.get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(cells.len(), 4);
        // Three cells produced reports (the torus cell errored): three trace runs,
        // ids = cell indices, per-round message sums equal the cell's messages.
        assert_eq!(artifact.runs.len(), 3);
        for run in &artifact.runs {
            let cell = &cells[run.id as usize];
            let profile = RoundProfile::for_trace(&run.events, run.id);
            assert_eq!(
                profile.total_messages(),
                cell.get("messages").and_then(Json::as_int).unwrap() as u64,
                "run {}",
                run.name
            );
            assert_eq!(profile.len() as i64, {
                cell.get("rounds").and_then(Json::as_int).unwrap()
            });
            // The run is framed by RunStart/RunEnd carrying the report totals.
            assert!(matches!(
                run.events.first(),
                Some(TraceEvent::RunStart { nodes, .. })
                    if *nodes == cell.get("nodes").and_then(Json::as_int).unwrap() as u64
            ));
            assert!(matches!(
                run.events.last(),
                Some(TraceEvent::RunEnd { messages, .. })
                    if *messages == profile.total_messages()
            ));
        }
        // The errored cell's id never occurs in the artifact.
        let errored: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.get("error").and_then(Json::as_str).is_some())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(errored.len(), 1);
        assert!(artifact.runs.iter().all(|r| r.id != errored[0] as u64));
    }

    #[test]
    fn filter_narrows_the_selection() {
        let registry = ScenarioRegistry::smoke();
        // Filter on one exact scenario name taken from the registry itself.
        let name = registry
            .names()
            .iter()
            .find(|n| n.contains("hypercube") && n.ends_with("/S/map/seq"))
            .unwrap()
            .to_string();
        let config = SweepConfig {
            out_dir: tmp_dir("filter"),
            filter: Some(name),
            label: "filtered".to_string(),
            ..SweepConfig::default()
        };
        let outcome = run_sweep(&registry, &config).unwrap();
        assert_eq!(outcome.scenarios, 1);
        assert!(outcome.cells >= 1);
        let _ = std::fs::remove_dir_all(&config.out_dir);
    }
}
