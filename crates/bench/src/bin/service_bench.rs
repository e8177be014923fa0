//! `service_bench` — drive the multi-tenant election service with a deterministic
//! request mix and emit `BENCH_service_*.json` (schema [`SCHEMA`] = `anet-service/v1`).
//!
//! The bench runs the same mix twice — once on a single worker, once on the full
//! pool — so every emitted file carries its own pooled speedup measurement
//! alongside throughput (elections/sec), latency order statistics (p50/p95/p99),
//! scheduler health (per-worker execution counts, peak queue depth) and the
//! shared interner's cross-tenant hit rate. Each run's `steals` key reads 0: the
//! service schedules from one shared queue.
//!
//! ```text
//! cargo run --release -p anet-bench --bin service_bench -- --smoke
//! cargo run --release -p anet-bench --bin service_bench -- --requests 2000 --workers 8
//! cargo run --release -p anet-bench --bin service_bench -- --smoke --baseline crates/bench/baselines/service_smoke.json
//! ```
//!
//! With `--baseline FILE` the bench compares its pooled elections/sec against the
//! baseline file's and exits non-zero on a regression of more than 25% — the CI
//! perf gate.

use anet_service::{ElectionRequest, ElectionService, ServiceConfig, ServiceReport, SolverRecipe};
use anet_trace::Recorder;
use anet_workloads::json::Json;
use anet_workloads::service_mix::{self, MixRequest};
use anet_workloads::TraceFile;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// The schema tag of every emitted service-bench file.
const SCHEMA: &str = "anet-service/v1";

/// Largest tolerated drop of pooled elections/sec against `--baseline`.
const MAX_REGRESSION: f64 = 0.25;

/// Requests in the `--smoke` mix: enough cycles over the tenant instances that
/// the throughput measurement spans tens of milliseconds (a single instance pass
/// is ~9 requests and sub-millisecond — pure timer noise as a CI gate).
const SMOKE_REQUESTS: usize = 512;

/// Timed runs per worker count; the best (highest elections/sec) is reported,
/// the standard flakiness shield for a CI perf gate on shared runners.
const RUNS_PER_CONFIG: usize = 3;

const USAGE: &str = "\
usage: service_bench [--smoke] [--requests N] [--workers N] [--out DIR]
                     [--baseline FILE] [--trace-dir DIR]

  --smoke         run the CI-sized smoke mix (512 requests, best of 3 runs)
  --requests N    size of the full mix (default: 1000; ignored with --smoke)
  --workers N     pooled worker count (default: the service default, at least 4,
                  so several workers share the queue even on small machines;
                  a 1-worker baseline run always happens too)
  --out DIR       directory for the emitted BENCH_service_*.json (default: .)
  --baseline F    compare pooled elections/sec against F; exit non-zero if it
                  regressed by more than 25%
  --trace-dir D   after the timed runs, run the pooled mix once more with a
                  trace recorder attached and write the per-request round-level
                  event stream to D as TRACE_service_<label>.jsonl (schema
                  anet-trace/v2; render with trace_report). The extra run keeps
                  the timed measurements and the --baseline gate untouched
";

fn to_request(mix: MixRequest) -> ElectionRequest {
    let spec = mix.solver;
    ElectionRequest::new(
        mix.tenant,
        mix.name,
        mix.graph,
        mix.task,
        SolverRecipe::new(spec.label(), Box::new(move || spec.build())),
        mix.backend,
    )
}

fn ms(d: Duration) -> Json {
    Json::Float(d.as_secs_f64() * 1e3)
}

/// One service run rendered as a JSON object.
fn run_json(report: &ServiceReport) -> Json {
    Json::Object(vec![
        ("workers".to_string(), Json::count(report.workers)),
        (
            "thread_budget".to_string(),
            Json::count(report.thread_budget),
        ),
        ("submitted".to_string(), Json::Int(report.submitted as i64)),
        ("solved".to_string(), Json::Int(report.solved as i64)),
        ("unsolved".to_string(), Json::Int(report.unsolved() as i64)),
        ("failed".to_string(), Json::Int(report.failed as i64)),
        ("rejected".to_string(), Json::Int(report.rejected as i64)),
        ("wall_ms".to_string(), ms(report.wall)),
        (
            "elections_per_sec".to_string(),
            Json::Float(report.elections_per_sec),
        ),
        (
            "turnaround_p50_ms".to_string(),
            ms(report.turnaround_latency.p50),
        ),
        (
            "turnaround_p95_ms".to_string(),
            ms(report.turnaround_latency.p95),
        ),
        (
            "turnaround_p99_ms".to_string(),
            ms(report.turnaround_latency.p99),
        ),
        (
            "turnaround_mean_ms".to_string(),
            ms(report.turnaround_latency.mean),
        ),
        ("queue_p50_ms".to_string(), ms(report.queue_latency.p50)),
        ("queue_p99_ms".to_string(), ms(report.queue_latency.p99)),
        (
            "max_queue_depth".to_string(),
            Json::count(report.max_queue_depth),
        ),
        ("steals".to_string(), Json::Int(report.steals as i64)),
        (
            "executed_per_worker".to_string(),
            Json::Array(
                report
                    .executed_per_worker
                    .iter()
                    .map(|&n| Json::Int(n as i64))
                    .collect(),
            ),
        ),
        (
            "interner".to_string(),
            Json::Object(vec![
                ("hits".to_string(), Json::Int(report.interner.hits as i64)),
                (
                    "misses".to_string(),
                    Json::Int(report.interner.misses as i64),
                ),
                (
                    "distinct_subtrees".to_string(),
                    Json::Int(report.interner.distinct_subtrees as i64),
                ),
                (
                    "hit_rate".to_string(),
                    Json::Float(report.interner.hit_rate()),
                ),
            ]),
        ),
        (
            "tenants".to_string(),
            Json::Array(
                report
                    .tenants
                    .iter()
                    .map(|t| {
                        Json::Object(vec![
                            ("tenant".to_string(), Json::str(&t.tenant)),
                            ("executed".to_string(), Json::Int(t.executed as i64)),
                            ("solved".to_string(), Json::Int(t.solved as i64)),
                            ("failed".to_string(), Json::Int(t.failed as i64)),
                            (
                                "turnaround_p50_ms".to_string(),
                                ms(t.turnaround_latency.p50),
                            ),
                            (
                                "turnaround_p95_ms".to_string(),
                                ms(t.turnaround_latency.p95),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Pull the pooled elections/sec out of an emitted (or baseline) document: the
/// top-level `pooled_elections_per_sec` field.
fn pooled_eps(doc: &Json) -> Option<f64> {
    match doc.get("pooled_elections_per_sec") {
        Some(Json::Float(v)) => Some(*v),
        Some(Json::Int(v)) => Some(*v as f64),
        _ => None,
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut requests = 1000usize;
    let mut workers = ServiceConfig::default().workers.max(4);
    let mut out_dir = PathBuf::from(".");
    let mut baseline: Option<PathBuf> = None;
    let mut trace_dir: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--requests" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => requests = n,
                _ => {
                    eprintln!("--requests needs a positive integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--workers" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => workers = n,
                _ => {
                    eprintln!("--workers needs a positive integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--baseline" => match args.next() {
                Some(file) => baseline = Some(PathBuf::from(file)),
                None => {
                    eprintln!("--baseline needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--trace-dir" => match args.next() {
                Some(dir) => trace_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--trace-dir needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let label = if smoke { "smoke" } else { "full" };
    let mix = service_mix::mix(if smoke { SMOKE_REQUESTS } else { requests });
    let tenants: BTreeSet<String> = mix.iter().map(|r| r.tenant.clone()).collect();
    println!(
        "service_bench: {} mix — {} requests across {} tenants",
        label,
        mix.len(),
        tenants.len()
    );

    // Same mix on one worker, then on the pool: the single-worker run is the
    // speedup denominator every emitted file carries. Each configuration is
    // timed `RUNS_PER_CONFIG` times and the best run reported.
    let mut runs: Vec<(usize, ServiceReport)> = Vec::new();
    for pool in [1, workers] {
        if pool == 1 && !runs.is_empty() {
            break; // --workers 1: one run is both numerator and denominator.
        }
        let mut best: Option<ServiceReport> = None;
        for _ in 0..RUNS_PER_CONFIG {
            let requests: Vec<ElectionRequest> = mix.iter().cloned().map(to_request).collect();
            let (completed, report) =
                ElectionService::run_batch(ServiceConfig::with_workers(pool), requests);
            assert_eq!(completed.len() as u64, report.submitted);
            if best
                .as_ref()
                .is_none_or(|b| report.elections_per_sec > b.elections_per_sec)
            {
                best = Some(report);
            }
        }
        let report = best.expect("at least one timed run");
        println!("  workers={pool}: {}", report.summary());
        runs.push((pool, report));
    }
    let single = &runs[0].1;
    let pooled = &runs[runs.len() - 1].1;
    let speedup = if single.elections_per_sec > 0.0 {
        pooled.elections_per_sec / single.elections_per_sec
    } else {
        0.0
    };
    println!(
        "service_bench: {:.1} elections/s on {} workers vs {:.1} on 1 — speedup {speedup:.2}x",
        pooled.elections_per_sec, pooled.workers, single.elections_per_sec
    );

    let generated_unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as i64)
        .unwrap_or(0);
    let document = Json::Object(vec![
        ("schema".to_string(), Json::str(SCHEMA)),
        ("label".to_string(), Json::str(label)),
        (
            "generated_unix_ms".to_string(),
            Json::Int(generated_unix_ms),
        ),
        ("requests".to_string(), Json::count(mix.len())),
        ("tenants".to_string(), Json::count(tenants.len())),
        (
            "pooled_elections_per_sec".to_string(),
            Json::Float(pooled.elections_per_sec),
        ),
        ("speedup_vs_single_worker".to_string(), Json::Float(speedup)),
        (
            "runs".to_string(),
            Json::Array(runs.iter().map(|(_, r)| run_json(r)).collect()),
        ),
    ]);

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("service_bench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let json_path = out_dir.join(format!("BENCH_service_{label}.json"));
    if let Err(e) = std::fs::write(&json_path, document.render_pretty()) {
        eprintln!("service_bench: cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    println!("service_bench: wrote {}", json_path.display());

    // One extra pooled run with a trace recorder attached: per-request engine
    // events stamped with the request id, plus the scheduler's worker-execute
    // events. Kept out of the timed runs so the recorder's overhead can never
    // tilt the --baseline gate.
    if let Some(trace_dir) = trace_dir {
        let recorder = Arc::new(Recorder::new());
        let config = ServiceConfig {
            trace_sink: Some(recorder.clone()),
            ..ServiceConfig::with_workers(pooled.workers)
        };
        let requests: Vec<ElectionRequest> = mix.iter().cloned().map(to_request).collect();
        let (completed, _) = ElectionService::run_batch(config, requests);
        let events = recorder.drain();
        let mut trace = TraceFile::new(label);
        for election in &completed {
            let run_events: Vec<_> = events
                .iter()
                .copied()
                .filter(|e| e.trace_id() == election.id)
                .collect();
            trace.push_run(
                election.id,
                format!("{}/{}", election.tenant, election.name),
                run_events,
            );
        }
        let trace_path = trace_dir.join(format!("TRACE_service_{label}.jsonl"));
        if let Err(e) = trace.write(&trace_path) {
            eprintln!("service_bench: cannot write {}: {e}", trace_path.display());
            return ExitCode::FAILURE;
        }
        println!("service_bench: wrote {}", trace_path.display());
    }

    if let Some(baseline_path) = baseline {
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "service_bench: cannot read baseline {}: {e}",
                    baseline_path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let reference = match Json::parse(&text).ok().as_ref().and_then(pooled_eps) {
            Some(eps) => eps,
            None => {
                eprintln!(
                    "service_bench: baseline {} has no pooled_elections_per_sec",
                    baseline_path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let floor = reference * (1.0 - MAX_REGRESSION);
        println!(
            "service_bench: baseline {:.1} elections/s, floor {:.1}, measured {:.1}",
            reference, floor, pooled.elections_per_sec
        );
        if pooled.elections_per_sec < floor {
            eprintln!(
                "service_bench: REGRESSION — pooled elections/sec fell more than {:.0}% below the baseline",
                MAX_REGRESSION * 100.0
            );
            return ExitCode::FAILURE;
        }
        println!("service_bench: within budget of the baseline");
    }
    ExitCode::SUCCESS
}
