//! `bench_diff` — compare a current `anet-bench/v1` artifact against a committed
//! baseline and fail on regressions. The CI perf-trend gate for the timing
//! benches, complementing `service_bench --baseline` on the service side.
//!
//! ```text
//! bench_diff --baseline crates/bench/baselines/bench_sim_smoke.json \
//!            --current bench-json/BENCH_bench_sim.json
//! ```
//!
//! Exits non-zero when any baseline measurement's mean regressed by more than
//! `--max-regression` (default 25%) or disappeared from the current run, or when
//! any baseline metric (bits, rounds, sizes) changed its value or disappeared.
//! Measurements and metrics new in the current run are listed but never fail.

use anet_bench::diff::{diff, BenchDoc, DEFAULT_MAX_REGRESSION};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: bench_diff --baseline FILE --current FILE [--max-regression R]

  --baseline F        committed anet-bench/v1 document to compare against
  --current F         freshly generated anet-bench/v1 document
  --max-regression R  tolerated fractional slowdown (default: 0.25 = 25%)
";

fn main() -> ExitCode {
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut max_regression = DEFAULT_MAX_REGRESSION;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => match args.next() {
                Some(f) => baseline = Some(PathBuf::from(f)),
                None => {
                    eprintln!("--baseline needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--current" => match args.next() {
                Some(f) => current = Some(PathBuf::from(f)),
                None => {
                    eprintln!("--current needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--max-regression" => match args.next().and_then(|r| r.parse::<f64>().ok()) {
                Some(r) if r >= 0.0 => max_regression = r,
                _ => {
                    eprintln!("--max-regression needs a non-negative number\n{USAGE}");
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
    let (Some(baseline_path), Some(current_path)) = (baseline, current) else {
        eprintln!("both --baseline and --current are required\n{USAGE}");
        return ExitCode::FAILURE;
    };

    let baseline = match BenchDoc::read(&baseline_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench_diff: baseline {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    let current = match BenchDoc::read(&current_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench_diff: current {}: {e}", current_path.display());
            return ExitCode::FAILURE;
        }
    };
    if baseline.bench != current.bench {
        eprintln!(
            "bench_diff: comparing different benches: baseline {:?} vs current {:?}",
            baseline.bench, current.bench
        );
        return ExitCode::FAILURE;
    }

    let report = diff(&baseline, &current, max_regression);
    println!("{}", report.table());
    if report.passed() {
        println!(
            "bench_diff: {} — all {} measurements within budget, all {} metrics unchanged",
            report.bench,
            report.rows.len(),
            report.metrics.len()
        );
        ExitCode::SUCCESS
    } else {
        for row in report.regressions() {
            match row.ratio {
                Some(ratio) => eprintln!(
                    "bench_diff: REGRESSION — {} is {:.2}x the baseline mean",
                    row.id, ratio
                ),
                None => eprintln!(
                    "bench_diff: MISSING — {} is in the baseline but not the current run",
                    row.id
                ),
            }
        }
        for row in report.changed_metrics() {
            match row.current {
                Some(value) => eprintln!(
                    "bench_diff: CHANGED — metric {} is {value}, the baseline has {}",
                    row.id, row.baseline
                ),
                None => eprintln!(
                    "bench_diff: MISSING — metric {} is in the baseline but not the current run",
                    row.id
                ),
            }
        }
        ExitCode::FAILURE
    }
}
