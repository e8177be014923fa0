//! `sweep` — run a scenario grid through the `ElectionEngine` and emit `BENCH_*.json`.
//!
//! ```text
//! cargo run --release -p anet-workloads --bin sweep -- --smoke
//! cargo run --release -p anet-workloads --bin sweep -- --filter torus --out bench-json
//! cargo run --release -p anet-workloads --bin sweep -- --list
//! ```

use anet_workloads::scenario::ScenarioRegistry;
use anet_workloads::sweep::{run_sweep, SweepConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: sweep [--smoke | --standard] [--filter SUBSTRING] [--out DIR] [--jobs N]
             [--trace-dir DIR] [--list]

  --smoke        run the small smoke grid (default: the standard grid)
  --standard     run the standard grid explicitly
  --filter S     only scenarios whose name contains S (case-insensitive)
  --out DIR      directory for the emitted BENCH_*.json (default: .)
  --jobs N       fan scenarios over N worker threads (default: 1; the emitted
                 JSON is byte-identical modulo timing fields at any N)
  --trace-dir D  profile every cell and write an anet-trace/v2 artifact
                 (TRACE_workloads_<label>.jsonl) into D; the BENCH JSON is
                 byte-identical with or without this flag
  --list         print the selected scenario names and exit
";

fn main() -> ExitCode {
    let mut grid = "standard".to_string();
    let mut filter: Option<String> = None;
    let mut out_dir = PathBuf::from(".");
    let mut jobs = 1usize;
    let mut trace_dir: Option<PathBuf> = None;
    let mut list = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => grid = "smoke".to_string(),
            "--standard" => grid = "standard".to_string(),
            "--filter" => match args.next() {
                Some(f) => filter = Some(f),
                None => {
                    eprintln!("--filter needs a value\n{USAGE}");
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
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive integer\n{USAGE}");
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
            "--list" => list = true,
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

    let registry = match grid.as_str() {
        "smoke" => ScenarioRegistry::smoke(),
        _ => ScenarioRegistry::standard(),
    };

    if list {
        let selected = match &filter {
            Some(f) => registry.select(f),
            None => registry.iter().collect(),
        };
        for scenario in selected {
            println!("{}", scenario.name());
        }
        return ExitCode::SUCCESS;
    }

    let config = SweepConfig {
        out_dir,
        filter,
        label: grid.clone(),
        verbose: true,
        jobs,
        trace_dir,
    };
    println!(
        "sweep: running the {grid} grid ({} scenarios registered, {jobs} job{})",
        registry.len(),
        if jobs == 1 { "" } else { "s" }
    );
    match run_sweep(&registry, &config) {
        Ok(outcome) => {
            println!(
                "sweep: {} scenarios, {} cells ({} solved, {} unsolved) in {:.1}s",
                outcome.scenarios,
                outcome.cells,
                outcome.solved,
                outcome.unsolved,
                outcome.wall.as_secs_f64()
            );
            println!("sweep: wrote {}", outcome.json_path.display());
            if let Some(trace_path) = &outcome.trace_path {
                println!("sweep: wrote {}", trace_path.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweep: failed to write output: {e}");
            ExitCode::FAILURE
        }
    }
}
