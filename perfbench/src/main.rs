//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <strong-shades|flood-select|wire-metered|service-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its instances from `--seed`, sets up (instance generation plus
//! a warm-up pass over the cells, five times, median reported as `setup_s`), runs the
//! untimed correctness gate, then measures for `--seconds`: with `--trace 0` the
//! end-to-end pass through the public entry points, with `--trace 1` the
//! layer-attributed rebuild. End-to-end election times are each election's best
//! repetition over the run (`engine::TimedPass::best_per_cell`). The last stdout
//! line is one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`; the metrics printed are the
//! `end_to_end` (`--trace 0`) or `per_layer` (`--trace 1`) list of
//! `BENCHMARK.json`. Any incorrect output ends the run with a non-zero exit and
//! no result line. See `perfbench/README.md`.

mod cells;
mod engine;
mod report;
mod service;
#[cfg(test)]
mod tests;
mod traced;
mod workloads;

use report::{declared, median_secs, peak_rss_mb, quantile, result_line, Metrics};
use std::time::{Duration, Instant};
use workloads::{Scale, Workload};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run `setup` [`SETUP_REPS`] times; keep the last result and the median time.
fn timed_setup<T>(setup: impl Fn() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let value = setup()?;
        times.push(start.elapsed());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), median_secs(&times)))
}

/// What a workload run hands back besides its metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    summary: String,
}

/// Latency percentiles over the best election times (one per cell, or per
/// position of the service-mix cycle).
fn latency_metrics(m: &mut Metrics, latencies_ms: &mut [f64]) {
    for (name, q) in [("latency_p50_ms", 0.50), ("latency_p95_ms", 0.95)] {
        m.set(name, quantile(latencies_ms, q), "ms");
    }
}

fn run_engine(args: &Args, m: &mut Metrics) -> Result<Outcome, String> {
    let (cells, setup_s) = timed_setup(|| {
        let cells = workloads::engine_cells(args.workload, args.seed, Scale::Full)?;
        // Warm-up: one pass over the cells, so first-use costs fall here.
        for cell in &cells {
            std::hint::black_box(cell.builder().run(cell.graph()).ok());
        }
        Ok(cells)
    })?;
    m.set("setup_s", setup_s, "s");

    let start = Instant::now();
    let gate = engine::gate(&cells)?;
    let gate_s = start.elapsed().as_secs_f64();
    m.set("rounds_total", gate.rounds_total as f64, "count");
    m.set("advice_bits_total", gate.advice_bits_total as f64, "bits");

    let (attempted, failed) = if args.trace {
        let pass = engine::traced_pass(&cells, &gate, args.seconds)?;
        engine::record_layers(&pass, m);
        eprint!("{}", engine::attribution(&pass));
        (pass.elections, pass.failed)
    } else {
        let pass = engine::timed_pass(&cells, &gate, args.seconds)?;
        let n = pass.elections;
        // Every time metric is taken from each cell's fastest repetition
        // (`TimedPass::best_per_cell`): throughput as the verified cells over one
        // pass of best times, latency percentiles over the cells' best times.
        let best = pass.best_per_cell(cells.len());
        for (cell, took) in cells.iter().zip(&best) {
            eprintln!("  {:9.3} ms  {}", report::ms(*took), cell.label());
        }
        let best_pass_s: f64 = best.iter().map(Duration::as_secs_f64).sum();
        m.set("elections_per_s", gate.verified as f64 / best_pass_s, "1/s");
        let mut latencies: Vec<f64> = best.iter().map(|&d| report::ms(d)).collect();
        latency_metrics(m, &mut latencies);
        m.set(
            "verified_share",
            (n - pass.failed) as f64 / n as f64,
            "share",
        );
        (n, pass.failed)
    };
    Ok(Outcome {
        attempted,
        failed,
        summary: format!(
            "cells={} verified_cells={} rounds_total={} advice_bits_total={} wire_bits_total={} gate_s={gate_s:.2}",
            cells.len(),
            gate.verified,
            gate.rounds_total,
            gate.advice_bits_total,
            gate.wire_bits_total
        ),
    })
}

fn run_service(args: &Args, m: &mut Metrics) -> Result<Outcome, String> {
    let (mix, setup_s) = timed_setup(|| {
        let mix = service::build_mix(args.seed, Scale::Full)?;
        service::warm_up(&mix);
        Ok(mix)
    })?;
    m.set("setup_s", setup_s, "s");

    let start = Instant::now();
    let gate = engine::gate(&mix.cells)?;
    let gate_s = start.elapsed().as_secs_f64();
    let rounds_total = service::cycle_total(&mix, |d| {
        let o = &gate.expected[d];
        if o.verified() {
            o.rounds as u64
        } else {
            0
        }
    });
    let advice_bits_total = service::cycle_total(&mix, |d| gate.advice_ref_bits[d]);
    m.set("rounds_total", rounds_total as f64, "count");
    m.set("advice_bits_total", advice_bits_total as f64, "bits");

    // Thirds of the run: the saturated pass takes two (one when traced, the
    // traced pass taking the last), the open loop one.
    let third = args.seconds / 3.0;
    let sat_s = if args.trace { third } else { 2.0 * third };
    let sat = service::saturated_pass(&mix, &gate, sat_s)?;
    let mut open = service::open_loop_pass(&mix, &gate, third, service::OPEN_LOOP_RATE)?;
    let (mut attempted, mut failed) = service::counts(&sat, &open);
    if args.trace {
        service::record_layers(&sat, &mut open, m);
        let pass = engine::traced_pass(&mix.cells, &gate, third)?;
        engine::record_layers(&pass, m);
        eprint!("{}", engine::attribution(&pass));
        attempted += pass.elections;
        failed += pass.failed;
    } else {
        // Best of N like the engine workloads: one mix cycle's verified
        // elections over the fastest `run_batch` of that cycle.
        let best_batch = sat.batch_times.iter().min().copied().unwrap_or_default();
        let per_batch = sat.verified as f64 / sat.batches as f64;
        m.set(
            "elections_per_s",
            per_batch / best_batch.as_secs_f64(),
            "1/s",
        );
        // Election latency inside the service (worker pick-up to verified
        // report), each request's best, like the engine workloads'; the
        // open-loop due-to-completion latencies, which also hold the queueing,
        // are the per-layer `service.latency_*` metrics.
        latency_metrics(m, &mut open.best_service_ms(&mix));
        m.set(
            "verified_share",
            (attempted - failed) as f64 / attempted as f64,
            "share",
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        summary: format!(
            "distinct_requests={} cycle={} saturated_batches={} open_loop_requests={} \
             offered_rate={} rounds_total={rounds_total} advice_bits_total={advice_bits_total} gate_s={gate_s:.2}",
            mix.cells.len(),
            mix.cycle.len(),
            sat.batches,
            open.lag_ms.len(),
            service::OPEN_LOOP_RATE
        ),
    })
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let printed = declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    })?;
    let mut m = Metrics::default();
    if args.trace {
        // Layers a workload does not exercise read 0.
        for (name, unit) in &printed {
            m.set(name, 0.0, unit);
        }
    }
    let outcome = match args.workload {
        Workload::ServiceMix => run_service(&args, &mut m)?,
        _ => run_engine(&args, &mut m)?,
    };
    m.set("peak_rss_mb", peak_rss_mb()?, "MB");
    println!(
        "perfbench workload={} seed={} trace={} seconds={} {}",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        args.seconds,
        outcome.summary
    );
    result_line(outcome.attempted, outcome.failed, &m.select(&printed)?)
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(1);
        }
    }
}
