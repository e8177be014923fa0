//! The `service-mix` workload: `ElectionService` with two workers serving four
//! seeded tenant families, in the shape of `anet_workloads::service_mix` (which
//! has no seed parameter, so the benchmark builds the mix itself).
//!
//! Two passes share one mix cycle of [`MIX_LEN`] requests:
//! * saturated — `ElectionService::run_batch` on whole cycles (closed loop; the
//!   batch driver absorbs admission rejects by retrying) gives `elections_per_s`;
//! * open loop — the main thread submits at a fixed [`OPEN_LOOP_RATE`] regardless
//!   of completions, and each request's latency runs from its *due* time to its
//!   completion.
//!
//! Every completion is compared with a direct `Election::run` of the same request
//! (the engine gate over the mix's distinct requests).

use crate::cells::{draw_feasible, Cell, Instance, Outcome, SolverKind, Topology};
use crate::engine::Gate;
use crate::report::{ms, quantile, Metrics};
use crate::workloads::{Scale, Workload};
use anet_election::engine::Backend;
use anet_election::tasks::Task;
use anet_graph::rng::Rng;
use anet_service::{
    CompletedElection, ElectionRequest, ElectionService, RejectReason, ServiceConfig, SolverRecipe,
    Submission,
};
use std::time::{Duration, Instant};

/// Requests in one mix cycle.
pub const MIX_LEN: usize = 2000;
/// Scheduler workers (the machine's two cores).
pub const WORKERS: usize = 2;
/// Offered rate of the open-loop pass, requests per second: about a quarter of
/// the saturated throughput measured when the benchmark was defined (6–7k/s).
/// At half, the slow periods of a shared host (up to ~2× slower) pushed the
/// service into saturation and the latencies diverged.
pub const OPEN_LOOP_RATE: f64 = 1_500.0;

/// The open loop submits in windows of this many requests (two thirds of a
/// second at the offered rate), each to a fresh service.
pub const OPEN_LOOP_WINDOW: usize = 1000;

/// The (task, solver) rotation: advice pairs serve Selection only, since their
/// outputs are Selection outputs and cannot weaken to Port Election.
const COMBOS: [(Task, SolverKind); 5] = [
    (Task::Selection, SolverKind::Map),
    (Task::PortElection, SolverKind::Map),
    (Task::Selection, SolverKind::AdviceTree),
    (Task::PortElection, SolverKind::Map),
    (Task::Selection, SolverKind::AdviceDag),
];

const BACKENDS: [Backend; 4] = [
    Backend::Sequential,
    Backend::Batching,
    Backend::Parallel { threads: 2 },
    Backend::AdaptiveParallel,
];

/// The mix: its distinct requests (as engine cells, with tenant labels) and, per
/// position of the cycle, which distinct request it is.
#[derive(Debug)]
pub struct Mix {
    pub cells: Vec<Cell>,
    pub tenants: Vec<&'static str>,
    pub cycle: Vec<usize>,
}

fn tenant_topologies() -> Vec<(&'static str, Vec<Topology>)> {
    vec![
        (
            "tenant-torus",
            vec![
                Topology::Torus(6, 8),
                Topology::Torus(8, 8),
                Topology::Torus(8, 10),
            ],
        ),
        (
            "tenant-hypercube",
            vec![Topology::Hypercube(5), Topology::Hypercube(6)],
        ),
        (
            "tenant-circulant",
            vec![Topology::Circulant(64, 2), Topology::Circulant(96, 2)],
        ),
        ("tenant-rr3", vec![Topology::Rr3(64), Topology::Rr3(96)]),
    ]
}

/// Build the seeded mix: feasible tenant instances, interleaved round-robin over
/// tenants, with the (task, solver) and backend rotations a function of the
/// request index only.
pub fn build_mix(seed: u64, scale: Scale) -> Result<Mix, String> {
    let mut rng = Rng::seed(seed ^ Workload::ServiceMix.salt());
    let mut tenants: Vec<(&'static str, Vec<Instance>)> = Vec::new();
    for (tenant, topologies) in tenant_topologies() {
        let instances = topologies
            .into_iter()
            .map(|t| draw_feasible(t, &mut rng))
            .collect::<Result<Vec<_>, _>>()?;
        tenants.push((tenant, instances));
    }
    let longest = tenants.iter().map(|(_, i)| i.len()).max().unwrap_or(0);
    let flat: Vec<(&'static str, &Instance)> = (0..longest)
        .flat_map(|slot| {
            tenants
                .iter()
                .filter_map(move |(tenant, inst)| inst.get(slot).map(|i| (*tenant, i)))
        })
        .collect();
    let len = match scale {
        Scale::Full => MIX_LEN,
        Scale::Tiny => 120,
    };
    let mut mix = Mix {
        cells: Vec::new(),
        tenants: Vec::new(),
        cycle: Vec::with_capacity(len),
    };
    // Distinct requests: (instance, combo, backend) repeats with period
    // lcm(|flat|, |COMBOS|, |BACKENDS|).
    let mut index_of: Vec<((usize, usize, usize), usize)> = Vec::new();
    for i in 0..len {
        let key = (i % flat.len(), i % COMBOS.len(), i % BACKENDS.len());
        let distinct = match index_of.iter().find(|(k, _)| *k == key) {
            Some((_, d)) => *d,
            None => {
                let (tenant, instance) = flat[key.0];
                let (task, solver) = COMBOS[key.1];
                mix.cells
                    .push(Cell::new(instance, task, solver, BACKENDS[key.2]));
                mix.tenants.push(tenant);
                index_of.push((key, mix.cells.len() - 1));
                mix.cells.len() - 1
            }
        };
        mix.cycle.push(distinct);
    }
    Ok(mix)
}

fn request(mix: &Mix, distinct: usize, position: usize) -> ElectionRequest {
    let cell = &mix.cells[distinct];
    let recipe = match cell.solver {
        SolverKind::Map => SolverRecipe::map(),
        SolverKind::AdviceTree => SolverRecipe::advice(),
        SolverKind::AdviceDag => SolverRecipe::advice_dag(),
    };
    ElectionRequest::new(
        mix.tenants[distinct],
        format!("{}#{position}", cell.instance.name),
        (*cell.instance.graph).clone(),
        cell.task,
        recipe,
        cell.backend,
    )
}

/// One mix cycle's requests, in cycle order.
fn cycle_requests(mix: &Mix) -> Vec<ElectionRequest> {
    mix.cycle
        .iter()
        .enumerate()
        .map(|(pos, &d)| request(mix, d, pos))
        .collect()
}

/// Warm-up: one mix cycle through a fresh service, results discarded.
pub fn warm_up(mix: &Mix) {
    std::hint::black_box(ElectionService::run_batch(config(), cycle_requests(mix)));
}

fn config() -> ServiceConfig {
    ServiceConfig::with_workers(WORKERS)
}

/// Compare a completion with the direct run of the same request.
fn check(mix: &Mix, gate: &Gate, distinct: usize, done: CompletedElection) -> Result<bool, String> {
    let expected = &gate.expected[distinct];
    let outcome = match done.outcome {
        Ok(report) => Outcome::from_run(Ok(report)),
        Err(message) => {
            return Err(format!(
                "request {} ({}) failed: {message}",
                done.id, done.name
            ))
        }
    };
    if &outcome != expected {
        return Err(format!(
            "request {} ({}): service outcome differs from a direct Election::run: {}",
            done.id,
            mix.cells[distinct].label(),
            outcome.diff(expected)
        ));
    }
    Ok(outcome.verified())
}

/// Totals of the saturated pass.
#[derive(Debug, Default)]
pub struct Saturated {
    pub batches: u64,
    pub elections: u64,
    pub verified: u64,
    /// Time inside `run_batch`, per batch (one mix cycle each).
    pub batch_times: Vec<Duration>,
    pub rejects: u64,
    pub steals: u64,
    pub max_queue_depth: usize,
    pub imbalance: f64,
    pub hits: u64,
    pub misses: u64,
    pub distinct_subtrees: u64,
}

/// Whole mix cycles through `run_batch` until `seconds` have passed.
pub fn saturated_pass(mix: &Mix, gate: &Gate, seconds: f64) -> Result<Saturated, String> {
    let mut pass = Saturated::default();
    let start = Instant::now();
    while pass.batches == 0 || start.elapsed().as_secs_f64() < seconds {
        let requests = cycle_requests(mix);
        let t = Instant::now();
        let (completed, report) = ElectionService::run_batch(config(), requests);
        pass.batch_times.push(t.elapsed());
        if completed.len() != mix.cycle.len() {
            return Err(format!(
                "run_batch completed {} of {} requests",
                completed.len(),
                mix.cycle.len()
            ));
        }
        for (pos, done) in completed.into_iter().enumerate() {
            if done.id != pos as u64 {
                return Err(format!("completion {pos} carries id {}", done.id));
            }
            pass.verified += check(mix, gate, mix.cycle[pos], done)? as u64;
        }
        pass.batches += 1;
        pass.elections += mix.cycle.len() as u64;
        pass.rejects += report.rejected;
        pass.steals += report.steals;
        pass.max_queue_depth = pass.max_queue_depth.max(report.max_queue_depth);
        let executed = &report.executed_per_worker;
        let mean = executed.iter().sum::<u64>() as f64 / executed.len() as f64;
        pass.imbalance += *executed.iter().max().unwrap_or(&0) as f64 / mean;
        pass.hits += report.interner.hits;
        pass.misses += report.interner.misses;
        pass.distinct_subtrees += report.interner.distinct_subtrees as u64;
    }
    Ok(pass)
}

/// Samples of the open-loop pass.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Due time to completion, per request.
    pub latencies_ms: Vec<f64>,
    /// Per distinct request of the mix, its fastest execution on a worker
    /// (`CompletedElection::service_time`); `None` if it never ran.
    pub best_service: Vec<Option<Duration>>,
    /// Submission time minus due time, per request.
    pub lag_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub verified: u64,
}

/// Submit on a fixed schedule of `rate` requests per second for `seconds`, in
/// windows of [`OPEN_LOOP_WINDOW`] requests, each on a fresh service (so a window's
/// completion log stays small and one window's stall cannot leak into the next).
/// The request sequence runs on through the mix cycle across windows.
pub fn open_loop_pass(mix: &Mix, gate: &Gate, seconds: f64, rate: f64) -> Result<OpenLoop, String> {
    let mut pass = OpenLoop {
        best_service: vec![None; mix.cells.len()],
        ..OpenLoop::default()
    };
    let start = Instant::now();
    let mut next = 0;
    while next == 0 || start.elapsed().as_secs_f64() < seconds {
        next = open_loop_window(mix, gate, rate, next, &mut pass)?;
    }
    Ok(pass)
}

/// One open-loop window: requests `first..first + OPEN_LOOP_WINDOW` of the cycle.
fn open_loop_window(
    mix: &Mix,
    gate: &Gate,
    rate: f64,
    first: usize,
    pass: &mut OpenLoop,
) -> Result<usize, String> {
    let service = ElectionService::new(config());
    let mut schedule: Vec<(Duration, Duration)> = Vec::with_capacity(OPEN_LOOP_WINDOW);
    let start = Instant::now();
    while schedule.len() < OPEN_LOOP_WINDOW {
        let due = Duration::from_secs_f64(schedule.len() as f64 / rate);
        let now = start.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let position = first + schedule.len();
        let mut pending = request(mix, mix.cycle[position % mix.cycle.len()], position);
        loop {
            let at = start.elapsed();
            match service.submit(pending) {
                Submission::Enqueued { .. } => {
                    schedule.push((due, at));
                    break;
                }
                Submission::Rejected {
                    request,
                    reason: RejectReason::QueueFull,
                    ..
                } => {
                    // Refused at admission: retry at once; the wait counts in
                    // this request's latency, which runs from its due time.
                    pending = request;
                    std::thread::yield_now();
                }
                Submission::Rejected { reason, .. } => {
                    return Err(format!("open-loop submission rejected: {reason:?}"))
                }
            }
        }
    }
    let (completed, _) = service.shutdown();
    if completed.len() != schedule.len() {
        return Err(format!(
            "open loop completed {} of {} requests",
            completed.len(),
            schedule.len()
        ));
    }
    for done in completed {
        // Ids count submissions from 0 on each fresh service.
        let offset = done.id as usize;
        let (due, at) = schedule[offset];
        pass.lag_ms.push(ms(at - due));
        pass.latencies_ms.push(ms(at - due + done.turnaround));
        pass.queue_wait_ms.push(ms(done.queue_wait));
        let distinct = mix.cycle[(first + offset) % mix.cycle.len()];
        let best = &mut pass.best_service[distinct];
        *best = Some(best.map_or(done.service_time, |b| b.min(done.service_time)));
        pass.verified += check(mix, gate, distinct, done)? as u64;
    }
    Ok(first + schedule.len())
}

impl OpenLoop {
    /// Per position of the mix cycle, the fastest in-service time (ms) of its
    /// distinct request, skipping requests the pass never ran. Like the engine
    /// workloads' per-cell best times, this keeps the host's slow periods out.
    pub fn best_service_ms(&self, mix: &Mix) -> Vec<f64> {
        mix.cycle
            .iter()
            .filter_map(|&d| self.best_service[d])
            .map(ms)
            .collect()
    }
}

/// Σ of a per-distinct-request quantity over one mix cycle.
pub fn cycle_total(mix: &Mix, per_distinct: impl Fn(usize) -> u64) -> u64 {
    mix.cycle.iter().map(|&d| per_distinct(d)).sum()
}

/// Record the service's per-layer metrics.
pub fn record_layers(sat: &Saturated, open: &mut OpenLoop, m: &mut Metrics) {
    let batches = sat.batches as f64;
    for (name, q) in [
        ("service.latency_p50_ms", 0.50),
        ("service.latency_p95_ms", 0.95),
        ("service.latency_p99_ms", 0.99),
    ] {
        m.set(name, quantile(&mut open.latencies_ms, q), "ms");
    }
    m.set(
        "service.queue_wait_p50_ms",
        quantile(&mut open.queue_wait_ms, 0.5),
        "ms",
    );
    m.set(
        "service.queue_wait_p99_ms",
        quantile(&mut open.queue_wait_ms, 0.99),
        "ms",
    );
    m.set("service.steals", sat.steals as f64 / batches, "count");
    m.set(
        "service.admission_rejects",
        sat.rejects as f64 / batches,
        "count",
    );
    m.set(
        "service.max_queue_depth",
        sat.max_queue_depth as f64,
        "count",
    );
    m.set("service.worker_imbalance", sat.imbalance / batches, "ratio");
    let filings = (sat.hits + sat.misses) as f64;
    m.set("shared.hit_rate", sat.hits as f64 / filings, "share");
    m.set("shared.misses", sat.misses as f64 / batches, "count");
    m.set(
        "shared.distinct_subtrees",
        sat.distinct_subtrees as f64 / batches,
        "count",
    );
    m.set("loadgen.lag_p99_ms", quantile(&mut open.lag_ms, 0.99), "ms");
}

/// Elections attempted and failed in a service run.
pub fn counts(sat: &Saturated, open: &OpenLoop) -> (u64, u64) {
    let attempted = sat.elections + open.latencies_ms.len() as u64;
    (attempted, attempted - sat.verified - open.verified)
}
