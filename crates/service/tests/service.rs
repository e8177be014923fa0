//! Behavioural tests of the election service: admission, backpressure, panic
//! containment, cross-tenant interner sharing, and worker-count independence.

use anet_election::engine::{EngineError, MapSolver, RunContext, Solver, SolverRun};
use anet_election::tasks::Task;
use anet_graph::{generators, PortGraph};
use anet_service::{
    ElectionRequest, ElectionService, RejectReason, ServiceConfig, SolverRecipe, Submission,
};
use anet_sim::Backend;
use std::time::Duration;

fn feasible_mix() -> Vec<ElectionRequest> {
    // Three tenants, three shapes, several shades — all feasible, all tiny.
    let mut requests = Vec::new();
    for (i, task) in [Task::Selection, Task::PortElection, Task::Selection]
        .into_iter()
        .enumerate()
    {
        requests.push(ElectionRequest::new(
            "tenant-ring",
            format!("ring-{i}"),
            generators::oriented_ring(&[true, true, false, true, false]).unwrap(),
            task,
            SolverRecipe::map(),
            Backend::Sequential,
        ));
        requests.push(ElectionRequest::new(
            "tenant-star",
            format!("star-{i}"),
            generators::star(4 + i).unwrap(),
            Task::Selection,
            SolverRecipe::map(),
            Backend::Batching,
        ));
        requests.push(ElectionRequest::new(
            "tenant-line",
            format!("line-{i}"),
            generators::paper_three_node_line(),
            task,
            SolverRecipe::map(),
            Backend::parallel(2),
        ));
    }
    requests
}

#[test]
fn batch_of_feasible_requests_all_solve_in_submission_order() {
    let (completed, report) = ElectionService::run_batch(ServiceConfig::default(), feasible_mix());
    assert_eq!(completed.len(), 9);
    assert!(completed.iter().all(|c| c.solved()), "{report:?}");
    let ids: Vec<u64> = completed.iter().map(|c| c.id).collect();
    assert_eq!(ids, (0..9).collect::<Vec<u64>>(), "sorted by submission id");
    assert_eq!(report.submitted, 9);
    assert_eq!(report.solved, 9);
    assert_eq!(report.failed, 0);
    assert_eq!(report.turnaround_latency.count, 9);
    assert!(report.elections_per_sec > 0.0);
    assert_eq!(report.executed_per_worker.iter().sum::<u64>(), 9);
}

#[test]
fn results_are_independent_of_worker_count() {
    let run = |workers| {
        let (completed, _) = ElectionService::run_batch(
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
            feasible_mix(),
        );
        completed
    };
    let single = run(1);
    let pooled = run(4);
    assert_eq!(single.len(), pooled.len());
    for (a, b) in single.iter().zip(pooled.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.tenant, b.tenant);
        assert_eq!(a.name, b.name);
        assert_eq!(a.solved(), b.solved());
        let (ra, rb) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        assert_eq!(ra.outputs, rb.outputs, "{}", a.name);
        assert_eq!(ra.rounds, rb.rounds);
        assert_eq!(ra.messages_delivered, rb.messages_delivered);
        assert_eq!(ra.leader(), rb.leader());
    }
}

#[test]
fn closed_service_rejects_and_returns_the_request() {
    let service = ElectionService::new(ServiceConfig::with_workers(1));
    service.close();
    let submission = service.submit(ElectionRequest::new(
        "tenant",
        "late",
        generators::star(3).unwrap(),
        Task::Selection,
        SolverRecipe::map(),
        Backend::Sequential,
    ));
    match submission {
        Submission::Rejected {
            request, reason, ..
        } => {
            assert_eq!(reason, RejectReason::Closed);
            assert_eq!(request.name, "late");
            assert_eq!(request.graph.num_nodes(), 4);
        }
        Submission::Enqueued { .. } => panic!("closed service must not admit"),
    }
    let (completed, report) = service.shutdown();
    assert!(completed.is_empty());
    assert_eq!(report.rejected, 1);
}

/// A solver that sleeps before delegating, to hold a worker busy deterministically.
struct SleepySolver(Duration);

impl Solver for SleepySolver {
    fn name(&self) -> String {
        "sleepy".to_string()
    }
    fn solve(
        &self,
        graph: &PortGraph,
        task: Task,
        ctx: &RunContext<'_>,
    ) -> Result<SolverRun, EngineError> {
        std::thread::sleep(self.0);
        MapSolver::default().solve(graph, task, ctx)
    }
}

#[test]
fn full_queue_rejects_with_typed_backpressure() {
    // One worker, capacity one. The sleepy request occupies the worker; the next
    // request fills the queue; the one after that must bounce.
    let service = ElectionService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServiceConfig::default()
    });
    let sleepy = ElectionRequest::new(
        "tenant",
        "sleepy",
        generators::paper_three_node_line(),
        Task::Selection,
        SolverRecipe::new(
            "sleepy",
            Box::new(|| Box::new(SleepySolver(Duration::from_millis(400)))),
        ),
        Backend::Sequential,
    );
    assert!(service.submit(sleepy).is_enqueued());
    // Give the worker time to pick the sleepy job up (freeing the queue slot).
    std::thread::sleep(Duration::from_millis(100));
    let tiny = |name: &str| {
        ElectionRequest::new(
            "tenant",
            name,
            generators::star(3).unwrap(),
            Task::Selection,
            SolverRecipe::map(),
            Backend::Sequential,
        )
    };
    assert!(service.submit(tiny("fits")).is_enqueued());
    match service.submit(tiny("bounced")) {
        Submission::Rejected {
            request,
            reason,
            queue_depth,
            capacity,
        } => {
            assert_eq!(reason, RejectReason::QueueFull);
            assert_eq!(request.name, "bounced");
            assert_eq!(capacity, 1);
            assert!(queue_depth >= capacity);
        }
        Submission::Enqueued { .. } => panic!("over-capacity submission must bounce"),
    }
    let (completed, report) = service.shutdown();
    // Admitted work all ran; the bounced request never did.
    assert_eq!(completed.len(), 2);
    assert!(completed.iter().all(|c| c.solved()));
    assert_eq!(report.rejected, 1);
    assert_eq!(report.max_queue_depth, 1);
}

#[test]
fn overlapping_waits_finish_faster_on_more_workers() {
    // The machine-independent form of the pool's speedup claim: requests that
    // *wait* overlap across workers even on a single core, so eight 40ms sleeps
    // take ≥ 320ms of wall on one worker but ~2 × 40ms on four.
    let mix = |n: usize| {
        (0..n)
            .map(|i| {
                ElectionRequest::new(
                    "tenant",
                    format!("sleepy-{i}"),
                    generators::paper_three_node_line(),
                    Task::Selection,
                    SolverRecipe::new(
                        "sleepy",
                        Box::new(|| Box::new(SleepySolver(Duration::from_millis(40)))),
                    ),
                    Backend::Sequential,
                )
            })
            .collect::<Vec<_>>()
    };
    let timed = |workers: usize| {
        let started = std::time::Instant::now();
        let (completed, _) = ElectionService::run_batch(
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
            mix(8),
        );
        assert!(completed.iter().all(|c| c.solved()));
        started.elapsed()
    };
    let single = timed(1);
    let pooled = timed(4);
    assert!(
        pooled < single / 2,
        "four workers must overlap the waits: pooled {pooled:?} vs single {single:?}"
    );
}

/// A solver with a bug: it panics on every graph.
struct PanickingSolver;

impl Solver for PanickingSolver {
    fn name(&self) -> String {
        "panicking".to_string()
    }

    fn solve(
        &self,
        _graph: &PortGraph,
        _task: Task,
        _ctx: &RunContext<'_>,
    ) -> Result<SolverRun, EngineError> {
        panic!("solver bug")
    }
}

#[test]
fn a_panicking_solver_costs_one_request_not_a_worker() {
    let service = ElectionService::new(ServiceConfig::with_workers(2));
    assert!(service
        .submit(ElectionRequest::new(
            "tenant-bad",
            "panicking",
            generators::star(4).unwrap(),
            Task::Selection,
            SolverRecipe::new("panicking", Box::new(|| Box::new(PanickingSolver))),
            Backend::Sequential,
        ))
        .is_enqueued());
    // The Theorem 2.2 oracle has no advice for an infeasible graph (no finite
    // Selection index) — exactly what a tenant could submit by accident. That is
    // a typed solver error, not a panic.
    assert!(service
        .submit(ElectionRequest::new(
            "tenant-bad",
            "symmetric-ring",
            generators::symmetric_ring(6).unwrap(),
            Task::Selection,
            SolverRecipe::advice(),
            Backend::Sequential,
        ))
        .is_enqueued());
    // The service must keep serving afterwards.
    assert!(service
        .submit(ElectionRequest::new(
            "tenant-good",
            "star",
            generators::star(4).unwrap(),
            Task::Selection,
            SolverRecipe::map(),
            Backend::Sequential,
        ))
        .is_enqueued());
    let (completed, report) = service.shutdown();
    assert_eq!(completed.len(), 3);
    let panicked = &completed[0];
    assert!(!panicked.solved());
    let message = panicked.outcome.as_ref().unwrap_err();
    assert!(message.contains("panicked"), "{message}");
    let no_advice = &completed[1];
    assert!(!no_advice.solved());
    let message = no_advice.outcome.as_ref().unwrap_err();
    assert!(!message.contains("panicked"), "{message}");
    assert!(completed[2].solved());
    assert_eq!(report.failed, 2);
    assert_eq!(report.solved, 1);
}

#[test]
fn tenants_on_overlapping_families_share_interned_subtrees() {
    // Two tenants submit isomorphic rings: the second tenant's views must hit the
    // table the first tenant populated.
    let ring = || generators::oriented_ring(&[true, true, false, true, false]).unwrap();
    let requests = vec![
        ElectionRequest::new(
            "tenant-a",
            "ring",
            ring(),
            Task::Selection,
            SolverRecipe::map(),
            Backend::Sequential,
        ),
        ElectionRequest::new(
            "tenant-b",
            "ring-again",
            ring(),
            Task::Selection,
            SolverRecipe::map(),
            Backend::Sequential,
        ),
    ];
    let (completed, report) = ElectionService::run_batch(ServiceConfig::with_workers(1), requests);
    assert!(completed.iter().all(|c| c.solved()));
    assert!(
        report.interner.hits > 0,
        "cross-tenant dedup must register hits: {:?}",
        report.interner
    );
    assert!(report.interner.hit_rate() > 0.0);
}

#[test]
fn advice_solvers_through_the_service_report_bits() {
    let (completed, _) = ElectionService::run_batch(
        ServiceConfig::with_workers(2),
        vec![
            ElectionRequest::new(
                "tenant",
                "star-tree",
                generators::star(5).unwrap(),
                Task::Selection,
                SolverRecipe::advice(),
                Backend::Sequential,
            ),
            ElectionRequest::new(
                "tenant",
                "star-dag",
                generators::star(5).unwrap(),
                Task::Selection,
                SolverRecipe::advice_dag(),
                Backend::Sequential,
            ),
        ],
    );
    assert_eq!(completed.len(), 2);
    for c in &completed {
        assert!(c.solved(), "{}: {:?}", c.name, c.outcome);
        let report = c.outcome.as_ref().unwrap();
        assert!(report.advice_bits.unwrap() > 0);
    }
    // Same election, different codec: identical outputs.
    assert_eq!(
        completed[0].outcome.as_ref().unwrap().outputs,
        completed[1].outcome.as_ref().unwrap().outputs,
    );
}
