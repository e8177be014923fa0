//! The election service: admission, scheduling, execution.
//!
//! ## Lifecycle
//!
//! [`ElectionService::new`] spawns the worker pool and returns immediately; the
//! service then accepts [`ElectionRequest`]s via [`submit`](ElectionService::submit)
//! from any thread. [`close`](ElectionService::close) stops admission (in-flight
//! work still completes); [`shutdown`](ElectionService::shutdown) closes, drains,
//! joins the workers and returns every [`CompletedElection`] (sorted by request id,
//! i.e. submission order) together with the aggregate [`ServiceReport`].
//!
//! ## Scheduling
//!
//! Admitted requests wait in one FIFO queue behind one mutex and condvar. A free
//! worker takes the request at the front, or parks on the condvar until a
//! submission or [`close`](ElectionService::close) wakes it; it exits once the
//! service is closed and the queue empty. Election runs vary by orders of
//! magnitude across graph families; because a worker takes a request only when it
//! is free, a long run holds up its own worker, never the requests queued behind
//! it. The lock is held for a push or a pop, never for a run.
//!
//! ## Backpressure
//!
//! Admission is bounded: at most `queue_capacity` requests may be waiting (admitted
//! but not yet started). A submission over capacity is answered with
//! [`Submission::Rejected`] carrying the request back to the caller — the service
//! never blocks the submitter and never drops admitted work. This is the standard
//! bounded-queue contract: the *caller* owns the retry policy.
//!
//! ## Resource sharing
//!
//! All workers intern views through one [`SharedViewInterner`], so concurrent
//! tenants running on overlapping graph families dedup their view DAGs against
//! each other (the report's interner hit-rate measures exactly this). Only map
//! Selection files views there, its leader's; the map solver's stronger shades
//! and the Lemma 3.9 and 4.8 solvers decide by refinement class and file
//! nothing. Each election runs under a per-run thread budget of
//! `max(1, available_parallelism / workers)`, so parallel backends inside the
//! service don't oversubscribe the machine at `workers × available_parallelism`
//! threads.

// anet-lint: deny(lock-order)
// anet-lint: deny(panic-path)

use crate::metrics::{LatencyStats, ServiceReport, TenantBreakdown};
use crate::request::{CompletedElection, ElectionRequest, RejectReason, Submission};
use anet_election::engine::Election;
use anet_trace::{Tagged, TraceEvent, TraceSink};
use anet_views::shared::{lock_or_poison, wait_or_poison};
use anet_views::SharedViewInterner;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of an [`ElectionService`].
#[derive(Clone)]
pub struct ServiceConfig {
    /// Number of scheduler workers (clamped to at least 1).
    pub workers: usize,
    /// Admission capacity: the maximum number of requests waiting to start. At
    /// capacity, [`ElectionService::submit`] answers [`Submission::Rejected`].
    pub queue_capacity: usize,
    /// Trace probe for the whole service run. `None` (the default) traces
    /// nothing and costs nothing. When set, every request's engine run streams
    /// its round events into the sink stamped with the request id (via
    /// [`Tagged`]), and the scheduler adds one [`TraceEvent::WorkerExecute`] per
    /// request, so one recorder captures the full per-request, per-worker story
    /// of the run.
    pub trace_sink: Option<Arc<dyn TraceSink>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: available_parallelism().min(8),
            queue_capacity: 1024,
            trace_sink: None,
        }
    }
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("trace_sink", &self.trace_sink.is_some())
            .finish()
    }
}

impl ServiceConfig {
    /// A config with an explicit worker count (other fields default).
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        }
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// A queued unit of work: the request plus its admission bookkeeping.
struct Job {
    id: u64,
    request: ElectionRequest,
    submitted_at: Instant,
}

/// The admission queue and the state each admission decides (the open flag,
/// ids and the report's admission counters), all under one lock.
struct Queue {
    /// Admitted requests not yet started, in submission order.
    jobs: VecDeque<Job>,
    /// `true` while the service accepts new work.
    open: bool,
    next_id: u64,
    /// Highest queue depth observed at any admission.
    max_depth: usize,
    rejected: u64,
}

/// State shared between the service handle and its workers.
struct SharedState {
    queue: Mutex<Queue>,
    /// Signalled when a job is queued or the service closes.
    work_ready: Condvar,
    capacity: usize,
    completed: Mutex<Vec<CompletedElection>>,
    executed: Vec<AtomicU64>,
    interner: Arc<SharedViewInterner>,
    thread_budget: usize,
    trace: Option<Arc<dyn TraceSink>>,
}

impl SharedState {
    /// The front of the queue, waiting while the queue is empty and the service
    /// open; `None` once the service is closed and the queue drained.
    fn next_job(&self) -> Option<Job> {
        let mut queue = lock_or_poison(&self.queue);
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                return Some(job);
            }
            if !queue.open {
                return None;
            }
            queue = wait_or_poison(&self.work_ready, queue);
        }
    }

    /// Execute one job on worker `w` and record its completion.
    fn execute(&self, w: usize, job: Job) {
        let queue_wait = job.submitted_at.elapsed();
        let started = Instant::now();
        let request = &job.request;
        // A panicking solver (a bug in a built-in or tenant-supplied solver)
        // must cost one request, not one worker: catch it and report it as a
        // failed outcome. `AssertUnwindSafe` is sound here because the closure
        // only touches the request and fresh per-run state.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut builder = Election::task(request.task)
                .solver_boxed(request.solver.build())
                .backend(request.backend)
                .thread_budget(self.thread_budget)
                .shared_interner(Arc::clone(&self.interner));
            if let Some(trace) = &self.trace {
                // Stamp every event of this run with the request id: downstream
                // consumers separate tenants' streams by trace id alone.
                builder = builder.trace_sink(Arc::new(Tagged::new(Arc::clone(trace), job.id)));
            }
            builder.run(&request.graph)
        }));
        let outcome = match outcome {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(err)) => Err(err.to_string()),
            Err(panic) => Err(format!("solver panicked: {}", panic_message(&panic))),
        };
        let service_time = started.elapsed();
        if let Some(trace) = &self.trace {
            trace.record(TraceEvent::WorkerExecute {
                trace_id: job.id,
                worker: w as u64,
                ns: service_time.as_nanos() as u64,
            });
        }
        self.executed[w].fetch_add(1, Ordering::Relaxed);
        lock_or_poison(&self.completed).push(CompletedElection {
            id: job.id,
            tenant: job.request.tenant,
            name: job.request.name,
            solver: job.request.solver.label().to_string(),
            task: job.request.task,
            backend: job.request.backend,
            queue_wait,
            service_time,
            turnaround: queue_wait + service_time,
            outcome,
        });
    }

    fn worker_loop(&self, w: usize) {
        while let Some(job) = self.next_job() {
            self.execute(w, job);
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A running multi-tenant election service. See the [module docs](self) for the
/// lifecycle, scheduling and backpressure contracts.
pub struct ElectionService {
    state: Arc<SharedState>,
    workers: Vec<JoinHandle<()>>,
    started: Instant,
}

impl ElectionService {
    /// Start a service: spawns `config.workers` scheduler threads and returns.
    pub fn new(config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let state = Arc::new(SharedState {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                open: true,
                next_id: 0,
                max_depth: 0,
                rejected: 0,
            }),
            work_ready: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            completed: Mutex::new(Vec::new()),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            interner: Arc::new(SharedViewInterner::new()),
            // The whole pool together uses roughly the machine's parallelism.
            thread_budget: (available_parallelism() / workers).max(1),
            trace: config.trace_sink,
        });
        let handles = (0..workers)
            .map(|w| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("anet-service-{w}"))
                    .spawn(move || state.worker_loop(w))
                    // anet-lint: allow(panic-path) — cannot run a service without workers.
                    .expect("spawn service worker")
            })
            .collect();
        ElectionService {
            state,
            workers: handles,
            started: Instant::now(),
        }
    }

    /// Submit a request. Never blocks: answers [`Submission::Enqueued`] with the
    /// assigned id, or [`Submission::Rejected`] with the request handed back.
    pub fn submit(&self, request: ElectionRequest) -> Submission {
        let state = &*self.state;
        // One critical section decides and records admission, so the bound holds
        // exactly under concurrent submitters.
        let mut queue = lock_or_poison(&state.queue);
        let depth = queue.jobs.len();
        if queue.open && depth < state.capacity {
            let id = queue.next_id;
            queue.next_id += 1;
            queue.jobs.push_back(Job {
                id,
                request,
                submitted_at: Instant::now(),
            });
            queue.max_depth = queue.max_depth.max(depth + 1);
            drop(queue);
            state.work_ready.notify_one();
            return Submission::Enqueued {
                id,
                queue_depth: depth + 1,
            };
        }
        queue.rejected += 1;
        Submission::Rejected {
            request,
            reason: if queue.open {
                RejectReason::QueueFull
            } else {
                RejectReason::Closed
            },
            queue_depth: depth,
            capacity: state.capacity,
        }
    }

    /// Stop admitting new work. Already-admitted requests still run to
    /// completion; subsequent submissions are rejected with
    /// [`RejectReason::Closed`].
    pub fn close(&self) {
        lock_or_poison(&self.state.queue).open = false;
        self.state.work_ready.notify_all();
    }

    /// Requests currently waiting to start (admitted, not yet picked up).
    pub fn queue_depth(&self) -> usize {
        lock_or_poison(&self.state.queue).jobs.len()
    }

    /// The shared view interner all workers intern through (e.g. to snapshot
    /// [`SharedViewInterner::stats`] mid-run).
    pub fn interner(&self) -> &Arc<SharedViewInterner> {
        &self.state.interner
    }

    /// Close, drain, join the workers, and report.
    ///
    /// The completed elections are sorted by request id — submission order — so
    /// the result sequence is independent of worker count and scheduling.
    pub fn shutdown(self) -> (Vec<CompletedElection>, ServiceReport) {
        self.close();
        for handle in self.workers {
            // anet-lint: allow(panic-path) — worker_loop catches solver panics; a
            // panic escaping it is a scheduler bug and must abort the shutdown.
            handle.join().expect("service worker panicked");
        }
        let wall = self.started.elapsed();
        let state = &*self.state;
        let (rejected, max_queue_depth) = {
            let queue = lock_or_poison(&state.queue);
            (queue.rejected, queue.max_depth)
        };
        let mut completed = std::mem::take(&mut *lock_or_poison(&state.completed));
        completed.sort_by_key(|c| c.id);
        let solved = completed.iter().filter(|c| c.solved()).count() as u64;
        let failed = completed.iter().filter(|c| c.outcome.is_err()).count() as u64;
        let queue_latency =
            LatencyStats::from_samples(completed.iter().map(|c| c.queue_wait).collect());
        let turnaround_latency =
            LatencyStats::from_samples(completed.iter().map(|c| c.turnaround).collect());
        // Group by tenant label; a BTreeMap makes the breakdown sorted by tenant.
        let mut by_tenant: BTreeMap<&str, Vec<&CompletedElection>> = BTreeMap::new();
        for completion in &completed {
            by_tenant
                .entry(completion.tenant.as_str())
                .or_default()
                .push(completion);
        }
        let tenants = by_tenant
            .into_iter()
            .map(|(tenant, completions)| TenantBreakdown {
                tenant: tenant.to_string(),
                executed: completions.len() as u64,
                solved: completions.iter().filter(|c| c.solved()).count() as u64,
                failed: completions.iter().filter(|c| c.outcome.is_err()).count() as u64,
                queue_latency: LatencyStats::from_samples(
                    completions.iter().map(|c| c.queue_wait).collect(),
                ),
                turnaround_latency: LatencyStats::from_samples(
                    completions.iter().map(|c| c.turnaround).collect(),
                ),
            })
            .collect();
        let report = ServiceReport {
            workers: state.executed.len(),
            thread_budget: state.thread_budget,
            submitted: completed.len() as u64,
            rejected,
            solved,
            failed,
            wall,
            elections_per_sec: if wall.as_secs_f64() > 0.0 {
                completed.len() as f64 / wall.as_secs_f64()
            } else {
                0.0
            },
            queue_latency,
            turnaround_latency,
            max_queue_depth,
            executed_per_worker: state
                .executed
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            steals: 0,
            interner: state.interner.stats(),
            tenants,
        };
        (completed, report)
    }

    /// Convenience driver: start a service, submit every request (retrying
    /// rejected submissions after a short backoff until admitted — the batch
    /// caller *wants* every request to run, so it absorbs the backpressure), then
    /// shut down and return the results.
    pub fn run_batch(
        config: ServiceConfig,
        requests: Vec<ElectionRequest>,
    ) -> (Vec<CompletedElection>, ServiceReport) {
        let service = ElectionService::new(config);
        for request in requests {
            let mut pending = request;
            loop {
                match service.submit(pending) {
                    Submission::Enqueued { .. } => break,
                    Submission::Rejected {
                        request,
                        reason: RejectReason::QueueFull,
                        ..
                    } => {
                        pending = request;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Submission::Rejected { .. } => {
                        // anet-lint: allow(panic-path) — Closed is impossible: this fn
                        // owns the service and only closes it after the loop.
                        unreachable!("run_batch never closes the service early")
                    }
                }
            }
        }
        service.shutdown()
    }
}

impl std::fmt::Debug for ElectionService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let queue = lock_or_poison(&self.state.queue);
        f.debug_struct("ElectionService")
            .field("workers", &self.state.executed.len())
            .field("queue_depth", &queue.jobs.len())
            .field("capacity", &self.state.capacity)
            .field("open", &queue.open)
            .finish()
    }
}
