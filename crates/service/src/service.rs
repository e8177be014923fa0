//! The election service: admission, work-stealing scheduling, execution.
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
//! Admitted requests are dealt round-robin into one striped-mutex deque per
//! worker. A worker pops its own deque from the front and, when empty, steals from
//! the back of the others — the same discipline as [`anet_sim::run_indexed`], but
//! over a *live* queue: submissions arrive while workers run, and idle workers
//! park on a condvar instead of exiting. Election runs vary by orders of magnitude
//! across graph families, so stealing (rather than static assignment) is what
//! keeps the pool busy when one tenant submits the big instances.
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
//! each other (the report's interner hit-rate measures exactly this). Each
//! election runs under a per-run thread budget (default:
//! `available_parallelism / workers`, at least 1), so parallel backends inside the
//! service don't oversubscribe the machine at `workers × available_parallelism`
//! threads.

// anet-lint: deny(lock-order)
// anet-lint: deny(panic-path)

use crate::metrics::{LatencyStats, ServiceReport, TenantBreakdown};
use crate::request::{CompletedElection, ElectionRequest, RejectReason, Submission};
use anet_election::engine::Election;
use anet_trace::{Tagged, TraceEvent, TraceSink};
use anet_views::shared::{lock_or_poison, wait_timeout_or_poison};
use anet_views::SharedViewInterner;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// Per-election thread budget for the backends. `None` (the default) derives
    /// `max(1, available_parallelism / workers)`, so the whole pool together uses
    /// roughly the machine's parallelism.
    pub thread_budget: Option<usize>,
    /// Trace probe for the whole service run. `None` (the default) traces
    /// nothing and costs nothing. When set, every request's engine run streams
    /// its round events into the sink stamped with the request id (via
    /// [`Tagged`]), and the scheduler adds [`TraceEvent::WorkerExecute`] /
    /// [`TraceEvent::WorkerSteal`] events, so one recorder captures the full
    /// per-request, per-worker story of the run.
    pub trace_sink: Option<Arc<dyn TraceSink>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: available_parallelism().min(8),
            queue_capacity: 1024,
            thread_budget: None,
            trace_sink: None,
        }
    }
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("thread_budget", &self.thread_budget)
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

/// State shared between the service handle and its workers.
struct SharedState {
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Admitted-but-not-yet-started count; the admission bound applies to this.
    queued: AtomicUsize,
    capacity: usize,
    /// `true` while the service accepts new work.
    open: AtomicBool,
    /// Parking lot for idle workers. Submissions notify under this lock, so a
    /// worker that re-checks `queued` under the lock cannot miss a wakeup.
    idle: Mutex<()>,
    work_ready: Condvar,
    completed: Mutex<Vec<CompletedElection>>,
    executed: Vec<AtomicU64>,
    steals: AtomicU64,
    max_queue_depth: AtomicUsize,
    next_id: AtomicU64,
    next_worker: AtomicUsize,
    rejected: AtomicU64,
    interner: Arc<SharedViewInterner>,
    thread_budget: usize,
    trace: Option<Arc<dyn TraceSink>>,
}

impl SharedState {
    /// Pop the worker's own deque from the front, else steal from the back of the
    /// others (fanning out from `w + 1` so workers don't mob one victim).
    fn next_job(&self, w: usize) -> Option<Job> {
        let workers = self.deques.len();
        let own = lock_or_poison(&self.deques[w]).pop_front();
        let job = own.or_else(|| {
            (1..workers).find_map(|offset| {
                let victim = (w + offset) % workers;
                let stolen = lock_or_poison(&self.deques[victim]).pop_back();
                if let Some(job) = &stolen {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    if let Some(trace) = &self.trace {
                        trace.record(TraceEvent::WorkerSteal {
                            trace_id: job.id,
                            worker: w as u64,
                        });
                    }
                }
                stolen
            })
        });
        if job.is_some() {
            self.queued.fetch_sub(1, Ordering::AcqRel);
        }
        job
    }

    /// Execute one job on worker `w` and record its completion.
    fn execute(&self, w: usize, job: Job) {
        let queue_wait = job.submitted_at.elapsed();
        let started = Instant::now();
        let request = &job.request;
        // A panicking solver (e.g. an unguarded oracle on an infeasible graph)
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
        loop {
            if let Some(job) = self.next_job(w) {
                self.execute(w, job);
                continue;
            }
            if !self.open.load(Ordering::Acquire) {
                if self.queued.load(Ordering::Acquire) == 0 {
                    break;
                }
                // A job exists but another worker beat us to every deque we
                // checked; spin politely and retry.
                std::thread::yield_now();
                continue;
            }
            let guard = lock_or_poison(&self.idle);
            // Re-check under the lock: a submission that raced us will notify
            // under this same lock, so sleeping here cannot lose it.
            if self.queued.load(Ordering::Acquire) > 0 || !self.open.load(Ordering::Acquire) {
                continue;
            }
            // The timeout is belt-and-braces only; correctness does not need it.
            let _ = wait_timeout_or_poison(&self.work_ready, guard, Duration::from_millis(50));
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
        let thread_budget = config
            .thread_budget
            .unwrap_or_else(|| (available_parallelism() / workers).max(1))
            .max(1);
        let state = Arc::new(SharedState {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            capacity: config.queue_capacity.max(1),
            open: AtomicBool::new(true),
            idle: Mutex::new(()),
            work_ready: Condvar::new(),
            completed: Mutex::new(Vec::new()),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            steals: AtomicU64::new(0),
            max_queue_depth: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            next_worker: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            interner: Arc::new(SharedViewInterner::new()),
            thread_budget,
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
        if !state.open.load(Ordering::Acquire) {
            state.rejected.fetch_add(1, Ordering::Relaxed);
            return Submission::Rejected {
                request,
                reason: RejectReason::Closed,
                queue_depth: state.queued.load(Ordering::Acquire),
                capacity: state.capacity,
            };
        }
        // Reserve a queue slot, or reject: a compare-exchange loop so that the
        // admission bound holds exactly under concurrent submitters.
        let mut depth = state.queued.load(Ordering::Acquire);
        loop {
            if depth >= state.capacity {
                state.rejected.fetch_add(1, Ordering::Relaxed);
                return Submission::Rejected {
                    request,
                    reason: RejectReason::QueueFull,
                    queue_depth: depth,
                    capacity: state.capacity,
                };
            }
            match state.queued.compare_exchange_weak(
                depth,
                depth + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(observed) => depth = observed,
            }
        }
        let queue_depth = depth + 1;
        state
            .max_queue_depth
            .fetch_max(queue_depth, Ordering::AcqRel);
        let id = state.next_id.fetch_add(1, Ordering::Relaxed);
        let w = state.next_worker.fetch_add(1, Ordering::Relaxed) % state.deques.len();
        lock_or_poison(&state.deques[w]).push_back(Job {
            id,
            request,
            submitted_at: Instant::now(),
        });
        // Notify under the idle lock so a parking worker cannot miss this job.
        let _guard = lock_or_poison(&state.idle);
        state.work_ready.notify_one();
        Submission::Enqueued { id, queue_depth }
    }

    /// Stop admitting new work. Already-admitted requests still run to
    /// completion; subsequent submissions are rejected with
    /// [`RejectReason::Closed`].
    pub fn close(&self) {
        self.state.open.store(false, Ordering::Release);
        let _guard = lock_or_poison(&self.state.idle);
        self.state.work_ready.notify_all();
    }

    /// Requests currently waiting to start (admitted, not yet picked up).
    pub fn queue_depth(&self) -> usize {
        self.state.queued.load(Ordering::Acquire)
    }

    /// The shared view interner all workers intern through (e.g. to snapshot
    /// [`SharedViewInterner::stats`] mid-run).
    pub fn interner(&self) -> &Arc<SharedViewInterner> {
        &self.state.interner
    }

    /// Close, drain, join the workers, and report.
    ///
    /// The completed elections are sorted by request id — submission order — so
    /// the result sequence is independent of worker count and steal interleaving.
    pub fn shutdown(self) -> (Vec<CompletedElection>, ServiceReport) {
        self.close();
        for handle in self.workers {
            // anet-lint: allow(panic-path) — worker_loop catches solver panics; a
            // panic escaping it is a scheduler bug and must abort the shutdown.
            handle.join().expect("service worker panicked");
        }
        let wall = self.started.elapsed();
        let state = &*self.state;
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
            workers: state.deques.len(),
            thread_budget: state.thread_budget,
            submitted: completed.len() as u64,
            rejected: state.rejected.load(Ordering::Relaxed),
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
            max_queue_depth: state.max_queue_depth.load(Ordering::Acquire),
            executed_per_worker: state
                .executed
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            steals: state.steals.load(Ordering::Relaxed),
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
        f.debug_struct("ElectionService")
            .field("workers", &self.state.deques.len())
            .field("queue_depth", &self.queue_depth())
            .field("capacity", &self.state.capacity)
            .field("open", &self.state.open.load(Ordering::Acquire))
            .finish()
    }
}
