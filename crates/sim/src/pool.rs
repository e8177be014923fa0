//! A std-only pool for indexed job batches.
//!
//! The parallel sweep driver (`anet-workloads` with `--jobs N`) runs `jobs`
//! independent closures across `workers` OS threads such that
//!
//! 1. the *results are deterministic* — job `i`'s result lands in slot `i` of the
//!    output, whatever thread ran it and in whatever order, so a parallel sweep is
//!    byte-identical to a sequential one, and
//! 2. *stragglers don't idle the pool* — election runs vary by orders of magnitude
//!    across graph families, so static chunking (the right call inside one
//!    synchronous round, where phases are uniform) would leave most workers parked
//!    behind whichever one drew the big instances.
//!
//! [`run_indexed`] hands out job indices from one shared counter: a worker that
//! finishes a job takes the next index nobody has taken, so no worker idles while
//! a job is left.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f(0), f(1), …, f(jobs - 1)` across `workers` threads; returns the results
/// *in job order*.
///
/// `workers` is clamped to `1..=jobs`; with one effective worker the batch runs
/// inline on the calling thread (no thread is spawned), which also means
/// thread-local state such as [`crate::with_thread_budget`] scopes visible to the
/// caller remain visible to the jobs. With more than one worker, jobs run on
/// scoped threads that do *not* inherit the caller's thread-locals — callers that
/// need a per-job budget set it inside `f`.
///
/// Panics in `f` are propagated to the caller after the scope joins.
pub fn run_indexed<R, F>(workers: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.max(1).min(jobs.max(1));
    if workers <= 1 {
        return (0..jobs).map(&f).collect();
    }

    // The counter only hands out indices; results travel back through `join`,
    // which orders them after the worker's writes, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        if job >= jobs {
                            break out;
                        }
                        out.push((job, f(job)));
                    }
                })
            })
            .collect();
        for handle in handles {
            done.extend(handle.join().expect("pool worker panicked"));
        }
    });
    // Reassemble in job order — this is what makes the pool deterministic.
    done.sort_unstable_by_key(|&(job, _)| job);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn results_are_in_job_order_for_any_worker_count() {
        for workers in [1, 2, 3, 4, 7, 16] {
            let results = run_indexed(workers, 37, |i| i * i);
            assert_eq!(results, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_count_is_clamped_to_jobs() {
        let results = run_indexed(8, 3, |i| i);
        assert_eq!(results, vec![0, 1, 2]);

        let results = run_indexed(8, 0, |i| i);
        assert!(results.is_empty());
    }

    #[test]
    fn single_worker_runs_inline_and_sees_callers_thread_locals() {
        crate::with_thread_budget(3, || {
            let budgets = run_indexed(1, 4, |_| crate::thread_budget());
            assert_eq!(budgets, vec![3; 4]);
        });
    }

    #[test]
    fn a_slow_job_does_not_hold_up_the_rest() {
        // Job 0 holds its worker until the other 15 jobs have run, so the
        // batch finishes only if the free worker keeps taking the next job.
        let others_done = AtomicUsize::new(0);
        let results = run_indexed(2, 16, |i| {
            if i == 0 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while others_done.load(Ordering::SeqCst) < 15 {
                    assert!(Instant::now() < deadline, "the other jobs never ran");
                    std::thread::yield_now();
                }
            } else {
                others_done.fetch_add(1, Ordering::SeqCst);
            }
            i
        });
        assert_eq!(results, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn pool_results_match_sequential_execution() {
        let sequential: Vec<u64> = (0..50u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let parallel = run_indexed(4, 50, |i| (i as u64).wrapping_mul(0x9E37_79B9));
        assert_eq!(sequential, parallel);
    }
}
