//! Latency and throughput metrics of a service run.
//!
//! Everything here is computed *after* the fact from per-request samples — the hot
//! path only records three `Instant`s per request (submitted, started, finished),
//! so metrics cost nothing while the scheduler runs.

// anet-lint: deny(panic-path)

use anet_views::InternerStats;
use std::time::Duration;

/// Order statistics over a set of latency samples.
///
/// Percentiles use the nearest-rank method on the sorted samples
/// (`sorted[round(q · (n − 1))]`), which is deterministic and exact for the small
/// sample counts a service run produces (no interpolation, no sketches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (50th percentile).
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Maximum sample.
    pub max: Duration,
}

impl LatencyStats {
    /// Compute the statistics from raw samples. An empty sample set yields all
    /// zeros with `count == 0`.
    pub fn from_samples(mut samples: Vec<Duration>) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let count = samples.len();
        let total: Duration = samples.iter().sum();
        let at = |q: f64| {
            let rank = (q * (count - 1) as f64).round() as usize;
            samples[rank.min(count - 1)]
        };
        LatencyStats {
            count,
            mean: total / count as u32,
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            max: samples[count - 1],
        }
    }
}

/// Per-tenant slice of a service run: how much of the batch one tenant
/// submitted and how it fared. Tenant counts partition the batch — summed over
/// all breakdowns they reproduce the report totals exactly, which the service
/// tests assert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantBreakdown {
    /// The tenant label requests carried.
    pub tenant: String,
    /// Requests of this tenant that a worker executed.
    pub executed: u64,
    /// Executed requests that produced a verified solution.
    pub solved: u64,
    /// Executed requests that failed (solver error or caught panic).
    pub failed: u64,
    /// Queue-wait latency of this tenant's requests.
    pub queue_latency: LatencyStats,
    /// End-to-end latency of this tenant's requests.
    pub turnaround_latency: LatencyStats,
}

/// Aggregate report of one service run, produced by
/// [`crate::ElectionService::shutdown`].
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Number of scheduler workers the service ran with.
    pub workers: usize,
    /// Per-run thread budget applied to every election's backend.
    pub thread_budget: usize,
    /// Requests admitted (== ids assigned == completed elections).
    pub submitted: u64,
    /// Requests rejected at admission (queue full or service closed).
    pub rejected: u64,
    /// Admitted requests that produced a verified solution.
    pub solved: u64,
    /// Admitted requests that failed (solver error or caught panic).
    ///
    /// `solved + failed` can fall short of `submitted`: an election whose solver
    /// ran to completion but whose outputs the verifier rejected (e.g. a stronger
    /// shade requested on a graph that only supports a weaker one) is neither —
    /// see [`unsolved`](ServiceReport::unsolved), mirroring the sweep's
    /// "unsolved cell" semantics.
    pub failed: u64,
    /// Wall-clock lifetime of the service (construction to shutdown).
    pub wall: Duration,
    /// Completed elections per wall-clock second.
    pub elections_per_sec: f64,
    /// Queue-wait latency (submission to pickup).
    pub queue_latency: LatencyStats,
    /// End-to-end latency (submission to completion).
    pub turnaround_latency: LatencyStats,
    /// Highest queue depth observed at any admission.
    pub max_queue_depth: usize,
    /// Jobs each worker executed, indexed by worker id.
    pub executed_per_worker: Vec<u64>,
    /// Always 0: every worker takes its requests from the one shared queue, so
    /// no worker takes a job from another. The field stays because perfbench's
    /// `service.steals` metric reads it.
    pub steals: u64,
    /// Hit/miss counters of the shared view interner — the cross-tenant dedup
    /// measurement ([`InternerStats::hit_rate`] > 0 means tenants shared subtrees).
    /// Kept global (not per tenant): the table is shared, so per-tenant deltas
    /// would double-count cross-tenant hits.
    pub interner: InternerStats,
    /// Per-tenant breakdown, sorted by tenant label. `executed`, `solved` and
    /// `failed` summed across tenants equal [`submitted`](ServiceReport::submitted),
    /// [`solved`](ServiceReport::solved) and [`failed`](ServiceReport::failed).
    pub tenants: Vec<TenantBreakdown>,
}

impl ServiceReport {
    /// Elections that completed without error but whose outputs the verifier
    /// rejected: `submitted - solved - failed`.
    pub fn unsolved(&self) -> u64 {
        self.submitted - self.solved - self.failed
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} elections ({} solved, {} failed, {} rejected) on {} workers in {:?}: \
             {:.1} elections/s, turnaround p50 {:?} / p95 {:?} / p99 {:?}, \
             peak queue {}, interner hit-rate {:.1}%",
            self.submitted,
            self.solved,
            self.failed,
            self.rejected,
            self.workers,
            self.wall,
            self.elections_per_sec,
            self.turnaround_latency.p50,
            self.turnaround_latency.p95,
            self.turnaround_latency.p99,
            self.max_queue_depth,
            self.interner.hit_rate() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_yield_zeroed_stats() {
        let stats = LatencyStats::from_samples(Vec::new());
        assert_eq!(stats.count, 0);
        assert_eq!(stats.p99, Duration::ZERO);
    }

    #[test]
    fn percentiles_are_order_statistics_of_the_samples() {
        // 1ms..=100ms: every percentile must be one of the samples.
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let stats = LatencyStats::from_samples(samples.clone());
        assert_eq!(stats.count, 100);
        assert_eq!(stats.p50, Duration::from_millis(51)); // round(0.5 * 99) = 50 → 51ms
        assert_eq!(stats.p95, Duration::from_millis(95));
        assert_eq!(stats.p99, Duration::from_millis(99));
        assert_eq!(stats.max, Duration::from_millis(100));
        assert_eq!(stats.mean, Duration::from_micros(50_500));
        // Order of arrival must not matter.
        let mut shuffled = samples;
        shuffled.reverse();
        assert_eq!(stats, LatencyStats::from_samples(shuffled));
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let stats = LatencyStats::from_samples(vec![Duration::from_millis(7)]);
        assert_eq!(stats.p50, Duration::from_millis(7));
        assert_eq!(stats.p99, Duration::from_millis(7));
        assert_eq!(stats.max, Duration::from_millis(7));
        assert_eq!(stats.mean, Duration::from_millis(7));
    }
}
