//! End-to-end acceptance of the multi-tenant election service: a 1000-request
//! multi-tenant mix across four graph families, scheduled over the worker
//! pool against one shared interner, with verified verdicts and measurable
//! cross-tenant sharing.

use four_shades::prelude::*;
use four_shades::workloads::service_mix;
use std::collections::BTreeSet;

fn to_request(mix: service_mix::MixRequest) -> ElectionRequest {
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

#[test]
fn a_thousand_concurrent_requests_across_tenants() {
    let mix = service_mix::mix(1000);
    assert_eq!(mix.len(), 1000);
    let tenants: BTreeSet<&str> = mix.iter().map(|r| r.tenant.as_str()).collect();
    assert!(tenants.len() >= 3, "at least three families: {tenants:?}");

    let requests: Vec<ElectionRequest> = mix.iter().cloned().map(to_request).collect();
    let (completed, report) = ElectionService::run_batch(ServiceConfig::with_workers(4), requests);

    // Every admitted request completed, in submission order.
    assert_eq!(completed.len(), 1000);
    assert_eq!(report.submitted, 1000);
    assert_eq!(report.rejected, 0);
    for (index, election) in completed.iter().enumerate() {
        assert_eq!(election.id, index as u64, "sorted by submission id");
    }

    // Verdicts are correct in aggregate: the large majority of the mix solves
    // (the families are seed-shuffled to be feasible), nothing panicked, and the
    // accounting adds up — verdict-rejected elections (a strong shade on a graph
    // that only supports a weaker one) are counted as unsolved, not failed.
    assert_eq!(report.failed, 0, "no solver errors or panics in the mix");
    assert_eq!(
        report.solved + report.unsolved(),
        report.submitted,
        "accounting"
    );
    assert!(
        report.solved >= 800,
        "most of the mix must solve: {} of {}",
        report.solved,
        report.submitted
    );

    // Every solved election carries a verified leader on its own graph.
    for election in completed.iter().filter(|c| c.solved()) {
        let result = election.outcome.as_ref().unwrap();
        assert!(result.solved(), "{}", election.name);
        assert!(result.leader().is_some(), "{}", election.name);
    }

    // Cross-tenant sharing through the one shared interner is measurable: the mix
    // repeats instances across cycles and tenants, so the hit rate is high, and
    // the latency pipeline produced full order statistics.
    assert!(report.interner.hit_rate() > 0.0, "{:?}", report.interner);
    assert_eq!(report.turnaround_latency.count, 1000);
    assert!(report.turnaround_latency.p50 <= report.turnaround_latency.p99);
    assert!(report.elections_per_sec > 0.0);
    assert_eq!(report.executed_per_worker.iter().sum::<u64>(), 1000);
    assert_eq!(report.workers, 4);

    // The per-tenant breakdown partitions the batch exactly: every tenant of the
    // mix appears once (sorted), and executed/solved/failed sum to the report
    // totals.
    let breakdown_tenants: Vec<&str> = report.tenants.iter().map(|t| t.tenant.as_str()).collect();
    assert_eq!(
        breakdown_tenants,
        tenants.iter().copied().collect::<Vec<_>>()
    );
    assert_eq!(
        report.tenants.iter().map(|t| t.executed).sum::<u64>(),
        report.submitted
    );
    assert_eq!(
        report.tenants.iter().map(|t| t.solved).sum::<u64>(),
        report.solved
    );
    assert_eq!(
        report.tenants.iter().map(|t| t.failed).sum::<u64>(),
        report.failed
    );
    for tenant in &report.tenants {
        assert_eq!(
            tenant.turnaround_latency.count as u64, tenant.executed,
            "{}: every executed request is a latency sample",
            tenant.tenant
        );
        assert!(tenant.turnaround_latency.p50 <= tenant.turnaround_latency.max);
    }
}

#[test]
fn trace_sink_captures_per_request_rounds_and_scheduler_events() {
    use four_shades::trace::{Recorder, RoundProfile, TraceEvent};
    use std::sync::Arc;

    let recorder = Arc::new(Recorder::new());
    let requests: Vec<ElectionRequest> = service_mix::mix(60).into_iter().map(to_request).collect();
    let total = requests.len() as u64;
    let config = ServiceConfig {
        trace_sink: Some(recorder.clone()),
        ..ServiceConfig::with_workers(4)
    };
    let (completed, _) = ElectionService::run_batch(config, requests);
    let events = recorder.drain();

    // Scheduler events: exactly one WorkerExecute per request.
    let executes: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::WorkerExecute { .. }))
        .collect();
    assert_eq!(executes.len() as u64, total);
    let mut executed_ids: Vec<u64> = executes.iter().map(|e| e.trace_id()).collect();
    executed_ids.sort_unstable();
    assert_eq!(executed_ids, (0..total).collect::<Vec<u64>>());

    // Per-request engine events: every completed run's per-round message sums,
    // filtered by its request id alone, reproduce the report's totals — the
    // Tagged stamping separates concurrent tenants' streams exactly.
    for election in &completed {
        let result = election.outcome.as_ref().expect("mix has no failures");
        let profile = RoundProfile::for_trace(&events, election.id);
        assert_eq!(
            profile.total_messages() as usize,
            result.messages_delivered,
            "request {} ({})",
            election.id,
            election.name
        );
        // The engine also attached the same profile to the report itself.
        assert_eq!(
            result.round_profile.as_ref(),
            Some(&profile),
            "request {}",
            election.id
        );
    }
}

#[test]
fn worker_count_does_not_change_the_thousand_outcomes() {
    // The same mix on 1 and on 4 workers: identical ids, names and verdicts.
    let run = |workers: usize| {
        let requests: Vec<ElectionRequest> =
            service_mix::mix(250).into_iter().map(to_request).collect();
        ElectionService::run_batch(ServiceConfig::with_workers(workers), requests).0
    };
    let single = run(1);
    let pooled = run(4);
    assert_eq!(single.len(), pooled.len());
    for (a, b) in single.iter().zip(pooled.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.name, b.name);
        assert_eq!(a.tenant, b.tenant);
        assert_eq!(a.solved(), b.solved());
        if let (Ok(ra), Ok(rb)) = (&a.outcome, &b.outcome) {
            assert_eq!(ra.outputs, rb.outputs, "{}", a.name);
            assert_eq!(ra.leader(), rb.leader());
        }
    }
}
