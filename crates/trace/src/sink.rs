//! Where events go: the sink trait, the zero-cost disabled sink, the buffering
//! recorder, the id-stamping wrapper, and scoped timers.

use crate::event::TraceEvent;
use std::sync::Arc;
use std::sync::Mutex;

/// A consumer of [`TraceEvent`]s.
///
/// Probe sites hoist one [`enabled`](TraceSink::enabled) check and skip event
/// construction (and clock reads) entirely when it returns `false`, so a disabled
/// sink costs a single predictable branch per probe. `Send + Sync` is a supertrait:
/// sinks are shared across the worker threads of parallel backends and the
/// multi-tenant service.
///
/// Implementing a custom sink is a two-method affair:
///
/// ```
/// use anet_trace::{TraceEvent, TraceSink};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// /// Counts delivered messages, discarding everything else.
/// #[derive(Default)]
/// struct MessageCounter(AtomicU64);
///
/// impl TraceSink for MessageCounter {
///     fn record(&self, event: TraceEvent) {
///         if let TraceEvent::RoundEnd { messages, .. } = event {
///             self.0.fetch_add(messages, Ordering::Relaxed);
///         }
///     }
/// }
///
/// let sink = MessageCounter::default();
/// sink.record(TraceEvent::RoundEnd { trace_id: 0, round: 1, messages: 7, payload_bytes: 112 });
/// sink.record(TraceEvent::RoundStart { trace_id: 0, round: 2 });
/// assert_eq!(sink.0.load(Ordering::Relaxed), 7);
/// assert!(sink.enabled());
/// ```
pub trait TraceSink: Send + Sync {
    /// Consume one event. Called from whichever thread the probe fires on.
    fn record(&self, event: TraceEvent);

    /// Whether probe sites should emit at all. Defaults to `true`; the
    /// [`NoopSink`] overrides this to `false`, which is what makes the disabled
    /// path free (no clocks are read, no events constructed).
    fn enabled(&self) -> bool {
        true
    }
}

/// The zero-cost disabled sink: [`enabled`](TraceSink::enabled) is `false`, so
/// instrumented code emits nothing and reads no clock. `Backend::run` is exactly
/// `Backend::run_traced` with a `NoopSink`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&self, _event: TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Number of buffer stripes in a [`Recorder`]. Threads map to stripes by a hash of
/// their thread id, so concurrent emitters rarely contend on the same mutex.
const RECORDER_STRIPES: usize = 16;

/// A buffering sink: events land in striped per-thread buffers (a thread hashes to
/// one of 16 stripes, so concurrent emitters almost never share a
/// lock), and [`drain`](Recorder::drain) merges them. Within one emitting thread
/// event order is preserved; across threads the interleaving is unspecified — the
/// consumers in this workspace ([`RoundProfile`](crate::RoundProfile), the trace
/// artifacts) aggregate by `(trace_id, round)` and are order-insensitive across
/// threads.
pub struct Recorder {
    stripes: Vec<Mutex<Vec<TraceEvent>>>,
}

impl Recorder {
    /// A new, empty recorder.
    pub fn new() -> Recorder {
        Recorder {
            stripes: (0..RECORDER_STRIPES)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// Move every buffered event out of the recorder, preserving per-thread order
    /// (stripes are concatenated in index order).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for stripe in &self.stripes {
            events.append(&mut stripe.lock().expect("recorder stripe poisoned"));
        }
        events
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("recorder stripe poisoned").len())
            .sum()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("len", &self.len())
            .finish()
    }
}

thread_local! {
    /// Cached stripe-selection token: a hash of the current thread's id, computed
    /// once per thread so the record hot path does no hashing.
    static THREAD_TOKEN: u64 = {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        hasher.finish()
    };
}

impl TraceSink for Recorder {
    fn record(&self, event: TraceEvent) {
        let token = THREAD_TOKEN.with(|t| *t) as usize;
        self.stripes[token % self.stripes.len()]
            .lock()
            .expect("recorder stripe poisoned")
            .push(event);
    }
}

/// A sink wrapper that stamps a fixed trace id onto every event passing through.
/// The emitting layer keeps writing `trace_id: 0`; the wrapper rewrites it, which is
/// how the multi-tenant service gives each request its own id without the round
/// engine knowing about requests.
pub struct Tagged {
    inner: Arc<dyn TraceSink>,
    trace_id: u64,
}

impl Tagged {
    /// Wrap `inner` so every recorded event carries `trace_id`.
    pub fn new(inner: Arc<dyn TraceSink>, trace_id: u64) -> Tagged {
        Tagged { inner, trace_id }
    }
}

impl std::fmt::Debug for Tagged {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tagged")
            .field("trace_id", &self.trace_id)
            .finish()
    }
}

impl TraceSink for Tagged {
    fn record(&self, event: TraceEvent) {
        self.inner.record(event.with_trace_id(self.trace_id));
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    #[test]
    fn noop_sink_is_disabled() {
        let sink = NoopSink;
        assert!(!sink.enabled());
        sink.record(TraceEvent::RoundStart {
            trace_id: 0,
            round: 1,
        });
    }

    #[test]
    fn recorder_preserves_single_thread_order() {
        let rec = Recorder::new();
        for round in 1..=5u64 {
            rec.record(TraceEvent::RoundStart { trace_id: 0, round });
        }
        assert_eq!(rec.len(), 5);
        let events = rec.drain();
        let rounds: Vec<u64> = events
            .iter()
            .map(|e| match e {
                TraceEvent::RoundStart { round, .. } => *round,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rounds, vec![1, 2, 3, 4, 5]);
        assert!(rec.is_empty(), "drain empties the buffers");
    }

    #[test]
    fn recorder_collects_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let rec = &rec;
                scope.spawn(move || {
                    for round in 1..=10 {
                        rec.record(TraceEvent::PhaseTime {
                            trace_id: t,
                            round,
                            phase: Phase::Route,
                            ns: 1,
                        });
                    }
                });
            }
        });
        let events = rec.drain();
        assert_eq!(events.len(), 80);
        // Every thread's events are present, in that thread's order.
        for t in 0..8u64 {
            let rounds: Vec<u64> = events
                .iter()
                .filter(|e| e.trace_id() == t)
                .map(|e| match e {
                    TraceEvent::PhaseTime { round, .. } => *round,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(rounds, (1..=10).collect::<Vec<_>>(), "thread {t}");
        }
    }

    #[test]
    fn tagged_sink_stamps_ids_and_mirrors_enabled() {
        let rec = Arc::new(Recorder::new());
        let tagged = Tagged::new(rec.clone(), 7);
        assert!(tagged.enabled());
        tagged.record(TraceEvent::RunEnd {
            trace_id: 0,
            rounds: 2,
            messages: 12,
        });
        assert_eq!(rec.drain()[0].trace_id(), 7);
        let noop = Tagged::new(Arc::new(NoopSink), 7);
        assert!(!noop.enabled());
    }
}
