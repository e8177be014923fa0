//! # anet-trace — round-level tracing & profiling
//!
//! Every report in this workspace used to be an endpoint aggregate: total rounds,
//! total messages, one wall time. The paper's trade-offs, however, live *inside* the
//! execution — the Kowalski–Mosteiro time-vs-communication frontier and the
//! Casteigts et al. `Θ(D + log n)` bit-rounds regime are per-round phenomena. This
//! crate is the instrument: a typed event stream emitted by the round engine, the
//! full-information collector, the `ElectionEngine` facade and the multi-tenant
//! service, consumed by anything implementing [`TraceSink`].
//!
//! The crate is std-only and sits at the bottom of the workspace dependency graph
//! (nothing here knows about graphs, views or elections), so every layer can emit
//! events without cycles.
//!
//! * [`TraceEvent`] — the event taxonomy: run/round start and end, per-phase timing
//!   (send vs route vs receive), per-round messages delivered and shallow payload
//!   bytes, interner hit/miss deltas, and service worker steal/execute events. Every
//!   event carries a `trace_id` correlating it with one run (0 for standalone runs).
//! * [`TraceSink`] — where events go. [`NoopSink`] is the zero-cost disabled path
//!   (`enabled()` is `false`, so instrumented code skips clock reads entirely);
//!   [`Recorder`] buffers events in striped per-thread buffers for later draining;
//!   [`Tagged`] stamps a fixed trace id onto every event passing through (how the
//!   service gives each request its own id).
//! * [`RoundProfile`] — the aggregate consumers want: per-round message counts and
//!   per-phase nanoseconds with peak queries, built from an event stream by
//!   [`RoundProfile::from_events`] and attached to election reports.
//!
//! The disabled path is free by construction: every probe site hoists one
//! `sink.enabled()` check and emits nothing (and reads no clock) when it is `false`.
//! The equivalence suite asserts that sweep output with a [`NoopSink`] is
//! byte-identical to an untraced run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod profile;
mod sink;

pub use event::{Phase, TraceEvent};
pub use profile::{RoundProfile, RoundStat};
pub use sink::{NoopSink, Recorder, Tagged, TraceSink};
