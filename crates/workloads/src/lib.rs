//! # anet-workloads — scenario generation and sweep orchestration
//!
//! The paper's constructions (`G`/`U`/`J`) exercise the four shades on adversarial
//! instances; this crate opens the engine to *scenario diversity* beyond them:
//!
//! * [`families`] — extra [`GraphFamily`](anet_constructions::GraphFamily)
//!   implementations spanning low and high diameter: random-regular graphs (pairing
//!   model on the in-tree SplitMix64 PRNG, retried until simple and connected), 2D
//!   tori, hypercubes, and circulant expanders, each with canonical or seed-shuffled
//!   port labellings (shuffling typically breaks the symmetry that makes the
//!   canonical labellings infeasible for election);
//! * [`scenario`] — a [`Scenario`] names one grid point
//!   (family × task × solver × backend × instance cap) and hands out its
//!   configured election ([`Scenario::election`]); a [`ScenarioRegistry`]
//!   holds a named grid and answers selections;
//! * [`sweep`] — the driver behind the `sweep` binary: sweep each selected
//!   scenario's election over its family
//!   ([`ElectionBuilder::sweep`](anet_election::engine::ElectionBuilder::sweep)),
//!   collect the reports, and emit a machine-readable `BENCH_*.json` (schema
//!   [`sweep::SCHEMA`] = `anet-workloads/v4`; per cell it records rounds, messages,
//!   wall time, verdict, the advice size under *both* view codecs, the map-side
//!   search counters and, on metered cells, the bits on the wire — see the
//!   [`sweep`] module docs for the v1 → v4 history and compatibility guarantees);
//! * [`service_mix`] — the service scenario axis: deterministic multi-tenant
//!   request mixes (interleaved tenants, rotating task/solver/backend axes) that
//!   `anet-service` and the `service_bench` binary consume;
//! * [`json`] — a tiny dependency-free JSON value type and writer (this workspace
//!   has no external crates, so no serde);
//! * [`trace_io`] — the versioned `anet-trace/v1` JSON-lines trace artifact:
//!   writer, hardened parser (typed [`trace_io::TraceIoError`]s, truncation
//!   detection via declared counts) and a Chrome trace-event export. The sweep
//!   driver emits one next to its `BENCH_*.json` when
//!   [`SweepConfig::trace_dir`](sweep::SweepConfig::trace_dir) is set.
//!
//! ```no_run
//! use anet_workloads::scenario::ScenarioRegistry;
//! use anet_workloads::sweep::{run_sweep, SweepConfig};
//!
//! let registry = ScenarioRegistry::smoke();
//! let outcome = run_sweep(&registry, &SweepConfig::default()).unwrap();
//! println!("{} cells -> {}", outcome.cells, outcome.json_path.display());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod families;
pub mod json;
pub mod scenario;
pub mod service_mix;
pub mod sweep;
pub mod trace_io;

pub use families::{
    CirculantFamily, HypercubeFamily, PortLabeling, RandomRegularFamily, TorusFamily,
};
pub use scenario::{Scenario, ScenarioRegistry, SolverSpec};
pub use service_mix::MixRequest;
pub use sweep::{normalized_for_diff, run_sweep, SweepConfig, SweepOutcome, SCHEMA};
pub use trace_io::{
    chrome_trace_json, parse_trace, read_trace, TraceFile, TraceIoError, TraceRun, TRACE_SCHEMA,
};
