//! Scenarios: named grid points over family × task × solver × backend.
//!
//! A [`Scenario`] is one cell of the benchmark grid — a [`GraphFamily`] to sweep, a
//! [`Task`] shade, a [`SolverSpec`] describing which solver to run, and a [`Backend`]
//! to execute on. It resolves to `Election` configurations through the PR-1 facade
//! and runs via [`BatchRunner`]. A [`ScenarioRegistry`] holds a named grid, answers
//! substring selections, and ships two built-in grids ([`ScenarioRegistry::smoke`]
//! and [`ScenarioRegistry::standard`]).

use crate::families::{CirculantFamily, HypercubeFamily, RandomRegularFamily, TorusFamily};
use anet_constructions::{FamilyInstance, GraphFamily};
use anet_election::advice::run_with_advice;
use anet_election::engine::{
    Backend, BatchRow, BatchRunner, EngineError, MapSolver, RunContext, Solver, SolverRun,
};
use anet_election::selection::{SelectionAlgorithm, SelectionOracle};
use anet_election::tasks::Task;
use anet_graph::PortGraph;
use anet_views::ViewCodec;

/// Which solver a scenario runs. Kept as a spec (not a `Box<dyn Solver>`) so that the
/// registry is cheap to build, scenarios are self-describing in reports, and a fresh
/// solver can be built for every instance of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverSpec {
    /// The map-based minimum-time baseline ([`MapSolver`]); refuses infeasible graphs
    /// with a solver error, which the sweep records as an unsolved cell.
    Map,
    /// The Theorem 2.2 oracle/algorithm advice pair shipping the unfolded-tree
    /// encoding, guarded by a feasibility check (the raw oracle panics on graphs with
    /// no finite Selection index; the guard turns that into a reported solver error
    /// instead).
    MinTimeAdvice,
    /// The same guarded Theorem 2.2 pair shipping the **shared-DAG** encoding:
    /// identical outputs, but the advice costs `O(distinct subtrees)` bits — the
    /// sweep's JSON records both sizes per cell either way.
    MinTimeAdviceDag,
}

impl SolverSpec {
    /// Short label used in scenario names and JSON cells.
    pub fn label(&self) -> &'static str {
        match self {
            SolverSpec::Map => "map",
            SolverSpec::MinTimeAdvice => "advice",
            SolverSpec::MinTimeAdviceDag => "advice-dag",
        }
    }

    /// Build a fresh solver for one sweep instance.
    pub fn build(&self) -> Box<dyn Solver> {
        match self {
            SolverSpec::Map => Box::new(MapSolver::default()),
            SolverSpec::MinTimeAdvice => Box::new(GuardedAdviceSolver {
                codec: ViewCodec::Tree,
            }),
            SolverSpec::MinTimeAdviceDag => Box::new(GuardedAdviceSolver {
                codec: ViewCodec::Dag,
            }),
        }
    }
}

/// The Theorem 2.2 pair behind a feasibility guard: on graphs where no view class has
/// multiplicity 1 (infinite Selection index) the oracle would panic; the guard asks
/// the oracle's fallible entry ([`SelectionOracle::try_advise`], one refinement) and
/// answers `None` with a regular [`EngineError::Solver`], so sweeps over symmetric
/// workloads (canonical tori, hypercubes, …) record the cell as unsolved and continue.
/// Otherwise the pair runs on the advice the guard already holds.
struct GuardedAdviceSolver {
    /// Which wire format the encoded-view advice ships in.
    codec: ViewCodec,
}

impl Solver for GuardedAdviceSolver {
    fn name(&self) -> String {
        format!("advice(thm-2.2, guarded, {})", self.codec)
    }

    fn solve(
        &self,
        graph: &PortGraph,
        _task: Task,
        ctx: &RunContext<'_>,
    ) -> Result<SolverRun, EngineError> {
        let codec = self.codec;
        let Some(advice) = SelectionOracle { codec }.try_advise(graph) else {
            return Err(EngineError::Solver {
                solver: self.name(),
                message: "unsolvable: no view class of multiplicity 1 (infinite Selection index)"
                    .to_string(),
            });
        };
        Ok(run_with_advice(
            graph,
            &advice,
            &SelectionAlgorithm { codec },
            ctx,
        ))
    }
}

/// One named grid point: family × task × solver × backend, plus an instance cap.
pub struct Scenario {
    name: String,
    /// The graph family this scenario sweeps.
    pub family: Box<dyn GraphFamily>,
    /// The task shade to request.
    pub task: Task,
    /// The solver to run on every instance.
    pub solver: SolverSpec,
    /// The execution backend.
    pub backend: Backend,
    /// Maximum number of family instances visited.
    pub max_instances: usize,
    /// The wire codec, when this scenario meters its runs (see
    /// [`Scenario::metered`]); `None` runs the zero-serialisation fast path.
    pub wire: Option<ViewCodec>,
}

impl Scenario {
    /// Create a scenario; the name is derived from its coordinates
    /// (`family/task/solver/backend`), so equal grid points collide in the registry.
    pub fn new(
        family: impl GraphFamily + 'static,
        task: Task,
        solver: SolverSpec,
        backend: Backend,
        max_instances: usize,
    ) -> Self {
        Self::new_boxed(Box::new(family), task, solver, backend, max_instances)
    }

    /// [`new`](Scenario::new) for an already-boxed family (avoids a second layer of
    /// boxing when the family is dynamically chosen, as in the built-in grids).
    pub fn new_boxed(
        family: Box<dyn GraphFamily>,
        task: Task,
        solver: SolverSpec,
        backend: Backend,
        max_instances: usize,
    ) -> Self {
        let name = format!(
            "{}/{}/{}/{}",
            family.family_name(),
            task,
            solver.label(),
            backend.label()
        );
        Scenario {
            name,
            family,
            task,
            solver,
            backend,
            max_instances,
            wire: None,
        }
    }

    /// Meter every run of this scenario through `codec`: cells gain per-round /
    /// per-edge bit counts (serialised into the sweep JSON) and the name gains a
    /// `+wire-{codec}` suffix so the metered grid point never collides with its
    /// unmetered twin. Outputs and logical accounting are unchanged.
    pub fn metered(mut self, codec: ViewCodec) -> Self {
        self.wire = Some(codec);
        self.name = format!("{}+wire-{}", self.name, codec.label());
        self
    }

    /// The scenario's unique name (`family/task/solver/backend`, with a
    /// `+wire-{codec}` suffix when metered).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Materialise the family instances this scenario sweeps (up to
    /// [`max_instances`](Scenario::max_instances)). Several scenarios over the same
    /// family coordinates can share one materialisation via
    /// [`run_on`](Scenario::run_on) — the sweep driver does exactly that.
    pub fn materialize(&self) -> Vec<FamilyInstance> {
        self.family.instances(self.max_instances)
    }

    /// Run the scenario against already-materialised, borrowed instances: every
    /// engine run borrows `&instance.graph`, nothing is regenerated or cloned. The
    /// instances must come from this scenario's family (same generator, same seed)
    /// with a cap of at least [`max_instances`](Scenario::max_instances) — in
    /// practice, from [`materialize`](Scenario::materialize) of a scenario sharing
    /// the family coordinates.
    pub fn run_on(&self, instances: &[FamilyInstance]) -> Vec<BatchRow> {
        self.run_on_profiled(instances, false)
    }

    /// [`run_on`](Scenario::run_on) with round-level profiling switched on or off:
    /// when `profiled`, every row's report carries a `round_profile` the sweep
    /// driver serialises into its trace artifact. `run_on_profiled(i, false)` *is*
    /// `run_on(i)` — the disabled probe changes nothing about the rows.
    pub fn run_on_profiled(&self, instances: &[FamilyInstance], profiled: bool) -> Vec<BatchRow> {
        let mut runner = BatchRunner::new(self.backend)
            .max_instances(self.max_instances)
            .profiled(profiled);
        if let Some(codec) = self.wire {
            runner = runner.metered(codec);
        }
        runner.sweep_instances(&self.family.family_name(), instances, self.task, |_| {
            self.solver.build()
        })
    }

    /// Resolve and run: sweep the family through [`BatchRunner`] on the configured
    /// task, solver and backend.
    pub fn run(&self) -> Vec<BatchRow> {
        self.run_on(&self.materialize())
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("task", &self.task)
            .field("solver", &self.solver)
            .field("backend", &self.backend)
            .field("max_instances", &self.max_instances)
            .field("wire", &self.wire)
            .finish()
    }
}

/// Error registering a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A scenario with the same name is already registered.
    Duplicate(
        /// The colliding name.
        String,
    ),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Duplicate(name) => write!(f, "duplicate scenario name: {name}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A named collection of scenarios — the benchmark grid.
#[derive(Debug, Default)]
pub struct ScenarioRegistry {
    scenarios: Vec<Scenario>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ScenarioRegistry::default()
    }

    /// Register a scenario; rejects duplicate names (two scenarios with the same grid
    /// coordinates would emit indistinguishable JSON cells).
    pub fn register(&mut self, scenario: Scenario) -> Result<(), RegistryError> {
        if self.get(scenario.name()).is_some() {
            return Err(RegistryError::Duplicate(scenario.name().to_string()));
        }
        self.scenarios.push(scenario);
        Ok(())
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// All scenario names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.scenarios.iter().map(|s| s.name()).collect()
    }

    /// Look up one scenario by exact name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name() == name)
    }

    /// All scenarios whose name contains `filter` (case-insensitive); an empty filter
    /// selects everything.
    pub fn select(&self, filter: &str) -> Vec<&Scenario> {
        let needle = filter.to_lowercase();
        self.scenarios
            .iter()
            .filter(|s| s.name().to_lowercase().contains(&needle))
            .collect()
    }

    /// Iterate over all scenarios in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.scenarios.iter()
    }

    /// Seed used by the built-in grids (fixed so emitted benchmarks are comparable
    /// across runs and machines).
    const GRID_SEED: u64 = 0xA5EED;
    /// Port-shuffle seed for the symmetric families of the built-in grids.
    const SHUFFLE_SEED: u64 = 41;

    /// The four workload families at given sizes, seed-shuffled where the canonical
    /// labelling would be symmetric. Shared by [`smoke`](ScenarioRegistry::smoke) and
    /// [`standard`](ScenarioRegistry::standard).
    fn grid_families(
        rr_sizes: Vec<usize>,
        torus_dims: Vec<(usize, usize)>,
        cube_dims: Vec<usize>,
        circ_sizes: Vec<usize>,
    ) -> [Box<dyn GraphFamily>; 4] {
        [
            Box::new(RandomRegularFamily::new(3, rr_sizes, Self::GRID_SEED)),
            Box::new(TorusFamily::new(torus_dims).shuffled(Self::SHUFFLE_SEED)),
            Box::new(HypercubeFamily::new(cube_dims).shuffled(Self::SHUFFLE_SEED)),
            Box::new(CirculantFamily::powers_of_two(circ_sizes, 3).shuffled(Self::SHUFFLE_SEED)),
        ]
    }

    /// Family sizes are listed ascending and every shade visits up to `cap`
    /// instances. The strong shades (PPE, CPPE) used to stop after two small
    /// instances — the map solver's simple-path enumeration exploded beyond ~25
    /// nodes on expander-like topologies — but the class-quotient search lifted
    /// that ceiling, so all four shades now climb the same size ladder.
    fn grid(
        families: impl Fn() -> [Box<dyn GraphFamily>; 4],
        backends: &[Backend],
        cap: usize,
    ) -> Self {
        let mut registry = ScenarioRegistry::new();
        // Every family × every shade × the map baseline on the primary backend
        // (`families()` rebuilds the cheap family specs per block).
        for task in Task::ALL {
            for family in families() {
                registry
                    .register(Scenario::new_boxed(
                        family,
                        task,
                        SolverSpec::Map,
                        backends[0],
                        cap,
                    ))
                    .expect("built-in grid has unique names");
            }
        }
        // Every family × Selection × the guarded Theorem 2.2 advice pair, once per
        // view codec (the JSON cells record both sizes either way; the codec axis
        // additionally exercises shipping + decoding each wire format end to end).
        for advice in [SolverSpec::MinTimeAdvice, SolverSpec::MinTimeAdviceDag] {
            for family in families() {
                registry
                    .register(Scenario::new_boxed(
                        family,
                        Task::Selection,
                        advice,
                        backends[0],
                        cap,
                    ))
                    .expect("built-in grid has unique names");
            }
        }
        // Every family × Selection × map on the remaining backends (the backend axis;
        // outputs must be backend-invariant, so one shade suffices).
        for &backend in &backends[1..] {
            for family in families() {
                registry
                    .register(Scenario::new_boxed(
                        family,
                        Task::Selection,
                        SolverSpec::Map,
                        backend,
                        cap,
                    ))
                    .expect("built-in grid has unique names");
            }
        }
        // The wire axis: Selection × map, metered through each codec, plus one
        // CONGEST-style capped-bandwidth point (Backend::Capped forces metering by
        // itself). Metering serialises every message, so the axis pins its own
        // small asymmetric instances instead of climbing the grid's size ladder —
        // on a 10⁴-node graph the tree codec alone would ship Θ((Δ−1)^h) bits per
        // edge per round.
        let wire_family = || RandomRegularFamily::new(3, vec![16, 24], Self::GRID_SEED);
        for codec in ViewCodec::ALL {
            registry
                .register(
                    Scenario::new(
                        wire_family(),
                        Task::Selection,
                        SolverSpec::Map,
                        backends[0],
                        2,
                    )
                    .metered(codec),
                )
                .expect("built-in grid has unique names");
        }
        registry
            .register(Scenario::new(
                wire_family(),
                Task::Selection,
                SolverSpec::Map,
                Backend::capped(64),
                2,
            ))
            .expect("built-in grid has unique names");
        registry
    }

    /// The smoke grid: all four families at small sizes × all four shades × the map
    /// solver, plus the advice pair on Selection (tree- and DAG-codec advice), a
    /// backend axis covering every execution strategy (fixed-thread parallel, arena
    /// batching, adaptive), and a wire axis (one metered scenario per codec plus a
    /// capped-bandwidth point) — 44 scenarios of ≤ 2 instances each, fast enough
    /// for CI.
    pub fn smoke() -> Self {
        Self::grid(
            || Self::grid_families(vec![16, 24], vec![(3, 4), (4, 4)], vec![3, 4], vec![15, 24]),
            &[
                Backend::Sequential,
                Backend::parallel(2),
                Backend::parallel(4),
                Backend::Batching,
                Backend::AdaptiveParallel,
            ],
            2,
        )
    }

    /// The standard grid: the smoke sizes plus larger steps per family — up to
    /// 10 000 nodes on the random-regular and circulant families — for locally
    /// tracking the perf trajectory. All four shades climb the full size ladder:
    /// since the class-quotient search replaced raw simple-path enumeration, the
    /// strong shades (PPE, CPPE) resolve the 10⁴-node instances inside the map
    /// solver's default 50 000-operation budget instead of stopping at ~25 nodes.
    pub fn standard() -> Self {
        Self::grid(
            || {
                Self::grid_families(
                    vec![16, 24, 64, 128, 10_000],
                    vec![(3, 4), (4, 4), (8, 8), (11, 12)],
                    vec![3, 4, 6, 7],
                    vec![15, 24, 64, 128, 10_000],
                )
            },
            &[
                Backend::Sequential,
                Backend::parallel(4),
                Backend::parallel(8),
                Backend::Batching,
                Backend::AdaptiveParallel,
            ],
            5,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_encode_the_grid_point() {
        let s = Scenario::new(
            TorusFamily::new(vec![(3, 3)]),
            Task::Selection,
            SolverSpec::Map,
            Backend::Sequential,
            1,
        );
        assert_eq!(s.name(), "torus2d/S/map/seq");
    }

    #[test]
    fn registry_rejects_duplicates_and_selects_by_substring() {
        let mut r = ScenarioRegistry::new();
        r.register(Scenario::new(
            TorusFamily::new(vec![(3, 3)]),
            Task::Selection,
            SolverSpec::Map,
            Backend::Sequential,
            1,
        ))
        .unwrap();
        let dup = r.register(Scenario::new(
            TorusFamily::new(vec![(4, 4)]),
            Task::Selection,
            SolverSpec::Map,
            Backend::Sequential,
            1,
        ));
        assert!(matches!(dup, Err(RegistryError::Duplicate(_))));
        r.register(Scenario::new(
            TorusFamily::new(vec![(3, 3)]),
            Task::PortElection,
            SolverSpec::Map,
            Backend::Sequential,
            1,
        ))
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.select("torus").len(), 2);
        assert_eq!(r.select("/PE/").len(), 1);
        assert_eq!(r.select("").len(), 2);
        assert!(r.get("torus2d/S/map/seq").is_some());
        assert!(r.get("nope").is_none());
    }

    #[test]
    fn smoke_grid_covers_all_families_shades_and_backends() {
        let r = ScenarioRegistry::smoke();
        let names = r.names().join("\n");
        // All four families appear.
        for fam in ["random-regular", "torus2d", "hypercube", "circulant"] {
            assert!(names.contains(fam), "{fam} missing from\n{names}");
        }
        // All four shades appear in the map × shade block.
        for task in ["S", "PE", "PPE", "CPPE"] {
            assert!(names.contains(&format!("/{task}/map/seq")), "{task}");
        }
        // Backend and solver axes appear, including the arena-based backends.
        assert!(names.contains("/par2"));
        assert!(names.contains("/par4"));
        assert!(names.contains("/batch"));
        assert!(names.contains("/adaptive"));
        assert!(names.contains("/advice/"));
        assert!(names.contains("/advice-dag/"));
        // The wire axis: one metered scenario per codec plus a capped-backend point.
        for codec in ["tree", "dag", "delta"] {
            assert!(names.contains(&format!("+wire-{codec}")), "{codec}");
        }
        assert!(names.contains("/cap64"));
        // 4 families × (4 map shades + 2 advice codecs + 4 extra backends) = 40,
        // plus the wire axis (3 codecs + 1 capped point) = 44.
        assert_eq!(r.len(), 44);
    }

    #[test]
    fn guarded_advice_solver_reports_instead_of_panicking_on_symmetric_graphs() {
        let symmetric = TorusFamily::generate(3, 3);
        for codec in [ViewCodec::Tree, ViewCodec::Dag] {
            let err = GuardedAdviceSolver { codec }
                .solve(&symmetric, Task::Selection, &RunContext::default())
                .unwrap_err();
            assert!(matches!(err, EngineError::Solver { .. }));
        }
    }

    #[test]
    fn scenario_run_produces_rows_for_each_instance() {
        let s = Scenario::new(
            RandomRegularFamily::new(3, vec![16, 24], 0xA5EED),
            Task::Selection,
            SolverSpec::Map,
            Backend::Sequential,
            2,
        );
        let rows = s.run();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.solved(), "{}: {:?}", row.instance, row.report);
        }
    }

    #[test]
    fn metered_scenarios_report_bits_and_match_their_unmetered_twin() {
        let family = || RandomRegularFamily::new(3, vec![16], 0xA5EED);
        let plain = Scenario::new(
            family(),
            Task::Selection,
            SolverSpec::Map,
            Backend::Sequential,
            1,
        );
        let metered = Scenario::new(
            family(),
            Task::Selection,
            SolverSpec::Map,
            Backend::Sequential,
            1,
        )
        .metered(ViewCodec::Delta);
        assert!(
            metered.name().ends_with("/S/map/seq+wire-delta"),
            "{}",
            metered.name()
        );
        let (p, m) = (plain.run(), metered.run());
        for (a, b) in p.iter().zip(&m) {
            assert!(b.solved(), "{}", b.instance);
            assert!(a.wire_bits().is_none());
            assert!(b.wire_bits().unwrap() > 0);
            assert_eq!(a.rounds(), b.rounds());
            assert_eq!(
                a.report.as_ref().unwrap().outputs,
                b.report.as_ref().unwrap().outputs
            );
        }
    }

    #[test]
    fn scenarios_share_materialised_instances_across_grid_points() {
        // Two scenarios over the same family coordinates (different tasks) must agree
        // when run against one shared materialisation — this is what the sweep
        // driver's per-family instance cache relies on.
        let family = || RandomRegularFamily::new(3, vec![16, 24], 0xA5EED);
        let s1 = Scenario::new(
            family(),
            Task::Selection,
            SolverSpec::Map,
            Backend::Sequential,
            2,
        );
        let s2 = Scenario::new(
            family(),
            Task::PortElection,
            SolverSpec::Map,
            Backend::Sequential,
            2,
        );
        let instances = s1.materialize();
        assert_eq!(instances.len(), 2);
        for (shared, fresh) in s2.run_on(&instances).iter().zip(s2.run()) {
            assert_eq!(shared.instance, fresh.instance);
            assert_eq!(shared.rounds(), fresh.rounds());
            assert_eq!(shared.solved(), fresh.solved());
        }
    }
}
