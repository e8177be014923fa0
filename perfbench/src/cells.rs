//! Benchmark cells: one election configuration (graph × task × solver × backend ×
//! optional wire codec), the seeded instance generators the workloads draw their
//! graphs from, and the comparable [`Outcome`] of one election.

use anet_constructions::GraphFamily;
use anet_election::engine::{
    AdviceSolver, Backend, ElectionBuilder, ElectionReport, EngineError, MapSolver, MessageCodec,
};
use anet_election::tasks::{ElectionOutcome, NodeOutput, Task, TaskError};
use anet_election::Election;
use anet_graph::rng::Rng;
use anet_graph::PortGraph;
use anet_views::election_index::feasibility;
use anet_workloads::families::{
    CirculantFamily, HypercubeFamily, RandomRegularFamily, TorusFamily,
};
use std::sync::Arc;

/// Which solver a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// `MapSolver::default()`.
    Map,
    /// `AdviceSolver::theorem_2_2` (unfolded-tree advice).
    AdviceTree,
    /// `AdviceSolver::theorem_2_2_dag` (shared-DAG advice).
    AdviceDag,
}

impl SolverKind {
    pub fn label(self) -> &'static str {
        match self {
            SolverKind::Map => "map",
            SolverKind::AdviceTree => "thm2.2",
            SolverKind::AdviceDag => "thm2.2-dag",
        }
    }
}

/// A graph topology the workloads draw instances from. Tori and circulants get
/// seed-shuffled port labels (their canonical labels are symmetric, hence
/// infeasible); random-regular graphs are random by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Random 3-regular graph on `n` nodes (pairing model).
    Rr3(usize),
    /// `w × h` torus.
    Torus(usize, usize),
    /// Circulant `C_n(1, 2, …, 2^{t−1})`.
    Circulant(usize, usize),
    /// `d`-dimensional hypercube.
    Hypercube(usize),
}

impl Topology {
    pub fn label(self) -> String {
        match self {
            Topology::Rr3(n) => format!("rr3-n{n}"),
            Topology::Torus(w, h) => format!("torus{w}x{h}"),
            Topology::Circulant(n, t) => format!("circ{n}t{t}"),
            Topology::Hypercube(d) => format!("cube{d}"),
        }
    }

    pub fn generate(self, seed: u64) -> PortGraph {
        match self {
            Topology::Rr3(n) => RandomRegularFamily::new(3, vec![n], seed).generate(n),
            Topology::Torus(w, h) => first_instance(TorusFamily::new(vec![(w, h)]).shuffled(seed)),
            Topology::Circulant(n, t) => {
                first_instance(CirculantFamily::powers_of_two(vec![n], t).shuffled(seed))
            }
            Topology::Hypercube(d) => first_instance(HypercubeFamily::new(vec![d]).shuffled(seed)),
        }
    }
}

fn first_instance(family: impl GraphFamily) -> PortGraph {
    family
        .instances(1)
        .pop()
        .expect("a one-size family yields one instance")
        .graph
}

/// One generated network.
#[derive(Debug, Clone)]
pub struct Instance {
    pub name: String,
    pub graph: Arc<PortGraph>,
}

/// The instance of `topology` with shuffle (or generator) seed `seed`, if it is
/// feasible: all views distinct, so some shade is solvable.
pub fn feasible_instance(topology: Topology, seed: u64) -> Option<Instance> {
    let graph = topology.generate(seed);
    feasibility(&graph).feasible.then(|| Instance {
        name: topology.label(),
        graph: Arc::new(graph),
    })
}

/// Draw a feasible instance of `topology` from `rng`: the shuffle seed comes from
/// the stream, and an infeasible draw is replaced by the next one. Deterministic
/// per stream.
pub fn draw_feasible(topology: Topology, rng: &mut Rng) -> Result<Instance, String> {
    const ATTEMPTS: usize = 256;
    for _ in 0..ATTEMPTS {
        if let Some(instance) = feasible_instance(topology, rng.next_u64()) {
            return Ok(instance);
        }
    }
    Err(format!(
        "{} stayed infeasible over {ATTEMPTS} shuffles",
        topology.label()
    ))
}

/// One election configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    pub instance: Instance,
    pub task: Task,
    pub solver: SolverKind,
    pub backend: Backend,
    /// `Some` meters the wire through this codec (`ElectionBuilder::metered`).
    pub codec: Option<MessageCodec>,
}

impl Cell {
    pub fn new(instance: &Instance, task: Task, solver: SolverKind, backend: Backend) -> Cell {
        Cell {
            instance: instance.clone(),
            task,
            solver,
            backend,
            codec: None,
        }
    }

    pub fn metered(mut self, codec: MessageCodec) -> Cell {
        self.codec = Some(codec);
        self
    }

    pub fn graph(&self) -> &PortGraph {
        &self.instance.graph
    }

    /// The codec the run actually meters with: the requested one, or the default
    /// codec a capped backend forces.
    pub fn effective_codec(&self) -> Option<MessageCodec> {
        self.codec
            .or_else(|| matches!(self.backend, Backend::Capped { .. }).then(MessageCodec::default))
    }

    /// Is the simulation's round count the logical one (no bandwidth cap)?
    pub fn logical_rounds(&self) -> bool {
        !matches!(self.backend, Backend::Capped { .. })
    }

    pub fn label(&self) -> String {
        let codec = self
            .codec
            .map(|c| format!(" metered:{c}"))
            .unwrap_or_default();
        format!(
            "{} {} {} {}{codec}",
            self.instance.name,
            self.task,
            self.solver.label(),
            self.backend
        )
    }

    /// The public entry point for this cell, configured once and reusable.
    pub fn builder(&self) -> ElectionBuilder {
        let builder = Election::task(self.task).backend(self.backend);
        let builder = match self.solver {
            SolverKind::Map => builder.solver(MapSolver::default()),
            SolverKind::AdviceTree => builder.solver(AdviceSolver::theorem_2_2()),
            SolverKind::AdviceDag => builder.solver(AdviceSolver::theorem_2_2_dag()),
        };
        match self.codec {
            Some(codec) => builder.metered(codec),
            None => builder,
        }
    }

    /// The same election without metering or a bandwidth cap, on the sequential
    /// backend: the twin a metered or capped cell must agree with.
    pub fn unmetered_twin(&self) -> Cell {
        Cell {
            backend: Backend::Sequential,
            codec: None,
            ..self.clone()
        }
    }
}

/// Everything about one election that the benchmark compares across entry points:
/// the typed error or the outputs, the verdict and the cost counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub error: Option<EngineError>,
    pub rounds: usize,
    pub messages: usize,
    pub outputs: Vec<NodeOutput>,
    pub verdict: Option<Result<ElectionOutcome, TaskError>>,
    pub wire_bits: Option<u64>,
    pub advice_bits: Option<usize>,
    pub advice_tree_bits: Option<usize>,
    pub advice_dag_bits: Option<usize>,
}

impl Outcome {
    pub fn from_run(run: Result<ElectionReport, EngineError>) -> Outcome {
        match run {
            Ok(report) => Outcome {
                error: None,
                rounds: report.rounds,
                messages: report.messages_delivered,
                outputs: report.outputs,
                verdict: Some(report.verdict),
                wire_bits: report.wire.as_ref().map(|w| w.total_bits()),
                advice_bits: report.advice_bits,
                advice_tree_bits: report.advice_tree_bits,
                advice_dag_bits: report.advice_dag_bits,
            },
            Err(error) => Outcome::failed(error),
        }
    }

    pub fn failed(error: EngineError) -> Outcome {
        Outcome {
            error: Some(error),
            rounds: 0,
            messages: 0,
            outputs: Vec::new(),
            verdict: None,
            wire_bits: None,
            advice_bits: None,
            advice_tree_bits: None,
            advice_dag_bits: None,
        }
    }

    /// Did the election end in a verified verdict?
    pub fn verified(&self) -> bool {
        self.error.is_none() && matches!(self.verdict, Some(Ok(_)))
    }

    /// One line describing how two outcomes differ (for failure messages).
    pub fn diff(&self, other: &Outcome) -> String {
        format!(
            "error {:?} vs {:?}; rounds {} vs {}; messages {} vs {}; verdict {:?} vs {:?}; \
             wire {:?} vs {:?}; advice {:?} vs {:?}; outputs equal: {}",
            self.error,
            other.error,
            self.rounds,
            other.rounds,
            self.messages,
            other.messages,
            self.verdict,
            other.verdict,
            self.wire_bits,
            other.wire_bits,
            self.advice_bits,
            other.advice_bits,
            self.outputs == other.outputs
        )
    }
}
