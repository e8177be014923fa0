//! The engine workloads' three passes over a cell set:
//!
//! 1. [`gate`] — untimed: one `Election::run` per cell gives the expected outcome
//!    and the deterministic totals, and checks the paper's invariants;
//! 2. [`timed_pass`] — the end-to-end measurement: `Election::run` per cell, cycled
//!    until the time is up, every outcome compared against the gate's;
//! 3. [`traced_pass`] — per cell, one untimed-layer `Election::run` and one
//!    layer-by-layer rebuild ([`crate::traced`]), both compared against the gate.

use crate::cells::{Cell, Outcome, SolverKind};
use crate::report::{ms, Metrics};
use crate::traced::{self, Layers, FULL_INFO_BACKENDS, SHADES, TRANSPORTS};
use anet_election::engine::{AdviceSolver, Election, MapSolver};
use anet_election::tasks::Task;
use anet_views::election_index;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every run issues at least this many elections, so even a short run takes each
/// cell's best time over several repetitions.
const MIN_ELECTIONS: usize = 200;

/// The gate's expected outcomes and the one-pass totals.
#[derive(Debug)]
pub struct Gate {
    pub expected: Vec<Outcome>,
    /// Per cell: the Theorem 2.2 (tree-codec) advice size of its graph on
    /// Selection cells, 0 on the other shades.
    pub advice_ref_bits: Vec<u64>,
    /// Σ rounds over verified cells.
    pub rounds_total: u64,
    /// Σ over Selection cells of the Theorem 2.2 (tree-codec) advice size of the
    /// cell's graph.
    pub advice_bits_total: u64,
    /// Σ wire bits over metered cells.
    pub wire_bits_total: u64,
    /// Cells whose election ended in a verified verdict.
    pub verified: u64,
}

/// Reference Selection results of one graph: the map solver's rounds and the
/// Theorem 2.2 pair's rounds and tree-codec advice size.
#[derive(Debug, Clone, Copy)]
struct SelectionRef {
    rounds: usize,
    tree_bits: usize,
}

fn graph_key(cell: &Cell) -> usize {
    Arc::as_ptr(&cell.instance.graph) as usize
}

fn selection_ref(cell: &Cell) -> Result<SelectionRef, String> {
    let graph = cell.graph();
    let map = Outcome::from_run(
        Election::task(Task::Selection)
            .solver(MapSolver::default())
            .run(graph),
    );
    let advice = Outcome::from_run(
        Election::task(Task::Selection)
            .solver(AdviceSolver::theorem_2_2())
            .run(graph),
    );
    if !map.verified() || !advice.verified() {
        return Err(format!(
            "{}: Selection reference runs did not verify ({})",
            cell.instance.name,
            map.diff(&advice)
        ));
    }
    if map.rounds != advice.rounds {
        return Err(format!(
            "{}: Theorem 2.2 took {} rounds, the map solver {}",
            cell.instance.name, advice.rounds, map.rounds
        ));
    }
    Ok(SelectionRef {
        rounds: map.rounds,
        tree_bits: advice
            .advice_tree_bits
            .ok_or("Theorem 2.2 reported no tree size")?,
    })
}

/// `ψ_Z` from `election_index`, searching with the map solver's path budget:
/// `None` when the index does not resolve within it, `Some(None)` when it says
/// the task is infeasible.
fn psi(cell: &Cell) -> Option<Option<usize>> {
    let g = cell.graph();
    let budget = MapSolver::default().max_paths;
    match cell.task {
        Task::Selection => Some(election_index::psi_s(g)),
        Task::PortElection => Some(election_index::psi_pe(g)),
        Task::PortPathElection => election_index::psi_ppe(g, budget).ok(),
        Task::CompletePortPathElection => election_index::psi_cppe(g, budget).ok(),
    }
}

/// The untimed correctness gate. Errors describe the first violated check.
pub fn gate(cells: &[Cell]) -> Result<Gate, String> {
    let mut refs: HashMap<usize, SelectionRef> = HashMap::new();
    let mut gate = Gate {
        expected: Vec::with_capacity(cells.len()),
        advice_ref_bits: Vec::with_capacity(cells.len()),
        rounds_total: 0,
        advice_bits_total: 0,
        wire_bits_total: 0,
        verified: 0,
    };
    for cell in cells {
        let label = cell.label();
        let outcome = Outcome::from_run(cell.builder().run(cell.graph()));
        if let (None, Some(Err(e))) = (&outcome.error, &outcome.verdict) {
            return Err(format!(
                "{label}: solver returned outputs the verifier rejects: {e}"
            ));
        }
        let mut advice_ref = 0;
        if cell.task == Task::Selection {
            let reference = match refs.get(&graph_key(cell)) {
                Some(r) => *r,
                None => {
                    let r = selection_ref(cell)?;
                    refs.insert(graph_key(cell), r);
                    r
                }
            };
            advice_ref = reference.tree_bits as u64;
            if outcome.verified() && cell.logical_rounds() && outcome.rounds != reference.rounds {
                return Err(format!(
                    "{label}: {} rounds, but ψ_S from the map solver is {}",
                    outcome.rounds, reference.rounds
                ));
            }
        }
        if outcome.verified() && cell.solver == SolverKind::Map && cell.logical_rounds() {
            match psi(cell) {
                Some(Some(h)) if h == outcome.rounds => {}
                Some(index) => {
                    return Err(format!(
                        "{label}: map solver took {} rounds, election_index gives {index:?}",
                        outcome.rounds
                    ))
                }
                None => {}
            }
        }
        if outcome.verified() && cell.effective_codec().is_some() {
            let twin = Outcome::from_run(cell.unmetered_twin().builder().run(cell.graph()));
            let rounds_ok = if cell.logical_rounds() {
                twin.rounds == outcome.rounds
            } else {
                outcome.rounds >= twin.rounds
            };
            if twin.outputs != outcome.outputs
                || twin.messages != outcome.messages
                || twin.verdict != outcome.verdict
                || !rounds_ok
            {
                return Err(format!(
                    "{label}: metered run differs from its unmetered twin: {}",
                    outcome.diff(&twin)
                ));
            }
        }
        if outcome.verified() {
            gate.verified += 1;
            gate.rounds_total += outcome.rounds as u64;
        }
        gate.wire_bits_total += outcome.wire_bits.unwrap_or(0);
        gate.advice_bits_total += advice_ref;
        gate.advice_ref_bits.push(advice_ref);
        gate.expected.push(outcome);
    }
    Ok(gate)
}

/// Per-election latencies of the end-to-end pass.
#[derive(Debug, Default)]
pub struct TimedPass {
    /// Every election's `Election::run` time, in run order (whole passes over
    /// the cells, so election `k` ran cell `k % cells`).
    pub latencies: Vec<Duration>,
    pub elections: u64,
    pub failed: u64,
}

impl TimedPass {
    /// Each cell's fastest `Election::run` time over the pass, in cell order.
    ///
    /// On a shared host the same election's time swings by up to 2× within
    /// seconds, while a fixed cache-resident loop stays within about 10%: the
    /// swings are other tenants' memory traffic, not the program. A cell's
    /// fastest repetition is its time when the host let it run; it stays
    /// steady across runs where means, medians and low quantiles do not.
    pub fn best_per_cell(&self, cells: usize) -> Vec<Duration> {
        (0..cells)
            .map(|c| {
                let runs = self.latencies.iter().skip(c).step_by(cells);
                runs.min().copied().unwrap_or_default()
            })
            .collect()
    }
}

fn check(cell: &Cell, got: &Outcome, expected: &Outcome, what: &str) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "{}: {what} differs from the gate: {}",
            cell.label(),
            got.diff(expected)
        ))
    }
}

/// Cycle `Election::run` over the cells (whole cycles) until `seconds` have passed
/// and at least [`MIN_ELECTIONS`] elections ran.
pub fn timed_pass(cells: &[Cell], gate: &Gate, seconds: f64) -> Result<TimedPass, String> {
    let builders: Vec<_> = cells.iter().map(Cell::builder).collect();
    let mut pass = TimedPass::default();
    let start = Instant::now();
    loop {
        for ((cell, builder), expected) in cells.iter().zip(&builders).zip(&gate.expected) {
            let t = Instant::now();
            let run = builder.run(cell.graph());
            let took = t.elapsed();
            let outcome = Outcome::from_run(run);
            check(cell, &outcome, expected, "Election::run")?;
            if !outcome.verified() {
                pass.failed += 1;
            }
            pass.latencies.push(took);
            pass.elections += 1;
        }
        if start.elapsed().as_secs_f64() >= seconds && pass.elections >= MIN_ELECTIONS as u64 {
            return Ok(pass);
        }
    }
}

/// Layer totals of the traced pass.
#[derive(Debug, Default)]
pub struct TracedPass {
    pub layers: Layers,
    /// Whole passes over the cell set.
    pub cycles: u64,
    /// Σ `Election::run` time over the same cells.
    pub untraced: Duration,
    /// Σ rebuild time (layers plus the glue between them).
    pub traced: Duration,
    pub elections: u64,
    pub failed: u64,
}

/// Per cell, `Election::run` and the layer rebuild (alternating which goes
/// first), both checked against the gate; whole cycles until `seconds` passed.
pub fn traced_pass(cells: &[Cell], gate: &Gate, seconds: f64) -> Result<TracedPass, String> {
    let builders: Vec<_> = cells.iter().map(Cell::builder).collect();
    let mut pass = TracedPass::default();
    let start = Instant::now();
    loop {
        for (i, ((cell, builder), expected)) in
            cells.iter().zip(&builders).zip(&gate.expected).enumerate()
        {
            for step in 0..2 {
                if (step + i + pass.cycles as usize).is_multiple_of(2) {
                    let t = Instant::now();
                    let run = builder.run(cell.graph());
                    pass.untraced += t.elapsed();
                    check(cell, &Outcome::from_run(run), expected, "Election::run")?;
                } else {
                    let t = Instant::now();
                    let outcome = traced::rebuild(cell, &mut pass.layers);
                    pass.traced += t.elapsed();
                    check(cell, &outcome, expected, "traced rebuild")?;
                }
            }
            pass.elections += 2;
            if !expected.verified() {
                pass.failed += 2;
            }
        }
        pass.cycles += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(pass);
        }
    }
}

/// Record the traced pass's per-layer metrics, per pass over the cell set.
pub fn record_layers(pass: &TracedPass, m: &mut Metrics) {
    let per = |d: Duration| ms(d) / pass.cycles as f64;
    let count = |c: u64| c as f64 / pass.cycles as f64;
    let l = &pass.layers;
    m.set("refinement.ms", per(l.refinement), "ms");
    m.set("refinement.calls", count(l.refinement_calls), "count");
    m.set("election_index.ms", per(l.index), "ms");
    m.set(
        "election_index.classes_expanded",
        count(l.classes_expanded),
        "count",
    );
    m.set(
        "election_index.paths_explored",
        count(l.paths_explored),
        "count",
    );
    m.set(
        "election_index.leaders_tried",
        count(l.leaders_tried),
        "count",
    );
    let useful = if l.leaders_tried == 0 {
        0.0
    } else {
        l.leaders_useful as f64 / l.leaders_tried as f64
    };
    m.set("election_index.useful_ratio", useful, "share");
    m.set(
        "election_index.budget_exceeded",
        count(l.budget_exceeded),
        "count",
    );
    m.set("interned.build_ms", per(l.intern_build), "ms");
    m.set("interned.canon_ms", per(l.intern_canon), "ms");
    m.set("interned.distinct_views", count(l.distinct_views), "count");
    m.set("interned.teardown_ms", per(l.teardown), "ms");
    for (name, d) in FULL_INFO_BACKENDS.iter().zip(l.full_info) {
        m.set(&format!("full_info.ms.{name}"), per(d), "ms");
    }
    m.set("full_info.messages", count(l.full_info_messages), "count");
    m.set("selection.oracle_ms", per(l.oracle), "ms");
    m.set("selection.decide_ms", per(l.decide), "ms");
    m.set("selection.tree_bits", count(l.tree_bits), "bits");
    m.set("selection.dag_bits", count(l.dag_bits), "bits");
    for (name, d) in SHADES.iter().zip(l.verify) {
        m.set(&format!("tasks.verify_ms.{name}"), per(d), "ms");
    }
    for (name, d) in TRANSPORTS.iter().zip(l.transport) {
        m.set(&format!("transport.ms.{name}"), per(d), "ms");
    }
    let bits_per_message = if l.wire_messages == 0 {
        0.0
    } else {
        l.wire_bits as f64 / l.wire_messages as f64
    };
    m.set("transport.bits_per_message", bits_per_message, "bits");
    m.set(
        "transport.physical_rounds",
        count(l.physical_rounds),
        "count",
    );
    m.set("transport.wire_bits_total", count(l.wire_bits), "bits");
    m.set(
        "engine.residual_ms",
        (ms(pass.untraced) - ms(l.total())) / pass.cycles as f64,
        "ms",
    );
    m.set(
        "engine.trace_overhead_share",
        pass.traced.as_secs_f64() / pass.untraced.as_secs_f64(),
        "share",
    );
}

/// A human-readable attribution table (stderr), shares of the traced layers.
pub fn attribution(pass: &TracedPass) -> String {
    let l = &pass.layers;
    let total = ms(l.total());
    let share = |d: Duration| 100.0 * ms(d) / total;
    let rows = [
        ("refinement", l.refinement),
        ("election_index", l.index),
        (
            "interned (build+canon+teardown)",
            l.intern_build + l.intern_canon + l.teardown,
        ),
        ("full_info", l.full_info.iter().sum()),
        ("selection (oracle+decide)", l.oracle + l.decide),
        ("tasks.verify", l.verify.iter().sum()),
        ("transport", l.transport.iter().sum()),
    ];
    let mut out = format!(
        "traced layers: {:.1} ms per pass over {} passes; Election::run {:.1} ms per pass\n",
        total / pass.cycles as f64,
        pass.cycles,
        ms(pass.untraced) / pass.cycles as f64
    );
    for (name, d) in rows {
        out.push_str(&format!("  {name:<34} {:5.1}%\n", share(d)));
    }
    out
}
