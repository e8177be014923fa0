//! Transport equivalence: the metered wire path (tentpole of the bit-metering PR)
//! must be an *observer*, never an *actor*. Putting a codec on the wire — or
//! capping the per-edge bandwidth CONGEST-style — may change what the report says
//! about bits and physical rounds, but never which leader is elected, what each
//! node outputs, or how many messages the algorithm exchanged.
//!
//! Three pressure points:
//! * metering on vs off across every backend of `Backend::smoke_set()` and every
//!   task shade — bit-identical verdicts and reports modulo the new wire fields,
//! * `Backend::Capped` with a generous budget vs the uncapped run — the stream
//!   degenerates to one physical round per logical round,
//! * the accounting itself — per-round sums, per-edge sums, and the total must
//!   all reconcile, capped or not.

use four_shades::constructions::UClass;
use four_shades::prelude::*;
use four_shades::sim::run_metered;
use four_shades::views::ViewCodec;
use four_shades::workloads::{RandomRegularFamily, TorusFamily};

/// Small, irregular-enough instances: one random 3-regular graph and one
/// seed-shuffled torus, the same shapes the smoke grid's wire axis pins.
fn wire_instances() -> Vec<FamilyInstance> {
    let families: Vec<Box<dyn GraphFamily>> = vec![
        Box::new(RandomRegularFamily::new(3, vec![16], 0xA5EED)),
        Box::new(TorusFamily::new(vec![(3, 4)]).shuffled(41)),
    ];
    families.iter().map(|f| f.instances(1).remove(0)).collect()
}

/// Everything the election *algorithm* determines, with the transport-dependent
/// observables (timing, wire stats, physical round count under a cap) left out.
fn verdict(report: &ElectionReport) -> (bool, Option<u32>, Vec<NodeOutput>, usize) {
    (
        report.solved(),
        report.leader(),
        report.outputs.clone(),
        report.messages_delivered,
    )
}

#[test]
fn metering_changes_nothing_but_the_wire_fields_across_the_smoke_set() {
    for instance in wire_instances() {
        let g = &instance.graph;
        for task in Task::ALL {
            let plain = Election::task(task)
                .solver(MapSolver::default())
                .backend(Backend::Sequential)
                .run(g)
                .unwrap_or_else(|e| panic!("{}: {task}: {e}", instance.name));
            assert!(plain.wire.is_none(), "unmetered runs carry no wire stats");
            for backend in Backend::smoke_set() {
                for codec in ViewCodec::ALL {
                    let metered = Election::task(task)
                        .solver(MapSolver::default())
                        .backend(backend)
                        .metered(codec)
                        .run(g)
                        .unwrap();
                    let ctx = format!("{}: {task} on {backend} via {codec}", instance.name);
                    assert_eq!(verdict(&metered), verdict(&plain), "{ctx}");
                    assert_eq!(metered.rounds, plain.rounds, "{ctx}");
                    let wire = metered.wire.as_ref().unwrap_or_else(|| panic!("{ctx}"));
                    assert_eq!(wire.codec, codec, "{ctx}");
                    assert_eq!(wire.bits_per_edge_cap, None, "{ctx}");
                    assert!(wire.total_bits() > 0, "{ctx}: something crossed the wire");
                }
            }
        }
    }
}

#[test]
fn a_generous_cap_degenerates_to_the_uncapped_run() {
    // A budget at least as large as the biggest single-edge round payload means
    // every logical round fits in one physical round: the capped report must
    // match the uncapped metered report bit for bit, cap field aside.
    for instance in wire_instances() {
        let g = &instance.graph;
        let uncapped = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .metered(ViewCodec::default())
            .run(g)
            .unwrap();
        let wire = uncapped.wire.as_ref().unwrap();
        // Total bits over the whole run certainly bounds any per-round payload.
        let generous = wire.total_bits().max(1);
        let capped = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .backend(Backend::capped(generous))
            .run(g)
            .unwrap();
        let ctx = &instance.name;
        assert_eq!(verdict(&capped), verdict(&uncapped), "{ctx}");
        assert_eq!(capped.rounds, uncapped.rounds, "{ctx}: no inflation");
        let capped_wire = capped.wire.as_ref().unwrap();
        assert_eq!(capped_wire.bits_per_edge_cap, Some(generous), "{ctx}");
        assert_eq!(capped_wire.total_bits(), wire.total_bits(), "{ctx}");
        assert_eq!(capped_wire.per_round_bits, wire.per_round_bits, "{ctx}");
        assert_eq!(capped_wire.per_edge_bits, wire.per_edge_bits, "{ctx}");
    }
}

#[test]
fn a_tight_cap_inflates_rounds_but_not_the_verdict() {
    for instance in wire_instances() {
        let g = &instance.graph;
        let plain = Election::task(Task::Selection)
            .solver(MapSolver::default())
            .run(g)
            .unwrap();
        for cap in [1u64, 8, 64] {
            let capped = Election::task(Task::Selection)
                .solver(MapSolver::default())
                .backend(Backend::capped(cap))
                .run(g)
                .unwrap();
            let ctx = format!("{} under cap {cap}", instance.name);
            assert_eq!(verdict(&capped), verdict(&plain), "{ctx}");
            assert!(capped.rounds >= plain.rounds, "{ctx}");
            let wire = capped.wire.as_ref().unwrap();
            // The cap is a hard per-edge limit: no physical round may move more
            // than cap bits across each of the 2m directed edges.
            let edges = wire.per_edge_bits.len() as u64;
            for (round, &bits) in wire.per_round_bits.iter().enumerate() {
                assert!(
                    bits <= cap * edges,
                    "{ctx}: round {} moved {bits} bits",
                    round + 1
                );
            }
        }
    }
}

#[test]
fn per_round_and_per_edge_accounting_reconcile() {
    // The same bits are tallied on two independent axes (when they crossed and
    // where they crossed); the books must balance on every codec and under caps.
    for instance in wire_instances() {
        let g = &instance.graph;
        let mut runs = Vec::new();
        for codec in ViewCodec::ALL {
            runs.push(
                Election::task(Task::Selection)
                    .solver(MapSolver::default())
                    .metered(codec)
                    .run(g)
                    .unwrap(),
            );
        }
        runs.push(
            Election::task(Task::Selection)
                .solver(MapSolver::default())
                .backend(Backend::capped(16))
                .metered(ViewCodec::Delta)
                .run(g)
                .unwrap(),
        );
        for report in &runs {
            let wire = report.wire.as_ref().unwrap();
            let by_round: u64 = wire.per_round_bits.iter().sum();
            let by_edge: u64 = wire.per_edge_bits.iter().sum();
            let ctx = format!("{} via {}", instance.name, wire.codec);
            assert_eq!(by_round, wire.total_bits(), "{ctx}");
            assert_eq!(by_edge, wire.per_edge_total(), "{ctx}");
            assert_eq!(by_round, by_edge, "{ctx}: the two axes tally the same bits");
            assert_eq!(
                wire.per_round_bits.len(),
                report.rounds,
                "{ctx}: one entry per physical round"
            );
        }
    }
}

#[test]
fn advice_pairs_meter_their_wire_too() {
    // The advice framework rides the same transport seam: Theorem 2.2's pair,
    // metered, must elect the same leader with the same advice string.
    let g = TorusFamily::new(vec![(3, 4)])
        .shuffled(41)
        .instances(1)
        .remove(0)
        .graph;
    let plain = Election::task(Task::Selection)
        .solver(AdviceSolver::theorem_2_2())
        .run(&g)
        .unwrap();
    for codec in ViewCodec::ALL {
        let metered = Election::task(Task::Selection)
            .solver(AdviceSolver::theorem_2_2())
            .metered(codec)
            .run(&g)
            .unwrap();
        assert_eq!(verdict(&metered), verdict(&plain), "{codec}");
        assert_eq!(metered.advice_bits, plain.advice_bits, "{codec}");
        assert!(metered.wire.as_ref().unwrap().total_bits() > 0, "{codec}");
    }
}

#[test]
fn the_lemma_3_9_solver_honours_every_codec_and_a_cap() {
    // The Port Election solver collects its views through the same seam: on a
    // 450-node U_{4,1} member, metering and profiling observe the run, and a
    // 16-bit cap streams its one logical round across two physical ones.
    let class = UClass::new(4, 1).unwrap();
    let g = class.member(&[2u32; 9]).unwrap().labeled.graph;
    assert_eq!(g.num_nodes(), 450);
    let election = || Election::task(Task::PortElection).solver(PortElectionSolver::new(class.k));
    let plain = election().run(&g).unwrap();
    assert!(plain.solved(), "{}", plain.summary());
    for codec in ViewCodec::ALL {
        let metered = election().metered(codec).profiled().run(&g).unwrap();
        assert_eq!(metered.outputs, plain.outputs, "{codec}");
        assert_eq!(metered.rounds, plain.rounds, "{codec}");
        assert_eq!(
            metered.messages_delivered, plain.messages_delivered,
            "{codec}"
        );
        let wire = metered.wire.as_ref().expect("metered run");
        let profile = metered.round_profile.as_ref().expect("profiled run");
        assert_eq!(wire.total_bits(), profile.total_wire_bits(), "{codec}");
        assert_eq!(
            profile.total_messages(),
            metered.messages_delivered as u64,
            "{codec}"
        );
    }
    let capped = election().backend(Backend::capped(16)).run(&g).unwrap();
    assert_eq!(verdict(&capped), verdict(&plain));
    assert_eq!(capped.wire.as_ref().unwrap().bits_per_edge_cap, Some(16));
    assert_eq!((plain.rounds, capped.rounds), (1, 2), "rounds inflate only");
}

#[test]
fn wire_bit_totals_are_pinned_on_the_bench_instances() {
    // The absolute totals the transport bench records, on its own instances: a
    // route or codec change that moved a delta base or a standalone fallback
    // would shift them even where metered and unmetered verdicts still agree.
    let rr = RandomRegularFamily::new(3, vec![96], 0xA5EED).generate(96);
    let torus = TorusFamily::generate(9, 9);
    let expected = [
        (ViewCodec::Tree, 30240, 231984, 716),
        (ViewCodec::Dag, 55656, 106272, 328),
        (ViewCodec::Delta, 56178, 83592, 258),
    ];
    for (codec, rr_bits, torus_bits, torus_max_edge) in expected {
        let (_, stats) = run_metered(&rr, 3, codec, None, &NoopSink);
        assert_eq!(stats.total_bits(), rr_bits, "rr3 n96 r3 via {codec}");
        let (_, stats) = run_metered(&torus, 4, codec, None, &NoopSink);
        assert_eq!(stats.total_bits(), torus_bits, "torus 9x9 r4 via {codec}");
        assert_eq!(
            stats.max_edge_bits(),
            torus_max_edge,
            "torus 9x9 r4 via {codec}"
        );
    }
    let (outcome, _) = run_metered(&rr, 3, ViewCodec::Dag, Some(64), &NoopSink);
    assert_eq!(outcome.report.rounds, 4, "rr3 n96 r3 under a 64-bit cap");
}
