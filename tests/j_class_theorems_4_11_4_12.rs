//! Experiment E5 as a test: the structural ingredients of Theorems 4.11 / 4.12 on the
//! *full* template of `J_{2,4}` (1024 gadgets, ≈132k nodes) and on members obtained by
//! the Part 5 port swaps, plus the Lemma 4.8 CPPE algorithm on capped chains.
//!
//! These are the heaviest tests of the suite (a few seconds each in the default `dev`
//! profile thanks to `opt-level = 1`).

use four_shades::constructions::component::Side;
use four_shades::constructions::JClass;
use four_shades::election::cppe::solve_cppe_on_j;
use four_shades::election::engine::RunContext;
use four_shades::election::tasks::{verify, NodeOutput, Task};
use four_shades::views::paths::cppe_sequence_is_valid;
use four_shades::views::{JointRefinement, Refinement};

fn class() -> JClass {
    JClass::new(2, 4).unwrap()
}

#[test]
fn full_template_has_no_unique_view_below_k_lemmas_4_6_and_4_7() {
    let class = class();
    let template = class.template(None).unwrap();
    assert_eq!(template.num_gadgets(), 1024);
    let g = &template.labeled.graph;
    assert_eq!(g.num_nodes(), 1024 * 129);
    let r = Refinement::compute(g, Some(class.k - 1));
    for h in 0..class.k {
        assert!(
            r.unique_nodes_at(h).is_empty(),
            "no node may have a unique view at depth {h} < k (Lemma 4.6) — ψ_S ≥ k (Lemma 4.7)"
        );
    }
    // Proposition 4.4: all ρ nodes share the same view below depth k.
    for i in [1usize, 17, 512, 1023] {
        assert!(r.same_view(template.rho(0), template.rho(i), class.k - 1));
    }
}

#[test]
fn members_differ_as_graphs_but_corner_views_agree_lemma_4_10_part_1() {
    let class = class();
    // Two members whose defining sequences differ in bit 3 (gadgets 3 and 1020 swap).
    let mut ya = vec![false; 8];
    let mut yb = vec![false; 8];
    ya[3] = true;
    yb[5] = true;
    let ja = class.member(&ya, None).unwrap();
    let jb = class.member(&yb, None).unwrap();
    assert_ne!(
        ja.labeled.graph, jb.labeled.graph,
        "different Y ⇒ different graphs"
    );

    // Part 5 swaps really were applied where they should be.
    let ga = &ja.labeled.graph;
    let gt = class.template(None).unwrap();
    let g0 = &gt.labeled.graph;
    let rho3 = ja.rho(3);
    // Ports 2μ..3μ−1 (H_R block) and 3μ..4μ−1 (H_B block) are exchanged at ρ_3 in J_a.
    assert_eq!(ga.neighbor(rho3, 4), g0.neighbor(rho3, 6));
    assert_eq!(ga.neighbor(rho3, 6), g0.neighbor(rho3, 4));
    // And the mirror gadget 1023−3 = 1020 has its H_L / H_T blocks exchanged.
    let rho_mirror = ja.rho(1020);
    assert_eq!(ga.neighbor(rho_mirror, 0), g0.neighbor(rho_mirror, 2));

    // Lemma 4.10(1): the corner border node w_{1,1} in H_L of Ĥ_0 cannot tell the two
    // members apart within k rounds.
    let joint = JointRefinement::compute(&[ga, &jb.labeled.graph], Some(class.k));
    let va = ja.w(0, Side::Left, 1, 1);
    let vb = jb.w(0, Side::Left, 1, 1);
    assert!(joint.same_view((0, va), (1, vb), class.k));
}

#[test]
fn cppe_algorithm_is_correct_on_capped_chains_and_sampled_on_long_ones() {
    let class = class();

    // Full verification on a 32-gadget chain.
    let member = class.template(Some(32)).unwrap();
    let g = &member.labeled.graph;
    let run = solve_cppe_on_j(&member, class.k, &RunContext::default()).unwrap();
    assert_eq!(run.rounds, class.k);
    let outcome = verify(Task::CompletePortPathElection, g, &run.outputs).unwrap();
    assert_eq!(outcome.leader, member.rho(0));

    // Sampled verification on a 128-gadget chain (full verification would walk Θ(n²)
    // path entries — the task's outputs are inherently that large).
    let member = class.template(Some(128)).unwrap();
    let g = &member.labeled.graph;
    let run = solve_cppe_on_j(&member, class.k, &RunContext::default()).unwrap();
    let leader = member.rho(0);
    assert_eq!(run.outputs[leader as usize], NodeOutput::Leader);
    // Check every gadget centre and an arithmetic sample of ordinary nodes.
    let mut checked = 0usize;
    for i in 1..member.num_gadgets() {
        let v = member.rho(i);
        let NodeOutput::FullPath(pairs) = &run.outputs[v as usize] else {
            panic!("ρ_{i} must output a path");
        };
        assert!(cppe_sequence_is_valid(g, v, pairs, leader), "ρ_{i}");
        checked += 1;
    }
    for v in g.nodes().step_by(97) {
        if v == leader {
            continue;
        }
        let NodeOutput::FullPath(pairs) = &run.outputs[v as usize] else {
            panic!("node {v} must output a path");
        };
        assert!(cppe_sequence_is_valid(g, v, pairs, leader), "node {v}");
        checked += 1;
    }
    assert!(checked > 200);
}

#[test]
fn border_encoding_matches_the_gadget_indices_on_a_long_chain() {
    let class = class();
    let member = class.template(Some(64)).unwrap();
    let g = &member.labeled.graph;
    let deg = |v| g.degree(v);
    for i in 1..member.num_gadgets() {
        assert_eq!(member.encoded_w(&deg, i, Side::Top), i as u64);
        assert_eq!(member.encoded_w(&deg, i, Side::Left), i as u64);
        assert_eq!(member.encoded_w(&deg, i - 1, Side::Bottom), i as u64);
        assert_eq!(member.encoded_w(&deg, i - 1, Side::Right), i as u64);
    }
}
