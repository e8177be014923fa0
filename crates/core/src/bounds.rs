//! Closed-form calculators for every quantitative bound stated in the paper.
//!
//! The experiment binaries print these side by side with the measured quantities
//! (advice bits actually used, class sizes actually instantiated, election indices
//! actually observed). Values that exceed `u64` are reported through their base-2
//! logarithm or as `f64::INFINITY`.

/// `z = (Δ−2)(Δ−1)^{k−1}` — the number of leaves of the tree `T` (Section 2.2.1).
pub fn tree_leaves(delta: usize, k: usize) -> f64 {
    (delta as f64 - 2.0) * (delta as f64 - 1.0).powi(k as i32 - 1)
}

/// Fact 2.3: `|G_{Δ,k}| = |T_{Δ,k}| = (Δ−1)^{(Δ−2)(Δ−1)^{k−1}}`, returned as `log₂`.
pub fn fact_2_3_log2_class_size(delta: usize, k: usize) -> f64 {
    tree_leaves(delta, k) * (delta as f64 - 1.0).log2()
}

/// Theorem 2.2 (upper bound): advice of size `O((Δ−1)^{ψ_S} log Δ)` suffices for
/// Selection in minimum time. Returned in the paper's asymptotic form
/// `(Δ−1)^{ψ_S}·log₂ Δ` (no hidden constant).
pub fn theorem_2_2_upper_form(delta: usize, psi_s: usize) -> f64 {
    (delta as f64 - 1.0).powi(psi_s as i32) * (delta as f64).log2()
}

/// Theorem 2.9 (lower bound): advice of size at least `⅛(Δ−1)^k log₂ Δ` is necessary
/// for Selection in minimum time on some graph of `G_{Δ,k}` (for `Δ ≥ 5`, `k ≥ 1`).
pub fn theorem_2_9_lower_bits(delta: usize, k: usize) -> f64 {
    0.125 * (delta as f64 - 1.0).powi(k as i32) * (delta as f64).log2()
}

/// Fact 3.1: `|U_{Δ,k}| = (Δ−1)^{(Δ−1)^{(Δ−2)(Δ−1)^{k−1}}}`, returned as `log₂`.
pub fn fact_3_1_log2_class_size(delta: usize, k: usize) -> f64 {
    // |T_{Δ,k}| = (Δ−1)^z may itself be astronomically large; log₂|U| = |T|·log₂(Δ−1).
    let t = (delta as f64 - 1.0).powf(tree_leaves(delta, k));
    t * (delta as f64 - 1.0).log2()
}

/// Theorem 3.11 (lower bound): advice of size at least `¼|T_{Δ,k}| log₂ Δ` is necessary
/// for Port Election in minimum time on some graph of `U_{Δ,k}` (for `Δ ≥ 4`, `k ≥ 1`).
pub fn theorem_3_11_lower_bits(delta: usize, k: usize) -> f64 {
    0.25 * (delta as f64 - 1.0).powf(tree_leaves(delta, k)) * (delta as f64).log2()
}

/// Fact 4.1: number of nodes of the layer graph `L_m` for arity `μ`.
pub fn fact_4_1_layer_size(mu: usize, m: usize) -> f64 {
    let mu = mu as f64;
    match m {
        0 => 1.0,
        1 => mu,
        _ => {
            let j = (m / 2) as i32;
            if m.is_multiple_of(2) {
                (mu.powi(j + 1) + mu.powi(j) - 2.0) / (mu - 1.0)
            } else {
                2.0 * (mu.powi(j + 1) - 1.0) / (mu - 1.0)
            }
        }
    }
}

/// Fact 4.2: `|J_{μ,k}| = 2^{2^{z−1}}` where `z = |L_k|`; returned as `log₂`, i.e.
/// `2^{z−1}`.
pub fn fact_4_2_log2_class_size(mu: usize, k: usize) -> f64 {
    2f64.powf(fact_4_1_layer_size(mu, k) - 1.0)
}

/// Theorems 4.11 / 4.12 (lower bound): advice of size at least `2^{Δ^{k/6}}` (stated
/// as `Ω(2^{Δ^{k/6}})`; the proof uses `2^{(4μ)^{k/6}}` with `μ = ⌈Δ/4⌉`) is necessary
/// for PPE / CPPE in minimum time on some graph of `J_{μ,k}` (for `Δ ≥ 16`, `k ≥ 6`).
pub fn theorem_4_11_lower_bits(delta: usize, k: usize) -> f64 {
    2f64.powf((delta as f64).powf(k as f64 / 6.0))
}

/// The proof-level form of the Theorem 4.11 bound, `2^{(4μ)^{k/6}}` with the `μ`
/// actually used in the construction.
pub fn theorem_4_11_lower_bits_mu(mu: usize, k: usize) -> f64 {
    2f64.powf((4.0 * mu as f64).powf(k as f64 / 6.0))
}

/// The headline separation of the paper, as a ratio of logarithms: how many times more
/// advice bits (in the exponent) the strong task needs compared to Selection, for the
/// same `(Δ, k)`. Returns `log₂(lower bound for Z) − log₂(upper bound for S)`.
pub fn separation_log2_gap(delta: usize, k: usize, strong_lower_bits: f64) -> f64 {
    strong_lower_bits.log2() - theorem_2_2_upper_form(delta, k).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_leaves_matches_integer_formula() {
        assert_eq!(tree_leaves(4, 1), 2.0);
        assert_eq!(tree_leaves(4, 2), 6.0);
        assert_eq!(tree_leaves(5, 2), 12.0);
        assert_eq!(tree_leaves(3, 3), 4.0);
    }

    #[test]
    fn fact_2_3_log2_matches_small_cases() {
        assert!((fact_2_3_log2_class_size(4, 1) - 9f64.log2()).abs() < 1e-9);
        assert!((fact_2_3_log2_class_size(4, 2) - 729f64.log2()).abs() < 1e-9);
        assert!((fact_2_3_log2_class_size(5, 1) - 64f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn selection_bounds_nest_properly() {
        // The Theorem 2.9 lower bound is below the Theorem 2.2 upper form (they differ
        // by a constant factor of 8·((Δ−1)/Δ-ish), never crossing).
        for delta in 5..10 {
            for k in 1..5 {
                assert!(theorem_2_9_lower_bits(delta, k) <= theorem_2_2_upper_form(delta, k));
            }
        }
    }

    #[test]
    fn pe_lower_bound_is_exponentially_above_selection_upper_bound() {
        // The separation the paper is about: for fixed k, the PE bound grows like
        // (Δ−1)^{(Δ−2)(Δ−1)^{k−1}} while the S bound grows like (Δ−1)^k — i.e.
        // exponentially vs polynomially in Δ. (At very small Δ the constants of the
        // two bounds still overlap; the asymptotic statement is what the theorem says.)
        for delta in [6usize, 8, 10] {
            let s_bits = theorem_2_2_upper_form(delta, 1);
            let pe_bits = theorem_3_11_lower_bits(delta, 1);
            assert!(pe_bits > s_bits, "Δ = {delta}");
            assert!(
                pe_bits.log2() > (delta as f64 - 2.0),
                "PE advice is exponential in Δ"
            );
        }
        // And the gap widens with Δ.
        assert!(
            separation_log2_gap(8, 1, theorem_3_11_lower_bits(8, 1))
                > separation_log2_gap(6, 1, theorem_3_11_lower_bits(6, 1))
        );
    }

    #[test]
    fn fact_4_1_matches_the_integer_layer_sizes() {
        let expected3 = [1.0, 3.0, 5.0, 8.0, 17.0, 26.0];
        for (m, &e) in expected3.iter().enumerate() {
            assert_eq!(fact_4_1_layer_size(3, m), e);
        }
        let expected2 = [1.0, 2.0, 4.0, 6.0, 10.0, 14.0];
        for (m, &e) in expected2.iter().enumerate() {
            assert_eq!(fact_4_1_layer_size(2, m), e);
        }
    }

    #[test]
    fn fact_4_2_bounds_on_z_hold() {
        // μ^{⌊k/2⌋} ≤ z ≤ 4 μ^{⌊k/2⌋}.
        for mu in 2..5usize {
            for k in 4..8usize {
                let z = fact_4_1_layer_size(mu, k);
                let base = (mu as f64).powi((k / 2) as i32);
                assert!(base <= z && z <= 4.0 * base, "μ={mu}, k={k}");
            }
        }
        assert_eq!(fact_4_2_log2_class_size(2, 4), 2f64.powi(9));
    }

    #[test]
    fn class_size_facts_match_the_constructions() {
        // The parameters experiment E6 prints.
        use anet_constructions::{GClass, JClass, UClass};
        for (delta, k) in [(4, 1), (4, 2), (5, 1), (6, 1), (5, 2)] {
            let class = GClass::new(delta, k).unwrap();
            assert_eq!(
                fact_2_3_log2_class_size(delta, k),
                class.log2_size(),
                "G Δ={delta} k={k}"
            );
        }
        for (delta, k) in [(4, 1), (5, 1), (4, 2)] {
            let class = UClass::new(delta, k).unwrap();
            assert_eq!(
                fact_3_1_log2_class_size(delta, k),
                class.log2_size(),
                "U Δ={delta} k={k}"
            );
        }
        for (mu, k) in [(2, 4), (2, 5), (3, 4)] {
            let class = JClass::new(mu, k).unwrap();
            assert_eq!(
                fact_4_2_log2_class_size(mu, k),
                class.log2_size(),
                "J μ={mu} k={k}"
            );
        }
    }

    #[test]
    fn ppe_lower_bound_forms_agree_in_spirit() {
        // 2^{Δ^{k/6}} with Δ = 4μ equals the proof-level form.
        assert_eq!(
            theorem_4_11_lower_bits(16, 6),
            theorem_4_11_lower_bits_mu(4, 6)
        );
        // The bound eventually dwarfs the Selection upper bound (the separation is
        // exponential-in-Δ vs polynomial-in-Δ, so it emerges for Δ beyond ≈40 at k=6,
        // and the ratio keeps growing).
        assert!(theorem_4_11_lower_bits(48, 6) > theorem_2_2_upper_form(48, 6));
        let ratio =
            |d: usize| theorem_4_11_lower_bits(d, 6).log2() - theorem_2_2_upper_form(d, 6).log2();
        assert!(ratio(64) > ratio(48) && ratio(48) > ratio(32));
    }
}
