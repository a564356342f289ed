//! The *Miters* class: equivalence-checking miters of artificial
//! combinational circuits (§4: "artificial circuits were used because
//! their complexity was easy to control").
//!
//! Unsatisfiable instances miter a random circuit against an
//! equivalence-preserving restructured copy; satisfiable ones inject a
//! single observable gate fault first. Instance names follow the paper's
//! `miter<gates>_<window>_<seed>` pattern (cf. `miter70_60_5` in Table 3).

use berkmin_circuit::random::{random_circuit, RandomCircuitSpec};
use berkmin_circuit::rewrite::{inject_fault, restructure};
use berkmin_circuit::{arith, eval64, miter, miter_cnf, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::BenchInstance;

/// UNSAT miter: random circuit vs. its restructured (equivalent) copy.
pub fn equivalent_miter(gates: usize, window: usize, seed: u64) -> BenchInstance {
    let spec = RandomCircuitSpec {
        inputs: 16,
        gates,
        outputs: 8.min(gates),
        window,
        seed,
    };
    let c = random_circuit(&spec);
    let c2 = restructure(&c, seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    BenchInstance::new(
        format!("miter{gates}_{window}_{seed}"),
        miter_cnf(&c, &c2),
        Some(false),
    )
}

/// SAT miter: random circuit vs. a copy with one *observable* injected
/// fault. Observability is confirmed by random simulation before the
/// instance is emitted (masked faults retry with the next seed), so the
/// expected verdict is guaranteed.
pub fn buggy_miter(gates: usize, window: usize, seed: u64) -> BenchInstance {
    let spec = RandomCircuitSpec {
        inputs: 16,
        gates,
        outputs: 8.min(gates),
        window,
        seed,
    };
    let c = random_circuit(&spec);
    let mut fault_seed = seed.wrapping_add(0xFA017);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C0);
    loop {
        if let Some((buggy, _)) = inject_fault(&c, fault_seed) {
            if observable_difference(&c, &buggy, &mut rng) {
                return BenchInstance::new(
                    format!("miter{gates}_{window}_{seed}b"),
                    miter_cnf(&c, &buggy),
                    Some(true),
                );
            }
        }
        fault_seed = fault_seed.wrapping_add(1);
    }
}

/// Simulates 2048 random patterns looking for a disagreement between two
/// circuits with the same interface.
pub(crate) fn observable_difference(a: &Netlist, b: &Netlist, rng: &mut StdRng) -> bool {
    let m = miter(a, b);
    for _ in 0..32 {
        let words: Vec<u64> = (0..m.num_inputs()).map(|_| rng.gen()).collect();
        if eval64(&m, &words)[0] != 0 {
            return true;
        }
    }
    false
}

/// Structured UNSAT miter: ripple-carry vs. carry-select adder — the
/// datapath-style equivalence check (also the backbone of the pipeline
/// classes).
pub fn adder_miter(bits: usize, block: usize) -> BenchInstance {
    let r = arith::ripple_carry_adder(bits);
    let cs = arith::carry_select_adder(bits, block);
    BenchInstance::new(
        format!("addmiter{bits}_{block}"),
        miter_cnf(&r, &cs),
        Some(false),
    )
}

/// Structured UNSAT miter: array multiplier vs. restructured copy.
/// Multiplier miters grow hard very quickly with width — the class's
/// difficulty dial (measured here: 5 bits ≈ 0.03 s, 6 ≈ 0.3 s, 7 ≈ 13 s,
/// 8 ≈ 8 min under the default configuration).
pub fn multiplier_miter(bits: usize, seed: u64) -> BenchInstance {
    let m = arith::array_multiplier(bits);
    let m2 = restructure(&m, seed);
    BenchInstance::new(
        format!("mulmiter{bits}_{seed}"),
        miter_cnf(&m, &m2),
        Some(false),
    )
}

/// Rectangular-multiplier miter: the fine-grained difficulty dial between
/// the square sizes (hardness tracks the partial-product count `a · b`).
pub fn rect_multiplier_miter(a_bits: usize, b_bits: usize, seed: u64) -> BenchInstance {
    let m = arith::array_multiplier_rect(a_bits, b_bits);
    let m2 = restructure(&m, seed);
    BenchInstance::new(
        format!("mulmiter{a_bits}x{b_bits}_{seed}"),
        miter_cnf(&m, &m2),
        Some(false),
    )
}

/// Architecture miter: array multiplier vs. Wallace-tree multiplier — the
/// same function computed by genuinely different circuits, the classic
/// "hard multiplier equivalence" benchmark (no restructuring involved).
pub fn wallace_vs_array_miter(bits: usize) -> BenchInstance {
    let a = arith::array_multiplier(bits);
    let w = arith::wallace_multiplier(bits);
    BenchInstance::new(format!("wallace{bits}"), miter_cnf(&a, &w), Some(false))
}

/// Architecture miter: ripple-carry vs. Kogge–Stone adder (linear vs.
/// logarithmic carry structure). UNSAT.
pub fn adder_arch_miter(bits: usize) -> BenchInstance {
    let r = arith::ripple_carry_adder(bits);
    let ks = arith::kogge_stone_adder(bits);
    BenchInstance::new(format!("ksmiter{bits}"), miter_cnf(&r, &ks), Some(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin::{Solver, SolverConfig};

    #[test]
    fn equivalent_miters_prove_unsat() {
        for seed in 0..2 {
            let inst = equivalent_miter(60, 20, seed);
            let mut s = Solver::new(&inst.cnf, SolverConfig::berkmin());
            assert!(s.solve().is_unsat(), "{}", inst.name);
        }
    }

    #[test]
    fn buggy_miters_yield_counterexamples() {
        for seed in 0..2 {
            let inst = buggy_miter(60, 20, seed);
            let mut s = Solver::new(&inst.cnf, SolverConfig::berkmin());
            let status = s.solve();
            let model = status
                .model()
                .unwrap_or_else(|| panic!("{} must be SAT", inst.name));
            assert!(inst.cnf.is_satisfied_by(model));
        }
    }

    #[test]
    fn adder_miters_prove_unsat() {
        let inst = adder_miter(8, 3);
        let mut s = Solver::new(&inst.cnf, SolverConfig::berkmin());
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn multiplier_miters_prove_unsat() {
        let inst = multiplier_miter(3, 5);
        let mut s = Solver::new(&inst.cnf, SolverConfig::berkmin());
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn names_match_paper_style() {
        assert_eq!(equivalent_miter(70, 60, 5).name, "miter70_60_5");
    }

    #[test]
    fn architecture_miters_prove_unsat() {
        let w = wallace_vs_array_miter(3);
        let mut s = Solver::new(&w.cnf, SolverConfig::berkmin());
        assert!(s.solve().is_unsat());

        let ks = adder_arch_miter(8);
        let mut s = Solver::new(&ks.cnf, SolverConfig::berkmin());
        assert!(s.solve().is_unsat());
    }
}
