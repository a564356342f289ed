//! Random k-SAT generators: uniform, planted (guaranteed SAT), and
//! linearly inconsistent XOR systems (guaranteed UNSAT). Used for the
//! SAT-2002 `ip`/`cnf-r4` analogs and for stress tests.

use berkmin_cnf::{Cnf, Lit, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::BenchInstance;

/// Uniform random k-SAT over `n` variables with `m` clauses (distinct
/// variables within a clause). Verdict unknown a priori (`expected: None`).
pub fn random_ksat(n: usize, m: usize, k: usize, seed: u64) -> BenchInstance {
    assert!(k >= 1 && n >= k, "need n ≥ k ≥ 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cnf = Cnf::with_vars(n);
    cnf.add_comment(format!("uniform {k}-SAT: n={n}, m={m}"));
    add_random_clauses(&mut cnf, m, k, &mut rng, None);
    BenchInstance::new(format!("uf{k}_{n}_{m}_{seed}"), cnf, None)
}

/// Planted random k-SAT: every clause is satisfied by a hidden assignment,
/// so the instance is SAT by construction (the SAT-2002 `cnf-r4-*` analog).
pub fn planted_ksat(n: usize, m: usize, k: usize, seed: u64) -> BenchInstance {
    assert!(k >= 1 && n >= k, "need n ≥ k ≥ 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let planted: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    let mut cnf = Cnf::with_vars(n);
    cnf.add_comment(format!("planted {k}-SAT: n={n}, m={m} (SAT)"));
    add_random_clauses(&mut cnf, m, k, &mut rng, Some(&planted));
    BenchInstance::new(format!("pr{k}_{n}_{m}_{seed}"), cnf, Some(true))
}

/// Appends `m` clauses of `k` distinct variables drawn uniformly from the
/// formula's `n`, each literal's sign a fair coin. With `planted`, a
/// clause the hidden assignment falsifies is redrawn.
fn add_random_clauses(
    cnf: &mut Cnf,
    m: usize,
    k: usize,
    rng: &mut StdRng,
    planted: Option<&[bool]>,
) {
    let n = cnf.num_vars();
    cnf.reserve(m, m * k);
    let mut lits: Vec<Lit> = Vec::with_capacity(k);
    for _ in 0..m {
        loop {
            lits.clear();
            while lits.len() < k {
                let v = Var::new(rng.gen_range(0..n) as u32);
                if !lits.iter().any(|l| l.var() == v) {
                    lits.push(Lit::pos(v));
                }
            }
            for l in &mut lits {
                *l = Lit::new(l.var(), rng.gen());
            }
            let witnessed = |assign: &[bool]| {
                lits.iter()
                    .any(|l| assign[l.var().index()] != l.is_negative())
            };
            if planted.map_or(true, witnessed) {
                break;
            }
        }
        cnf.add_clause(lits.iter().copied());
    }
}

/// Guaranteed-UNSAT hard instances (`ip*` analogs): a consistent random
/// XOR system (each equation 3-CNF-ized) plus one equation that is the XOR
/// of *half the system* with a flipped right-hand side — linearly
/// inconsistent, hence unsatisfiable, but the contradiction is spread over
/// many equations, making the refutation resolution-hard like
/// Tseitin/Urquhart formulas.
pub fn xor_unsat(n: usize, m: usize, seed: u64) -> BenchInstance {
    assert!(n >= 3, "need at least 3 variables");
    assert!(m >= 2, "need at least 2 base equations");
    let mut rng = StdRng::seed_from_u64(seed);
    let secret: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    let mut cnf = Cnf::with_vars(n);
    cnf.add_comment(format!("inconsistent XOR system: n={n}, m={m} (UNSAT)"));
    let mut equations: Vec<(Vec<usize>, bool)> = Vec::with_capacity(m + 1);
    for _ in 0..m {
        let mut vars: Vec<usize> = Vec::with_capacity(3);
        while vars.len() < 3 {
            let v = rng.gen_range(0..n);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let y = vars.iter().fold(false, |acc, &i| acc ^ secret[i]);
        equations.push((vars, y));
    }
    // Poisoned equation: the XOR of every second equation, RHS flipped.
    // Summing many equations leaves a wide residual support, so refuting
    // the system requires chaining through a large part of it.
    let mut combined = vec![false; n];
    let mut rhs = true;
    for (idx, (vars, y)) in equations.iter().enumerate() {
        if idx % 2 == 0 {
            for &v in vars {
                combined[v] ^= true;
            }
            rhs ^= y;
        }
    }
    let combo: Vec<usize> = (0..n).filter(|&i| combined[i]).collect();
    equations.push((combo, rhs));

    for (vars, y) in &equations {
        let lits: Vec<Lit> = vars.iter().map(|&v| Lit::pos(Var::new(v as u32))).collect();
        crate::parity::xor_constraint(&mut cnf, &lits, *y);
    }
    BenchInstance::new(format!("xoru_{n}_{m}_{seed}"), cnf, Some(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin::{Solver, SolverConfig};

    #[test]
    fn planted_instances_are_sat() {
        for seed in 0..3 {
            let inst = planted_ksat(30, 120, 3, seed);
            let mut s = Solver::new(&inst.cnf, SolverConfig::berkmin());
            let status = s.solve();
            let model = status.model().expect("planted ⇒ SAT");
            assert!(inst.cnf.is_satisfied_by(model));
        }
    }

    #[test]
    fn xor_unsat_instances_are_unsat() {
        for seed in 0..3 {
            let inst = xor_unsat(12, 20, seed);
            let mut s = Solver::new(&inst.cnf, SolverConfig::berkmin());
            assert!(s.solve().is_unsat(), "seed {seed}");
        }
    }

    #[test]
    fn xor_unsat_spreads_the_poison() {
        // The poisoned equation must involve more than a couple of
        // variables, otherwise the instance is trivially refutable.
        let inst = xor_unsat(40, 40, 7);
        assert!(inst.cnf.num_clauses() > 40 * 4, "chain encoding expected");
    }

    #[test]
    fn uniform_generator_shape() {
        let inst = random_ksat(20, 85, 3, 9);
        assert_eq!(inst.cnf.num_vars(), 20);
        assert_eq!(inst.cnf.num_clauses(), 85);
        assert!(inst.cnf.iter().all(|c| c.len() == 3));
        assert_eq!(inst.expected, None);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_ksat(15, 60, 3, 4).cnf, random_ksat(15, 60, 3, 4).cnf);
    }
}
