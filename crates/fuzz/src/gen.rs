//! Seeded fuzz-case generation.
//!
//! A single `u64` seed deterministically selects a generation mode and all
//! of its randomness, so any run is reproducible from its seed range. The
//! modes cover one-shot random/planted/unsatisfiable formulas from the
//! `berkmin-gens` crate, pigeonhole instances under tight budgets, fully
//! random incremental op soups, and a fixed corpus of degenerate inputs
//! (empty formula, explicit empty clause, reserve-only sessions,
//! duplicate and contradictory assumptions, tautologies).

use berkmin_cnf::{Lit, Var};
use berkmin_gens::{hole, ksat};

use crate::ops::{Case, Op};

/// xorshift64* — tiny, deterministic, and independent of the solver's RNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E3779B97F4A7C15 | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn lit(&mut self, vars: u64) -> Lit {
        Lit::new(Var::new(self.below(vars) as u32), self.below(2) == 1)
    }
}

/// The pigeonhole clauses PHP(holes+1 → holes), as plain literal vectors.
pub fn pigeonhole_clauses(holes: usize) -> Vec<Vec<Lit>> {
    clause_vecs(hole::pigeonhole(holes))
}

fn adds_of(clauses: Vec<Vec<Lit>>) -> Vec<Op> {
    clauses.into_iter().map(Op::Add).collect()
}

/// The fixed degenerate-input corpus; `pick` cycles through it.
fn degenerate(pick: u64) -> Case {
    let scripts: &[&str] = &[
        // The p cnf 0 0 analog: zero vars, zero clauses.
        "solve\n",
        // Reserved variables but no constraints: the model must cover them.
        "reserve 5\nsolve\n",
        // An explicit empty clause, solved twice (re-solve after refutation).
        "add\nsolve\nsolve\n",
        // Contradictory units — absolute UNSAT through level-0 propagation.
        "add 1\nadd -1\nsolve\n",
        // Assumption on a reserved-but-unconstrained variable.
        "reserve 3\nassume -2\nsolve\n",
        // The same assumption staged twice.
        "add 1 2\nassume 1\nassume 1\nsolve\nsolve\n",
        // Contradictory assumptions on an unconstrained variable.
        "add 1 2\nassume 3\nassume -3\nsolve\nsolve\n",
        // Clauses added after the formula is already refuted.
        "add\nadd 1\nsolve\nadd 2\nsolve\n",
        // A zero-conflict budget, then the budget lifted.
        "add 1 2\nadd -1 2\nadd 1 -2\nadd -1 -2\nbudget 0\nsolve\nbudget inf\nsolve\n",
        // Tautological and duplicate-literal clauses.
        "add 1 -1\nadd 2 2\nadd -2 -2\nsolve\n",
    ];
    Case::parse_script(scripts[(pick % scripts.len() as u64) as usize])
        .expect("corpus scripts parse")
}

/// A one-shot case: all clauses, then a single solve.
fn one_shot(clauses: Vec<Vec<Lit>>) -> Case {
    let mut ops = adds_of(clauses);
    ops.push(Op::Solve);
    Case { ops }
}

/// A random incremental session: interleaved adds, assumptions, budgets,
/// reserves and solves over a small variable pool.
fn op_soup(rng: &mut Rng) -> Case {
    let vars = 4 + rng.below(9); // 4..=12
    let len = 6 + rng.below(31) as usize; // 6..=36 ops
    let mut ops = Vec::with_capacity(len + 1);
    for _ in 0..len {
        let roll = rng.below(100);
        let op = if roll < 50 {
            // A random clause of 1–4 literals; variables may repeat, so
            // duplicate literals and tautologies occur naturally.
            let clen = 1 + rng.below(4) as usize;
            Op::Add((0..clen).map(|_| rng.lit(vars)).collect())
        } else if roll < 52 {
            Op::Add(Vec::new()) // the empty clause, occasionally
        } else if roll < 70 {
            Op::Assume(rng.lit(vars))
        } else if roll < 84 {
            Op::Solve
        } else if roll < 92 {
            let b = rng.below(4);
            Op::Budget(if b == 0 { None } else { Some(rng.below(60)) })
        } else {
            Op::Reserve(rng.below(vars + 4) as usize)
        };
        ops.push(op);
    }
    ops.push(Op::Solve);
    Case { ops }
}

/// Generates the deterministic fuzz case for `seed`.
pub fn gen_case(seed: u64) -> Case {
    let mut rng = Rng::new(seed);
    match seed % 8 {
        0 => degenerate(seed / 8),
        1 => {
            let k = 2 + (rng.below(2) as usize);
            let n = k.max(3) + rng.below(9) as usize;
            let m = 1 + rng.below(4 * n as u64) as usize;
            one_shot(clause_vecs(ksat::random_ksat(n, m, k, rng.next())))
        }
        2 => {
            // Planted: satisfiable by construction — SAT certification path.
            let n = 4 + rng.below(8) as usize;
            let m = 2 + rng.below(3 * n as u64) as usize;
            one_shot(clause_vecs(ksat::planted_ksat(n, m, 3, rng.next())))
        }
        3 => {
            // XOR chains: unsatisfiable by construction — DRAT path.
            let n = 3 + rng.below(5) as usize;
            one_shot(clause_vecs(ksat::xor_unsat(n, n + 1, rng.next())))
        }
        4 => {
            // Pigeonhole under a tight budget, then unlimited: exercises
            // budget aborts and re-solves on the same learnt database.
            let holes = 2 + (rng.below(3) as usize);
            let mut ops = vec![Op::Budget(Some(rng.below(30)))];
            ops.extend(adds_of(pigeonhole_clauses(holes)));
            ops.push(Op::Solve);
            ops.push(Op::Budget(None));
            ops.push(Op::Solve);
            Case { ops }
        }
        _ => op_soup(&mut rng),
    }
}

fn clause_vecs(instance: berkmin_gens::BenchInstance) -> Vec<Vec<Lit>> {
    instance.cnf.iter().map(<[Lit]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..64 {
            assert_eq!(gen_case(seed), gen_case(seed), "seed {seed}");
        }
    }

    #[test]
    fn every_mode_ends_with_a_solve() {
        for seed in 0..64 {
            let case = gen_case(seed);
            assert!(
                case.ops.iter().any(|op| matches!(op, Op::Solve)),
                "seed {seed} generated a case with no solve: {case:?}"
            );
        }
    }

    #[test]
    fn degenerate_corpus_covers_the_edge_cases() {
        let all: Vec<Case> = (0..10).map(degenerate).collect();
        assert!(all.iter().any(|c| c.ops == vec![Op::Solve]));
        assert!(all.iter().any(|c| c
            .ops
            .iter()
            .any(|op| matches!(op, Op::Add(l) if l.is_empty()))));
        assert!(all
            .iter()
            .any(|c| c.ops.iter().any(|op| matches!(op, Op::Reserve(_)))));
        assert!(all.iter().any(|c| c
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Assume(_)))
            .count()
            >= 2));
    }
}
