//! A deliberately naive reference solver: recursive DPLL with full-scan
//! unit propagation and no learning, no heuristics, no watched literals.
//!
//! It shares *zero* code with the production engines (it does not even use
//! their clause representation), which is the point: an agreement between
//! BerkMin and this solver is evidence, not an echo.

use berkmin_cnf::{LBool, Lit};

/// Search-node budget for [`dpll`]; `None` is returned when it runs out.
/// Fuzz cases stay below ~20 variables, so this is never hit in practice.
pub const NODE_LIMIT: u64 = 2_000_000;

/// Decides the formula (with `assumptions` pre-assigned) by scratch DPLL.
///
/// Returns `Some(true)` if satisfiable, `Some(false)` if unsatisfiable and
/// `None` if the node budget ran out. Tautologies, duplicate literals,
/// duplicate/contradictory assumptions and the empty clause are all
/// handled by construction.
pub fn dpll(num_vars: usize, clauses: &[Vec<Lit>], assumptions: &[Lit]) -> Option<bool> {
    let mut assigns = vec![LBool::Undef; num_vars];
    for &a in assumptions {
        match value(&assigns, a) {
            LBool::False => return Some(false), // contradictory assumptions
            LBool::True => {}                   // duplicate assumption
            LBool::Undef => assign(&mut assigns, a),
        }
    }
    let mut nodes = 0u64;
    search(&mut assigns, clauses, &mut nodes)
}

fn value(assigns: &[LBool], lit: Lit) -> LBool {
    let v = assigns[lit.var().index()];
    if lit.is_negative() {
        match v {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    } else {
        v
    }
}

fn assign(assigns: &mut [LBool], lit: Lit) {
    assigns[lit.var().index()] = if lit.is_negative() {
        LBool::False
    } else {
        LBool::True
    };
}

/// Full-scan unit propagation to fixpoint. Returns `false` on conflict.
fn propagate(assigns: &mut [LBool], clauses: &[Vec<Lit>]) -> bool {
    loop {
        let mut changed = false;
        for clause in clauses {
            let mut unassigned = None;
            let mut satisfied = false;
            let mut num_unassigned = 0usize;
            for &l in clause {
                match value(assigns, l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::Undef => {
                        num_unassigned += 1;
                        unassigned = Some(l);
                    }
                    LBool::False => {}
                }
            }
            if satisfied {
                continue;
            }
            match num_unassigned {
                0 => return false, // every literal false (or the clause is empty)
                1 => {
                    assign(assigns, unassigned.unwrap());
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return true;
        }
    }
}

fn search(assigns: &mut Vec<LBool>, clauses: &[Vec<Lit>], nodes: &mut u64) -> Option<bool> {
    *nodes += 1;
    if *nodes > NODE_LIMIT {
        return None;
    }
    let saved = assigns.clone();
    if !propagate(assigns, clauses) {
        *assigns = saved;
        return Some(false);
    }
    let Some(v) = assigns.iter().position(|b| b.is_undef()) else {
        return Some(true); // total assignment, no conflict: a model
    };
    for negated in [false, true] {
        let snapshot = assigns.clone();
        assigns[v] = if negated { LBool::False } else { LBool::True };
        match search(assigns, clauses, nodes) {
            Some(true) => return Some(true),
            Some(false) => *assigns = snapshot,
            None => {
                *assigns = saved;
                return None;
            }
        }
    }
    *assigns = saved;
    Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin_cnf::Cnf;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    #[test]
    fn trivial_cases() {
        assert_eq!(dpll(0, &[], &[]), Some(true));
        assert_eq!(dpll(0, &[vec![]], &[]), Some(false));
        assert_eq!(dpll(1, &[vec![lit(1)], vec![lit(-1)]], &[]), Some(false));
        assert_eq!(dpll(2, &[vec![lit(1), lit(2)]], &[lit(-1)]), Some(true));
        assert_eq!(dpll(1, &[], &[lit(1), lit(1)]), Some(true));
        assert_eq!(dpll(1, &[], &[lit(1), lit(-1)]), Some(false));
    }

    #[test]
    fn agrees_with_enumeration_on_random_formulas() {
        // Cross-check DPLL against the cnf crate's brute-force enumeration
        // on a pile of tiny random formulas.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let n = 1 + (rng() % 8) as usize;
            let m = (rng() % 14) as usize;
            let mut clauses: Vec<Vec<Lit>> = Vec::with_capacity(m);
            let mut cnf = Cnf::with_vars(n);
            for _ in 0..m {
                let len = 1 + (rng() % 3) as usize;
                let c: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = (rng() % n as u64) as u32;
                        Lit::new(berkmin_cnf::Var::new(v), rng() % 2 == 1)
                    })
                    .collect();
                cnf.add_clause(c.iter().copied());
                clauses.push(c);
            }
            let expected = cnf.solve_by_enumeration().is_some();
            assert_eq!(
                dpll(n, &clauses, &[]),
                Some(expected),
                "disagreement on {clauses:?}"
            );
        }
    }
}
