//! Bounded variable elimination (clause distribution).
//!
//! A variable `x` is *dissolved* by replacing the clauses containing it
//! with the pairwise resolvents of its positive and negative occurrence
//! sets — sound because any model of the resolvents extends to a model of
//! the originals by choosing `x` appropriately (which is exactly what the
//! reconstruction stack replays, see
//! [`reconstruct`](super::reconstruct)). "Bounded" is the SatELite
//! discipline: skip the variable unless each polarity's occurrence count,
//! every resolvent's length, and the total resolvent count stay under the
//! caps below (SatELite's defaults), so the formula never blows up.
//!
//! Proof order matters: every (non-tautological, non-satisfied) resolvent
//! is RUP **while its two parents are still present**, so the resolvents'
//! `add` lines are emitted before any parent clause is deleted.
//!
//! Skipped variables: frozen (user contract / assumptions), already
//! assigned (their occurrences dissolve through unit application), already
//! eliminated, and variables with no occurrences at all (`reserve_vars`
//! headroom — eliminating those would only pollute the reconstruction
//! stack).

use berkmin_cnf::{LBool, Lit, Var};

use crate::cdcl::Cdcl;
use crate::clause_db::ClauseRef;
use crate::proof::ProofSink;

use super::SimpState;

/// Skip a variable when either polarity occurs in more than this many
/// clauses.
const OCC_CAP: usize = 10;

/// Eliminate only when the non-tautological resolvents number at most
/// `pos + neg + GROWTH` (0: the clause count never grows).
const GROWTH: usize = 0;

/// Abort eliminating a variable if any resolvent would exceed this many
/// literals.
const CLAUSE_CAP: usize = 20;

/// The resolvent of `pc` (containing `v` positively) and `nc` (containing
/// `v` negatively) on `v`: the union of both clauses minus the pivot
/// literals, or `None` if it is a tautology.
fn resolve(pc: &[Lit], nc: &[Lit], v: Var) -> Option<Vec<Lit>> {
    let mut r: Vec<Lit> = pc
        .iter()
        .chain(nc.iter())
        .copied()
        .filter(|l| l.var() != v)
        .collect();
    r.sort_unstable();
    r.dedup();
    if r.windows(2).any(|w| w[0].var() == w[1].var()) {
        return None;
    }
    Some(r)
}

impl Cdcl {
    /// One elimination sweep: tries every candidate variable once. The
    /// first sweep of a run considers all variables; later sweeps only the
    /// ones touched since (deletions open new pure/low-occurrence spots).
    pub(crate) fn elimination_pass(
        &mut self,
        st: &mut SimpState,
        proof: &mut dyn ProofSink,
        first: bool,
    ) {
        let candidates: Vec<Var> = if first {
            (0..self.num_vars).map(|i| Var::new(i as u32)).collect()
        } else {
            st.drain_touched()
        };
        for v in candidates {
            if !self.ok {
                return;
            }
            self.try_eliminate(v, st, proof);
        }
    }

    /// Attempts to eliminate `v`; a cap violation aborts with no state
    /// changed at all.
    fn try_eliminate(&mut self, v: Var, st: &mut SimpState, proof: &mut dyn ProofSink) {
        if self.frozen[v.index()] || self.eliminated[v.index()] || !self.trail.value(v).is_undef() {
            return;
        }
        let p = Lit::pos(v);
        // Cheap cap check before compacting the (possibly long) lists.
        if st.idx.occ_len_live(p) > OCC_CAP || st.idx.occ_len_live(!p) > OCC_CAP {
            return;
        }
        let pos = st.idx.compact_occ(p);
        let neg = st.idx.compact_occ(!p);
        if pos.is_empty() && neg.is_empty() {
            return; // unconstrained headroom — nothing to dissolve
        }
        let budget = pos.len() + neg.len() + GROWTH;
        // Each resolvent with its two parents, which form its hint chain.
        let mut resolvents: Vec<(Vec<Lit>, [ClauseRef; 2])> = Vec::new();
        for &pi in &pos {
            for &ni in &neg {
                let parents = [st.idx.cref(pi), st.idx.cref(ni)];
                let pc = self.db.lits(parents[0]);
                let nc = self.db.lits(parents[1]);
                if let Some(r) = resolve(pc, nc, v) {
                    if r.len() > CLAUSE_CAP {
                        return;
                    }
                    resolvents.push((r, parents));
                    if resolvents.len() > budget {
                        return;
                    }
                }
            }
        }

        // Committed. Record the smaller side's clauses (verbatim, before
        // any deletion) for model reconstruction.
        let side = if pos.len() <= neg.len() { p } else { !p };
        let side_ids = if side == p { &pos } else { &neg };
        let side_clauses: Vec<Vec<Lit>> = side_ids
            .iter()
            .map(|&id| self.db.lits(st.idx.cref(id)).to_vec())
            .collect();
        self.reconstructor
            .record(side, side_clauses.iter().map(|c| c.as_slice()));

        // Add the resolvents while both parents are still present.
        for (r, parents) in resolvents {
            if r.iter().any(|&l| self.lit_value(l) == LBool::True) {
                continue; // satisfied at level 0 — carries no constraint
            }
            let r: Vec<Lit> = r
                .into_iter()
                .filter(|&l| self.lit_value(l) != LBool::False)
                .collect();
            for c in parents {
                self.hints.push(self.db.id(c));
            }
            let lemma = self.hints.add(proof, &r);
            self.stats.elim_resolvents += 1;
            match r.len() {
                0 => {
                    self.ok = false;
                    return; // parents stay; the formula is refuted anyway
                }
                1 => {
                    if self.lit_value(r[0]).is_undef() {
                        self.unchecked_enqueue(r[0], None);
                    }
                }
                _ => {
                    let cref = self.db.add_original(&r, lemma);
                    let id = st.idx.add(cref, &r);
                    st.queue.push(id);
                    for &l in &r {
                        st.touch(l.var());
                    }
                    let live = self.db.num_live() as u64;
                    self.stats.max_live_clauses = self.stats.max_live_clauses.max(live);
                }
            }
        }

        // Delete every clause containing the variable.
        for &id in pos.iter().chain(neg.iter()) {
            if !st.idx.is_live(id) {
                continue;
            }
            let cref = st.idx.cref(id);
            for &l in self.db.lits(cref) {
                st.touch(l.var());
            }
            st.idx.kill(id);
            self.db.delete(cref);
            self.stats.deleted_clauses += 1;
        }
        st.idx.clear_occ(p);
        st.idx.clear_occ(!p);
        self.eliminated[v.index()] = true;
        self.stats.vars_eliminated += 1;
    }
}

#[cfg(test)]
mod tests {
    use berkmin_cnf::{Lit, Var};

    use super::OCC_CAP;
    use crate::cdcl::Cdcl;
    use crate::config::{SimplifyConfig, SolverConfig};

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    fn solver(simplify: SimplifyConfig) -> Cdcl {
        let mut cfg = SolverConfig::berkmin();
        cfg.simplify = simplify;
        Cdcl::new(cfg)
    }

    #[test]
    fn resolve_drops_pivot_and_merges() {
        let r = super::resolve(&[lit(1), lit(2)], &[lit(-1), lit(3)], Var::new(0)).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&lit(2)) && r.contains(&lit(3)));
    }

    #[test]
    fn resolve_detects_tautologies() {
        assert!(super::resolve(&[lit(1), lit(2)], &[lit(-1), lit(-2)], Var::new(0)).is_none());
    }

    #[test]
    fn pure_literals_are_eliminated_without_resolvents() {
        // x1 occurs only positively: both clauses dissolve, no resolvents.
        let mut s = solver(SimplifyConfig::full());
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(1), lit(3)]);
        s.add_clause([lit(-2), lit(-3)]);
        let status = s.solve();
        assert!(status.is_sat());
        assert!(s.is_eliminated(Var::new(0)));
        let m = status.model().unwrap();
        assert!(m.satisfies(lit(1)) || m.satisfies(lit(2)));
        assert!(m.satisfies(lit(1)) || m.satisfies(lit(3)));
    }

    #[test]
    fn occurrence_cap_blocks_busy_variables() {
        // x1 occurs positively `positive` times, each time with a fresh
        // variable, and once negatively: `positive` resolvents fit the
        // non-growing budget, so only the occurrence cap can block it.
        let eliminated_with = |positive: i32| {
            let mut s = solver(SimplifyConfig::full());
            for i in 0..positive {
                s.add_clause([lit(1), lit(i + 3)]);
            }
            s.add_clause([lit(-1), lit(2)]);
            assert!(s.solve().is_sat());
            s.is_eliminated(Var::new(0))
        };
        assert!(
            eliminated_with(OCC_CAP as i32),
            "at the cap x1 is eliminable"
        );
        assert!(
            !eliminated_with(OCC_CAP as i32 + 1),
            "one over the cap blocks x1"
        );
    }

    #[test]
    fn growth_cap_blocks_expanding_eliminations() {
        // x1: 3 positive × 2 negative occurrences = 6 distinct resolvents,
        // over the non-growing budget 3+2+GROWTH. Every other variable is
        // frozen so x1 stays the only candidate across rounds.
        let mut s = solver(SimplifyConfig::full());
        for v in 1..6 {
            s.freeze(Var::new(v));
        }
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(1), lit(3)]);
        s.add_clause([lit(1), lit(6)]);
        s.add_clause([lit(-1), lit(4)]);
        s.add_clause([lit(-1), lit(5)]);
        assert!(s.solve().is_sat());
        assert!(!s.is_eliminated(Var::new(0)));
        assert_eq!(s.stats.vars_eliminated, 0);
    }

    #[test]
    fn elimination_keeps_unsat_unsat() {
        // x2 is eliminable; the rest is a contradiction on x1/x3.
        let mut s = solver(SimplifyConfig::full());
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-2), lit(3)]);
        s.add_clause([lit(-1), lit(3)]);
        s.add_clause([lit(-3)]);
        s.add_clause([lit(1), lit(3)]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn models_reconstruct_over_chains_of_eliminations() {
        // An equivalence chain x1 = x2 = x3 = x4 with no unit to collapse
        // it: elimination dissolves variable after variable (possibly the
        // whole chain), and the reconstructed model must still satisfy
        // every original clause — i.e. keep the chain consistent.
        let clauses: Vec<Vec<Lit>> = vec![
            vec![lit(-1), lit(2)],
            vec![lit(1), lit(-2)],
            vec![lit(-2), lit(3)],
            vec![lit(2), lit(-3)],
            vec![lit(-3), lit(4)],
            vec![lit(3), lit(-4)],
        ];
        let mut s = solver(SimplifyConfig::full());
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        let status = s.solve();
        let m = status.model().expect("satisfiable");
        assert!(s.stats.vars_eliminated >= 1, "the chain must eliminate");
        for c in &clauses {
            assert!(
                c.iter().any(|&l| m.satisfies(l)),
                "clause {c:?} violated by the reconstructed model"
            );
        }
    }
}
