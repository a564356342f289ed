//! SatELite-style preprocessing over occurrence lists.
//!
//! The simplifier runs once, at the entry of the first solve call, over
//! the original clauses — before any conflict or import, so the database
//! holds no learnt clause yet — performing three passes under one
//! occurrence index:
//!
//! * **Backward subsumption** — a clause `A ⊆ B` kills `B`; candidate sets
//!   come from the occurrence list of `A`'s rarest literal, pre-filtered by
//!   64-bit signatures ([`occur`]).
//! * **Self-subsuming resolution** — if `(A \ {l}) ∪ {¬l} ⊆ B` then
//!   resolving `A` against `B` on `l` yields `B \ {¬l}`, which subsumes
//!   `B`: `B` is strengthened in place by dropping `¬l`.
//! * **Bounded variable elimination** — a variable whose resolvent set
//!   stays under SatELite's caps is dissolved: the pairwise resolvents
//!   replace the clauses containing it ([`eliminate`]), and the deleted
//!   clauses of one side go onto the reconstruction stack
//!   ([`reconstruct`]) so SAT models extend back over the variable.
//!
//! Every transformation is reported to the proof sink — strengthened
//! clauses and resolvents as `add` lines (each is RUP against the clauses
//! present at emission time, and carries the clauses it was derived from
//! as its hint chain), removals as `d` lines (mostly batched through
//! the arena collector at the end of the run). Unit consequences discovered
//! by the simplifier are enqueued at level 0 and applied to the index
//! eagerly; after the final garbage collection they are propagated through
//! the rebuilt watch lists so the search starts from a fixpoint.
//!
//! The watch-safety contract: any clause this module rewrites or creates is
//! stripped of **all** literals false at level 0 before it lands in the
//! arena, so [`Cdcl::rebuild_watches`] (which blindly watches positions
//! 0 and 1) can never install a watch on an already-false literal of an
//! unsatisfied clause.

mod eliminate;
mod occur;
mod reconstruct;
mod subsume;

pub(crate) use reconstruct::Reconstructor;

use berkmin_cnf::{LBool, Lit, Var};

use crate::cdcl::Cdcl;
use crate::clause_db::ClauseRef;
use crate::config::ActivityIndex;
use crate::proof::ProofSink;
use crate::telemetry::SolveEvent;

use occur::OccIndex;

/// Maximum subsumption/elimination rounds per simplifier run (each round
/// re-processes the clauses touched by the previous one).
const ROUNDS: u32 = 3;

/// Working state of one simplifier run: the occurrence index plus the two
/// work queues (clauses pending a subsumption scan, variables touched since
/// the last elimination sweep) and the trail cursor of unit application.
pub(crate) struct SimpState {
    /// Occurrence index over the live original clauses.
    pub(crate) idx: OccIndex,
    /// Dense ids queued for a (re-)subsumption scan.
    pub(crate) queue: Vec<u32>,
    /// Variables touched by a deletion/strengthening since the last
    /// elimination sweep — the only candidates later rounds revisit.
    touched: Vec<Var>,
    /// Dedup marks for [`SimpState::touched`].
    touched_mark: Vec<bool>,
    /// Trail cursor: units below this index have been applied to the index.
    pub(crate) applied: usize,
}

impl SimpState {
    fn new(num_vars: usize) -> Self {
        SimpState {
            idx: OccIndex::new(num_vars),
            queue: Vec::new(),
            touched: Vec::new(),
            touched_mark: vec![false; num_vars],
            applied: 0,
        }
    }

    /// Marks `v` as touched (idempotent until the next drain).
    pub(crate) fn touch(&mut self, v: Var) {
        if !self.touched_mark[v.index()] {
            self.touched_mark[v.index()] = true;
            self.touched.push(v);
        }
    }

    /// Drains the touched-variable queue for an elimination sweep.
    pub(crate) fn drain_touched(&mut self) -> Vec<Var> {
        for v in &self.touched {
            self.touched_mark[v.index()] = false;
        }
        std::mem::take(&mut self.touched)
    }
}

impl Cdcl {
    /// Runs the configured simplification passes at the first solve call
    /// (later calls return at once). Called at solve entry with the trail
    /// at level 0 and fully propagated; afterwards the clause arena is
    /// compacted, the watch lists rebuilt, and every unit consequence
    /// propagated (a level-0 conflict clears `ok`).
    pub(crate) fn simplify_formula(&mut self, proof: &mut dyn ProofSink) {
        let cfg = self.config.simplify;
        if (!cfg.subsumption && !cfg.var_elim) || !self.ok {
            return;
        }
        if !self.limits.simplify_due() {
            return;
        }
        debug_assert_eq!(self.decision_level(), 0);
        debug_assert!(self.trail.queue_drained(), "trail must be propagated");

        // The first call's assumption variables must survive: freeze them
        // (a later call may assume them again).
        for i in 0..self.assumptions.len() {
            let v = self.assumptions[i].var();
            self.frozen[v.index()] = true;
        }

        let observing = self.has_observer();
        let clauses_before = self.db.num_live() as u64;
        let base = (
            self.stats.clauses_subsumed,
            self.stats.clauses_strengthened,
            self.stats.vars_eliminated,
            self.stats.elim_resolvents,
        );

        // Index every live clause as-is (all of them original: nothing has
        // been learnt yet); stale literals (falsified by units found since
        // insertion) are stripped by the initial apply_units sweep over the
        // whole trail.
        let mut st = SimpState::new(self.num_vars);
        let live: Vec<ClauseRef> = self.db.iter_live().collect();
        for cref in live {
            debug_assert!(!self.db.is_learnt(cref), "simplifying after search");
            st.idx.add(cref, self.db.lits(cref));
        }
        st.queue = (0..st.idx.clauses.len() as u32).collect();

        let mut rounds = 0u32;
        while rounds < ROUNDS && self.ok {
            rounds += 1;
            let mark = (
                self.stats.clauses_subsumed,
                self.stats.clauses_strengthened,
                self.stats.vars_eliminated,
                self.trail.len(),
            );
            self.apply_units(&mut st, proof);
            if self.ok && cfg.subsumption {
                self.subsumption_pass(&mut st, proof);
            }
            if self.ok && cfg.var_elim {
                self.elimination_pass(&mut st, proof, rounds == 1);
                if self.ok {
                    self.apply_units(&mut st, proof);
                }
            }
            let now = (
                self.stats.clauses_subsumed,
                self.stats.clauses_strengthened,
                self.stats.vars_eliminated,
                self.trail.len(),
            );
            if now == mark {
                break;
            }
        }

        // An eliminated variable must never surface as a branching
        // candidate.
        if self.stats.vars_eliminated > base.2 && self.config.activity_index == ActivityIndex::Heap
        {
            for i in 0..self.num_vars {
                if self.eliminated[i] {
                    self.heap.remove(Var::new(i as u32), &self.var_activity);
                }
            }
        }

        // Reclaim every record deleted above (emitting its `d` line) and
        // rebuild the watch lists over the survivors, then run the unit
        // consequences through BCP so the search resumes at a fixpoint.
        self.collect_garbage(proof);
        if self.ok && self.propagate().is_some() {
            self.ok = false;
        }

        if observing {
            let event = SolveEvent::Simplify {
                rounds,
                subsumed: self.stats.clauses_subsumed - base.0,
                strengthened: self.stats.clauses_strengthened - base.1,
                eliminated: self.stats.vars_eliminated - base.2,
                resolvents: self.stats.elim_resolvents - base.3,
                clauses_before,
                clauses_after: self.db.num_live() as u64,
            };
            self.emit(event);
        }
        if self.ok {
            self.paranoid_audit("after simplify");
        }
    }

    /// Applies every unassimilated level-0 unit to the occurrence index:
    /// clauses satisfied by the unit are deleted, clauses containing its
    /// negation are strengthened (which may enqueue further units — the
    /// loop runs to the trail's end).
    pub(crate) fn apply_units(&mut self, st: &mut SimpState, proof: &mut dyn ProofSink) {
        while st.applied < self.trail.len() {
            let l = self.trail.lit_at(st.applied);
            st.applied += 1;
            for id in st.idx.compact_occ(l) {
                let cref = st.idx.cref(id);
                st.idx.kill(id);
                for &x in self.db.lits(cref) {
                    st.touch(x.var());
                }
                self.db.delete(cref);
                self.stats.deleted_clauses += 1;
            }
            st.idx.clear_occ(l);
            for id in st.idx.compact_occ(!l) {
                if !st.idx.is_live(id) {
                    continue;
                }
                self.strengthen_clause(st, id, !l, None, proof);
                if !self.ok {
                    return;
                }
            }
            st.idx.clear_occ(!l);
        }
    }

    /// Rewrites clause `id` to its current literal set minus `remove` and
    /// minus every literal false at level 0, through
    /// [`Cdcl::strengthen_at_level0`] (`add` of the new set, then `d` of
    /// the old — the order that keeps the stream RUP-checkable), and keeps
    /// the index in step. A clause that is satisfied at level 0 is deleted
    /// instead; one that degenerates to a unit asserts the unit and
    /// dissolves; the empty clause clears `ok`.
    ///
    /// `remove` is false at level 0, or `subsuming` names the clause that
    /// implies it false once the new set is (self-subsumption); the hint
    /// chain is `subsuming` (if any), then the old clause.
    pub(crate) fn strengthen_clause(
        &mut self,
        st: &mut SimpState,
        id: u32,
        remove: Lit,
        subsuming: Option<ClauseRef>,
        proof: &mut dyn ProofSink,
    ) {
        let cref = st.idx.cref(id);
        if self
            .db
            .lits(cref)
            .iter()
            .any(|&l| l != remove && self.lit_value(l) == LBool::True)
        {
            // Satisfied at level 0: remove outright (`d` line at GC time).
            st.idx.kill(id);
            for &x in self.db.lits(cref) {
                st.touch(x.var());
            }
            self.db.delete(cref);
            self.stats.deleted_clauses += 1;
            return;
        }
        if let Some(c) = subsuming {
            self.hints.push(self.db.id(c));
        }
        let (old, len) = self.strengthen_at_level0(cref, Some(remove), proof);
        match len {
            0 => st.idx.kill(id),
            1 => {
                st.idx.kill(id);
                for &x in &old {
                    st.touch(x.var());
                }
            }
            _ => {
                let new = self.db.lits(cref);
                for &l in &old {
                    if !new.contains(&l) {
                        st.idx.detach_lit(id, l, new);
                        st.touch(l.var());
                    }
                }
                // The shorter clause may subsume clauses its old self could
                // not — give it another scan.
                st.queue.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimplifyConfig, SolverConfig};
    use crate::proof::NoProof;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    fn solver(simplify: SimplifyConfig) -> Cdcl {
        let mut cfg = SolverConfig::berkmin();
        cfg.simplify = simplify;
        Cdcl::new(cfg)
    }

    #[test]
    fn subsumed_clauses_are_removed_at_solve_entry() {
        let mut s = solver(SimplifyConfig::default());
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(1), lit(2), lit(3)]); // subsumed
        s.add_clause([lit(-1), lit(-2), lit(4)]);
        assert!(s.solve().is_sat());
        assert_eq!(s.stats.clauses_subsumed, 1);
        assert_eq!(s.num_original_clauses(), 2);
    }

    #[test]
    fn self_subsumption_strengthens_clauses() {
        // (x1 ∨ x2) and (¬x1 ∨ x2 ∨ x3): resolving on x1 gives (x2 ∨ x3),
        // which subsumes the second clause — it loses ¬x1.
        let mut s = solver(SimplifyConfig::default());
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(2), lit(3)]);
        s.add_clause([lit(-2), lit(-3)]);
        assert!(s.solve().is_sat());
        assert_eq!(s.stats.clauses_strengthened, 1);
    }

    #[test]
    fn variable_elimination_removes_the_variable() {
        // x2 occurs in (x1 ∨ x2) and (¬x2 ∨ x3): one resolvent (x1 ∨ x3),
        // growth 0 allows it (1 ≤ 1 + 1 + 0).
        let mut s = solver(SimplifyConfig::full());
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-2), lit(3)]);
        s.add_clause([lit(-1), lit(4)]);
        let status = s.solve();
        let model = status.model().expect("satisfiable");
        assert!(s.stats.vars_eliminated >= 1);
        // The reconstructed model must satisfy the original clauses.
        assert!(model.satisfies(lit(1)) || model.satisfies(lit(2)));
        assert!(model.satisfies(lit(-2)) || model.satisfies(lit(3)));
        assert!(model.satisfies(lit(-1)) || model.satisfies(lit(4)));
    }

    #[test]
    fn simplify_off_leaves_the_formula_alone() {
        let mut s = solver(SimplifyConfig::off());
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(1), lit(2), lit(3)]);
        assert!(s.solve().is_sat());
        assert_eq!(s.stats.clauses_subsumed, 0);
        assert_eq!(s.num_original_clauses(), 2);
    }

    #[test]
    fn default_config_simplifies_only_the_first_call() {
        let mut s = solver(SimplifyConfig::default());
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(1), lit(2), lit(3)]);
        assert!(s.solve().is_sat());
        assert_eq!(s.stats.clauses_subsumed, 1);
        s.add_clause([lit(4), lit(5)]);
        s.add_clause([lit(4), lit(5), lit(6)]);
        assert!(s.solve().is_sat());
        // Second call: the simplifier runs only at the first.
        assert_eq!(s.stats.clauses_subsumed, 1);
    }

    #[test]
    fn frozen_variables_survive_elimination() {
        let mut s = solver(SimplifyConfig::full());
        s.freeze(Var::new(1)); // protect x2
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-2), lit(3)]);
        assert!(s.solve().is_sat());
        assert!(!s.is_eliminated(Var::new(1)));
        // The frozen variable can still be assumed afterwards.
        s.assume(lit(-2));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumption_variables_are_auto_frozen() {
        let mut s = solver(SimplifyConfig::full());
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-2), lit(3)]);
        s.assume(lit(2));
        let status = s.solve();
        assert!(status.is_sat());
        assert!(!s.is_eliminated(Var::new(1)));
        assert!(status.model().unwrap().satisfies(lit(2)));
    }

    #[test]
    fn unsat_survives_simplification_with_a_proof() {
        #[derive(Default)]
        struct Recording {
            adds: Vec<Vec<Lit>>,
            dels: Vec<Vec<Lit>>,
        }
        impl crate::proof::ProofSink for Recording {
            fn add_clause(&mut self, lits: &[Lit]) {
                self.adds.push(lits.to_vec());
            }
            fn delete_clause(&mut self, lits: &[Lit]) {
                self.dels.push(lits.to_vec());
            }
        }

        let clauses: Vec<Vec<Lit>> = vec![
            vec![lit(1), lit(2)],
            vec![lit(1), lit(2), lit(3)],
            vec![lit(-1), lit(2)],
            vec![lit(-2), lit(3)],
            vec![lit(-3), lit(-2)],
        ];
        let proof = std::rc::Rc::new(std::cell::RefCell::new(Recording::default()));
        let mut cfg = SolverConfig::berkmin();
        cfg.simplify = SimplifyConfig::full();
        let mut s = crate::builder::SolverBuilder::with_config(cfg)
            .proof(std::rc::Rc::clone(&proof))
            .build();
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        let status = s.solve();
        assert!(status.is_unsat());
        // The refutation ends in the empty clause, and the simplifier's
        // removals (the subsumed ternary at least) produced `d` lines.
        let proof = proof.borrow();
        assert_eq!(proof.adds.last().map(Vec::len), Some(0));
        assert!(!proof.dels.is_empty());
    }

    #[test]
    fn strengthen_clause_handles_satisfied_and_unit_cases() {
        let mut s = solver(SimplifyConfig::off());
        s.add_clause([lit(1), lit(2), lit(3)]);
        s.add_clause([lit(4)]);
        assert!(s.propagate().is_none());
        let mut st = SimpState::new(s.num_vars);
        let crefs: Vec<ClauseRef> = s.db.iter_live().collect();
        let id = st.idx.add(crefs[0], s.db.lits(crefs[0]));
        // Remove x1, then x2: the clause degenerates to the unit x3.
        s.strengthen_clause(&mut st, id, lit(1), None, &mut NoProof);
        let id = st.idx.compact_occ(lit(2))[0];
        s.strengthen_clause(&mut st, id, lit(2), None, &mut NoProof);
        assert_eq!(s.trail.value_opt(Var::new(2)), LBool::True);
        assert!(!st.idx.is_live(id));
    }
}
