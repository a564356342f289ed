//! Conflict analysis: 1-UIP learning with BerkMin's sensitivity rule.
//!
//! The reverse-BCP walk below is a chain of resolutions starting from the
//! conflicting clause (paper §2). Every clause entering that chain — the
//! conflicting clause plus each reason clause resolved on — is a *clause
//! responsible for the conflict*. BerkMin's sensitivity improvement (§4)
//! bumps `var_activity` once per literal occurrence in each responsible
//! clause; the Chaff-like ablation bumps only the variables of the final
//! conflict clause.
//!
//! Each responsible clause is walked once, through a single borrow of its
//! literals, by the free function `merge_clause`: the same pass makes the
//! §4 per-occurrence bump (in clause order, so the decision heap sees the
//! same sequence of sift-ups) and merges the literal into the clause being
//! learnt. The bump touches only the activity table and the heap, and the
//! merge only the `seen` marks and levels, so interleaving them per literal
//! computes exactly what two separate passes would. `merge_clause` takes
//! each table it touches as its own borrow of the core, so none of its
//! stores can alias another table, and it writes into the learnt and
//! to-clear buffers the core keeps between conflicts.
//!
//! When a proof is logged, the same walk records each responsible
//! clause's ID: reversed, with the reasons of any literals minimization
//! removes in front, that list is the learnt clause's hint chain (see
//! [`ClauseId`](crate::ClauseId)).

use berkmin_cnf::Lit;

use crate::cdcl::Cdcl;
use crate::clause_db::ClauseRef;
use crate::config::{ActivityIndex, Sensitivity};
use crate::heap::VarHeap;
use crate::trail::Trail;

impl Cdcl {
    /// Analyzes `confl` and returns `(learnt_clause, backtrack_level, lbd)`.
    ///
    /// The learnt clause is in asserting form: `learnt[0]` is the 1-UIP
    /// literal (unassigned after backtracking to the returned level) and,
    /// when the clause has length ≥ 2, `learnt[1]` is a literal from the
    /// backtrack level, making positions 0 and 1 valid watches.
    ///
    /// `lbd` is the clause's literal block distance ("glue"): the number of
    /// distinct decision levels among its literals at deduction time. It is
    /// the quality signal portfolio workers use to decide which clauses are
    /// worth exporting (low glue ⇒ likely useful to other search trees).
    ///
    /// The returned clause is the core's reused learnt buffer, taken out
    /// for the caller: the search loop puts it back in [`Cdcl::learnt`]
    /// once the clause is recorded, so no conflict allocates. A caller
    /// that drops it only costs the next conflict one allocation.
    pub(crate) fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, usize, u32) {
        let current_level = self.decision_level();
        debug_assert!(
            current_level > 0,
            "conflicts at level 0 terminate the search"
        );

        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::from_code(0)); // slot for the UIP
        let mut counter = 0usize; // unresolved current-level literals
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let mut cref = confl;
        let sensitive = self.config.sensitivity == Sensitivity::Berkmin;
        let heap_indexed = self.config.activity_index == ActivityIndex::Heap;
        let hinted = self.hints.on;

        loop {
            // --- responsible-clause bookkeeping (paper §4, §8) ---
            self.stats.responsible_clauses += 1;
            // clause_activity(C): conflicts C has been responsible for.
            self.db.bump_activity(cref);
            if hinted {
                self.hints.push(self.db.id(cref));
            }
            counter += merge_clause(
                self.db.lits(cref),
                p,
                current_level,
                &self.trail,
                &mut self.seen,
                &mut self.var_activity,
                &mut self.heap,
                sensitive,
                heap_indexed,
                &mut learnt,
                &mut self.to_clear,
            );

            // --- pick the next current-level literal off the trail ---
            loop {
                idx -= 1;
                if self.seen[self.trail.lit_at(idx).var().index()] {
                    break;
                }
            }
            let pl = self.trail.lit_at(idx);
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                // pl is the first unique implication point.
                learnt[0] = !pl;
                break;
            }
            cref = self
                .trail
                .reason_of(pl.var())
                .expect("implied literal above level 0 must have a reason");
            p = Some(pl);
        }

        if hinted {
            // The walk met the conflicting clause first and then the reasons
            // in reverse trail order; the chain runs the other way.
            self.hints.chain_mut().reverse();
        }
        if self.config.minimize_learnt {
            let removed = self.minimize(&mut learnt);
            if hinted && removed > 0 {
                self.chain_minimized(&learnt, removed);
            }
        }

        // Chaff-like sensitivity: bump only the conflict clause's variables.
        if self.config.sensitivity == Sensitivity::ConflictClauseOnly {
            for &l in &learnt {
                self.bump_var(l.var());
            }
        }

        // Position a highest-level literal at index 1 and derive the
        // backtrack level (non-chronological backtracking, §2).
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.trail.level_of(learnt[i].var()) > self.trail.level_of(learnt[max_i].var()) {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.trail.level_of(learnt[1].var()) as usize
        };

        for &v in &self.to_clear {
            self.seen[v as usize] = false;
        }
        self.to_clear.clear();

        // LBD ("glue"): count distinct decision levels across the learnt
        // literals with a generation-stamped scratch array — bumping the
        // generation invalidates every stamp at once, no clearing pass.
        self.lbd_stamp_gen += 1;
        let mut lbd = 0u32;
        for &l in &learnt {
            let lvl = self.trail.level_of(l.var()) as usize;
            if self.lbd_stamp[lvl] != self.lbd_stamp_gen {
                self.lbd_stamp[lvl] = self.lbd_stamp_gen;
                lbd += 1;
            }
        }
        self.stats.lbd_sum += lbd as u64;
        self.stats.lbd_max = self.stats.lbd_max.max(lbd);

        (learnt, bt_level, lbd)
    }

    /// Final-conflict analysis for assumption-based solving: called when the
    /// pending assumption `failed` is already false under the trail built
    /// from the earlier assumptions. Walks the implication graph of `¬failed`
    /// backwards and collects every assumption pseudo-decision it rests on,
    /// returning the failed core `{failed} ∪ {assumptions implying ¬failed}`
    /// — a subset of the assumption set whose conjunction with the formula
    /// is unsatisfiable (the incremental analog of MiniSat's
    /// `analyzeFinal`).
    ///
    /// Only assumption levels exist below the walk's horizon (real decisions
    /// are only ever taken once every assumption is enqueued), so every
    /// reason-less trail literal above level 0 the walk marks *is* an
    /// assumption.
    pub(crate) fn analyze_final(&mut self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        if self.decision_level() == 0 {
            // ¬failed is a root-level fact: the formula alone refutes the
            // assumption, no other assumption shares the blame.
            return core;
        }
        self.seen[failed.var().index()] = true;
        let bound = self.trail.level_start(0);
        for i in (bound..self.trail.len()).rev() {
            let x = self.trail.lit_at(i).var();
            if !self.seen[x.index()] {
                continue;
            }
            match self.trail.reason_of(x) {
                None => {
                    debug_assert!(self.trail.level_of(x) > 0, "root facts have level 0");
                    core.push(self.trail.lit_at(i));
                }
                Some(rc) => {
                    for &q in self.db.lits(rc) {
                        if q.var() != x && self.trail.level_of(q.var()) > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[x.index()] = false;
        }
        self.seen[failed.var().index()] = false;
        core
    }

    /// Local (non-recursive) conflict-clause minimization: drop any literal
    /// whose reason clause is entirely subsumed by the remaining literals
    /// and level-0 facts. A post-paper technique (MiniSat), kept behind
    /// [`crate::SolverConfig::minimize_learnt`] for the extension ablation.
    /// Returns how many literals it dropped.
    fn minimize(&mut self, learnt: &mut Vec<Lit>) -> usize {
        let mut j = 1;
        for i in 1..learnt.len() {
            let v = learnt[i].var();
            let removable = match self.trail.reason_of(v) {
                None => false, // decision literal: must stay
                Some(rc) => {
                    let lits = self.db.lits(rc);
                    lits.iter().all(|&q| {
                        q.var() == v
                            || self.seen[q.var().index()]
                            || self.trail.level_of(q.var()) == 0
                    })
                }
            };
            if !removable {
                learnt[j] = learnt[i];
                j += 1;
            }
        }
        let removed = learnt.len() - j;
        learnt.truncate(j);
        removed
    }

    /// Puts the reasons of the `removed` literals minimization dropped in
    /// front of the hint chain, in trail order: with the learnt literals
    /// false, each reason is unit once the ones before it have fired.
    ///
    /// After minimization `seen` marks exactly the non-UIP literals of the
    /// clause before minimization. Unmarking the kept ones singles out the
    /// removed ones, which a trail scan then visits in order; the caller
    /// clears every mark afterwards as usual.
    fn chain_minimized(&mut self, learnt: &[Lit], mut removed: usize) {
        for l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        let walked = std::mem::take(self.hints.chain_mut());
        let mut i = self.trail.level_start(0);
        while removed > 0 {
            let v = self.trail.lit_at(i).var();
            if self.seen[v.index()] {
                let reason = self
                    .trail
                    .reason_of(v)
                    .expect("a removed literal has a reason");
                self.hints.push(self.db.id(reason));
                removed -= 1;
            }
            i += 1;
        }
        self.hints.chain_mut().extend(walked);
    }
}

/// One responsible clause's step of the reverse-BCP walk: makes the §4
/// per-occurrence bump of each of its literals (when `sensitive`) and
/// merges each into the clause being learnt. Returns how many unresolved
/// current-level literals it added.
///
/// For a reason clause, the implied literal `p` itself is being resolved
/// on and is skipped. Binary clauses propagate straight from the watch
/// lists without reordering the arena record, so `p` is not guaranteed to
/// sit at position 0 — it is matched by value. The conflicting clause
/// (`p == None`) contributes all. A literal from a level below
/// `current_level` joins `learnt`; level-0 literals are dropped; each
/// merged variable is marked in `seen` and listed in `to_clear`.
///
/// The borrows come as separate arguments rather than one struct of
/// references, so the compiler knows none aliases another.
#[allow(clippy::too_many_arguments)]
#[inline]
fn merge_clause(
    lits: &[Lit],
    p: Option<Lit>,
    current_level: usize,
    trail: &Trail,
    seen: &mut [bool],
    var_activity: &mut [u64],
    heap: &mut VarHeap,
    sensitive: bool,
    heap_indexed: bool,
    learnt: &mut Vec<Lit>,
    to_clear: &mut Vec<u32>,
) -> usize {
    let mut added = 0;
    for &q in lits {
        let v = q.var();
        if sensitive {
            // Bump once per literal occurrence in the responsible clause,
            // including the resolved-on variable (§4's worked example bumps
            // a and c, which never reach the conflict clause). This is
            // `Cdcl::bump_var` spelled out on the split borrows.
            var_activity[v.index()] += 1;
            if heap_indexed {
                heap.bumped(v, var_activity);
            }
        }
        if p == Some(q) || seen[v.index()] {
            continue;
        }
        let level = trail.level_of(v) as usize;
        if level > 0 {
            seen[v.index()] = true;
            to_clear.push(v.raw());
            if level == current_level {
                added += 1;
            } else {
                learnt.push(q);
            }
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use crate::cdcl::Cdcl;
    use crate::config::{Sensitivity, SolverConfig};
    use crate::search::SolveStatus;
    use berkmin_cnf::{Lit, Var};

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    /// The paper's §2 worked example: F = (a∨¬b)(b∨¬c∨y)(c∨¬d∨x)(c∨d)
    /// with x=0, y=0 forced; branching a=0 yields a conflict whose clause
    /// is c∨x (modulo the exact resolution order).
    fn paper_example_solver(cfg: SolverConfig) -> Cdcl {
        let mut s = Cdcl::new(cfg);
        // Vars: a=1, b=2, c=3, d=4, x=5, y=6 (DIMACS numbering).
        s.add_clause([lit(1), lit(-2)]);
        s.add_clause([lit(2), lit(-3), lit(6)]);
        s.add_clause([lit(3), lit(-4), lit(5)]);
        s.add_clause([lit(3), lit(4)]);
        s.add_clause([lit(-5)]); // x = 0
        s.add_clause([lit(-6)]); // y = 0
        s
    }

    #[test]
    fn paper_example_is_satisfiable_overall() {
        let mut s = paper_example_solver(SolverConfig::berkmin());
        // a=1,b=*,c=1 satisfies everything; solver must find some model.
        match s.solve() {
            SolveStatus::Sat(m) => {
                assert!(m.satisfies(lit(3)), "c must be 1 in any model with x=y=0");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn conflict_analysis_learns_and_recovers() {
        // Force the conflict by deciding a=0 manually.
        let mut s = paper_example_solver(SolverConfig::berkmin());
        assert!(s.propagate().is_none());
        s.push_decision(lit(-1));
        let confl = s.propagate().expect("a=0 must conflict (paper §2)");
        let (learnt, bt, lbd) = s.analyze(confl);
        // The conflict sits entirely inside level 1, and level-0 literals
        // never enter the learnt clause, so the glue is exactly 1.
        assert_eq!(lbd, 1);
        assert_eq!(s.stats.lbd_sum, 1);
        assert_eq!(s.stats.lbd_max, 1);
        // The conflict is confined to level 1, so we backtrack to 0 and the
        // learnt clause is the unit ¬(a=0) consequence chain: it must force
        // progress, i.e. assert c (and possibly a).
        assert_eq!(bt, 0);
        assert!(!learnt.is_empty());
        // Asserting literal must be unassigned after backtracking.
        s.cancel_until(bt);
        assert!(s.lit_value(learnt[0]).is_undef());
        s.record_learnt(&learnt, None);
        assert!(
            s.propagate().is_none(),
            "learnt unit must propagate cleanly"
        );
        // c must now be forced true at level 0.
        assert_eq!(s.lit_value(lit(3)), berkmin_cnf::LBool::True);
    }

    #[test]
    fn berkmin_sensitivity_bumps_resolved_variables() {
        // In the paper's resolution example the variables a and c take part
        // in responsible clauses but not in the conflict clause; BerkMin
        // bumps them, the Chaff-like rule does not (§4).
        let run = |sens: Sensitivity| -> Vec<u64> {
            let mut cfg = SolverConfig::berkmin();
            cfg.sensitivity = sens;
            let mut s = paper_example_solver(cfg);
            assert!(s.propagate().is_none());
            s.push_decision(lit(-1));
            let confl = s.propagate().unwrap();
            let (learnt, bt, _lbd) = s.analyze(confl);
            s.cancel_until(bt);
            s.record_learnt(&learnt, None);
            s.var_activity.clone()
        };
        let berkmin = run(Sensitivity::Berkmin);
        let chaff = run(Sensitivity::ConflictClauseOnly);
        // Variable d (index 3) is resolved away: it appears in two
        // responsible clauses, so BerkMin credits it while Chaff cannot.
        assert!(berkmin[Var::new(3).index()] >= 2);
        assert_eq!(chaff[Var::new(3).index()], 0);
        // Total credited activity is strictly larger under BerkMin.
        assert!(berkmin.iter().sum::<u64>() > chaff.iter().sum::<u64>());
    }

    #[test]
    fn clause_activity_counts_responsibility() {
        let mut s = paper_example_solver(SolverConfig::berkmin());
        assert!(s.propagate().is_none());
        s.push_decision(lit(-1));
        let confl = s.propagate().unwrap();
        let before: u32 = s.db.iter_live().map(|c| s.db.activity(c)).sum();
        assert_eq!(before, 0);
        let (learnt, bt, _lbd) = s.analyze(confl);
        let after: u32 = s.db.iter_live().map(|c| s.db.activity(c)).sum();
        assert!(
            after >= 2,
            "at least conflicting + one reason clause credited"
        );
        s.cancel_until(bt);
        s.record_learnt(&learnt, None);
    }

    #[test]
    fn minimization_never_changes_verdicts() {
        // Same instance solved with and without minimization must agree.
        let mut plain = paper_example_solver(SolverConfig::berkmin());
        let mut cfg = SolverConfig::berkmin();
        cfg.minimize_learnt = true;
        let mut min = paper_example_solver(cfg);
        assert_eq!(plain.solve().is_sat(), min.solve().is_sat());
    }
}
