//! Clause-database management, run between search trees (paper §8).
//!
//! BerkMin's policy partitions the conflict-clause stack into *young*
//! clauses (distance from the top below 15/16 of the stack size) and *old*
//! clauses (the bottom 1/16). Young clauses survive if they are short
//! (`len < 43`) or active (`activity > 7`); old clauses only if very short
//! (`len < 9`) or more active than a rising threshold (initially 60). The
//! topmost clause is never removed — the paper's anti-looping guard.
//! Clauses satisfied by retained (level-0) assignments are removed outright,
//! and literals false at level 0 are stripped.
//!
//! Removal is a two-step affair on the flat clause arena: the policy *marks*
//! records as garbage, and the compacting collector
//! ([`Cdcl::collect_garbage`]) — run once at the end of every reduction —
//! reclaims the space, emits the DRAT `d` lines, and rewrites every live
//! [`ClauseRef`](crate::clause_db::ClauseRef).

use berkmin_cnf::{LBool, Lit};

use crate::cdcl::Cdcl;
use crate::clause_db::ClauseRef;
use crate::config::DbPolicy;
use crate::proof::ProofSink;

/// Young clauses shorter than this are always kept (§8: 43).
pub(crate) const YOUNG_KEEP_LEN: u32 = 43;
/// Young clauses more active than this are kept (§8: 7).
pub(crate) const YOUNG_KEEP_ACT: u32 = 7;
/// Old clauses shorter than this are always kept (§8: 9).
pub(crate) const OLD_KEEP_LEN: u32 = 9;
/// The old-clause activity threshold a solver starts with (§8: 60).
pub(crate) const OLD_ACT_INIT: u32 = 60;
/// Per-reduction increment of the old-clause activity threshold.
pub(crate) const OLD_ACT_INC: u32 = 1;

impl Cdcl {
    /// Performs database reduction. Must be called at decision level 0 with
    /// a fully propagated trail (i.e. right after a restart).
    pub(crate) fn reduce_db<S: ProofSink>(&mut self, proof: &mut S) {
        debug_assert_eq!(self.decision_level(), 0);
        self.stats.reductions += 1;
        let observing = self.has_observer();
        let live_before = self.db.num_live() as u64;
        let words_before = self.stats.gc_words_reclaimed;

        self.simplify_by_level0(proof);
        self.db.compact_stack();
        self.apply_policy();
        // Reclaim every record marked above: the GC emits their DRAT `d`
        // lines, compacts the arena, and rewrites stack/reason/watch
        // references (reasons of level-0 facts whose clause died are
        // dropped — analysis never consults level-0 reasons).
        self.collect_garbage(proof);
        debug_assert!(self.assert_invariants("reduce_db"));
        if observing {
            self.emit(crate::telemetry::SolveEvent::Reduce {
                live_before,
                live_after: self.db.num_live() as u64,
                words_reclaimed: self.stats.gc_words_reclaimed - words_before,
            });
        }
    }

    /// Removes clauses satisfied by retained level-0 assignments and strips
    /// literals false at level 0 (paper §8: "all the clauses that are
    /// satisfied by the retained assignments are removed").
    fn simplify_by_level0<S: ProofSink>(&mut self, proof: &mut S) {
        let live: Vec<ClauseRef> = self.db.iter_live().collect();
        for cref in live {
            let mut satisfied = false;
            let mut has_false = false;
            for &l in self.db.lits(cref) {
                match self.lit_value(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => has_false = true,
                    LBool::Undef => {}
                }
            }
            if satisfied {
                // Mark only; the GC emits the DRAT `d` line when the record
                // (whose literals stay readable until then) is reclaimed.
                self.db.delete(cref);
                self.stats.deleted_clauses += 1;
                continue;
            }
            if !has_false {
                continue;
            }
            // Strengthen: drop the falsified literals. The shortened clause
            // is a unit-propagation consequence of the old one (its hint
            // chain).
            self.strengthen_at_level0(cref, None, proof);
        }
    }

    /// Level-0 strengthening of clause `cref`: drops `remove` (if given)
    /// and every literal false at level 0, then logs the shorter clause
    /// with its hint chain — the hints pushed so far, then `cref` — and
    /// applies it. The empty clause clears `ok`; a unit is
    /// asserted and the clause deleted; a longer clause is shrunk in place
    /// (the record keeps its `ClauseRef` and takes the new addition's ID).
    /// The old literal set is overwritten then, so its `d` line follows the
    /// `add` at once rather than coming from the GC.
    ///
    /// Returns the old literals and the new length; when that is 2 or more
    /// the new literals are `self.db.lits(cref)`.
    pub(crate) fn strengthen_at_level0<S: ProofSink + ?Sized>(
        &mut self,
        cref: ClauseRef,
        remove: Option<Lit>,
        proof: &mut S,
    ) -> (Vec<Lit>, usize) {
        let old: Vec<Lit> = self.db.lits(cref).to_vec();
        let new: Vec<Lit> = old
            .iter()
            .copied()
            .filter(|&l| Some(l) != remove && self.lit_value(l) != LBool::False)
            .collect();
        debug_assert!(new.len() < old.len(), "strengthening removed nothing");
        self.hints.push(self.db.id(cref));
        let id = self.hints.add(proof, &new);
        match new.len() {
            0 => {
                self.ok = false;
                self.db.delete(cref);
            }
            1 => {
                if self.lit_value(new[0]).is_undef() {
                    self.unchecked_enqueue(new[0], None);
                }
                self.db.delete(cref);
                self.stats.deleted_clauses += 1;
            }
            n => {
                proof.delete_clause(&old);
                self.db.lits_mut(cref)[..n].copy_from_slice(&new);
                self.db.shrink(cref, n, id);
            }
        }
        (old, new.len())
    }

    /// Applies the configured keep/remove rule to the learnt-clause stack.
    /// Clauses are only marked here; the GC reports them to the proof sink.
    fn apply_policy(&mut self) {
        // Deletion only flips a header bit — the stack itself is never
        // mutated here, so it can be indexed directly without a clone. The
        // loops stop at `n - 1`: the topmost clause is never removed (§8),
        // the paper's anti-looping guard.
        let n = self.db.stack.len();
        if n == 0 {
            return;
        }
        match self.config.db_policy {
            DbPolicy::BerkMin => {
                for i in 0..n - 1 {
                    let cref = self.db.stack[i];
                    debug_assert!(self.db.is_learnt(cref), "original clause on the stack");
                    let distance = (n - 1 - i) as u64;
                    let young = distance * 16 < 15 * n as u64;
                    let (len, act) = (self.db.len(cref) as u32, self.db.activity(cref));
                    let keep = if young {
                        len < YOUNG_KEEP_LEN || act > YOUNG_KEEP_ACT
                    } else {
                        len < OLD_KEEP_LEN || act > self.old_act_threshold
                    };
                    if !keep {
                        self.db.delete(cref);
                        self.stats.deleted_clauses += 1;
                    }
                }
                // "The threshold … is gradually increased so that long
                // clauses that … stopped participating in conflicts will be
                // removed" (§8).
                self.old_act_threshold = self.old_act_threshold.saturating_add(OLD_ACT_INC);
            }
            DbPolicy::LengthBounded { max_len } => {
                for i in 0..n - 1 {
                    let cref = self.db.stack[i];
                    if self.db.len(cref) as u32 > max_len {
                        self.db.delete(cref);
                        self.stats.deleted_clauses += 1;
                    }
                }
            }
            DbPolicy::KeepAll => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::proof::NoProof;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    /// Builds a solver with `n` learnt clauses of the given length on the
    /// stack (over disjoint fresh variables so none is satisfied).
    fn stacked_solver(cfg: SolverConfig, n: usize, len: usize) -> Cdcl {
        let mut s = Cdcl::new(cfg);
        s.ensure_vars(n * len + 1);
        for i in 0..n {
            let lits: Vec<Lit> = (0..len).map(|j| lit((i * len + j + 1) as i32)).collect();
            // Bypass record_learnt's asserting-literal machinery: install
            // the clause directly so nothing is enqueued.
            let cref = s.db.add_learnt(&lits, None);
            s.attach(cref);
        }
        s
    }

    /// Raises a clause's activity counter to `target` (test scaffolding; the
    /// arena only exposes unit bumps, as conflict analysis credits one
    /// conflict at a time).
    fn set_activity(s: &mut Cdcl, cref: crate::clause_db::ClauseRef, target: u32) {
        while s.db.activity(cref) < target {
            s.db.bump_activity(cref);
        }
    }

    #[test]
    fn berkmin_policy_keeps_short_young_clauses() {
        let mut s = stacked_solver(SolverConfig::berkmin(), 8, 3);
        s.reduce_db(&mut NoProof);
        // Length 3 < 43: every young clause kept; old region (bottom 1/16
        // of 8 clauses is empty for n=8 since distance 7*16=112 < 15*8=120).
        assert_eq!(s.db.stack.len(), 8);
    }

    #[test]
    fn berkmin_policy_removes_long_inactive_clauses() {
        let mut s = stacked_solver(SolverConfig::berkmin(), 8, 50);
        // Mark one clause active enough to survive (> 7).
        let survivor = s.db.stack[2];
        set_activity(&mut s, survivor, 8);
        let survivor_lits = s.db.lits(survivor).to_vec();
        s.reduce_db(&mut NoProof);
        // Kept: the active one and the topmost. The GC relocates records,
        // so identify the survivor by content, not by its old ClauseRef.
        assert_eq!(s.db.stack.len(), 2);
        assert!(s
            .db
            .stack
            .iter()
            .any(|&c| s.db.lits(c) == &survivor_lits[..] && s.db.activity(c) == 8));
        assert_eq!(s.stats.deleted_clauses, 6);
    }

    #[test]
    fn topmost_clause_is_never_removed() {
        let mut s = stacked_solver(SolverConfig::berkmin(), 4, 60);
        let top_lits = s.db.lits(*s.db.stack.last().unwrap()).to_vec();
        s.reduce_db(&mut NoProof);
        let new_top = *s.db.stack.last().unwrap();
        assert_eq!(s.db.lits(new_top), &top_lits[..]);
    }

    #[test]
    fn old_clauses_face_stricter_rule() {
        // 32 clauses of length 20: young rule keeps them (20 < 43), but the
        // oldest 1/16 (distance ≥ 30) fall under the old rule (20 ≥ 9,
        // activity 0 ≤ 60 ⇒ removed).
        let mut s = stacked_solver(SolverConfig::berkmin(), 32, 20);
        s.reduce_db(&mut NoProof);
        // distances 30, 31 are "old" (30*16=480 ≥ 15*32=480) ⇒ 2 removed.
        assert_eq!(s.db.stack.len(), 30);
    }

    #[test]
    fn old_threshold_rises_per_reduction() {
        let mut s = stacked_solver(SolverConfig::berkmin(), 2, 3);
        let before = s.old_act_threshold;
        s.reduce_db(&mut NoProof);
        s.reduce_db(&mut NoProof);
        assert_eq!(s.old_act_threshold, before + 2);
    }

    #[test]
    fn berkmin_db_constants_match_paper() {
        assert_eq!(
            (
                YOUNG_KEEP_LEN,
                YOUNG_KEEP_ACT,
                OLD_KEEP_LEN,
                OLD_ACT_INIT,
                OLD_ACT_INC
            ),
            (43, 7, 9, 60, 1)
        );
        let s = Cdcl::new(SolverConfig::berkmin());
        assert_eq!(s.old_act_threshold, OLD_ACT_INIT);
    }

    #[test]
    fn length_bounded_policy_is_grasp_like() {
        let mut s = stacked_solver(SolverConfig::limited_keeping(), 6, 50);
        // Activity is irrelevant for limited_keeping.
        let c = s.db.stack[1];
        set_activity(&mut s, c, 1000);
        s.reduce_db(&mut NoProof);
        // All length-50 clauses except the topmost are removed.
        assert_eq!(s.db.stack.len(), 1);
    }

    #[test]
    fn keep_all_policy_keeps_everything() {
        let mut cfg = SolverConfig::berkmin();
        cfg.db_policy = DbPolicy::KeepAll;
        let mut s = stacked_solver(cfg, 10, 80);
        s.reduce_db(&mut NoProof);
        assert_eq!(s.db.stack.len(), 10);
    }

    #[test]
    fn satisfied_clauses_are_removed_and_false_lits_stripped() {
        let mut s = Cdcl::new(SolverConfig::berkmin());
        s.add_clause([lit(1), lit(2), lit(3)]);
        s.add_clause([lit(-1), lit(4), lit(5)]);
        s.add_clause([lit(1)]); // level-0 fact: x1 = 1
        assert!(s.propagate().is_none());
        s.reduce_db(&mut NoProof);
        // Clause 1 satisfied by x1 ⇒ removed; clause 2 loses ¬x1.
        assert_eq!(s.db.num_live(), 1);
        let remaining: Vec<_> = s.db.iter_live().collect();
        assert_eq!(s.db.lits(remaining[0]), &[lit(4), lit(5)]);
        // The shortened clause is now binary and must be in bin_occ.
        assert_eq!(s.nb_two(lit(4)), 1);
    }

    #[test]
    fn reduction_preserves_satisfiability_outcome() {
        // Solve the same easy-but-nontrivial formula with aggressive
        // reduction and with none; verdicts must match.
        let clauses: Vec<Vec<Lit>> = vec![
            vec![lit(1), lit(2)],
            vec![lit(-1), lit(3)],
            vec![lit(-2), lit(-3)],
            vec![lit(1), lit(-3)],
            vec![lit(-1), lit(-2), lit(3)],
        ];
        let mut keep = Cdcl::new(SolverConfig::berkmin());
        let mut cfg = SolverConfig::berkmin();
        cfg.restart = crate::RestartPolicy::FixedInterval(1);
        let mut churn = Cdcl::new(cfg);
        for c in &clauses {
            keep.add_clause(c.iter().copied());
            churn.add_clause(c.iter().copied());
        }
        assert_eq!(keep.solve().is_sat(), churn.solve().is_sat());
    }
}
