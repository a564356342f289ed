//! Runtime self-auditing: one deep consistency check over every piece of
//! solver state the search trusts implicitly.
//!
//! [`Solver::audit_invariants`](crate::Solver::audit_invariants) validates, in one pass:
//!
//! * **Arena integrity** — every record header is walkable, filler pads are
//!   marked garbage, live clauses store ≥ 2 literals, and the running
//!   garbage/live counters match a full walk ([`ClauseDb::audit`]).
//! * **Watch structure** — every live clause is watched exactly twice, long
//!   clauses at their first two literals, binary clauses inline with the
//!   correct partner literal, blockers inside their clause, and no watcher
//!   dangles into garbage.
//! * **Watch semantics** — once the propagation queue is drained
//!   ([`Trail::queue_drained`](crate::trail::Trail::queue_drained)) every live
//!   clause is satisfied or has both
//!   watched literals unfalsified (the two-watched-literal contract).
//! * **Trail/reason consistency** — trail literals are true, levels match
//!   the decision markers, reason clauses are live, contain the implied
//!   literal and have every other literal falsified at or below its level.
//! * **Decision-heap membership** — under [`ActivityIndex::Heap`], every
//!   unassigned variable is in the heap and the heap/pos tables are mutual
//!   inverses satisfying the max-heap property (lazy deletion means
//!   *assigned* variables may legitimately linger).
//!
//! The check is `O(arena + watches + vars)` — far too slow for production
//! BCP but cheap enough to run at every quiescent point of a fuzzed solve.
//! That is exactly what [`SolverConfig::paranoid`](crate::SolverConfig)
//! does, and what the `debug_assert!` hooks at the mutation sites do in
//! debug builds.

use std::collections::HashSet;

use berkmin_cnf::{LBool, Lit, Var};

use crate::cdcl::Cdcl;
use crate::clause_db::ClauseRef;
use crate::config::ActivityIndex;

/// Every invariant violation found by one [`Solver::audit_invariants`](crate::Solver::audit_invariants)
/// call, in discovery order.
///
/// The report is the `Err` payload; its [`std::fmt::Display`] output is a
/// bullet list suitable for a panic message or a fuzzing log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Human-readable violation descriptions.
    pub violations: Vec<String>,
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} solver invariant violation(s):",
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AuditReport {}

impl Cdcl {
    /// The deep check behind
    /// [`Solver::audit_invariants`](crate::Solver::audit_invariants), also
    /// valid internally after propagation, conflict handling, backtracking
    /// and garbage collection.
    pub(crate) fn audit_invariants(&self) -> Result<(), AuditReport> {
        let mut out = Vec::new();
        self.db.audit(&mut out);
        self.trail.self_check(self.num_vars, &mut out);
        self.watches.self_check_sizes(self.num_vars, &mut out);
        self.audit_tables(&mut out);
        if out.iter().any(|v| v.starts_with("tables:")) {
            // Mis-sized per-variable tables make the deeper checks index out
            // of bounds; report what is known rather than panic inside the
            // auditor.
            return Err(AuditReport { violations: out });
        }
        let live: HashSet<ClauseRef> = self.db.iter_live().collect();
        self.audit_stack(&live, &mut out);
        self.watches
            .self_check(&self.db, &self.trail, &live, self.ok, &mut out);
        self.audit_reasons(&live, &mut out);
        self.audit_eliminated(&live, &mut out);
        if self.config.activity_index == ActivityIndex::Heap {
            self.audit_heap(&mut out);
        }
        if out.is_empty() {
            Ok(())
        } else {
            Err(AuditReport { violations: out })
        }
    }

    /// Panics with the full report if the audit finds a violation; returns
    /// `true` otherwise so it can sit inside a `debug_assert!`.
    pub(crate) fn assert_invariants(&self, site: &str) -> bool {
        if let Err(report) = self.audit_invariants() {
            panic!("solver invariant audit failed ({site}): {report}");
        }
        true
    }

    /// The [`SolverConfig::paranoid`](crate::SolverConfig) hook: a full
    /// audit at a quiescent point of the search, fatal on violation.
    #[inline]
    pub(crate) fn paranoid_audit(&self, site: &str) {
        if self.config.paranoid {
            self.assert_invariants(site);
        }
    }

    /// Sizes of the analysis/activity scratch tables the [`Trail`] and
    /// [`Watches`] self-checks do not own, plus the seen-scratch hygiene
    /// check.
    ///
    /// [`Trail`]: crate::trail::Trail
    /// [`Watches`]: crate::watch::Watches
    fn audit_tables(&self, out: &mut Vec<String>) {
        let n = self.num_vars;
        for (name, len) in [
            ("seen", self.seen.len()),
            ("var_activity", self.var_activity.len()),
        ] {
            if len != n {
                out.push(format!("tables: {name} covers {len} vars, expected {n}"));
            }
        }
        let len = self.lit_activity.len();
        if len != 2 * n {
            out.push(format!(
                "tables: lit_activity covers {len} literal codes, expected {}",
                2 * n
            ));
        }
        if self.seen.iter().any(|&s| s) {
            out.push("analysis: seen[] scratch left marked outside analysis".into());
        }
    }

    /// The conflict-clause stack: live, learnt, chronological.
    fn audit_stack(&self, live: &HashSet<ClauseRef>, out: &mut Vec<String>) {
        let mut prev: Option<ClauseRef> = None;
        for &cref in &self.db.stack {
            if !live.contains(&cref) {
                out.push(format!("stack: entry {cref:?} is not a live clause"));
                continue;
            }
            if !self.db.is_learnt(cref) {
                out.push(format!("stack: entry {cref:?} is an original clause"));
            }
            if let Some(p) = prev {
                if cref <= p {
                    out.push(format!(
                        "stack: entry {cref:?} breaks chronological arena order \
                         (follows {p:?})"
                    ));
                }
            }
            prev = Some(cref);
        }
    }

    /// Reason-*clause* consistency for every implied trail literal: the
    /// clause is live, contains the implied literal, and every other
    /// literal is falsified at or below the implied literal's level. (The
    /// trail/assignment/level cross-checks that need no clause arena live
    /// in [`Trail::self_check`](crate::trail::Trail::self_check).)
    fn audit_reasons(&self, live: &HashSet<ClauseRef>, out: &mut Vec<String>) {
        for &l in self.trail.iter() {
            let v = l.var().index();
            if v >= self.num_vars {
                continue; // already reported by the trail self-check
            }
            let Some(cref) = self.trail.reason_of(l.var()) else {
                continue;
            };
            if !live.contains(&cref) {
                out.push(format!("reason: var {v} points at dead clause {cref:?}"));
                continue;
            }
            let lits = self.db.lits(cref);
            if !lits.contains(&l) {
                out.push(format!(
                    "reason: clause {cref:?} of var {v} does not contain its \
                     implied literal {l:?}"
                ));
                continue;
            }
            for &other in lits.iter().filter(|&&o| o != l) {
                if self.trail.lit_value(other) != LBool::False {
                    out.push(format!(
                        "reason: clause {cref:?} of var {v} has unfalsified \
                         side literal {other:?}"
                    ));
                } else if self.trail.level_of(other.var()) > self.trail.level_of(l.var()) {
                    out.push(format!(
                        "reason: clause {cref:?} of var {v} (level {}) leans on \
                         {other:?} assigned above it (level {})",
                        self.trail.level_of(l.var()),
                        self.trail.level_of(other.var())
                    ));
                }
            }
        }
    }

    /// Decision-heap membership and structure ([`ActivityIndex::Heap`]).
    /// Eliminated variables are exempt: the simplifier purges them from the
    /// heap and they must never be branched on again.
    fn audit_heap(&self, out: &mut Vec<String>) {
        self.heap.audit(&self.var_activity, out);
        for v in 0..self.num_vars {
            if self.trail.value(Var::new(v as u32)).is_undef()
                && !self.eliminated[v]
                && !self.heap.contains(Var::new(v as u32))
            {
                out.push(format!(
                    "heap: unassigned var {v} has fallen out of the decision heap"
                ));
            }
        }
    }

    /// Variables dissolved by the preprocessor must have vanished from the
    /// search entirely: no live clause, watcher, trail entry, assignment or
    /// heap slot may mention them (their values exist only on the
    /// reconstruction stack).
    fn audit_eliminated(&self, live: &HashSet<ClauseRef>, out: &mut Vec<String>) {
        if !self.eliminated.iter().any(|&e| e) {
            return;
        }
        for v in 0..self.num_vars {
            if !self.eliminated[v] {
                continue;
            }
            if !self.trail.value(Var::new(v as u32)).is_undef() {
                out.push(format!("eliminated: var {v} is assigned"));
            }
            if self.frozen[v] {
                out.push(format!("eliminated: var {v} is also frozen"));
            }
            if self.heap.contains(Var::new(v as u32)) {
                out.push(format!("eliminated: var {v} still in the decision heap"));
            }
            for l in [Lit::pos(Var::new(v as u32)), !Lit::pos(Var::new(v as u32))] {
                let code = l.code();
                if !self.watches.long(code).is_empty() || !self.watches.binary(code).is_empty() {
                    out.push(format!("eliminated: var {v} still has watchers"));
                    break;
                }
            }
        }
        for &l in self.trail.iter() {
            if self.eliminated[l.var().index()] {
                out.push(format!("eliminated: var {:?} on the trail", l.var()));
            }
        }
        for &cref in live {
            if let Some(l) = self
                .db
                .lits(cref)
                .iter()
                .find(|l| self.eliminated[l.var().index()])
            {
                out.push(format!(
                    "eliminated: live clause {cref:?} mentions eliminated var {:?}",
                    l.var()
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::watch::Watcher;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    fn solved_solver() -> Cdcl {
        // Simplification off: these tests corrupt watch/trail state by hand
        // and need the exact clauses (the ternary one in particular) to
        // survive to the arena untouched.
        let mut cfg = SolverConfig::berkmin();
        cfg.simplify = crate::config::SimplifyConfig::off();
        let mut s = Cdcl::new(cfg);
        s.add_clause([lit(1), lit(2), lit(3)]);
        s.add_clause([lit(-1), lit(2)]);
        s.add_clause([lit(-2), lit(3)]);
        assert!(s.solve().is_sat());
        s
    }

    #[test]
    fn clean_solver_passes() {
        let s = solved_solver();
        s.audit_invariants()
            .expect("fresh solve leaves clean state");
    }

    #[test]
    fn cleared_watch_list_is_caught() {
        let mut s = solved_solver();
        let victim = (0..s.watches.num_codes())
            .find(|&c| !s.watches.long(c).is_empty())
            .expect("a ternary clause is watched somewhere");
        s.watches.test_clear_long(victim);
        let report = s.audit_invariants().expect_err("audit must trip");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("watched 1 time(s)")),
            "missing-watch violation not reported: {report}"
        );
    }

    #[test]
    fn dangling_watcher_is_caught() {
        let mut s = solved_solver();
        let bogus = ClauseRef(u32::MAX - 8);
        s.watches.push_long(
            0,
            Watcher {
                cref: bogus,
                blocker: lit(1),
            },
        );
        let report = s.audit_invariants().expect_err("audit must trip");
        assert!(
            report.violations.iter().any(|v| v.contains("dangling")),
            "dangling watcher not reported: {report}"
        );
    }

    #[test]
    fn corrupted_assignment_is_caught() {
        let mut s = solved_solver();
        // Flip one polarity of the first trail literal's value out from
        // under the trail; its negation's entry keeps the old value.
        let l = s.trail.lit_at(0);
        s.trail.test_flip_assign(l);
        let report = s.audit_invariants().expect_err("audit must trip");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("not assigned true")),
            "trail/assignment mismatch not reported: {report}"
        );
        let v = l.var().index();
        assert!(
            report
                .violations
                .iter()
                .any(|m| m.starts_with(&format!("assigns: var {v} reads"))),
            "broken polarity pair not reported: {report}"
        );
    }

    #[test]
    fn one_sided_polarity_corruption_is_caught() {
        // Corrupt the *negative* entry of a true literal: the trail literal
        // itself still reads true, so only the polarity audit can notice.
        let mut s = solved_solver();
        let l = s.trail.lit_at(0);
        s.trail.test_flip_assign(!l);
        let report = s.audit_invariants().expect_err("audit must trip");
        let v = l.var().index();
        assert!(
            report
                .violations
                .iter()
                .any(|m| m.starts_with(&format!("assigns: var {v} reads"))),
            "broken polarity pair not reported: {report}"
        );
        assert!(
            !report
                .violations
                .iter()
                .any(|m| m.contains("not assigned true")),
            "the trail literal itself was left intact: {report}"
        );
    }

    #[test]
    fn report_display_lists_every_violation() {
        let report = AuditReport {
            violations: vec!["first".into(), "second".into()],
        };
        let text = report.to_string();
        assert!(text.contains("2 solver invariant violation(s)"));
        assert!(text.contains("- first") && text.contains("- second"));
    }
}
