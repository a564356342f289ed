//! The CDCL search loop and its solve-session machinery.
//!
//! This module owns everything that happens *during* a solve call: the
//! propagate/analyze/decide loop, BCP over the watch structure, restart
//! and garbage-collection plumbing, learnt-clause recording, the
//! solve-event hooks ([`SolveEvents`]), a portfolio worker's two share-pool
//! sites (each learnt clause offered, foreign clauses imported at solve
//! entry and restarts) and the session bracket that emits
//! [`SolveEvent::SolveStart`]/[`SolveEvent::SolveDone`]. The core
//! ([`Cdcl`], `cdcl.rs`) composes the state subsystems — the [`Trail`],
//! the [`Watches`] and the [`SearchLimits`](crate::limits::SearchLimits)
//! scheduler — and the public result types live here beside the loop that
//! produces them.

use berkmin_cnf::{Assignment, LBool, Lit, Var};

use crate::cdcl::Cdcl;
use crate::clause_db::{ClauseDb, ClauseRef};
use crate::config::{ActivityIndex, DecisionStrategy};
use crate::proof::{ClauseId, ProofSink};
use crate::stats::Stats;
use crate::telemetry::{SolveEvent, SolveObserver, SolveVerdict};
use crate::trail::Trail;
use crate::watch::{BinWatcher, Watcher, Watches};

/// Why a run stopped without an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The conflict budget was exhausted — the deterministic analog of the
    /// paper's wall-clock timeouts ("aborted" rows in Tables 2, 4, 7).
    ConflictBudget,
    /// The terminate callback (see
    /// [`SolverBuilder::on_terminate`](crate::SolverBuilder::on_terminate))
    /// asked the solver to stop. Budgets are unaffected: a later
    /// [`Solver::solve`](crate::Solver::solve) call gets its usual per-call allowance.
    Callback,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::ConflictBudget => write!(f, "conflict budget exhausted"),
            StopReason::Callback => write!(f, "terminate callback requested stop"),
        }
    }
}

/// Every aging step divides all variable activities by this (§1/§5); the
/// steps fall due every `limits::ACTIVITY_DECAY_INTERVAL` conflicts.
const ACTIVITY_DECAY_DIVISOR: u64 = 4;

/// A boxed terminate callback: polled at solve entry, at restart
/// boundaries, and every 1024 conflicts; returning `true` aborts with
/// [`StopReason::Callback`].
pub(crate) type TerminateCallback = Box<dyn FnMut() -> bool + Send>;

/// A boxed learnt-clause callback: receives every conflict-derived learnt
/// clause (asserting literal first) together with its LBD. It filters
/// nothing; callers keep what they want.
pub(crate) type LearntCallback = Box<dyn FnMut(&[Lit], u32) + Send>;

/// The solve-event hooks a solver carries, installed at construction time
/// through [`SolverBuilder`](crate::SolverBuilder) (only the observer is
/// replaceable later, via [`Solver::set_observer`](crate::Solver::set_observer)). Callbacks
/// receive no solver reference — they observe only what they captured plus
/// the arguments passed, so they cannot perturb the search.
#[derive(Default)]
pub(crate) struct SolveEvents {
    /// Polled at solve entry, at every restart boundary, and every 1024
    /// conflicts (so a restart-free search cannot starve it); returning
    /// `true` aborts the call with [`StopReason::Callback`].
    pub(crate) terminate: Option<TerminateCallback>,
    /// Fired once per conflict-derived learnt clause (asserting literal
    /// first) with its LBD, right after the clause is reported to the proof
    /// sink and before search resumes.
    pub(crate) on_learnt: Option<LearntCallback>,
    /// Structured telemetry observer (see [`crate::telemetry`]): receives
    /// typed [`SolveEvent`]s. Every emission site checks this `Option`
    /// once, so an observer-less solver pays nothing.
    pub(crate) observer: Option<Box<dyn SolveObserver + Send>>,
}

impl std::fmt::Debug for SolveEvents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveEvents")
            .field("terminate", &self.terminate.is_some())
            .field("on_learnt", &self.on_learnt.is_some())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

/// Result of [`Solver::solve`](crate::Solver::solve).
///
/// For runs under assumptions (staged with [`Solver::assume`](crate::Solver::assume)),
/// [`SolveStatus::Unsat`] means *unsatisfiable under those assumptions*;
/// consult [`Solver::failed_assumptions`](crate::Solver::failed_assumptions) to distinguish an absolute
/// refutation (empty core) from an assumption conflict (non-empty core).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveStatus {
    /// Satisfiable; carries a model that satisfies every original clause.
    Sat(Assignment),
    /// Proven unsatisfiable.
    Unsat,
    /// Gave up because a [`Budget`](crate::Budget) limit was hit.
    Unknown(StopReason),
}

impl SolveStatus {
    /// `true` iff the status is [`SolveStatus::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveStatus::Sat(_))
    }

    /// `true` iff the status is [`SolveStatus::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveStatus::Unsat)
    }

    /// `true` iff the run was aborted on a budget.
    pub fn is_unknown(&self) -> bool {
        matches!(self, SolveStatus::Unknown(_))
    }

    /// Returns the model if satisfiable.
    pub fn model(&self) -> Option<&Assignment> {
        match self {
            SolveStatus::Sat(m) => Some(m),
            _ => None,
        }
    }
}

impl Cdcl {
    /// One solve session: consumes the pending assumptions, emits the
    /// [`SolveEvent::SolveStart`]/[`SolveEvent::SolveDone`] bracket, and
    /// runs the CDCL loop ([`Cdcl::search`]), reporting to `proof`. The
    /// single implementation behind [`Solver::solve`](crate::Solver::solve).
    pub(crate) fn solve_session(&mut self, proof: &mut dyn ProofSink) -> SolveStatus {
        self.begin_solve();
        if self.events.observer.is_some() {
            let event = SolveEvent::SolveStart {
                call: self.stats.solve_calls,
                num_vars: self.num_vars,
                num_clauses: self.db.num_live(),
                assumptions: self.assumptions.len(),
            };
            self.emit(event);
        }
        let status = self.search(proof);
        if self.events.observer.is_some() {
            let event = SolveEvent::SolveDone {
                verdict: SolveVerdict::from(&status),
                conflicts: self.limits.conflicts_spent(&self.stats),
                decisions: self.limits.decisions_spent(&self.stats),
                propagations: self.limits.propagations_spent(&self.stats),
                restarts: self.limits.restarts_spent(&self.stats),
            };
            self.emit(event);
        }
        status
    }

    /// The CDCL search proper: entry checks, import poll, then the
    /// propagate/analyze/decide loop until an answer or a stop.
    fn search(&mut self, proof: &mut dyn ProofSink) -> SolveStatus {
        if self.should_terminate() {
            return SolveStatus::Unknown(StopReason::Callback);
        }
        if !self.ok {
            return self.conclude_unsat(proof);
        }
        if self.decision_level() == 0 && self.propagate().is_some() {
            self.ok = false;
            return self.conclude_unsat(proof);
        }
        // Preprocess at the first call's entry, over the propagated
        // level-0 trail: subsumption, strengthening and bounded variable
        // elimination (see `crate::preprocess`), with every change reported
        // to the proof sink and eliminated variables pushed onto the
        // reconstruction stack.
        self.simplify_formula(proof);
        if !self.ok {
            return self.conclude_unsat(proof);
        }
        // Import shared clauses at solve entry as well as at restart
        // boundaries: a budget-sliced driver (the deterministic portfolio
        // schedule) may never search long enough to restart, and entry is
        // an equally valid level-0 "between search trees" point.
        self.import_shared_clauses();
        if !self.ok {
            return self.conclude_unsat(proof);
        }
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                // All conflict-cadence questions are answered in one batch
                // here, while the counters hold the values this conflict
                // ticked them to.
                let due = self.limits.on_conflict(&self.stats, &self.config);
                if self.decision_level() == 0 {
                    self.ok = false;
                    return self.conclude_unsat(proof);
                }
                let (learnt, bt_level, lbd) = self.analyze(confl);
                let id = self.hints.add(proof, &learnt);
                if let Some(callback) = &mut self.events.on_learnt {
                    callback(&learnt, lbd);
                }
                if let Some(link) = &self.share {
                    if link.pool.publish(link.id, &learnt, lbd) {
                        self.stats.clauses_exported += 1;
                    }
                }
                self.cancel_until(bt_level);
                self.record_learnt(&learnt, id);
                self.learnt = learnt; // the buffer serves the next conflict
                self.apply_maintenance(due);
                self.paranoid_audit("after conflict handling");
                if due.progress_tick && self.events.observer.is_some() {
                    let event = SolveEvent::Progress {
                        conflicts: self.stats.conflicts,
                        trail: self.trail.len(),
                        heap: self.heap.len(),
                        learnt: self.db.num_learnt(),
                        avg_lbd: self.stats.avg_lbd(),
                    };
                    self.emit(event);
                }
                // Restart boundaries alone can starve the terminate
                // callback (RestartPolicy::Never, FixedInterval(u64::MAX),
                // or a huge Luby leg), so it is also polled on a fixed
                // conflict cadence. Budgets stay untouched.
                if due.poll_terminate && self.should_terminate() {
                    return SolveStatus::Unknown(StopReason::Callback);
                }
                if due.conflict_budget_exhausted {
                    return SolveStatus::Unknown(StopReason::ConflictBudget);
                }
            } else {
                self.paranoid_audit("after propagation");
                if self
                    .limits
                    .restart_due(self.decision_level(), &self.stats, self.config.restart)
                {
                    // The terminate callback is polled at every restart
                    // boundary — the natural "between search trees" point
                    // the IC3/BMC drivers expect. Budgets are untouched.
                    if self.should_terminate() {
                        return SolveStatus::Unknown(StopReason::Callback);
                    }
                    self.restart(proof);
                    if !self.ok {
                        // An imported clause collapsed to the empty clause
                        // under the level-0 assignment: absolute refutation.
                        return self.conclude_unsat(proof);
                    }
                    self.paranoid_audit("after restart");
                    continue;
                }
                // Enqueue pending assumptions as pseudo-decisions: the
                // assumption at index `i` owns decision level `i + 1`. An
                // already-implied assumption opens a *dummy* level (keeping
                // index and level in lockstep); a falsified one means the
                // formula conflicts with the assumption set — extract the
                // core and answer UNSAT without touching `ok`.
                let mut asserted_assumption = false;
                while self.decision_level() < self.assumptions.len() {
                    let a = self.assumptions[self.decision_level()];
                    match self.lit_value(a) {
                        LBool::True => self.trail.open_dummy_level(),
                        LBool::Undef => {
                            self.push_decision(a);
                            asserted_assumption = true;
                            break;
                        }
                        LBool::False => {
                            self.failed = self.analyze_final(a);
                            self.stats.assumption_conflicts += 1;
                            self.cancel_until(0);
                            self.paranoid_audit("after failed-assumption backtrack");
                            return SolveStatus::Unsat;
                        }
                    }
                }
                if asserted_assumption {
                    continue; // propagate the assumption before deciding
                }
                match self.decide() {
                    None => {
                        self.paranoid_audit("at SAT");
                        return SolveStatus::Sat(self.extract_model());
                    }
                    Some(l) => {
                        self.stats.decisions += 1;
                        if self.config.record_decisions {
                            self.stats.decision_log.push(l.var());
                        }
                        self.push_decision(l);
                    }
                }
            }
        }
    }

    /// Boolean constraint propagation with two watched literals, structured
    /// as blocker-check → binary-pass → long-clause-pass: for each newly
    /// true literal the inline binary watchers are drained first (no arena
    /// access at all), then the long-clause watchers with the Chaff blocker
    /// fast path in front of any arena read.
    ///
    /// Both passes are free functions over split borrows of the core
    /// ([`binary_pass`], [`long_pass`]): each `&mut` argument is known not
    /// to alias the others, so the compiler may keep the trail's tables and
    /// the list being walked in registers across the arena's stores. The
    /// binary pass reads its list in place, since it never writes a binary
    /// list; the long pass takes its list out of [`Watches`] because
    /// relocated watchers are pushed onto other long lists.
    ///
    /// Returns the conflicting clause, if any. On conflict the propagation
    /// queue is drained so the caller sees a consistent trail.
    pub(crate) fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while let Some(p) = self.trail.next_queued() {
            conflict = binary_pass(
                self.watches.binary(p.code()),
                &mut self.trail,
                &mut self.stats,
            );
            if conflict.is_none() {
                let mut ws = self.watches.take_long(p.code());
                conflict = long_pass(
                    &mut self.trail,
                    &mut self.db,
                    &mut self.watches,
                    &mut self.stats,
                    &mut ws,
                    !p,
                );
                self.watches.put_long(p.code(), ws);
            }
            if conflict.is_some() {
                self.trail.drain_queue();
                break;
            }
        }
        conflict
    }

    /// Registers the two watched literals of `cref` (positions 0 and 1)
    /// with the watch structure.
    pub(crate) fn attach(&mut self, cref: ClauseRef) {
        debug_assert!(!self.db.is_garbage(cref), "attach of deleted {cref:?}");
        self.watches.attach(cref, self.db.lits(cref));
    }

    /// Rebuilds every watch list (long and binary) from the live clause
    /// set. Only valid at decision level 0 with an empty propagation queue
    /// (i.e. during database reduction).
    pub(crate) fn rebuild_watches(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        self.watches.rebuild(&self.db);
    }

    /// Runs the compacting clause-arena garbage collector: reclaims every
    /// record marked deleted (emitting its DRAT `d` line), slides the
    /// survivors to the front of the arena, and rewrites every outstanding
    /// [`ClauseRef`] — the conflict-clause stack, the trail's reason
    /// pointers, and (by rebuilding) the watch lists. A reason whose clause
    /// was deleted belongs to a level-0 fact, whose reason is never
    /// consulted again, so it is dropped.
    ///
    /// Only valid at decision level 0 with a fully propagated trail; run at
    /// every §8 database reduction.
    pub(crate) fn collect_garbage<S: ProofSink + ?Sized>(&mut self, proof: &mut S) {
        debug_assert_eq!(self.decision_level(), 0);
        self.db.compact_stack();
        if self.db.garbage_words() == 0 {
            // Nothing was deleted or shrunk: every outstanding reference
            // (watches included) is still valid — skip the whole collection.
            return;
        }
        let (map, reclaimed) = self.db.collect(proof);
        self.stats.gc_runs += 1;
        self.stats.gc_words_reclaimed += reclaimed as u64;
        self.trail.remap_reasons(|cref| map.remap_live(cref));
        self.rebuild_watches();
    }

    /// Resets the per-call state at the top of every solve session: the
    /// previous search tree is undone, the pending assumptions are consumed
    /// and installed (their variables materialized), the stale failed core
    /// is dropped, and the scheduler is re-armed (budget baseline and
    /// restart scratch) so no limit or conflict-count leaks in from an
    /// earlier call.
    fn begin_solve(&mut self) {
        self.cancel_until(0);
        self.assumptions = std::mem::take(&mut self.pending_assumptions);
        let max_var = self
            .assumptions
            .iter()
            .map(|l| l.var().index() + 1)
            .max()
            .unwrap_or(0);
        self.ensure_vars(max_var);
        self.failed.clear();
        self.limits.begin_call(&self.stats);
        self.stats.solve_calls += 1;
        debug_assert!(
            self.seen.iter().all(|&s| !s),
            "conflict-analysis scratch leaked across solve calls"
        );
    }

    fn conclude_unsat(&mut self, proof: &mut dyn ProofSink) -> SolveStatus {
        if !self.emitted_empty {
            self.hints.add(proof, &[]);
            self.emitted_empty = true;
        }
        SolveStatus::Unsat
    }

    /// Delivers `event` to the observer, if one is attached. Emission
    /// sites that would *construct* a non-trivial event first check
    /// `self.events.observer.is_some()` so an observer-less solver pays
    /// only that one branch.
    #[inline]
    pub(crate) fn emit(&mut self, event: SolveEvent) {
        if let Some(observer) = &mut self.events.observer {
            observer.on_event(&event);
        }
    }

    /// Whether a telemetry observer is attached (the emission-site gate
    /// for code outside this module).
    #[inline]
    pub(crate) fn has_observer(&self) -> bool {
        self.events.observer.is_some()
    }

    /// Polls the terminate callback, if any.
    fn should_terminate(&mut self) -> bool {
        match &mut self.events.terminate {
            Some(callback) => callback(),
            None => false,
        }
    }

    /// Installs a freshly learnt clause: records activities, attaches
    /// watches, pushes it on the conflict-clause stack and asserts its
    /// first literal. Assumes the trail has been backtracked to the
    /// asserting level already. `id` is the clause's proof ID, if one is
    /// stored.
    pub(crate) fn record_learnt(&mut self, lits: &[Lit], id: Option<ClauseId>) {
        self.stats.learnt_total += 1;
        self.stats.learnt_lits_total += lits.len() as u64;
        for &l in lits {
            // lit_activity censuses every deduced conflict clause (§7).
            self.lit_activity[l.code()] += 1;
        }
        if self.config.decision == DecisionStrategy::Vsids {
            for &l in lits {
                self.vsids[l.code()] += 1;
            }
        }
        if lits.len() == 1 {
            // Unit conflict clause: becomes a retained level-0 fact (§8).
            self.stats.learnt_units += 1;
            debug_assert_eq!(self.decision_level(), 0);
            self.unchecked_enqueue(lits[0], None);
        } else {
            let asserting = lits[0];
            let cref = self.db.add_learnt(lits, id);
            self.attach(cref);
            self.unchecked_enqueue(asserting, Some(cref));
        }
        let live = self.db.num_live() as u64;
        self.stats.max_live_clauses = self.stats.max_live_clauses.max(live);
    }

    /// Applies the periodic maintenance the scheduler said falls due at
    /// this conflict: activity aging (§1/§5) and VSIDS halving for the
    /// Chaff baseline.
    fn apply_maintenance(&mut self, due: crate::limits::DueActions) {
        if due.decay_var_activity {
            for a in &mut self.var_activity {
                *a /= ACTIVITY_DECAY_DIVISOR;
            }
            if self.config.activity_index == ActivityIndex::Heap {
                self.heap.rebuild(&self.var_activity);
            }
        }
        if due.decay_vsids {
            for a in &mut self.vsids {
                *a /= 2;
            }
        }
    }

    /// Abandons the current search tree and runs database management (§8),
    /// then imports the clauses the other portfolio workers shared — the
    /// "between search trees" point where foreign clauses can be attached
    /// with the trail at level 0.
    fn restart(&mut self, mut proof: &mut dyn ProofSink) {
        self.stats.restarts += 1;
        self.limits.on_restart();
        self.cancel_until(0);
        if self.events.observer.is_some() {
            let event = SolveEvent::Restart {
                restarts: self.stats.restarts,
                conflicts: self.stats.conflicts,
            };
            self.emit(event);
        }
        self.reduce_db(&mut proof);
        self.import_shared_clauses();
    }

    /// Drains the share pool through the worker's
    /// [`ShareLink`](crate::portfolio::ShareLink), if it has one, and
    /// installs the foreign clauses at decision level 0 through
    /// `install_at_root`, as *learnt* clauses — imports compete under the
    /// §8 retention policy like any other conflict clause instead of
    /// bloating the original formula. A clause degenerating to a unit
    /// becomes a level-0 fact (propagated by the main loop); degenerating
    /// to the empty clause refutes the formula (`ok = false` — legal
    /// because every worker shares only formula-implied learnt clauses).
    ///
    /// Imported clauses are **not** reported to the proof sink: they are
    /// not RUP-derivable from this solver's own deductions, so a DRAT log
    /// would become unsound. The portfolio therefore rejects a proof sink
    /// while sharing is on.
    fn import_shared_clauses(&mut self) {
        let Some(link) = &self.share else {
            return;
        };
        debug_assert_eq!(self.decision_level(), 0);
        let imported_before = self.stats.clauses_imported;
        for mut lits in link.pool.collect(link.id) {
            if self.install_at_root(&mut lits, true, None) {
                self.stats.clauses_imported += 1;
                if !self.ok {
                    break;
                }
            }
        }
        let imported = self.stats.clauses_imported - imported_before;
        if imported > 0 && self.events.observer.is_some() {
            self.emit(SolveEvent::ShareImport { count: imported });
        }
    }

    /// Extracts the satisfying assignment from a fully assigned trail,
    /// extending it back over preprocessor-eliminated variables.
    pub(crate) fn extract_model(&self) -> Assignment {
        let mut model = Assignment::new(self.num_vars);
        for i in 0..self.num_vars {
            let v = Var::new(i as u32);
            // Unconstrained variables default to false.
            model.assign(v, self.trail.value(v) == LBool::True);
        }
        // Extend the model back over the variables the preprocessor
        // eliminated, in reverse elimination order, so it satisfies the
        // *original* formula rather than just the simplified one.
        self.reconstructor.extend_model(&mut model);
        model
    }
}

/// BCP's binary pass for one newly true literal: `bins` is its inline
/// binary list, whose watchers *are* the clauses' other literals, so no
/// clause memory is read. Assigns each unassigned other literal and stops
/// at the first false one, returning that clause as the conflict.
#[inline]
fn binary_pass(bins: &[BinWatcher], trail: &mut Trail, stats: &mut Stats) -> Option<ClauseRef> {
    let mut props = 0u64;
    let mut conflict = None;
    for w in bins {
        match trail.lit_value(w.other) {
            LBool::True => {}
            LBool::Undef => {
                props += 1;
                trail.assign(w.other, Some(w.cref));
            }
            LBool::False => {
                conflict = Some(w.cref);
                break;
            }
        }
    }
    stats.propagations += props;
    conflict
}

/// BCP's long-clause pass over `ws`, the long list taken out of `watches`
/// for the literal that made `false_lit` false. Returns the conflicting
/// clause, if any; `ws` goes back into `watches` afterwards.
///
/// A watcher whose blocker is not true borrows its clause's literals from
/// the arena once, and that one slice serves the whole visit: moving the
/// false literal to position 1, testing the other watch `first` (whose
/// value is read once and reused for the unit/conflict test), scanning
/// positions 2.. for a replacement and swapping it in. The watch-list order
/// is part of the deterministic search, so three rules stay fixed: a
/// relocated watcher leaves by `swap_remove`, a kept watcher takes `first`
/// as its blocker, and the replacement scan always starts at position 2.
#[inline]
fn long_pass(
    trail: &mut Trail,
    db: &mut ClauseDb,
    watches: &mut Watches,
    stats: &mut Stats,
    ws: &mut Vec<Watcher>,
    false_lit: Lit,
) -> Option<ClauseRef> {
    let listed = ws.len();
    let mut touched = 0u64;
    let mut props = 0u64;
    let mut conflict = None;
    let mut i = 0;
    while i < ws.len() {
        let Watcher { cref, blocker } = ws[i];
        // Fast path: the blocker literal already satisfies the clause.
        if trail.lit_value(blocker) == LBool::True {
            i += 1;
            continue;
        }
        touched += 1;
        let c = db.lits_mut(cref);
        if c[0] == false_lit {
            c.swap(0, 1);
        }
        debug_assert_eq!(c[1], false_lit, "watch invariant violated");
        let first = c[0];
        // When `first` is the blocker it is known not to be true, so this
        // one test covers both "blocker" and "other watch".
        let first_value = trail.lit_value(first);
        if first_value == LBool::True {
            ws[i] = Watcher {
                cref,
                blocker: first,
            };
            i += 1;
            continue;
        }
        // Look for a non-false literal to move the watch to.
        if let Some(k) = c[2..]
            .iter()
            .position(|&lk| trail.lit_value(lk) != LBool::False)
        {
            c.swap(1, k + 2);
            watches.push_long(
                (!c[1]).code(),
                Watcher {
                    cref,
                    blocker: first,
                },
            );
            ws.swap_remove(i);
            continue;
        }
        // Clause is unit (or conflicting) under the current trail.
        ws[i] = Watcher {
            cref,
            blocker: first,
        };
        i += 1;
        if first_value == LBool::False {
            conflict = Some(cref);
            break;
        }
        props += 1;
        trail.assign(first, Some(cref));
    }
    // Every step either kept a watcher (`i += 1`) or moved one away
    // (`swap_remove`), so the watchers examined are `i` plus the ones that
    // left the list — all of them unless a conflict stopped the pass early.
    stats.watchers_visited += (i + listed - ws.len()) as u64;
    stats.clauses_touched += touched;
    stats.propagations += props;
    conflict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Budget, SolverConfig};

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Cdcl::new(SolverConfig::berkmin());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn single_unit_clause() {
        let mut s = Cdcl::new(SolverConfig::berkmin());
        let x = Lit::from_dimacs(1);
        s.add_clause([x]);
        match s.solve() {
            SolveStatus::Sat(m) => assert!(m.satisfies(x)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = Cdcl::new(SolverConfig::berkmin());
        s.add_clause([Lit::from_dimacs(1)]);
        s.add_clause([Lit::from_dimacs(-1)]);
        assert!(s.solve().is_unsat());
        assert!(!s.ok);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Cdcl::new(SolverConfig::berkmin());
        assert!(!s.add_clause([]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut s = Cdcl::new(SolverConfig::berkmin());
        s.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(-1)]);
        assert_eq!(s.db.num_live(), 0);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let mut s = Cdcl::new(SolverConfig::berkmin());
        s.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(1)]);
        // Collapses to a unit clause, asserted immediately.
        assert_eq!(s.db.num_live(), 0);
        assert_eq!(s.trail.value_opt(Var::new(0)), LBool::True);
    }

    #[test]
    fn propagation_chain_resolves_without_decisions() {
        // x1 ∧ (¬x1∨x2) ∧ (¬x2∨x3): all forced.
        let mut s = Cdcl::new(SolverConfig::berkmin());
        s.add_clause([Lit::from_dimacs(1)]);
        s.add_clause([Lit::from_dimacs(-1), Lit::from_dimacs(2)]);
        s.add_clause([Lit::from_dimacs(-2), Lit::from_dimacs(3)]);
        let status = s.solve();
        let m = status.model().unwrap();
        assert!(m.satisfies(Lit::from_dimacs(3)));
        assert_eq!(s.stats.decisions, 0);
    }

    /// Pins BCP at unit level on a hand-built formula mixing binary,
    /// ternary and 5-literal clauses: the trail order, the conflicting
    /// clause, every clause's arena literal order after BCP's swaps, and
    /// the three BCP counters. `search_fingerprint` pins these only end to
    /// end; a rewrite of `propagate` must leave every value here as it is.
    #[test]
    fn propagate_pins_trail_swaps_and_counters() {
        let dimacs = |ls: &[Lit]| ls.iter().map(|l| l.to_dimacs()).collect::<Vec<i32>>();
        let mut s = Cdcl::new(SolverConfig::berkmin());
        for c in [
            &[-1, 2][..],
            &[-2, 3, 4],
            &[-1, -3, 5, 6, 7],
            &[-4, -5, 8],
            &[-4, -6, -8],
            &[-2, -7, 6],
            &[5, 6, -8],
            &[3, -5, 6, 7, -8],
        ] {
            s.add_clause(c.iter().map(|&n| Lit::from_dimacs(n)));
        }
        assert!(s.propagate().is_none());
        s.push_decision(Lit::from_dimacs(1));
        assert!(s.propagate().is_none());
        s.push_decision(Lit::from_dimacs(-3));
        assert!(s.propagate().is_none());
        s.push_decision(Lit::from_dimacs(5));
        let confl = s.propagate().expect("x5 refutes the formula under x1, ¬x3");

        // x2 by the binary clause, x4 by the ternary (¬x2 ∨ x3 ∨ x4) once
        // x3 is false, then x8, ¬x6 and ¬x7 by long clauses.
        assert_eq!(
            dimacs(&s.trail.iter().copied().collect::<Vec<_>>()),
            [1, 2, -3, 4, 5, 8, -6, -7]
        );
        assert_eq!(dimacs(s.db.lits(confl)), [7, 6, 3, -5, -8]);
        // Clauses are stored sorted; each position below is the result of
        // BCP's watch swaps (false watch to position 1, replacement from
        // position 2 on). The binary clause and (x5 ∨ x6 ∨ ¬x8), whose
        // blocker stayed true, are untouched.
        let arena: Vec<Vec<i32>> = s.db.iter_live().map(|c| dimacs(s.db.lits(c))).collect();
        assert_eq!(
            arena,
            [
                &[-1, 2][..],
                &[4, 3, -2],
                &[-3, 5, -1, 6, 7],
                &[8, -5, -4],
                &[-6, -8, -4],
                &[-7, 6, -2],
                &[5, 6, -8],
                &[7, 6, 3, -5, -8],
            ]
        );
        assert_eq!(
            (
                s.stats.propagations,
                s.stats.watchers_visited,
                s.stats.clauses_touched
            ),
            (5, 13, 12)
        );
    }

    #[test]
    fn budget_abort_reports_unknown() {
        // A formula needing work: small pigeonhole, 1-conflict budget.
        let mut s = Cdcl::new(SolverConfig::berkmin().with_budget(Budget::conflicts(1)));
        // PHP(2): 3 pigeons, 2 holes.
        let lit = |p: usize, h: usize| Lit::from_dimacs((p * 2 + h + 1) as i32);
        for p in 0..3 {
            s.add_clause([lit(p, 0), lit(p, 1)]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    s.add_clause([!lit(p1, h), !lit(p2, h)]);
                }
            }
        }
        match s.solve() {
            SolveStatus::Unknown(StopReason::ConflictBudget) => {}
            other => panic!("expected budget abort, got {other:?}"),
        }
    }
}
