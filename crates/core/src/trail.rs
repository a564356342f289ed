//! The assignment trail: one typed owner for every piece of
//! variable-assignment state.
//!
//! [`Trail`] bundles the value table (indexed by literal code), the
//! per-variable level/reason tables, the chronological assignment trail,
//! its per-level decision markers and the propagation-queue head. The
//! search, conflict analysis, the preprocessor and the auditors all read
//! through the accessors here; mutation goes through the handful of typed
//! operations below. In particular, [`Trail::backtrack_to`] is the *only*
//! place where a variable becomes unassigned — the "clear value, drop
//! reason, notify the decision heuristic" steps can never drift apart
//! across the restart, conflict-backtrack and solve-entry paths again.
//!
//! encapsulation-guard: every field of `Trail` is private by design.
//! `tests/encapsulation_guard.rs` greps the rest of `crates/core/src` for
//! raw accesses to the moved state (`assigns`, `trail_lim`, `qhead`, …);
//! new state-touching code belongs behind a method in this file.

use berkmin_cnf::{LBool, Lit, Var};

use crate::clause_db::ClauseRef;

/// The solver's assignment state: values, levels, implication reasons, the
/// chronological trail with its decision-level markers, and the BCP queue
/// head.
///
/// A `Trail` tracks assignments for the variables `0..n` it has been
/// [grown](Trail::grow) to cover. Assignments are pushed in chronological
/// order by [`Trail::assign`] (implications) and [`Trail::push_decision`]
/// (decisions, which open a new level); [`Trail::backtrack_to`] undoes
/// every assignment above a given level. The propagation queue is the
/// not-yet-propagated suffix of the trail, consumed via
/// [`Trail::next_queued`].
#[derive(Default)]
pub struct Trail {
    /// Current value per *literal code*: both polarities of a variable are
    /// stored, always each other's negation (`Undef` together when the
    /// variable is unassigned), so [`Trail::lit_value`] is a single load
    /// with no sign test on BCP's hot path.
    assigns: Vec<LBool>,
    /// Decision level at which each variable was assigned (garbage when
    /// unassigned).
    level: Vec<u32>,
    /// Implying clause per variable; `None` for decisions, assumptions and
    /// level-0 facts.
    reason: Vec<Option<ClauseRef>>,
    /// Assigned literals in chronological order.
    trail: Vec<Lit>,
    /// `trail_lim[d]` is the trail length at which decision level `d + 1`
    /// opened; its length is the current decision level.
    trail_lim: Vec<usize>,
    /// Index of the first trail literal BCP has not yet propagated.
    qhead: usize,
}

impl Trail {
    /// Creates an empty trail covering no variables.
    pub fn new() -> Self {
        Trail::default()
    }

    /// Grows the tables to cover `n` variables (`2n` literal codes).
    pub fn grow(&mut self, n: usize) {
        self.assigns.resize(2 * n, LBool::Undef);
        self.level.resize(n, 0);
        self.reason.resize(n, None);
    }

    /// Number of variables the tables cover.
    #[cfg(test)]
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Current value of `v`. `v` must be a known variable; see
    /// [`Trail::value_opt`] for the forgiving variant.
    #[inline]
    pub fn value(&self, v: Var) -> LBool {
        self.lit_value(Lit::pos(v))
    }

    /// Current value of `v`, or `Undef` if `v` is beyond the known
    /// variables.
    #[inline]
    pub fn value_opt(&self, v: Var) -> LBool {
        self.assigns
            .get(Lit::pos(v).code())
            .copied()
            .unwrap_or(LBool::Undef)
    }

    /// Value of a literal under the current partial assignment.
    #[inline]
    pub fn lit_value(&self, l: Lit) -> LBool {
        self.assigns[l.code()]
    }

    /// Decision level at which `v` was assigned (garbage if unassigned).
    #[inline]
    pub fn level_of(&self, v: Var) -> u32 {
        self.level[v.index()]
    }

    /// The clause that implied `v`, or `None` for decisions, assumptions
    /// and level-0 facts (and for unassigned variables).
    #[inline]
    pub fn reason_of(&self, v: Var) -> Option<ClauseRef> {
        self.reason[v.index()]
    }

    /// Current decision level (0 = root).
    #[inline]
    pub fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Number of assigned literals on the trail.
    #[inline]
    pub fn len(&self) -> usize {
        self.trail.len()
    }

    /// Whether the trail holds no assignments at all.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.trail.is_empty()
    }

    /// The `i`-th trail literal, in chronological assignment order.
    #[inline]
    pub fn lit_at(&self, i: usize) -> Lit {
        self.trail[i]
    }

    /// The whole trail as a slice, in chronological assignment order.
    #[cfg(test)]
    pub fn as_slice(&self) -> &[Lit] {
        &self.trail
    }

    /// Iterates over the trail in chronological assignment order.
    pub fn iter(&self) -> std::slice::Iter<'_, Lit> {
        self.trail.iter()
    }

    /// Trail length at which decision level `level + 1` opened — i.e. the
    /// index of that level's first literal (its decision, for real
    /// decision levels).
    #[inline]
    pub fn level_start(&self, level: usize) -> usize {
        self.trail_lim[level]
    }

    /// Iterates over the decision of each level `1..=decision_level()`, in
    /// order. A *dummy* level — opened by [`Trail::open_dummy_level`] for
    /// an already-implied assumption — has no literal of its own and
    /// yields `None`.
    #[cfg(test)]
    pub fn decisions(&self) -> impl Iterator<Item = Option<Lit>> + '_ {
        (0..self.trail_lim.len()).map(move |d| {
            let start = self.trail_lim[d];
            let end = self
                .trail_lim
                .get(d + 1)
                .copied()
                .unwrap_or(self.trail.len());
            (start < end).then(|| self.trail[start])
        })
    }

    /// Assigns `l` true with `reason`, pushing it on the trail at the
    /// current decision level.
    ///
    /// `l`'s variable must be unassigned (checked in debug builds).
    #[inline]
    pub fn assign(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert!(
            self.lit_value(l).is_undef(),
            "assign of already-assigned literal {l:?}"
        );
        let v = l.var().index();
        self.assigns[l.code()] = LBool::True;
        self.assigns[(!l).code()] = LBool::False;
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Opens a new decision level and assigns the decision literal.
    pub fn push_decision(&mut self, l: Lit) {
        self.trail_lim.push(self.trail.len());
        self.assign(l, None);
    }

    /// Opens a new decision level *without* assigning anything — used for
    /// an assumption that is already implied, so assumption index and
    /// decision level stay in lockstep.
    pub fn open_dummy_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    /// Undoes every assignment above `level`, calling `on_unassign` for
    /// each variable as it is unassigned, in reverse assignment order.
    ///
    /// This is the **only** operation that unassigns variables. The hook
    /// exists so the decision heuristic can re-index freed variables (heap
    /// re-insertion order is part of the solver's deterministic behavior).
    pub fn backtrack_to(&mut self, level: usize, mut on_unassign: impl FnMut(Var)) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            self.assigns[l.code()] = LBool::Undef;
            self.assigns[(!l).code()] = LBool::Undef;
            self.reason[l.var().index()] = None;
            on_unassign(l.var());
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level);
        self.qhead = bound;
    }

    /// Pops the next not-yet-propagated literal off the BCP queue, if any.
    #[inline]
    pub fn next_queued(&mut self) -> Option<Lit> {
        let l = self.trail.get(self.qhead).copied();
        if l.is_some() {
            self.qhead += 1;
        }
        l
    }

    /// Whether BCP has consumed the whole trail.
    #[inline]
    pub fn queue_drained(&self) -> bool {
        self.qhead == self.trail.len()
    }

    /// Marks the remaining queue as consumed — used when a conflict makes
    /// further propagation pointless.
    #[inline]
    pub fn drain_queue(&mut self) {
        self.qhead = self.trail.len();
    }

    /// Rewrites every reason reference through `map` after a clause-arena
    /// compaction. A reason whose clause was deleted belongs to a level-0
    /// fact (whose reason is never consulted again), so `None` is fine.
    pub fn remap_reasons(&mut self, map: impl Fn(ClauseRef) -> Option<ClauseRef>) {
        for r in &mut self.reason {
            if let Some(cref) = *r {
                *r = map(cref);
            }
        }
    }

    /// Structural self-check, appending one message per violation to
    /// `out`. Table-size violations are prefixed `tables:` (the caller
    /// stops before deeper checks that would index out of bounds); the
    /// trail/assignment cross-checks use the `trail:`/`assigns:`/`reason:`
    /// prefixes, and a variable whose two literal entries are not each
    /// other's negation is reported under `assigns:` too. Reason-*clause*
    /// checks (liveness, containment) need the clause arena and live in
    /// `audit.rs`.
    pub(crate) fn self_check(&self, num_vars: usize, out: &mut Vec<String>) {
        let mut sized_ok = true;
        for (name, len, unit, expected) in [
            ("assigns", self.assigns.len(), "literal codes", 2 * num_vars),
            ("level", self.level.len(), "vars", num_vars),
            ("reason", self.reason.len(), "vars", num_vars),
        ] {
            if len != expected {
                out.push(format!(
                    "tables: {name} covers {len} {unit}, expected {expected}"
                ));
                sized_ok = false;
            }
        }
        if self.qhead > self.trail.len() {
            out.push(format!(
                "trail: qhead {} beyond trail length {}",
                self.qhead,
                self.trail.len()
            ));
        }
        let mut prev = 0usize;
        for (i, &lim) in self.trail_lim.iter().enumerate() {
            if lim > self.trail.len() || lim < prev {
                out.push(format!(
                    "trail: decision marker {i} at {lim} is out of order \
                     (prev {prev}, trail length {})",
                    self.trail.len()
                ));
            }
            prev = lim;
        }
        if !sized_ok {
            return;
        }
        let mut on_trail = vec![false; num_vars];
        let mut next_lim = 0usize;
        let mut level_here = 0u32;
        for (i, &l) in self.trail.iter().enumerate() {
            while next_lim < self.trail_lim.len() && self.trail_lim[next_lim] <= i {
                next_lim += 1;
                level_here = next_lim as u32;
            }
            let v = l.var().index();
            if v >= num_vars {
                out.push(format!("trail[{i}]: unknown var {v}"));
                continue;
            }
            if on_trail[v] {
                out.push(format!("trail[{i}]: var {v} appears twice"));
            }
            on_trail[v] = true;
            if self.lit_value(l) != LBool::True {
                out.push(format!("trail[{i}]: literal {l:?} is not assigned true"));
            }
            if self.level[v] != level_here {
                out.push(format!(
                    "trail[{i}]: var {v} records level {}, decision markers \
                     say {level_here}",
                    self.level[v]
                ));
            }
        }
        for (v, &trailed) in on_trail.iter().enumerate().take(num_vars) {
            let var = Var::new(v as u32);
            let (pos, neg) = (self.lit_value(Lit::pos(var)), self.lit_value(Lit::neg(var)));
            if neg != !pos {
                out.push(format!(
                    "assigns: var {v} reads {pos:?} positive but {neg:?} negative"
                ));
            }
            let assigned = !pos.is_undef();
            if assigned != trailed {
                out.push(format!(
                    "assigns: var {v} is {} but {} the trail",
                    if assigned { "assigned" } else { "unassigned" },
                    if trailed { "on" } else { "off" }
                ));
            }
            if !assigned && self.reason[v].is_some() {
                out.push(format!("reason: unassigned var {v} keeps a reason"));
            }
        }
    }

    /// Corrupts the recorded value of `l` alone (test-only): flips the
    /// entry of that one polarity out from under the trail, leaving `¬l`'s
    /// entry as it was, so the auditors can prove they catch both the
    /// trail mismatch and the broken polarity pair.
    #[cfg(test)]
    pub(crate) fn test_flip_assign(&mut self, l: Lit) {
        self.assigns[l.code()] = !self.assigns[l.code()];
    }
}

impl std::fmt::Debug for Trail {
    /// Summarizes the search position: total height, queue state and the
    /// per-level segment heights ("what level am I at and why").
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut heights = Vec::with_capacity(self.trail_lim.len() + 1);
        let mut prev = 0usize;
        for &lim in &self.trail_lim {
            heights.push(lim - prev);
            prev = lim;
        }
        heights.push(self.trail.len() - prev);
        f.debug_struct("Trail")
            .field("num_vars", &self.level.len())
            .field("len", &self.trail.len())
            .field("decision_level", &self.trail_lim.len())
            .field("queued", &(self.trail.len() - self.qhead))
            .field("level_heights", &heights)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const NUM_VARS: usize = 10;

    /// Replays a script of `(var, sign, action)` steps on a fresh trail:
    /// action 0 decides, 1 implies, anything else backtracks to
    /// `var % (level + 1)`. Steps on assigned variables are skipped.
    fn replay(script: &[(u32, bool, u8)]) -> Trail {
        let mut t = Trail::new();
        t.grow(NUM_VARS);
        for &(v, sign, action) in script {
            let l = Lit::new(Var::new(v), sign);
            match action {
                0 if t.value(l.var()).is_undef() => t.push_decision(l),
                1 if t.value(l.var()).is_undef() => t.assign(l, None),
                0 | 1 => {}
                _ => {
                    let level = v as usize % (t.decision_level() + 1);
                    t.backtrack_to(level, |_| {});
                }
            }
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The self-check passes every reachable trail, and flipping one
        /// polarity entry of any assigned variable — the true literal's
        /// or its negation's — is reported as a broken polarity pair.
        #[test]
        fn polarity_audit_catches_one_sided_corruption(
            script in prop::collection::vec((0u32..NUM_VARS as u32, any::<bool>(), 0u8..3), 1..=40),
            pick in any::<usize>(),
            negated in any::<bool>(),
        ) {
            let mut t = replay(&script);
            let mut out = Vec::new();
            t.self_check(NUM_VARS, &mut out);
            prop_assert!(out.is_empty(), "clean trail reported {out:?}");
            if t.is_empty() {
                return Ok(());
            }
            let l = t.lit_at(pick % t.len());
            t.test_flip_assign(if negated { !l } else { l });
            t.self_check(NUM_VARS, &mut out);
            let want = format!("assigns: var {} reads", l.var().index());
            prop_assert!(out.iter().any(|m| m.starts_with(&want)), "not reported: {out:?}");
        }
    }
}
