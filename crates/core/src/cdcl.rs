//! The CDCL core: composes the state subsystems behind the public
//! [`Solver`](crate::Solver) facade.
//!
//! The heavy machinery lives in the subsystem modules — assignment state
//! in [`crate::trail`], watched-literal indexes in [`crate::watch`], the
//! cadence/budget scheduler in [`crate::limits`], the CDCL loop in
//! [`crate::search`]. This module owns the [`Cdcl`] struct that wires them
//! together plus the operations that do not run search: construction,
//! clause ingestion, assumption staging and freezing.

use berkmin_cnf::{LBool, Lit, Var};

use crate::clause_db::{ClauseDb, ClauseRef};
use crate::config::{ActivityIndex, DecisionStrategy, SolverConfig};
use crate::heap::VarHeap;
use crate::limits::SearchLimits;
use crate::portfolio::ShareLink;
use crate::preprocess::Reconstructor;
use crate::proof::{ClauseId, HintLog};
use crate::rng::XorShift64;
use crate::search::SolveEvents;
use crate::stats::Stats;
use crate::trail::Trail;
use crate::watch::Watches;

/// The CDCL core behind the public [`Solver`](crate::Solver) facade:
/// every piece of search state, the hooks and the hint log, but no proof
/// sink — each solve call is handed one ([`Cdcl::solve_session`]), so the
/// core is `Send` and the portfolio can lend its workers to threads.
pub(crate) struct Cdcl {
    pub(crate) config: SolverConfig,
    pub(crate) db: ClauseDb,
    /// The two-watched-literal indexes (long lists with blockers, inline
    /// binary lists) — see [`crate::watch`].
    pub(crate) watches: Watches,
    /// The assignment state: values, levels, reasons, the chronological
    /// trail with its decision markers, and the BCP queue head — see
    /// [`crate::trail`].
    pub(crate) trail: Trail,
    /// The search scheduler: per-call budget baseline, restart clock and
    /// maintenance cadence — see [`crate::limits`].
    pub(crate) limits: SearchLimits,
    /// `var_activity(x)` counters (paper §4).
    pub(crate) var_activity: Vec<u64>,
    /// `lit_activity(l)` counters indexed by literal code (paper §7).
    pub(crate) lit_activity: Vec<u64>,
    /// VSIDS per-literal counters (zChaff baseline); empty under every
    /// other decision strategy, which never reads them.
    pub(crate) vsids: Vec<u64>,
    pub(crate) heap: VarHeap,
    pub(crate) seen: Vec<bool>,
    /// Conflict analysis's learnt-clause buffer, kept between conflicts so
    /// that analysis allocates nothing (see [`Cdcl::analyze`]). Sized for
    /// every variable by [`Cdcl::ensure_vars`]: grown lazily in mid-search
    /// instead, its reallocations interleaved with the clause arena's and
    /// raised peak memory.
    pub(crate) learnt: Vec<Lit>,
    /// The variables analysis marked in `seen`, to unmark at its end; kept
    /// and sized like `learnt`.
    pub(crate) to_clear: Vec<u32>,
    /// LBD computation scratch: `lbd_stamp[level] == lbd_stamp_gen` marks a
    /// decision level as already counted for the clause under measurement
    /// (the Glucose stamping trick — no clearing pass needed).
    pub(crate) lbd_stamp: Vec<u64>,
    /// Generation counter for [`Cdcl::lbd_stamp`].
    pub(crate) lbd_stamp_gen: u64,
    pub(crate) rng: XorShift64,
    pub(crate) stats: Stats,
    pub(crate) ok: bool,
    pub(crate) num_vars: usize,
    /// Current old-clause activity threshold (paper §8: starts at 60, rises).
    pub(crate) old_act_threshold: u32,
    /// Set once the empty clause has been reported to the proof sink.
    pub(crate) emitted_empty: bool,
    /// Assumptions of the current solve call, enqueued lazily
    /// as pseudo-decisions at levels `1..=k` below any real decision.
    pub(crate) assumptions: Vec<Lit>,
    /// Failed-assumption core of the last assumption-UNSAT answer (empty
    /// after an absolute refutation or a SAT/Unknown answer).
    pub(crate) failed: Vec<Lit>,
    /// Assumptions staged by [`Cdcl::assume`] since the last solve call;
    /// consumed (IPASIR-style) by the next one.
    pub(crate) pending_assumptions: Vec<Lit>,
    /// Clause-ID counters and the hint chain of the next proof addition
    /// (collected only once a proof sink is attached; see
    /// [`ClauseId`](crate::ClauseId)).
    pub(crate) hints: HintLog,
    /// Terminate / learnt-clause hooks (see [`SolveEvents`]).
    pub(crate) events: SolveEvents,
    /// A portfolio worker's link to the share pool (`None` everywhere
    /// else): the search offers it each learnt clause and drains it at
    /// solve entry and restart boundaries.
    pub(crate) share: Option<ShareLink>,
    /// `frozen[v]`: the preprocessor may not eliminate `v` (user-frozen
    /// via [`Solver::freeze`](crate::Solver::freeze), or auto-frozen as an assumption variable).
    pub(crate) frozen: Vec<bool>,
    /// `eliminated[v]`: `v` was dissolved by bounded variable elimination
    /// — absent from every live clause, watcher, trail entry and heap
    /// slot; mentioning it again panics (see [`Solver::freeze`](crate::Solver::freeze)).
    pub(crate) eliminated: Vec<bool>,
    /// Reconstruction stack extending SAT models over eliminated variables.
    pub(crate) reconstructor: Reconstructor,
}

impl Cdcl {
    /// An empty core under `config`.
    pub(crate) fn new(config: SolverConfig) -> Self {
        let old_act_threshold = match config.db_policy {
            crate::DbPolicy::BerkMin => crate::reduce::OLD_ACT_INIT,
            _ => 0,
        };
        let rng = XorShift64::new(config.seed);
        Cdcl {
            config,
            db: ClauseDb::new(),
            watches: Watches::new(),
            trail: Trail::new(),
            limits: SearchLimits::new(),
            var_activity: Vec::new(),
            lit_activity: Vec::new(),
            vsids: Vec::new(),
            heap: VarHeap::new(),
            seen: Vec::new(),
            learnt: Vec::new(),
            to_clear: Vec::new(),
            lbd_stamp: vec![0],
            lbd_stamp_gen: 0,
            rng,
            stats: Stats::new(),
            ok: true,
            num_vars: 0,
            old_act_threshold,
            emitted_empty: false,
            assumptions: Vec::new(),
            failed: Vec::new(),
            pending_assumptions: Vec::new(),
            hints: HintLog::default(),
            events: SolveEvents::default(),
            share: None,
            frozen: Vec::new(),
            eliminated: Vec::new(),
            reconstructor: Reconstructor::default(),
        }
    }

    /// Grows every per-variable table — the trail, the freeze and
    /// elimination flags, the watch lists, the activity counters (and the
    /// VSIDS counters under that strategy), the analysis scratch and
    /// buffers and the decision heap — to cover `n` variables; the new
    /// variables join the heap.
    pub(crate) fn ensure_vars(&mut self, n: usize) {
        let from = self.num_vars;
        if n <= from {
            return;
        }
        self.trail.grow(n);
        self.frozen.resize(n, false);
        self.eliminated.resize(n, false);
        self.watches.grow(n);
        self.var_activity.resize(n, 0);
        self.lit_activity.resize(2 * n, 0);
        if self.config.decision == DecisionStrategy::Vsids {
            self.vsids.resize(2 * n, 0);
        }
        self.seen.resize(n, false);
        // A learnt clause and the marks analysis sets each hold at most
        // one entry per variable, so these never grow during search.
        self.learnt.reserve(n);
        self.to_clear.reserve(n);
        // Decision levels range over 0..=n, one stamp slot per level.
        self.lbd_stamp.resize(n + 1, 0);
        self.heap.grow(n);
        if self.config.activity_index == ActivityIndex::Heap {
            for i in from..n {
                self.heap.insert(Var::new(i as u32), &self.var_activity);
            }
        }
        self.num_vars = n;
    }

    /// Adds a clause to the original formula (the contract is on
    /// [`Solver::add_clause`](crate::Solver::add_clause)).
    pub(crate) fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        self.cancel_until(0);
        let mut ls: Vec<Lit> = lits.into_iter().collect();
        let max_var = ls.iter().map(|l| l.var().index() + 1).max().unwrap_or(0);
        self.ensure_vars(max_var);
        reject_eliminated(&self.eliminated, "add_clause", &ls);
        self.stats.initial_clauses += 1;
        let id = self.hints.next_original();
        if !self.ok {
            return false;
        }
        self.install_at_root(&mut ls, false, id);
        self.ok
    }

    /// Installs a clause at decision level 0, the one path for original
    /// and imported clauses: `lits` is sorted and deduplicated, a
    /// tautology or a clause satisfied at level 0 is dropped, false
    /// literals are stripped, and what is left makes the formula
    /// unsatisfiable (`ok = false`), is enqueued as a unit, or is stored
    /// (as a learnt clause when `learnt`, with proof ID `id`) and watched.
    /// Returns `false` when the clause was dropped.
    pub(crate) fn install_at_root(
        &mut self,
        lits: &mut Vec<Lit>,
        learnt: bool,
        id: Option<ClauseId>,
    ) -> bool {
        lits.sort_unstable();
        lits.dedup();
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            return false; // tautology carries no constraint
        }
        if lits.iter().any(|&l| self.lit_value(l) == LBool::True) {
            return false; // already satisfied at level 0
        }
        lits.retain(|&l| self.lit_value(l) != LBool::False);
        match lits.len() {
            0 => self.ok = false,
            1 => self.unchecked_enqueue(lits[0], None),
            _ => {
                let cref = if learnt {
                    self.db.add_learnt(lits, id)
                } else {
                    self.db.add_original(lits, id)
                };
                self.attach(cref);
                let live = self.db.num_live() as u64;
                self.stats.max_live_clauses = self.stats.max_live_clauses.max(live);
            }
        }
        true
    }

    /// Current decision level (0 = root).
    #[inline]
    pub(crate) fn decision_level(&self) -> usize {
        self.trail.decision_level()
    }

    /// Value of a literal under the current partial assignment.
    #[inline]
    pub(crate) fn lit_value(&self, l: Lit) -> LBool {
        self.trail.lit_value(l)
    }

    /// Assigns `l` true with `reason`, pushing it on the trail.
    #[inline]
    pub(crate) fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        self.trail.assign(l, reason);
    }

    /// Opens a new decision level and assigns the decision literal (the
    /// internal trail operation behind each search decision).
    #[inline]
    pub(crate) fn push_decision(&mut self, l: Lit) {
        self.trail.push_decision(l);
    }

    /// Undoes all assignments above `level`, returning freed variables
    /// to the decision heap (under [`ActivityIndex::Heap`]).
    pub(crate) fn cancel_until(&mut self, level: usize) {
        let heap = &mut self.heap;
        let var_activity = &self.var_activity;
        let use_heap = self.config.activity_index == ActivityIndex::Heap;
        self.trail.backtrack_to(level, |v| {
            if use_heap {
                heap.insert(v, var_activity);
            }
        });
    }

    /// Bumps `var_activity(v)` by 1 (paper §4) and fixes up the heap index.
    #[inline]
    pub(crate) fn bump_var(&mut self, v: Var) {
        self.var_activity[v.index()] += 1;
        if self.config.activity_index == ActivityIndex::Heap {
            self.heap.bumped(v, &self.var_activity);
        }
    }

    /// Stages an assumption for the next solve call (the contract is on
    /// [`Solver::assume`](crate::Solver::assume)).
    pub(crate) fn assume(&mut self, lit: Lit) {
        reject_eliminated(&self.eliminated, "assume", &[lit]);
        self.pending_assumptions.push(lit);
    }

    /// Protects `var` from bounded variable elimination.
    pub(crate) fn freeze(&mut self, var: Var) {
        self.ensure_vars(var.index() + 1);
        self.frozen[var.index()] = true;
    }

    /// Whether the preprocessor has eliminated `var`.
    pub(crate) fn is_eliminated(&self, var: Var) -> bool {
        self.eliminated.get(var.index()).copied().unwrap_or(false)
    }

    /// Number of live original (problem) clauses.
    #[cfg(test)]
    pub(crate) fn num_original_clauses(&self) -> usize {
        self.db.num_original()
    }

    /// One solve call with no proof sink, for the unit tests that drive
    /// the core directly.
    #[cfg(test)]
    pub(crate) fn solve(&mut self) -> crate::search::SolveStatus {
        self.solve_session(&mut crate::proof::NoProof)
    }
}

/// Panics if `lits` mention a variable flagged in `eliminated` (the freeze
/// contract on [`Solver::freeze`](crate::Solver::freeze)); `op` names the
/// offending call.
pub(crate) fn reject_eliminated(eliminated: &[bool], op: &str, lits: &[Lit]) {
    if let Some(l) = lits
        .iter()
        .find(|l| eliminated.get(l.var().index()) == Some(&true))
    {
        panic!(
            "{op} mentions eliminated variable {:?}: freeze it before \
             solving, or disable variable elimination \
             (SimplifyConfig::var_elim)",
            l.var()
        );
    }
}
