//! The solver facade: composes the state subsystems and exposes the
//! public session API.
//!
//! The heavy machinery lives in the subsystem modules — assignment state
//! in [`crate::trail`], watched-literal indexes in [`crate::watch`], the
//! cadence/budget scheduler in [`crate::limits`], the CDCL loop in
//! [`crate::search`]. This module owns the [`Solver`] struct that wires
//! them together plus the thin API that does not run search: construction,
//! clause ingestion, assumption staging, freezing, accessors, and the
//! `solve()` entry point.

use berkmin_cnf::{Cnf, LBool, Lit, Var};

use crate::clause_db::{ClauseDb, ClauseRef};
use crate::config::{ActivityIndex, Budget, SolverConfig};
use crate::heap::VarHeap;
use crate::limits::SearchLimits;
use crate::preprocess::Reconstructor;
use crate::proof::{HintLog, NoProof, ProofSink};
use crate::rng::XorShift64;
use crate::search::{SolveEvents, SolveStatus};
use crate::stats::Stats;
use crate::trail::Trail;
use crate::watch::Watches;

/// The BerkMin CDCL SAT-solver.
///
/// Construct through [`SolverBuilder`](crate::SolverBuilder) (which owns
/// the configuration, proof sink and solve-event hooks), or with the
/// [`Solver::new`] / [`Solver::with_config`] shortcuts. Per call, stage
/// assumptions with [`Solver::assume`] and run [`Solver::solve`] — the one
/// entry point for plain, assumption, and proof-logged solving alike.
///
/// # Examples
///
/// ```
/// use berkmin::{Solver, SolverConfig};
/// use berkmin_cnf::{Cnf, Lit};
///
/// let mut cnf = Cnf::new();
/// let x = cnf.fresh_var();
/// let y = cnf.fresh_var();
/// cnf.add_clause([Lit::pos(x), Lit::pos(y)]);
/// cnf.add_clause([Lit::neg(x)]);
///
/// let mut solver = Solver::new(&cnf, SolverConfig::berkmin());
/// let status = solver.solve();
/// let model = status.model().expect("satisfiable");
/// assert!(cnf.is_satisfied_by(model));
/// ```
pub struct Solver {
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
    /// LBD computation scratch: `lbd_stamp[level] == lbd_stamp_gen` marks a
    /// decision level as already counted for the clause under measurement
    /// (the Glucose stamping trick — no clearing pass needed).
    pub(crate) lbd_stamp: Vec<u64>,
    /// Generation counter for [`Solver::lbd_stamp`].
    pub(crate) lbd_stamp_gen: u64,
    /// Scratch buffer the share-import source fills at restart boundaries
    /// (kept on the solver to avoid a per-restart allocation).
    pub(crate) import_buf: Vec<Vec<Lit>>,
    pub(crate) rng: XorShift64,
    pub(crate) stats: Stats,
    pub(crate) ok: bool,
    pub(crate) num_vars: usize,
    /// Current old-clause activity threshold (paper §8: starts at 60, rises).
    pub(crate) old_act_threshold: u32,
    /// Set once the empty clause has been reported to the proof sink.
    pub(crate) emitted_empty: bool,
    /// Assumptions of the current [`Solver::solve`] call, enqueued lazily
    /// as pseudo-decisions at levels `1..=k` below any real decision.
    pub(crate) assumptions: Vec<Lit>,
    /// Failed-assumption core of the last assumption-UNSAT answer (empty
    /// after an absolute refutation or a SAT/Unknown answer).
    pub(crate) failed: Vec<Lit>,
    /// Assumptions staged by [`Solver::assume`] since the last solve call;
    /// consumed (IPASIR-style) by the next [`Solver::solve`].
    pub(crate) pending_assumptions: Vec<Lit>,
    /// The construction-time proof sink every [`Solver::solve`] call
    /// reports to ([`NoProof`] unless attached via
    /// [`SolverBuilder::proof`](crate::SolverBuilder::proof)).
    pub(crate) proof: Box<dyn ProofSink>,
    /// Clause-ID counters and the hint chain of the next proof addition
    /// (collected only once a proof sink is attached; see
    /// [`ClauseId`](crate::ClauseId)).
    pub(crate) hints: HintLog,
    /// Terminate / learnt-clause hooks (see [`SolveEvents`]).
    pub(crate) events: SolveEvents,
    /// `frozen[v]`: the preprocessor may not eliminate `v` (user-frozen
    /// via [`Solver::freeze`], or auto-frozen as an assumption variable).
    pub(crate) frozen: Vec<bool>,
    /// `eliminated[v]`: `v` was dissolved by bounded variable elimination
    /// — absent from every live clause, watcher, trail entry and heap
    /// slot; mentioning it again panics (see [`Solver::freeze`]).
    pub(crate) eliminated: Vec<bool>,
    /// Reconstruction stack extending SAT models over eliminated variables.
    pub(crate) reconstructor: Reconstructor,
}

impl std::fmt::Debug for Solver {
    /// The solver holds closures and a `dyn` proof sink, so `Debug`
    /// prints a summary rather than the raw fields: the subsystem
    /// summaries (trail heights per level, watch-list population) and the
    /// scheduler's next-due actions answer "what level am I at and why".
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("num_vars", &self.num_vars)
            .field("num_live_clauses", &self.db.num_live())
            .field("num_learnt_clauses", &self.db.num_learnt())
            .field("ok", &self.ok)
            .field("trail", &self.trail)
            .field("watches", &self.watches)
            .field("limits", &self.limits)
            .field("next_due", &self.limits.next_due(&self.stats, &self.config))
            .field("pending_assumptions", &self.pending_assumptions)
            .field("events", &self.events)
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Solver {
    /// Creates a solver for `cnf` under `config`.
    pub fn new(cnf: &Cnf, config: SolverConfig) -> Self {
        let mut s = Solver::with_config(config);
        s.ensure_vars(cnf.num_vars());
        for clause in cnf {
            s.add_clause(clause.iter().copied());
        }
        s
    }

    /// Creates an empty solver under `config` (see [`Solver::add_clause`]).
    pub fn with_config(config: SolverConfig) -> Self {
        let old_act_threshold = match config.db_policy {
            crate::DbPolicy::BerkMin => crate::reduce::OLD_ACT_INIT,
            _ => 0,
        };
        let rng = XorShift64::new(config.seed);
        Solver {
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
            lbd_stamp: vec![0],
            lbd_stamp_gen: 0,
            import_buf: Vec::new(),
            rng,
            stats: Stats::new(),
            ok: true,
            num_vars: 0,
            old_act_threshold,
            emitted_empty: false,
            assumptions: Vec::new(),
            failed: Vec::new(),
            pending_assumptions: Vec::new(),
            proof: Box::new(NoProof),
            hints: HintLog::default(),
            events: SolveEvents::default(),
            frozen: Vec::new(),
            eliminated: Vec::new(),
            reconstructor: Reconstructor::default(),
        }
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Grows the per-variable tables to cover `n` variables without
    /// adding any clause, keeping the solver's variable space — and
    /// therefore its models — in sync with external allocators (e.g.
    /// Tseitin or activation literals).
    pub fn reserve_vars(&mut self, n: usize) {
        self.ensure_vars(n);
    }

    /// Search statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The configuration this solver runs under.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Replaces the resource budget. Budgets are accounted **per solve
    /// call**: every call measures its own spend against the configured
    /// limits, so an aborted run can simply be called again — with or
    /// without a new budget.
    pub fn set_budget(&mut self, budget: Budget) {
        self.config.budget = budget;
    }

    /// The failed-assumption core of the most recent assumption-carrying
    /// [`Solver::solve`] call that returned [`SolveStatus::Unsat`]: a
    /// subset `C` of the assumptions such that the formula conjoined with
    /// `C` is unsatisfiable, extracted by final-conflict analysis. Empty
    /// when the formula is unsatisfiable outright (no assumptions needed),
    /// and after any SAT or Unknown answer.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// Number of variables currently queued in the decision heap (only
    /// populated under [`ActivityIndex::Heap`]); lets incremental callers
    /// check that heuristic state survives between solve calls.
    pub fn decision_heap_len(&self) -> usize {
        self.heap.len()
    }

    /// `false` once the clause set has been proven contradictory.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Current assignment of `var`.
    pub fn value(&self, var: Var) -> LBool {
        self.trail.value_opt(var)
    }

    /// Current `var_activity` counter of `var` (paper §4) — how much the
    /// variable has participated in conflict-making, after aging.
    pub fn var_activity(&self, var: Var) -> u64 {
        self.var_activity.get(var.index()).copied().unwrap_or(0)
    }

    /// Number of live clauses (original + learnt) currently in the database.
    pub fn num_live_clauses(&self) -> usize {
        self.db.num_live()
    }

    /// Number of live learnt clauses (the conflict-clause stack size).
    pub fn num_learnt_clauses(&self) -> usize {
        self.db.num_learnt()
    }

    /// Number of live original (problem) clauses.
    pub fn num_original_clauses(&self) -> usize {
        self.db.num_original()
    }

    /// Grows per-variable tables to cover `n` variables.
    pub(crate) fn ensure_vars(&mut self, n: usize) {
        if n <= self.num_vars {
            return;
        }
        self.trail.grow(n);
        self.frozen.resize(n, false);
        self.eliminated.resize(n, false);
        self.grow_search_tables(self.num_vars, n);
        self.num_vars = n;
    }

    /// Adds a clause to the original formula.
    ///
    /// May be called before the first solve or between solves
    /// (incremental use); leftover search state is undone first.
    /// Tautologies are dropped, duplicate literals merged, literals false
    /// at level 0 stripped. Returns `false` if the formula has become
    /// trivially unsatisfiable (an empty clause arose).
    ///
    /// # Panics
    ///
    /// Panics if the clause mentions an eliminated variable — see the
    /// freeze contract on [`Solver::freeze`].
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        self.cancel_until(0);
        let mut ls: Vec<Lit> = lits.into_iter().collect();
        let max_var = ls.iter().map(|l| l.var().index() + 1).max().unwrap_or(0);
        self.ensure_vars(max_var);
        self.reject_eliminated("add_clause", &ls);
        self.stats.initial_clauses += 1;
        let id = self.hints.next_original();
        if !self.ok {
            return false;
        }
        ls.sort_unstable();
        ls.dedup();
        if ls.windows(2).any(|w| w[0].var() == w[1].var()) {
            return true; // tautology carries no constraint
        }
        if ls.iter().any(|&l| self.lit_value(l) == LBool::True) {
            return true; // already satisfied at level 0
        }
        ls.retain(|&l| self.lit_value(l) != LBool::False);
        match ls.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(ls[0], None);
                true
            }
            _ => {
                let cref = self.db.add_original(&ls, id);
                self.attach(cref);
                let live = self.db.num_live() as u64;
                self.stats.max_live_clauses = self.stats.max_live_clauses.max(live);
                true
            }
        }
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

    /// Stages an assumption for the next [`Solver::solve`] call
    /// (IPASIR-style). Assumptions accumulate until the next solve, which
    /// consumes them all — afterwards the solver is unconstrained again.
    /// During that call they act as *pseudo-decisions* at levels `1..=k`
    /// below every real decision. They are **not** clauses: nothing is
    /// added to the database, learnt clauses stay consequences of the
    /// formula alone, and the next call may assume a different set while
    /// reusing the warm database, activities and saved polarities.
    ///
    /// # Examples
    ///
    /// ```
    /// use berkmin::{Solver, SolverConfig};
    /// use berkmin_cnf::Lit;
    ///
    /// let mut solver = Solver::with_config(SolverConfig::berkmin());
    /// solver.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)]);
    /// solver.assume(Lit::from_dimacs(-1));
    /// let status = solver.solve(); // SAT; the model sets x2
    /// assert!(status.model().unwrap().satisfies(Lit::from_dimacs(2)));
    /// assert!(solver.solve().is_sat()); // assumptions were consumed
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `lit`'s variable has been eliminated by the preprocessor
    /// — see the freeze contract on [`Solver::freeze`].
    pub fn assume(&mut self, lit: Lit) {
        self.reject_eliminated("assume", &[lit]);
        self.pending_assumptions.push(lit);
    }

    /// Protects `var` from bounded variable elimination.
    ///
    /// **The freeze contract.** With
    /// [`SimplifyConfig::var_elim`](crate::SimplifyConfig) enabled, the
    /// preprocessor may dissolve a variable into resolvents at the first
    /// solve call; an eliminated variable is gone from the formula, and
    /// mentioning it again in [`Solver::add_clause`] or [`Solver::assume`]
    /// panics (its deleted defining clauses cannot be restored soundly
    /// under a DRAT proof). Incremental users must therefore freeze, before
    /// the first solve call, every variable they intend to constrain or
    /// assume after it. The first call's assumption variables are frozen
    /// automatically, as are variables with no occurrences. The simplifier
    /// never runs again, so a freeze after the first call changes nothing,
    /// and a frozen variable stays frozen.
    pub fn freeze(&mut self, var: Var) {
        self.ensure_vars(var.index() + 1);
        self.frozen[var.index()] = true;
    }

    /// Whether `var` is currently protected from elimination.
    pub fn is_frozen(&self, var: Var) -> bool {
        self.frozen.get(var.index()).copied().unwrap_or(false)
    }

    /// Whether the preprocessor has eliminated `var` (see
    /// [`Solver::freeze`] for the contract this implies).
    pub fn is_eliminated(&self, var: Var) -> bool {
        self.eliminated.get(var.index()).copied().unwrap_or(false)
    }

    /// Panics if `lits` mention an eliminated variable (the freeze
    /// contract on [`Solver::freeze`]); `op` names the offending call.
    pub(crate) fn reject_eliminated(&self, op: &str, lits: &[Lit]) {
        if let Some(l) = lits.iter().find(|l| self.is_eliminated(l.var())) {
            panic!(
                "{op} mentions eliminated variable {:?}: freeze it before \
                 solving, or disable variable elimination \
                 (SimplifyConfig::var_elim)",
                l.var()
            );
        }
    }

    /// Solves the formula under the assumptions staged by
    /// [`Solver::assume`] since the last call (consuming them), reporting
    /// learnt clauses and deletions to the construction-time proof sink.
    ///
    /// May be called repeatedly: a previous answer's search tree is undone
    /// first, so clauses can be added between calls (incremental use)
    /// while learnt clauses, activities and saved heuristic state stay
    /// warm. Budgets are accounted per call, so a budget-aborted run
    /// continues by calling again (optionally after [`Solver::set_budget`]).
    ///
    /// Returns [`SolveStatus::Unsat`] both when the formula is refuted
    /// outright and when it merely conflicts with the assumptions;
    /// [`Solver::failed_assumptions`] distinguishes the two. An
    /// assumption-UNSAT answer emits **no** empty clause to the proof sink
    /// (the formula itself is not refuted); only an absolute refutation
    /// concludes the proof.
    pub fn solve(&mut self) -> SolveStatus {
        // The sink is swapped out for the duration of the call so the
        // search (which borrows `self` mutably) can report to it.
        let mut sink = std::mem::replace(&mut self.proof, Box::new(NoProof));
        let status = self.solve_session(&mut *sink);
        self.proof = sink;
        status
    }
}
