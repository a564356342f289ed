//! The solver facade: the public session API over the CDCL core.
//!
//! All search state lives in [`Cdcl`] (`cdcl.rs`), which holds no proof
//! sink and is therefore `Send`. The facade adds the one thing the core
//! leaves out — the construction-time [`ProofSink`], which may be any
//! user type (an `Rc<RefCell<_>>` reading handle included) — and forwards
//! every public call.

use berkmin_cnf::{Cnf, LBool, Lit, Var};

use crate::audit::AuditReport;
use crate::cdcl::Cdcl;
use crate::config::{Budget, SolverConfig};
use crate::proof::{NoProof, ProofSink};
use crate::search::SolveStatus;
use crate::stats::Stats;
use crate::telemetry::SolveObserver;

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
    pub(crate) core: Cdcl,
    /// The construction-time proof sink every [`Solver::solve`] call
    /// reports to ([`NoProof`] unless attached via
    /// [`SolverBuilder::proof`](crate::SolverBuilder::proof)).
    pub(crate) proof: Box<dyn ProofSink>,
}

impl std::fmt::Debug for Solver {
    /// The solver holds closures and a `dyn` proof sink, so `Debug`
    /// prints a summary rather than the raw fields: the subsystem
    /// summaries (trail heights per level, watch-list population) and the
    /// scheduler's next-due actions answer "what level am I at and why".
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.core;
        f.debug_struct("Solver")
            .field("num_vars", &c.num_vars)
            .field("num_live_clauses", &c.db.num_live())
            .field("num_learnt_clauses", &c.db.num_learnt())
            .field("ok", &c.ok)
            .field("trail", &c.trail)
            .field("watches", &c.watches)
            .field("limits", &c.limits)
            .field("next_due", &c.limits.next_due(&c.stats, &c.config))
            .field("pending_assumptions", &c.pending_assumptions)
            .field("events", &c.events)
            .field("config", &c.config)
            .field("stats", &c.stats)
            .finish_non_exhaustive()
    }
}

impl Solver {
    /// Creates a solver for `cnf` under `config`.
    pub fn new(cnf: &Cnf, config: SolverConfig) -> Self {
        let mut s = Solver::with_config(config);
        s.reserve_vars(cnf.num_vars());
        for clause in cnf {
            s.add_clause(clause.iter().copied());
        }
        s
    }

    /// Creates an empty solver under `config` (see [`Solver::add_clause`]).
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            core: Cdcl::new(config),
            proof: Box::new(NoProof),
        }
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.core.num_vars
    }

    /// Grows the per-variable tables to cover `n` variables without
    /// adding any clause, keeping the solver's variable space — and
    /// therefore its models — in sync with external allocators (e.g.
    /// Tseitin or activation literals).
    pub fn reserve_vars(&mut self, n: usize) {
        self.core.ensure_vars(n);
    }

    /// Search statistics.
    pub fn stats(&self) -> &Stats {
        &self.core.stats
    }

    /// The configuration this solver runs under.
    pub fn config(&self) -> &SolverConfig {
        &self.core.config
    }

    /// Replaces the resource budget. Budgets are accounted **per solve
    /// call**: every call measures its own spend against the configured
    /// limits, so an aborted run can simply be called again — with or
    /// without a new budget.
    pub fn set_budget(&mut self, budget: Budget) {
        self.core.config.budget = budget;
    }

    /// The failed-assumption core of the most recent assumption-carrying
    /// [`Solver::solve`] call that returned [`SolveStatus::Unsat`]: a
    /// subset `C` of the assumptions such that the formula conjoined with
    /// `C` is unsatisfiable, extracted by final-conflict analysis. Empty
    /// when the formula is unsatisfiable outright (no assumptions needed),
    /// and after any SAT or Unknown answer.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.core.failed
    }

    /// `false` once the clause set has been proven contradictory.
    pub fn is_ok(&self) -> bool {
        self.core.ok
    }

    /// Current assignment of `var`.
    pub fn value(&self, var: Var) -> LBool {
        self.core.trail.value_opt(var)
    }

    /// Current `var_activity` counter of `var` (paper §4) — how much the
    /// variable has participated in conflict-making, after aging.
    pub fn var_activity(&self, var: Var) -> u64 {
        self.core
            .var_activity
            .get(var.index())
            .copied()
            .unwrap_or(0)
    }

    /// Number of live learnt clauses (the conflict-clause stack size).
    pub fn num_learnt_clauses(&self) -> usize {
        self.core.db.num_learnt()
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
        self.core.add_clause(lits)
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
        self.core.assume(lit);
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
        self.core.freeze(var);
    }

    /// Whether the preprocessor has eliminated `var` (see
    /// [`Solver::freeze`] for the contract this implies).
    pub fn is_eliminated(&self, var: Var) -> bool {
        self.core.is_eliminated(var)
    }

    /// Installs (or clears) the structured telemetry observer — the typed
    /// counterpart of the `c`-line progress output. See
    /// [`crate::telemetry`] for the event vocabulary and ordering
    /// guarantees. Usually installed at construction time via
    /// [`SolverBuilder::on_event`](crate::SolverBuilder::on_event).
    pub fn set_observer(&mut self, observer: Option<Box<dyn SolveObserver + Send>>) {
        self.core.events.observer = observer;
    }

    /// Deep-checks every structural invariant of the solver — watch lists,
    /// trail/reason consistency, decision-heap membership and clause-arena
    /// header integrity — returning an [`AuditReport`] describing each
    /// violation found.
    ///
    /// Valid at any *quiescent* point: after [`Solver::solve`] returns or
    /// between incremental calls. The watch-semantics check arms itself
    /// only when the propagation queue is drained and the solver is still
    /// consistent, so calling this on a partially propagated trail is
    /// safe, merely less thorough.
    ///
    /// # Examples
    ///
    /// ```
    /// use berkmin::{Solver, SolverConfig};
    /// use berkmin_cnf::Lit;
    ///
    /// let mut s = Solver::with_config(SolverConfig::berkmin());
    /// s.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)]);
    /// assert!(s.solve().is_sat());
    /// s.audit_invariants().expect("solver state is consistent");
    /// ```
    pub fn audit_invariants(&self) -> Result<(), AuditReport> {
        self.core.audit_invariants()
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
        self.core.solve_session(&mut *self.proof)
    }
}
