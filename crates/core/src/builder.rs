//! Construction-time assembly of a solver session.
//!
//! [`SolverBuilder`] owns everything a [`Solver`] needs *before* the first
//! solve call: the [`SolverConfig`], the proof sink (attached once, at
//! construction — not per call), a reserved variable space, initial
//! clauses, and the solve-event hooks (terminate, learnt-clause tap and
//! telemetry observer). The hooks must be `Send`: they live in the solver's
//! CDCL core, which the portfolio lends to worker threads. The proof sink
//! need not be; it stays on the [`Solver`] facade. `build()` yields a
//! concrete [`Solver`]; `build_engine()` yields it as a
//! `Box<dyn SatEngine>` for drivers that are generic over engines.

use berkmin_cnf::{Cnf, Lit, Var};

use crate::cdcl::Cdcl;
use crate::config::SolverConfig;
use crate::engine::SatEngine;
use crate::proof::{NoProof, ProofSink};
use crate::search::{LearntCallback, SolveEvents, TerminateCallback};
use crate::solver::Solver;
use crate::telemetry::SolveObserver;

/// Builder for a [`Solver`] session.
///
/// # Examples
///
/// Assemble a session with clauses, an assumption, and solve:
///
/// ```
/// use berkmin::{SolverBuilder, SolverConfig};
/// use berkmin_cnf::Lit;
///
/// let [a, b] = [1, 2].map(Lit::from_dimacs);
/// let mut solver = SolverBuilder::with_config(SolverConfig::berkmin())
///     .clause([a, b])
///     .clause([!a, b])
///     .build();
/// solver.assume(!b);
/// assert!(solver.solve().is_unsat());
/// assert_eq!(solver.failed_assumptions(), &[!b]);
/// assert!(solver.solve().is_sat()); // assumptions were consumed
/// ```
///
/// Event hooks are installed here too — a terminate callback polled at
/// restart boundaries and a learnt-clause tap that keeps the short clauses.
/// Hooks are `Send` (so is the core they are installed on), which is why
/// the tap shares its log through `Arc<Mutex<_>>`:
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use berkmin::SolverBuilder;
/// use berkmin_cnf::Lit;
///
/// let learnt = Arc::new(Mutex::new(Vec::new()));
/// let tap = Arc::clone(&learnt);
/// let mut solver = SolverBuilder::new()
///     .on_learnt(move |clause, _lbd| {
///         if clause.len() <= 4 {
///             tap.lock().unwrap().push(clause.to_vec());
///         }
///     })
///     .clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
///     .build();
/// assert!(solver.solve().is_sat()); // (trivially SAT: nothing learnt)
/// assert!(learnt.lock().unwrap().is_empty());
/// ```
#[must_use = "a builder does nothing until `build()` or `build_engine()`"]
pub struct SolverBuilder {
    config: SolverConfig,
    proof: Option<Box<dyn ProofSink>>,
    reserve_vars: usize,
    clauses: Cnf,
    frozen: Vec<Var>,
    terminate: Option<TerminateCallback>,
    on_learnt: Option<LearntCallback>,
    observer: Option<Box<dyn SolveObserver + Send>>,
}

impl Default for SolverBuilder {
    fn default() -> Self {
        SolverBuilder::new()
    }
}

impl SolverBuilder {
    /// A builder with the paper's full BerkMin configuration.
    pub fn new() -> Self {
        SolverBuilder::with_config(SolverConfig::berkmin())
    }

    /// A builder with an explicit configuration (any preset or custom
    /// [`SolverConfig`]).
    pub fn with_config(config: SolverConfig) -> Self {
        SolverBuilder {
            config,
            proof: None,
            reserve_vars: 0,
            clauses: Cnf::new(),
            frozen: Vec::new(),
            terminate: None,
            on_learnt: None,
            observer: None,
        }
    }

    /// Replaces the configuration.
    pub fn config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches the proof sink every [`Solver::solve`] call will report
    /// learnt clauses and deletions to. Attach an
    /// `Rc<RefCell<...>>`-wrapped sink (which implements [`ProofSink`])
    /// to keep a handle for reading the proof back after solving.
    pub fn proof(mut self, sink: impl ProofSink + 'static) -> Self {
        self.proof = Some(Box::new(sink));
        self
    }

    /// Pre-reserves a variable space of at least `n` variables.
    pub fn reserve_vars(mut self, n: usize) -> Self {
        self.reserve_vars = self.reserve_vars.max(n);
        self
    }

    /// Appends one initial clause.
    pub fn clause(mut self, lits: impl IntoIterator<Item = Lit>) -> Self {
        self.clauses.add_clause(lits);
        self
    }

    /// Marks `var` as frozen: the preprocessor will never eliminate it, so
    /// it stays safe to mention in clauses added after a solve call or in
    /// assumptions ([`Solver::freeze`] has the full contract). Assumption
    /// variables of each call are frozen automatically; freeze here only
    /// the variables of *future* clauses or assumptions the solver cannot
    /// yet see.
    pub fn freeze(mut self, var: Var) -> Self {
        self.frozen.push(var);
        self
    }

    /// Appends every clause of `cnf` and reserves its variable space.
    pub fn cnf(mut self, cnf: &Cnf) -> Self {
        self.reserve_vars = self.reserve_vars.max(cnf.num_vars());
        self.clauses.extend(cnf.iter().map(|c| c.iter().copied()));
        self
    }

    /// Installs the terminate callback: polled at solve entry, at every
    /// restart boundary and every 1024 conflicts (so a restart-free search
    /// honors it too); returning `true` aborts the running call with
    /// [`SolveStatus::Unknown`](crate::SolveStatus::Unknown)\(
    /// [`StopReason::Callback`](crate::StopReason::Callback)\). Budgets are
    /// unaffected — a later call proceeds with its full per-call allowance.
    /// The callback observes only its captured state (no solver access), so
    /// it cannot perturb the search it interrupts.
    pub fn on_terminate(mut self, callback: impl FnMut() -> bool + Send + 'static) -> Self {
        self.terminate = Some(Box::new(callback));
        self
    }

    /// Installs the learnt-clause tap: fired once per conflict-derived
    /// learnt clause (asserting literal first) with its LBD ("glue"), right
    /// after the clause is reported to the proof sink and before the search
    /// resumes. It filters nothing; the callback keeps what it wants. Every
    /// delivered clause is a logical consequence of the formula alone —
    /// assumptions never leak into learnt clauses — so IC3/BMC-style
    /// drivers may forward them to sibling solvers on the same formula.
    pub fn on_learnt(mut self, callback: impl FnMut(&[Lit], u32) + Send + 'static) -> Self {
        self.on_learnt = Some(Box::new(callback));
        self
    }

    /// Installs the structured telemetry observer: receives every
    /// [`SolveEvent`](crate::SolveEvent) the solver emits (solve-call
    /// brackets, restarts, reductions, progress ticks, sharing traffic).
    /// Any `FnMut(&SolveEvent)` closure qualifies; see [`crate::telemetry`]
    /// for the vocabulary. Without an observer the solver skips event
    /// construction entirely — each emission site is one `Option` check.
    pub fn on_event(mut self, observer: impl SolveObserver + Send + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Builds the concrete [`Solver`].
    pub fn build(mut self) -> Solver {
        let proof = self.proof.take();
        // With a sink the core collects hint chains for it (see
        // `ProofSink::add_clause_hinted`).
        let core = self.build_core(proof.is_some());
        Solver {
            core,
            proof: proof.unwrap_or_else(|| Box::new(NoProof)),
        }
    }

    /// Builds the bare core (any attached proof sink is ignored), with
    /// hint chains collected when `hints` is set.
    pub(crate) fn build_core(self, hints: bool) -> Cdcl {
        let mut core = Cdcl::new(self.config);
        core.hints.on = hints;
        core.events = SolveEvents {
            terminate: self.terminate,
            on_learnt: self.on_learnt,
            observer: self.observer,
        };
        core.ensure_vars(self.reserve_vars);
        for var in self.frozen {
            core.freeze(var);
        }
        for clause in &self.clauses {
            core.add_clause(clause.iter().copied());
        }
        core
    }

    /// Builds the solver as a boxed [`SatEngine`] trait object — the form
    /// engine-generic drivers (BMC, bench harness, CLI) consume.
    pub fn build_engine(self) -> Box<dyn SatEngine> {
        Box::new(self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    #[test]
    fn builder_matches_direct_construction() {
        let mut cnf = Cnf::new();
        cnf.add_clause([lit(1), lit(2)]);
        cnf.add_clause([lit(-1), lit(2)]);
        let mut direct = Solver::new(&cnf, SolverConfig::berkmin());
        let mut built = SolverBuilder::with_config(SolverConfig::berkmin())
            .cnf(&cnf)
            .build();
        assert_eq!(direct.solve().is_sat(), built.solve().is_sat());
        assert_eq!(direct.num_vars(), built.num_vars());
        assert_eq!(direct.stats().conflicts, built.stats().conflicts);
    }

    #[test]
    fn reserved_vars_cover_unconstrained_variables() {
        let solver = SolverBuilder::new().reserve_vars(10).build();
        assert_eq!(solver.num_vars(), 10);
    }

    #[test]
    fn proof_sink_attaches_at_construction() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Counting(usize);
        impl ProofSink for Counting {
            fn add_clause(&mut self, _lits: &[Lit]) {
                self.0 += 1;
            }
            fn delete_clause(&mut self, _lits: &[Lit]) {}
        }

        let sink = Rc::new(RefCell::new(Counting::default()));
        let mut solver = SolverBuilder::new()
            .proof(Rc::clone(&sink))
            .clause([lit(1)])
            .clause([lit(-1)])
            .build();
        assert!(solver.solve().is_unsat());
        // At minimum the empty clause was reported.
        assert!(sink.borrow().0 >= 1);
        assert!(!solver.is_ok());
    }
}
