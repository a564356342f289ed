//! The engine abstraction: an object-safe, IPASIR-shaped incremental
//! solving interface.
//!
//! [`SatEngine`] is what generic drivers program against — the BMC driver,
//! the bench runner and the CLI all take *any* engine, so alternative
//! configurations (or entirely different solver backends) slot in behind
//! one trait object. [`Solver`] implements it; boxed and borrowed engines
//! forward, so `Box<dyn SatEngine>` works everywhere a concrete solver
//! does.

use berkmin_cnf::{ClauseSink, LBool, Lit, Var};

use crate::search::SolveStatus;
use crate::solver::Solver;
use crate::stats::Stats;
use crate::telemetry::SolveObserver;

/// An incremental SAT engine: add clauses, stage assumptions, solve,
/// inspect — repeat. Object-safe by design, so heterogeneous drivers can
/// hold a `Box<dyn SatEngine>`.
///
/// # Contract
///
/// * [`SatEngine::add_clause`] may be called at any time; clauses
///   accumulate monotonically (there is no retraction — use assumptions
///   and activation literals for temporary constraints).
/// * [`SatEngine::assume`] stages a literal for the **next**
///   [`SatEngine::solve`] call only; the call consumes all staged
///   assumptions.
/// * After an `Unsat` answer, [`SatEngine::failed_assumptions`] is a
///   subset of the staged assumptions that is itself unsatisfiable with
///   the formula (empty on absolute refutation).
/// * After a `Sat` answer, [`SatEngine::value`] reports the model's
///   assignment for every reserved variable.
///
/// # Examples
///
/// ```
/// use berkmin::{SatEngine, SolverBuilder};
/// use berkmin_cnf::Lit;
///
/// let mut engine: Box<dyn SatEngine> = SolverBuilder::new().build_engine();
/// engine.add_clause(&[Lit::from_dimacs(1), Lit::from_dimacs(2)]);
/// engine.assume(Lit::from_dimacs(-1));
/// let status = engine.solve();
/// assert!(status.model().unwrap().satisfies(Lit::from_dimacs(2)));
/// ```
pub trait SatEngine {
    /// Grows the variable space to at least `n` variables (models then
    /// cover them even if no clause mentions them).
    fn reserve_vars(&mut self, n: usize);

    /// Adds a clause to the formula. Returns `false` if the formula has
    /// become trivially unsatisfiable (an empty clause arose).
    fn add_clause(&mut self, lits: &[Lit]) -> bool;

    /// Stages an assumption for the next [`SatEngine::solve`] call.
    fn assume(&mut self, lit: Lit);

    /// Solves under the staged assumptions (consuming them).
    fn solve(&mut self) -> SolveStatus;

    /// The last model's assignment of `var` ([`LBool::Undef`] if unknown).
    fn value(&self, var: Var) -> LBool;

    /// The failed-assumption core of the last assumption-UNSAT answer.
    fn failed_assumptions(&self) -> &[Lit];

    /// Search statistics accumulated so far.
    fn stats(&self) -> &Stats;

    /// Attaches (or clears) a structured telemetry observer (see
    /// [`crate::telemetry`]). The observer is `Send`, like every solver
    /// hook: the portfolio engine forwards its workers' events across
    /// threads.
    fn set_observer(&mut self, observer: Option<Box<dyn SolveObserver + Send>>);
}

impl SatEngine for Solver {
    fn reserve_vars(&mut self, n: usize) {
        Solver::reserve_vars(self, n);
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        Solver::add_clause(self, lits.iter().copied())
    }

    fn assume(&mut self, lit: Lit) {
        Solver::assume(self, lit);
    }

    fn solve(&mut self) -> SolveStatus {
        Solver::solve(self)
    }

    fn value(&self, var: Var) -> LBool {
        Solver::value(self, var)
    }

    fn failed_assumptions(&self) -> &[Lit] {
        Solver::failed_assumptions(self)
    }

    fn stats(&self) -> &Stats {
        Solver::stats(self)
    }

    fn set_observer(&mut self, observer: Option<Box<dyn SolveObserver + Send>>) {
        Solver::set_observer(self, observer);
    }
}

impl<E: SatEngine + ?Sized> SatEngine for Box<E> {
    fn reserve_vars(&mut self, n: usize) {
        (**self).reserve_vars(n);
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        (**self).add_clause(lits)
    }

    fn assume(&mut self, lit: Lit) {
        (**self).assume(lit);
    }

    fn solve(&mut self) -> SolveStatus {
        (**self).solve()
    }

    fn value(&self, var: Var) -> LBool {
        (**self).value(var)
    }

    fn failed_assumptions(&self) -> &[Lit] {
        (**self).failed_assumptions()
    }

    fn stats(&self) -> &Stats {
        (**self).stats()
    }

    fn set_observer(&mut self, observer: Option<Box<dyn SolveObserver + Send>>) {
        (**self).set_observer(observer);
    }
}

impl<E: SatEngine + ?Sized> SatEngine for &mut E {
    fn reserve_vars(&mut self, n: usize) {
        (**self).reserve_vars(n);
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        (**self).add_clause(lits)
    }

    fn assume(&mut self, lit: Lit) {
        (**self).assume(lit);
    }

    fn solve(&mut self) -> SolveStatus {
        (**self).solve()
    }

    fn value(&self, var: Var) -> LBool {
        (**self).value(var)
    }

    fn failed_assumptions(&self) -> &[Lit] {
        (**self).failed_assumptions()
    }

    fn stats(&self) -> &Stats {
        (**self).stats()
    }

    fn set_observer(&mut self, observer: Option<Box<dyn SolveObserver + Send>>) {
        (**self).set_observer(observer);
    }
}

/// Streaming DIMACS straight into the solver's clause database: with this
/// impl, [`berkmin_cnf::dimacs::stream_into`] feeds a file into a
/// [`Solver`] without materializing any intermediate formula.
impl ClauseSink for Solver {
    fn header(&mut self, num_vars: usize, _num_clauses: usize) {
        Solver::reserve_vars(self, num_vars);
    }

    fn clause(&mut self, lits: &[Lit]) {
        Solver::add_clause(self, lits.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;

    /// Compile-time proof that the trait stays object-safe (the whole point
    /// of the redesign): a `&dyn` / `Box<dyn>` must always be formable.
    #[allow(dead_code)]
    fn assert_object_safe(engine: &mut dyn SatEngine) -> &mut dyn SatEngine {
        engine
    }

    #[test]
    fn boxed_engine_solves_through_the_trait() {
        let mut engine: Box<dyn SatEngine> = Box::new(Solver::with_config(SolverConfig::berkmin()));
        assert!(engine.add_clause(&[Lit::from_dimacs(1), Lit::from_dimacs(2)]));
        engine.assume(Lit::from_dimacs(-1));
        match engine.solve() {
            SolveStatus::Sat(m) => assert!(m.satisfies(Lit::from_dimacs(2))),
            other => panic!("expected SAT, got {other:?}"),
        }
        assert_eq!(engine.value(Var::new(1)), LBool::True);
        assert_eq!(engine.stats().solve_calls, 1);
    }

    #[test]
    fn failed_assumptions_flow_through_the_trait() {
        let mut engine: Box<dyn SatEngine> = Box::new(Solver::with_config(SolverConfig::berkmin()));
        engine.add_clause(&[Lit::from_dimacs(1)]);
        engine.assume(Lit::from_dimacs(-1));
        assert!(engine.solve().is_unsat());
        assert_eq!(engine.failed_assumptions(), &[Lit::from_dimacs(-1)]);
    }

    #[test]
    fn empty_clause_via_trait_reports_false() {
        let mut engine: Box<dyn SatEngine> = Box::new(Solver::with_config(SolverConfig::berkmin()));
        assert!(!engine.add_clause(&[]));
        assert!(engine.solve().is_unsat());
    }
}
