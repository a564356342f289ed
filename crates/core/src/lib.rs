//! # BerkMin — a fast and robust CDCL SAT-solver
//!
//! A from-scratch Rust reproduction of the solver described in
//! E. Goldberg & Y. Novikov, *"BerkMin: A Fast and Robust Sat-Solver"*
//! (DATE 2002; extended journal version in Discrete Applied Mathematics
//! 155, 2007). The solver inherits clause recording, watched-literal BCP,
//! restarts and conflict-clause aging from GRASP/SATO/Chaff, and implements
//! BerkMin's four contributions, each individually switchable through
//! [`SolverConfig`]:
//!
//! 1. **Sensitivity** (§4) — variable activities credited from *all clauses
//!    responsible for a conflict*, not just the learnt clause
//!    ([`Sensitivity`]).
//! 2. **Mobility** (§5) — branching on the most active free variable of the
//!    *current top clause* of the chronologically ordered conflict-clause
//!    stack ([`DecisionStrategy`]); the skin effect (§6) is measured in
//!    [`Stats::top_distance_hist`].
//! 3. **Database symmetrization** (§7) — branch polarity chosen to
//!    counterbalance the clause-census asymmetry introduced by restarts
//!    ([`TopClausePolarity`]), with the `nb_two` binary-clause cost function
//!    for free-variable decisions ([`FreeVarPolarity`]).
//! 4. **Database management** (§8) — age/length/activity-based clause
//!    retention with a rising old-clause threshold ([`DbPolicy`]).
//!
//! # Quick start: the builder/session flow
//!
//! A solver is assembled once through [`SolverBuilder`] — configuration,
//! proof sink, reserved variables, initial clauses and event hooks all
//! attach at construction — and then driven as a *session*: stage
//! assumptions with [`Solver::assume`], call [`Solver::solve`] (the one
//! entry point), inspect, repeat.
//!
//! ```
//! use berkmin::{SolverBuilder, SolverConfig, SolveStatus};
//! use berkmin_cnf::Lit;
//!
//! // (x ∨ y) ∧ (¬x ∨ y) ∧ (¬y ∨ z)
//! let [x, y, z] = [1, 2, 3].map(Lit::from_dimacs);
//! let mut solver = SolverBuilder::with_config(SolverConfig::berkmin())
//!     .clause([x, y])
//!     .clause([!x, y])
//!     .clause([!y, z])
//!     .build();
//!
//! match solver.solve() {
//!     SolveStatus::Sat(model) => assert!(model.satisfies(z)),
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//!
//! // Incremental: assumptions are per-call, clauses accumulate.
//! solver.assume(!z);
//! assert!(solver.solve().is_unsat());
//! assert_eq!(solver.failed_assumptions(), &[!z]);
//! assert!(solver.solve().is_sat());
//! ```
//!
//! # Engine genericity
//!
//! [`SatEngine`] is the object-safe face of the session API
//! (`add_clause` / `assume` / `solve` / `value` / `failed_assumptions` /
//! `stats`): drivers written against `dyn SatEngine` — the BMC driver, the
//! bench harness, the CLI — accept any configuration (or backend) behind
//! one trait object, built with [`SolverBuilder::build_engine`].
//!
//! # Solve events
//!
//! Two IPASIR-style hooks install at construction time:
//! [`SolverBuilder::on_terminate`] (polled at solve entry, every restart
//! boundary and every 1024 conflicts; aborts with [`StopReason::Callback`]
//! without touching budgets) and [`SolverBuilder::on_learnt`] (delivers every
//! conflict-derived learnt clause with its LBD, unfiltered — each one a
//! consequence of the formula alone, never of the assumptions). The
//! portfolio's clause sharing uses neither: its workers' cores carry a
//! crate-private link to the share pool. Hooks and observers are `Send`, so state they share with the caller goes through
//! `Arc` and a `Mutex` or an atomic; the proof sink alone may be `!Send`.
//!
//! # Telemetry
//!
//! A structured observer installs via [`SolverBuilder::on_event`] (or
//! [`SatEngine::set_observer`] on any engine, including the portfolio):
//! every [`SolveEvent`] the search emits — solve-call brackets, restarts,
//! reductions, a progress tick every 1024 conflicts, sharing traffic,
//! worker-tagged portfolio events — flows to the [`SolveObserver`].
//! Without an observer the solver constructs no events at all.
//! [`StatsSnapshot`] renders a [`Stats`] block as JSON for machine
//! consumption; see [`telemetry`] for the full vocabulary.
//!
//! # Proof logging
//!
//! A [`ProofSink`] attached via [`SolverBuilder::proof`] receives every
//! learnt clause and deletion of every solve call; the `berkmin-drat`
//! crate turns that stream into a checkable DRAT proof. Wrap the sink in
//! `Rc<RefCell<...>>` (which itself implements `ProofSink`) to keep a
//! reading handle. Each addition also comes with its hint chain — the
//! [`ClauseId`]s of the clauses that derive it — through
//! [`ProofSink::add_clause_hinted`], which lets a checker verify it
//! without a propagation search.
//!
//! # Streaming ingestion
//!
//! [`Solver`] implements [`berkmin_cnf::ClauseSink`], so
//! [`berkmin_cnf::dimacs::stream_into`] parses a DIMACS file straight into
//! the clause database — no intermediate [`berkmin_cnf::Cnf`] is built.
//!
//! # Reproducing the paper's ablations
//!
//! Every comparison arm in the paper's Tables 1–5 is a [`SolverConfig`]
//! preset; see that type's documentation for the mapping. Resource budgets
//! ([`Budget`]) provide deterministic, machine-independent "timeouts".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod audit;
mod builder;
mod cdcl;
mod clause_db;
mod config;
mod decide;
mod engine;
#[cfg(test)]
mod gc_props;
mod heap;
mod limits;
mod polarity;
mod portfolio;
mod preprocess;
mod proof;
mod reduce;
mod rng;
mod search;
mod solver;
mod stats;
pub mod telemetry;
mod trail;
#[cfg(test)]
mod trail_props;
mod watch;

pub use audit::AuditReport;
pub use builder::SolverBuilder;
pub use config::{
    ActivityIndex, Budget, DbPolicy, DecisionStrategy, FreeVarPolarity, RestartPolicy, Sensitivity,
    SimplifyConfig, SolverConfig, TopClausePolarity,
};
pub use engine::SatEngine;
pub use portfolio::{PortfolioConfig, PortfolioEngine, WorkerOutcome, WorkerReport};
pub use proof::{ClauseId, NoProof, ProofSink};
pub use search::{SolveStatus, StopReason};
pub use solver::Solver;
pub use stats::Stats;
pub use telemetry::{SolveEvent, SolveObserver, SolveVerdict, StatsSnapshot};

// Re-export the vocabulary crate (and the clause-stream trait most
// engine users want in scope) so downstream users need only one import.
pub use berkmin_cnf as cnf;
pub use berkmin_cnf::ClauseSink;
