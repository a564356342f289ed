//! # berkmin-suite — facade over the BerkMin reproduction workspace
//!
//! One `use` away from everything: the solver ([`berkmin`]), the CNF
//! vocabulary ([`berkmin_cnf`]), the circuit substrate
//! ([`berkmin_circuit`]), the benchmark generators ([`berkmin_gens`]) and
//! the proof machinery ([`berkmin_drat`]).
//!
//! See the workspace README for the tour, DESIGN.md for the system
//! inventory, and EXPERIMENTS.md for the paper-vs-measured record.
//!
//! # Example
//!
//! The session flow: assemble an engine with the builder, then drive it —
//! `assume()` stages per-call assumptions, `solve()` is the one entry
//! point.
//!
//! ```
//! use berkmin_suite::prelude::*;
//!
//! // Equivalence-check two adder architectures with the solver.
//! let ripple = berkmin_circuit::arith::ripple_carry_adder(6);
//! let carry_select = berkmin_circuit::arith::carry_select_adder(6, 2);
//! let cnf = berkmin_circuit::miter_cnf(&ripple, &carry_select);
//! let mut solver = SolverBuilder::with_config(SolverConfig::berkmin())
//!     .cnf(&cnf)
//!     .build();
//! assert!(solver.solve().is_unsat()); // equivalent ⇒ miter unsatisfiable
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use berkmin;
pub use berkmin_circuit;
pub use berkmin_cnf;
pub use berkmin_drat;
pub use berkmin_gens;

/// The handful of names almost every user wants in scope — centered on
/// the session API: [`SolverBuilder`](berkmin::SolverBuilder) assembles an
/// engine, [`SatEngine`](berkmin::SatEngine) is the trait drivers program
/// against, and [`ClauseSink`](berkmin_cnf::ClauseSink) streams DIMACS
/// straight into it.
pub mod prelude {
    pub use berkmin::{
        Budget, PortfolioConfig, PortfolioEngine, ProofSink, SatEngine, SimplifyConfig, SolveEvent,
        SolveObserver, SolveStatus, SolveVerdict, Solver, SolverBuilder, SolverConfig, Stats,
        StatsSnapshot, StopReason, WorkerOutcome, WorkerReport,
    };
    pub use berkmin_circuit::bmc::{BmcDriver, BmcEncoding, BmcOutcome};
    pub use berkmin_cnf::{Assignment, ClauseSink, Cnf, LBool, Lit, Var};
    pub use berkmin_drat::{check_refutation, DratProof};
    pub use berkmin_gens::BenchInstance;
}

// Compile (and run) the README's code blocks as doctests, so the
// "Incremental solving" walkthrough can never drift from the real API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}
