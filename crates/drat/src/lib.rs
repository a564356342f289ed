//! # berkmin-drat — clausal proof logging and checking
//!
//! CDCL solvers can justify UNSAT answers with a *clausal proof*: the
//! stream of learnt clauses (each a reverse-unit-propagation consequence)
//! ending in the empty clause, interleaved with deletions — the DRAT
//! format of modern SAT competitions. This crate provides:
//!
//! * [`DratProof`] — an in-memory proof that attaches to a solver at
//!   construction time via [`berkmin::SolverBuilder::proof`] as a
//!   [`berkmin::ProofSink`];
//! * [`check_refutation`] — a forward RUP checker with a hint fast path
//!   that independently validates the solver's UNSAT verdicts (used
//!   throughout the integration test suite). An addition that carries a
//!   hint chain (see [`berkmin::ClauseId`]) is verified by one pass over
//!   the chain; without a chain, or when the chain fails, the full RUP
//!   check runs. The set of accepted proofs is the same either way.
//!
//! # Example: verify an UNSAT answer end to end
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use berkmin::SolverBuilder;
//! use berkmin_drat::{check_refutation, DratProof};
//! use berkmin_cnf::{Cnf, Lit, Var};
//!
//! // x ∧ (¬x ∨ y) ∧ ¬y
//! let mut cnf = Cnf::new();
//! let [x, y] = [0, 1].map(|i| Var::new(i));
//! cnf.add_clause([Lit::pos(x)]);
//! cnf.add_clause([Lit::neg(x), Lit::pos(y)]);
//! cnf.add_clause([Lit::neg(y)]);
//!
//! let proof = Rc::new(RefCell::new(DratProof::new()));
//! let mut solver = SolverBuilder::new().proof(Rc::clone(&proof)).cnf(&cnf).build();
//! assert!(solver.solve().is_unsat());
//! check_refutation(&cnf, &proof.borrow()).expect("machine-checkable refutation");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod proof;

pub use checker::{check_refutation, CheckError, CheckReport};
pub use proof::{DratProof, Hints, Lits, ParseDratError, Step};
