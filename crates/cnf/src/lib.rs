//! Core CNF data types for the BerkMin SAT-solver suite.
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace: [`Var`] and [`Lit`] (packed, copyable handles), [`Cnf`] (a
//! formula: every clause in one literal buffer, read back as `&[Lit]`,
//! plus variable bookkeeping), [`Assignment`] (a total/partial valuation)
//! and DIMACS reading/writing in [`dimacs`].
//!
//! # Conventions
//!
//! Variables are numbered from `0`. A literal packs a variable and a sign
//! into a single `u32` (`code = var << 1 | negated`), the layout used by the
//! solver's watch lists. In DIMACS text, variable `i` (0-based) appears as
//! `i + 1`, negated literals carry a minus sign.
//!
//! # Examples
//!
//! ```
//! use berkmin_cnf::{Cnf, Lit, Var};
//!
//! let mut cnf = Cnf::new();
//! let x = cnf.fresh_var();
//! let y = cnf.fresh_var();
//! cnf.add_clause([Lit::pos(x), Lit::neg(y)]);
//! cnf.add_clause([Lit::neg(x), Lit::pos(y)]);
//! assert_eq!(cnf.num_vars(), 2);
//! assert_eq!(cnf.num_clauses(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
pub mod dimacs;
mod formula;
mod lit;
mod sink;

pub use assignment::{Assignment, LBool};
pub use formula::{Clauses, Cnf};
pub use lit::{Lit, Var};
pub use sink::ClauseSink;
