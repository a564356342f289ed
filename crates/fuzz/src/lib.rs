//! Differential fuzz harness for the BerkMin workspace.
//!
//! Each fuzz **case** is a sequence of incremental solver operations
//! ([`Op`]): clause additions, staged assumptions, budget changes and
//! `solve` calls. A case is executed simultaneously on several production
//! engines (four single-solver configurations and a deterministic
//! sharing portfolio, all with the `paranoid` invariant audits enabled) and every answer is *certified* rather than trusted:
//!
//! - **SAT** — the model must satisfy every clause added so far and every
//!   assumption of the call, and must cover all reserved variables.
//! - **UNSAT with a non-empty core** — the core must be a duplicate-free
//!   subset of the staged assumptions, and the formula conjoined with just
//!   the core must be refuted by an independent scratch DPLL solver
//!   ([`reference::dpll`]).
//! - **UNSAT with an empty core** (absolute refutation) — the accumulated
//!   DRAT proof of the whole session must check against the accumulated
//!   raw formula via `berkmin_drat::check_refutation`, with every hint
//!   chain of a single-solver proof verifying (a chain that needs the
//!   full-RUP fallback counts as a discrepancy).
//! - **Unknown** — only legal when a finite budget was installed.
//!
//! On top of per-answer certification, the engines are cross-checked
//! against each other and against the reference solver (decided answers
//! must agree). Any discrepancy — including a panic from the paranoid
//! audits — is [shrunk](shrink::shrink_case) to a minimal op script and
//! written to disk as a replayable repro (see the `berkmin-fuzz` binary).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod gen;
pub mod ops;
pub mod reference;
pub mod shrink;

pub use exec::{run_case, run_case_catching, CaseReport};
pub use gen::gen_case;
pub use ops::{Case, Op, ParseScriptError};
pub use shrink::{shrink_case, shrink_with};
