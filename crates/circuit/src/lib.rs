//! # berkmin-circuit — gate-level circuit substrate
//!
//! The BerkMin paper evaluates on CNFs derived from circuit verification:
//! equivalence-checking miters of artificial circuits (the *Miters* class),
//! Velev's microprocessor-correctness suites (*Sss*, *Fvp*, *Vliw*), adder
//! synthesis problems (*Beijing*) and bounded model checking (SAT-2002
//! `cnt10`). This crate rebuilds that substrate from scratch:
//!
//! * [`Netlist`] — gate-level netlists with a builder API, combinational
//!   gates, muxes and D flip-flops;
//! * [`sim`] — 64-way bit-parallel simulation and exhaustive equivalence
//!   checking for tests;
//! * [`tseitin`] — linear-size CNF encoding of combinational netlists; it
//!   owns the clauses of every gate, for both encoders;
//! * [`miter`] — miter construction: two circuits → one "are they
//!   different?" output;
//! * [`arith`] — adders (ripple / carry-select), an array multiplier, a
//!   comparator, an ALU, counters and parity trees;
//! * [`rewrite`] — equivalence-preserving restructuring (De Morgan, XOR
//!   decomposition, …) and single-gate fault injection;
//! * [`random`] — seeded random DAG circuits with controllable depth;
//! * [`bmc`] — time-frame expansion of sequential circuits: each frame
//!   encodes its gates through [`tseitin`] and adds only the flip-flop
//!   wiring.
//!
//! # Example: equivalence checking end to end
//!
//! ```
//! use berkmin_circuit::{arith, miter_cnf, rewrite};
//!
//! let adder = arith::ripple_carry_adder(4);
//! let restructured = rewrite::restructure(&adder, 42);
//! let cnf = miter_cnf(&adder, &restructured);
//! // `cnf` is satisfiable iff the circuits differ — hand it to the solver.
//! assert!(cnf.num_clauses() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arith;
pub mod bmc;
mod miter;
mod netlist;
pub mod random;
pub mod rewrite;
pub mod sim;
pub mod tseitin;

pub use miter::{miter, miter_cnf, miter_encoding};
pub use netlist::{Gate, Netlist, NodeId};
pub use sim::{equivalent_exhaustive, eval64, Simulator};
pub use tseitin::{encode, TseitinEncoding};
