//! The checker's report on the solver's own proofs of the
//! `certified-unsat` instances, pinned count by count.
//!
//! The §8 database management deletes most learnt clauses, so these
//! proofs exercise deletion matching and hint resolution against a clause
//! store that compacts as it goes. A change to how the checker stores
//! clauses must leave every count as it is: each addition verified by its
//! hint chain, every deletion matched as before. The values were recorded
//! with the checker that kept every deleted clause's literals.

use std::cell::RefCell;
use std::rc::Rc;

use berkmin::{SolverBuilder, SolverConfig};
use berkmin_cnf::Cnf;
use berkmin_drat::{check_refutation, CheckReport, DratProof};
use berkmin_gens::hole::pigeonhole;
use berkmin_gens::miters::multiplier_miter;
use berkmin_gens::pipeline::npipe;

/// Solves `cnf` under the default configuration and checks the proof.
fn report(cnf: &Cnf) -> CheckReport {
    let proof = Rc::new(RefCell::new(DratProof::new()));
    let mut solver = SolverBuilder::with_config(SolverConfig::berkmin())
        .proof(Rc::clone(&proof))
        .cnf(cnf)
        .build();
    assert!(solver.solve().is_unsat());
    let proof = proof.borrow();
    check_refutation(cnf, &proof).expect("the solver's proof must check")
}

/// A report in which every checked addition was verified by its chain.
fn hinted(additions: usize, applied: usize, ignored: usize) -> CheckReport {
    CheckReport {
        additions_checked: additions,
        deletions_applied: applied,
        deletions_ignored: ignored,
        steps_after_empty: 1,
        additions_hinted: additions,
        chain_failures: 0,
    }
}

#[test]
fn hole7_report_is_pinned() {
    assert_eq!(report(&pigeonhole(7).cnf), hinted(5407, 3702, 0));
}

#[test]
fn multiplier_miter_report_is_pinned() {
    assert_eq!(report(&multiplier_miter(6, 0).cnf), hinted(9545, 7311, 10));
}

#[test]
fn npipe_report_is_pinned() {
    assert_eq!(report(&npipe(3).cnf), hinted(4015, 4046, 10));
}
