//! DRAT pipeline end-to-end: solve a small UNSAT instance with proof
//! logging on (attached at construction through the builder), and validate
//! the refutation with the independent RUP checker — both the in-memory
//! proof and its textual DRAT round-trip.

use std::cell::RefCell;
use std::rc::Rc;

use berkmin::{DbPolicy, RestartPolicy};
use berkmin_drat::{check_refutation, DratProof};
use berkmin_gens::hole;
use berkmin_suite::prelude::*;

/// Builds a BerkMin solver for `cnf` under `cfg` with a shared in-memory
/// proof attached; the returned handle reads the proof back afterwards.
fn proof_logged_solver(cnf: &Cnf, cfg: SolverConfig) -> (Solver, Rc<RefCell<DratProof>>) {
    let proof = Rc::new(RefCell::new(DratProof::new()));
    let solver = SolverBuilder::with_config(cfg)
        .proof(Rc::clone(&proof))
        .cnf(cnf)
        .build();
    (solver, proof)
}

#[test]
fn hole5_refutation_is_machine_checkable() {
    let inst = hole::pigeonhole(5); // PHP(6,5): UNSAT by construction (§9)
    assert_eq!(inst.expected, Some(false));

    let (mut solver, proof) = proof_logged_solver(&inst.cnf, SolverConfig::berkmin());
    assert!(solver.solve().is_unsat());
    let proof = proof.borrow();
    assert!(proof.ends_with_empty_clause());

    let report = check_refutation(&inst.cnf, &proof).expect("refutation must check");
    assert!(
        report.additions_checked > 0,
        "pigeonhole needs real learnt clauses, not a propagation-only refutation"
    );
}

#[test]
fn streamed_text_proof_checks_after_reparsing() {
    // The same run, but written out as textual DRAT and re-parsed — the
    // on-disk format must carry everything the checker needs.
    let inst = hole::pigeonhole(5);
    let (mut solver, proof) = proof_logged_solver(&inst.cnf, SolverConfig::berkmin());
    assert!(solver.solve().is_unsat());
    let mut bytes = Vec::new();
    proof
        .borrow()
        .write_text(&mut bytes)
        .expect("in-memory writer cannot fail");
    let text = String::from_utf8(bytes).expect("DRAT text is ASCII");
    let proof = DratProof::parse(&text).expect("emitted DRAT must re-parse");
    assert!(proof.ends_with_empty_clause());
    check_refutation(&inst.cnf, &proof).expect("re-parsed refutation must check");
}

#[test]
fn deletion_heavy_hole5_proof_carries_d_lines_and_still_checks() {
    // Force the §8 reducer to actually delete clauses on hole(5): frequent
    // restarts plus a GRASP-style length bound almost every learnt clause
    // exceeds. The compacting GC emits the DRAT `d` lines at reclaim time;
    // the independent checker must accept the proof with deletion enabled.
    let inst = hole::pigeonhole(5);
    let mut cfg = SolverConfig::berkmin();
    cfg.restart = RestartPolicy::FixedInterval(25);
    cfg.db_policy = DbPolicy::LengthBounded { max_len: 3 };

    let (mut solver, proof) = proof_logged_solver(&inst.cnf, cfg);
    assert!(solver.solve().is_unsat());
    let proof = proof.borrow();

    let stats = solver.stats();
    assert!(stats.deleted_clauses > 0, "reduction must delete clauses");
    assert!(
        stats.gc_runs > 0,
        "deletions must trigger the compacting GC"
    );
    assert!(stats.gc_words_reclaimed > 0, "GC must reclaim arena space");
    assert!(
        proof.num_deletions() > 0,
        "the GC path must emit DRAT `d` lines"
    );
    assert!(
        proof.to_text().lines().any(|l| l.starts_with("d ")),
        "textual DRAT must carry the deletions"
    );
    check_refutation(&inst.cnf, &proof).expect("refutation with deletions must check");
}

#[test]
fn budget_aborted_runs_leave_no_empty_clause_in_the_proof() {
    // An Unknown verdict must not smuggle a refutation into the sink.
    let inst = hole::pigeonhole(7); // hard enough to exhaust a tiny budget
    let cfg = SolverConfig::berkmin().with_budget(Budget::conflicts(5));
    let (mut solver, proof) = proof_logged_solver(&inst.cnf, cfg);
    match solver.solve() {
        SolveStatus::Unknown(_) => assert!(!proof.borrow().ends_with_empty_clause()),
        other => panic!("expected a budget abort, got {other:?}"),
    }
}

#[test]
fn explicit_empty_clause_proof_checks_and_does_not_regrow() {
    // Degenerate input: the formula itself contains the empty clause. The
    // emitted refutation must still check, and re-solving the refuted
    // session must not re-emit proof steps.
    let mut cnf = Cnf::new();
    cnf.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)]);
    cnf.add_clause([]);
    let (mut solver, proof) = proof_logged_solver(&cnf, SolverConfig::berkmin());
    assert!(solver.solve().is_unsat());
    assert!(solver.failed_assumptions().is_empty());
    assert!(proof.borrow().ends_with_empty_clause());
    check_refutation(&cnf, &proof.borrow()).expect("empty-clause refutation must check");
    let before = proof.borrow().len();
    assert!(solver.solve().is_unsat());
    assert_eq!(proof.borrow().len(), before, "re-solve must not re-emit");
}

#[test]
fn level0_contradiction_proof_checks() {
    // Two contradictory units refute the formula during level-0
    // propagation — before any search — and the proof must still check.
    let mut cnf = Cnf::new();
    cnf.add_clause([Lit::from_dimacs(1)]);
    cnf.add_clause([Lit::from_dimacs(-1)]);
    let (mut solver, proof) = proof_logged_solver(&cnf, SolverConfig::berkmin());
    assert!(solver.solve().is_unsat());
    check_refutation(&cnf, &proof.borrow()).expect("unit-contradiction proof must check");
}

#[test]
fn every_solver_addition_is_verified_by_its_hint_chain() {
    // The checker tries each addition's hint chain first and falls back to
    // full RUP when the chain fails, so a broken chain would cost speed
    // without failing any correctness test. Hold the fast path to every
    // non-empty addition of the solver's own proofs: the default search,
    // learnt-clause minimization (whose chains also carry the reasons of
    // the removed literals) and full preprocessing (strengthenings and
    // elimination resolvents).
    let mut minimize = SolverConfig::berkmin();
    minimize.minimize_learnt = true;
    let configs = [
        ("default", SolverConfig::berkmin()),
        ("minimize", minimize),
        (
            "simplify-full",
            SolverConfig::berkmin().with_simplify(SimplifyConfig::full()),
        ),
    ];
    let instances = [
        ("hole7", hole::pigeonhole(7).cnf),
        (
            "mulmiter6",
            berkmin_gens::miters::multiplier_miter(6, 0).cnf,
        ),
        ("npipe3", berkmin_gens::pipeline::npipe(3).cnf),
    ];
    for (name, cnf) in &instances {
        for (config_name, cfg) in &configs {
            let (mut solver, proof) = proof_logged_solver(cnf, cfg.clone());
            assert!(solver.solve().is_unsat(), "{name}/{config_name}");
            let report = check_refutation(cnf, &proof.borrow()).expect("refutation must check");
            // The check stops at the first contradiction, so the additions
            // it reached are all non-empty.
            assert!(report.additions_checked > 0, "{name}/{config_name}");
            assert_eq!(
                (report.additions_hinted, report.chain_failures),
                (report.additions_checked, 0),
                "{name}/{config_name}: {report:?}"
            );
        }
    }
}
