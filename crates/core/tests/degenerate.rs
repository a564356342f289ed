//! Degenerate and empty-input edge cases at the library level: zero-var
//! zero-clause sessions, explicit empty clauses, reserved-but-unconstrained
//! variables, and solving before anything was added. The CLI equivalents
//! live in the workspace-root `cli.rs` test; the fuzz harness's seed corpus
//! (`berkmin-fuzz`) covers the same shapes differentially.

use berkmin::{SolveStatus, Solver, SolverBuilder, SolverConfig};
use berkmin_cnf::{Assignment, LBool, Lit, Var};

fn lit(n: i32) -> Lit {
    Lit::from_dimacs(n)
}

/// Every variable of `m` has a definite value.
fn is_total(m: &Assignment) -> bool {
    (0..m.num_vars()).all(|i| m.value(Var::new(i as u32)) != LBool::Undef)
}

#[test]
fn zero_vars_zero_clauses_is_sat_with_an_empty_model() {
    let mut s = Solver::with_config(SolverConfig::berkmin());
    match s.solve() {
        SolveStatus::Sat(m) => {
            assert_eq!(m.num_vars(), 0);
            assert!(is_total(&m));
        }
        other => panic!("empty session must be SAT, got {other:?}"),
    }
    // And again — a decided empty session stays decided.
    assert!(s.solve().is_sat());
}

#[test]
fn reserved_vars_with_no_clauses_get_a_total_model() {
    let mut s = Solver::with_config(SolverConfig::berkmin());
    s.reserve_vars(5);
    match s.solve() {
        SolveStatus::Sat(m) => {
            assert_eq!(m.num_vars(), 5, "model must cover all reserved vars");
            assert!(is_total(&m), "every reserved var needs a value");
        }
        other => panic!("unconstrained vars must be SAT, got {other:?}"),
    }
}

#[test]
fn builder_reserve_then_empty_solve_matches_plain_solver() {
    let mut s = SolverBuilder::new().reserve_vars(3).build();
    let m = match s.solve() {
        SolveStatus::Sat(m) => m,
        other => panic!("expected SAT, got {other:?}"),
    };
    assert_eq!(m.num_vars(), 3);
    for i in 0..3 {
        assert_ne!(m.value(Var::new(i)), LBool::Undef);
    }
}

#[test]
fn explicit_empty_clause_refutes_immediately() {
    // (The DRAT-checked variant of this test lives in the workspace-root
    // `drat_pipeline.rs` suite — the proof crate depends on this one.)
    let mut s = Solver::with_config(SolverConfig::berkmin());
    s.add_clause([lit(1), lit(2)]);
    assert!(!s.add_clause::<[Lit; 0]>([]), "empty clause must refute");
    assert!(s.solve().is_unsat());
    assert!(
        s.failed_assumptions().is_empty(),
        "absolute refutation has an empty core"
    );
    assert!(s.solve().is_unsat(), "refutation is permanent");
}

#[test]
fn clauses_added_after_refutation_keep_the_session_unsat() {
    let mut s = Solver::with_config(SolverConfig::berkmin());
    s.add_clause::<[Lit; 0]>([]);
    assert!(s.solve().is_unsat());
    s.add_clause([lit(1)]);
    s.assume(lit(2));
    assert!(
        s.solve().is_unsat(),
        "refuted is refuted, whatever comes later"
    );
    assert!(
        s.failed_assumptions().is_empty(),
        "the refutation does not blame the assumption"
    );
}

#[test]
fn assumptions_on_unreserved_vars_materialize_them() {
    // Assuming a literal whose variable was never mentioned anywhere must
    // grow the variable tables rather than panic, and the model must honor
    // the assumption.
    let mut s = Solver::with_config(SolverConfig::berkmin().with_paranoid(true));
    s.assume(lit(-7));
    match s.solve() {
        SolveStatus::Sat(m) => {
            assert!(m.num_vars() >= 7);
            assert!(m.satisfies(lit(-7)));
        }
        other => panic!("expected SAT, got {other:?}"),
    }
    s.audit_invariants().expect("post-solve audit");
}

#[test]
fn tautologies_and_duplicate_literals_are_harmless() {
    let mut s = Solver::with_config(SolverConfig::berkmin().with_paranoid(true));
    s.add_clause([lit(1), lit(-1)]); // tautology
    s.add_clause([lit(2), lit(2), lit(2)]); // duplicates collapse to a unit
    s.add_clause([lit(-2), lit(3), lit(3)]);
    match s.solve() {
        SolveStatus::Sat(m) => {
            assert!(m.satisfies(lit(2)), "x2 is forced by the collapsed unit");
            assert!(m.satisfies(lit(3)), "x3 follows from x2");
        }
        other => panic!("expected SAT, got {other:?}"),
    }
    s.audit_invariants().expect("post-solve audit");
}
