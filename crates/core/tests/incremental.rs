//! Incremental and repeated-solve behavior: re-solving, adding clauses
//! between solves, solving under assumptions with failed-core extraction,
//! and resuming budget-aborted runs.

use berkmin::{ActivityIndex, Budget, SolveStatus, Solver, SolverConfig};
use berkmin_cnf::Lit;

fn lit(n: i32) -> Lit {
    Lit::from_dimacs(n)
}

/// Session-API shorthand: stage `assumptions` and run one solve call.
fn solve_under(s: &mut Solver, assumptions: &[Lit]) -> SolveStatus {
    for &a in assumptions {
        s.assume(a);
    }
    s.solve()
}

/// Adds the pigeonhole clauses PHP(holes+1 → holes) to `s`.
fn add_pigeonhole(s: &mut Solver, holes: usize) {
    let l = |p: usize, h: usize| lit((p * holes + h + 1) as i32);
    for p in 0..=holes {
        s.add_clause((0..holes).map(|h| l(p, h)));
    }
    for h in 0..holes {
        for p1 in 0..=holes {
            for p2 in (p1 + 1)..=holes {
                s.add_clause([!l(p1, h), !l(p2, h)]);
            }
        }
    }
}

#[test]
fn solving_twice_gives_the_same_answer() {
    let mut s = Solver::with_config(SolverConfig::berkmin());
    s.add_clause([lit(1), lit(2)]);
    s.add_clause([lit(-1), lit(2)]);
    assert!(s.solve().is_sat());
    assert!(s.solve().is_sat());
}

#[test]
fn clauses_narrow_the_model_incrementally() {
    let mut s = Solver::with_config(SolverConfig::berkmin());
    s.add_clause([lit(1), lit(2), lit(3)]);
    let first = s.solve();
    assert!(first.is_sat());

    // Forbid the found model's projection onto x1..x3, three times: at most
    // 7 iterations can succeed before the space is exhausted.
    let mut sat_rounds = 0;
    loop {
        let model = match s.solve() {
            SolveStatus::Sat(m) => m,
            SolveStatus::Unsat => break,
            SolveStatus::Unknown(r) => panic!("aborted: {r}"),
        };
        sat_rounds += 1;
        assert!(sat_rounds <= 7, "only 7 assignments satisfy x1∨x2∨x3");
        // Block this assignment of the three variables.
        let blocking: Vec<Lit> = (1..=3)
            .map(|i| {
                let l = lit(i);
                if model.satisfies(l) {
                    !l
                } else {
                    l
                }
            })
            .collect();
        s.add_clause(blocking);
    }
    assert_eq!(sat_rounds, 7, "model enumeration must count all 7 models");
}

#[test]
fn unsat_is_sticky() {
    let mut s = Solver::with_config(SolverConfig::berkmin());
    s.add_clause([lit(1)]);
    s.add_clause([lit(-1)]);
    assert!(s.solve().is_unsat());
    // Adding more clauses cannot revive the solver.
    s.add_clause([lit(2)]);
    assert!(s.solve().is_unsat());
    assert!(!s.is_ok());
}

#[test]
fn budget_aborted_run_resumes_and_finishes() {
    // PHP(6) needs a few thousand conflicts; give it out in installments.
    // Budgets are per call, so every re-call gets a fresh 50-conflict
    // allowance while the learnt clauses accumulate across calls.
    let cfg = SolverConfig::berkmin().with_budget(Budget::conflicts(50));
    let mut s = Solver::with_config(cfg);
    add_pigeonhole(&mut s, 6);
    let mut installments = 0;
    loop {
        match s.solve() {
            SolveStatus::Unknown(_) => {
                installments += 1;
                assert!(installments < 10_000, "runaway resume loop");
            }
            SolveStatus::Unsat => break,
            SolveStatus::Sat(_) => panic!("PHP is unsatisfiable"),
        }
    }
    assert!(installments > 1, "test must actually exercise resumption");
}

#[test]
fn second_call_does_not_inherit_spent_budget() {
    // Regression for the inter-solve budget leak: with lifetime accounting,
    // a second call under the same 40-conflict budget would return Unknown
    // immediately (0 additional conflicts). Per-call accounting grants a
    // fresh allowance each time.
    let cfg = SolverConfig::berkmin().with_budget(Budget::conflicts(40));
    let mut s = Solver::with_config(cfg);
    add_pigeonhole(&mut s, 6);
    assert!(s.solve().is_unknown());
    let after_first = s.stats().conflicts;
    assert_eq!(after_first, 40);
    assert!(matches!(
        s.solve(),
        SolveStatus::Unknown(berkmin::StopReason::ConflictBudget) | SolveStatus::Unsat
    ));
    assert!(
        s.stats().conflicts > after_first,
        "second call returned without doing any work: stale budget inherited"
    );
    assert_eq!(s.stats().solve_calls, 2);
}

#[test]
fn assumptions_constrain_the_model() {
    let mut s = Solver::with_config(SolverConfig::berkmin());
    s.add_clause([lit(1), lit(2), lit(3)]);
    for asm in [vec![lit(-1), lit(-2)], vec![lit(-2), lit(-3)], vec![lit(2)]] {
        match solve_under(&mut s, &asm) {
            SolveStatus::Sat(m) => {
                for &a in &asm {
                    assert!(m.satisfies(a), "model violates assumption {a:?}");
                }
            }
            other => panic!("expected SAT under {asm:?}, got {other:?}"),
        }
        assert!(s.failed_assumptions().is_empty());
    }
    // Assumptions are not clauses: the solver is unconstrained afterwards.
    assert!(s.solve().is_sat());
    assert!(s.is_ok());
}

#[test]
fn failed_core_is_a_subset_and_still_unsat() {
    // x1 → x2 → x3, and assumptions force x1 but forbid x3; x4 is an
    // irrelevant bystander that must not enter the core.
    let mut s = Solver::with_config(SolverConfig::berkmin());
    s.add_clause([lit(-1), lit(2)]);
    s.add_clause([lit(-2), lit(3)]);
    let assumptions = [lit(4), lit(1), lit(-3)];
    assert!(solve_under(&mut s, &assumptions).is_unsat());
    assert!(s.is_ok(), "assumption conflict must not poison the solver");
    let core: Vec<Lit> = s.failed_assumptions().to_vec();
    assert!(!core.is_empty());
    for &c in &core {
        assert!(assumptions.contains(&c), "{c:?} is not an assumption");
    }
    assert!(!core.contains(&lit(4)), "bystander dragged into the core");
    // Re-solving under just the core is still UNSAT.
    assert!(solve_under(&mut s, &core).is_unsat());
    // And the solver still answers SAT without assumptions.
    assert!(s.solve().is_sat());
    assert_eq!(s.stats().assumption_conflicts, 2);
}

#[test]
fn absolute_unsat_yields_empty_core() {
    let mut s = Solver::with_config(SolverConfig::berkmin());
    add_pigeonhole(&mut s, 3);
    assert!(s.solve().is_unsat());
    assert!(!s.is_ok());
    // Once the formula is refuted outright, assumption calls still answer
    // UNSAT but no assumption is to blame: the core is empty.
    assert!(solve_under(&mut s, &[lit(1), lit(5)]).is_unsat());
    assert!(s.failed_assumptions().is_empty());
}

#[test]
fn assumption_call_on_unsat_formula_cores_or_refutes() {
    // Solving an absolutely-UNSAT formula *under* assumptions may either
    // refute the formula (empty core) or trip over a falsified assumption
    // first (non-empty core) — both are sound, and any reported core must
    // itself be UNSAT-forcing.
    let mut s = Solver::with_config(SolverConfig::berkmin());
    add_pigeonhole(&mut s, 3);
    assert!(solve_under(&mut s, &[lit(1), lit(5)]).is_unsat());
    let core = s.failed_assumptions().to_vec();
    assert!(solve_under(&mut s, &core).is_unsat());
}

#[test]
fn unit_assumption_against_root_fact_cores_alone() {
    // x1 is a level-0 fact; assuming ¬x1 must fail with the singleton core.
    let mut s = Solver::with_config(SolverConfig::berkmin());
    s.add_clause([lit(1)]);
    s.add_clause([lit(2), lit(3)]);
    assert!(solve_under(&mut s, &[lit(2), lit(-1)]).is_unsat());
    assert_eq!(s.failed_assumptions(), &[lit(-1)]);
    assert!(s.is_ok());
    assert!(s.solve().is_sat());
}

#[test]
fn contradictory_assumptions_core_both_literals() {
    let mut s = Solver::with_config(SolverConfig::berkmin());
    s.add_clause([lit(1), lit(2)]);
    assert!(solve_under(&mut s, &[lit(3), lit(-3)]).is_unsat());
    let core = s.failed_assumptions();
    assert!(
        core.contains(&lit(3)) && core.contains(&lit(-3)),
        "{core:?}"
    );
    assert!(s.solve().is_sat());
}

#[test]
fn assumptions_on_fresh_variables_are_materialized() {
    // Assuming a variable the solver has never seen must not panic — it is
    // simply free, and the model must honor the assumption.
    let mut s = Solver::with_config(SolverConfig::berkmin());
    s.add_clause([lit(1)]);
    match solve_under(&mut s, &[lit(-9)]) {
        SolveStatus::Sat(m) => assert!(m.satisfies(lit(-9))),
        other => panic!("expected SAT, got {other:?}"),
    }
}

#[test]
fn learnt_clauses_and_heap_state_survive_across_assumption_calls() {
    let mut cfg = SolverConfig::berkmin();
    cfg.activity_index = ActivityIndex::Heap;
    let mut s = Solver::with_config(cfg);
    add_pigeonhole(&mut s, 5);
    // First query under an assumption that doesn't decide the instance.
    assert!(solve_under(&mut s, &[lit(1)]).is_unsat());
    let learnt_after_first = s.num_learnt_clauses();
    let conflicts_first = s.stats().conflicts;
    assert!(learnt_after_first > 0, "PHP must force learning");
    let activity_sum: u64 = (0..s.num_vars())
        .map(|i| s.var_activity(berkmin_cnf::Var::new(i as u32)))
        .sum();
    assert!(activity_sum > 0);
    // The audit checks heap membership: every free variable is queued.
    s.audit_invariants()
        .expect("heap must retain free variables");
    // Second call: warm start. The learnt clauses are still in the
    // database, and the heuristic state makes the re-proof cheaper than
    // the first proof.
    assert!(solve_under(&mut s, &[lit(2)]).is_unsat());
    let conflicts_second = s.stats().conflicts - conflicts_first;
    assert!(
        conflicts_second < conflicts_first,
        "warm re-solve ({conflicts_second} conflicts) not cheaper than \
         cold solve ({conflicts_first})"
    );
}

#[test]
fn add_clause_between_assumption_calls_keeps_warm_state() {
    // Enumerate models of x1∨x2∨x3 under a fixed assumption by blocking
    // clauses — exercises assume → solve → add_clause → re-solve.
    let mut s = Solver::with_config(SolverConfig::berkmin());
    s.add_clause([lit(1), lit(2), lit(3)]);
    let fixed = [lit(-3)];
    let mut models = 0;
    while let SolveStatus::Sat(m) = solve_under(&mut s, &fixed) {
        assert!(m.satisfies(lit(-3)));
        models += 1;
        assert!(models <= 3, "only 3 models have x3 = 0");
        let blocking: Vec<Lit> = (1..=3)
            .map(|i| if m.satisfies(lit(i)) { !lit(i) } else { lit(i) })
            .collect();
        s.add_clause(blocking);
    }
    assert_eq!(models, 3);
    // The blocked space is UNSAT only under the assumption…
    assert!(!s.failed_assumptions().is_empty());
    // …and the solver still finds the x3 = 1 models afterwards.
    assert!(s.solve().is_sat());
}

#[test]
fn adding_clause_after_sat_answer_works_without_explicit_reset() {
    let mut s = Solver::with_config(SolverConfig::berkmin());
    s.add_clause([lit(1), lit(2)]);
    let model = match s.solve() {
        SolveStatus::Sat(m) => m,
        other => panic!("{other:?}"),
    };
    // The solver is mid-"tree" (all variables assigned); adding a clause
    // must transparently unwind to level 0.
    let blocked: Vec<Lit> = (1..=2)
        .map(|i| {
            if model.satisfies(lit(i)) {
                !lit(i)
            } else {
                lit(i)
            }
        })
        .collect();
    s.add_clause(blocked);
    assert!(s.solve().is_sat(), "three assignments satisfy x1∨x2");
}
