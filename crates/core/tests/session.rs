//! Session-API behavior: builder assembly, IPASIR-style assumption
//! staging, solve-event hooks (terminate + learnt-clause callbacks), and
//! trait objects.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

use berkmin::{
    Budget, RestartPolicy, SatEngine, SolveStatus, Solver, SolverBuilder, SolverConfig, StopReason,
};
use berkmin_cnf::Lit;

fn lit(n: i32) -> Lit {
    Lit::from_dimacs(n)
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

/// The object-safety guarantee, checked at compile time from *outside* the
/// crate: `dyn SatEngine` must always be a formable type.
#[allow(dead_code)]
fn object_safety_compile_check(engine: Box<dyn SatEngine>) -> Box<dyn SatEngine> {
    fn by_ref(_: &mut dyn SatEngine) {}
    engine
}

#[test]
fn assumptions_are_consumed_per_call() {
    let mut s = SolverBuilder::new().clause([lit(1), lit(2)]).build();
    s.assume(lit(-1));
    s.assume(lit(-2));
    assert!(s.solve().is_unsat());
    assert_eq!(s.failed_assumptions().len(), 2);
    // The next call is unconstrained: the staged set was consumed.
    assert!(s.solve().is_sat());
    assert!(s.failed_assumptions().is_empty());
}

#[test]
fn terminate_callback_aborts_with_callback_reason_and_spares_budgets() {
    // Restart every conflict so the callback is polled densely; abort on
    // the third poll (the first poll happens at solve entry).
    let cfg = SolverConfig::berkmin().with_budget(Budget::conflicts(10));
    let mut cfg = cfg;
    cfg.restart = RestartPolicy::FixedInterval(1);
    let polls = Arc::new(AtomicU32::new(0));
    // Whether the callback may stop the search at all; cleared below.
    let armed = Arc::new(AtomicBool::new(true));
    let (tap, arm) = (Arc::clone(&polls), Arc::clone(&armed));
    let mut s = SolverBuilder::with_config(cfg)
        .on_terminate(move || {
            let polled = tap.fetch_add(1, SeqCst) + 1;
            arm.load(SeqCst) && polled >= 3
        })
        .build();
    add_pigeonhole(&mut s, 6); // needs thousands of conflicts — never finishes here

    match s.solve() {
        SolveStatus::Unknown(StopReason::Callback) => {}
        other => panic!("expected callback stop, got {other:?}"),
    }
    assert!(polls.load(SeqCst) >= 3, "callback was not polled");
    let spent_under_callback = s.stats().conflicts;
    assert!(
        spent_under_callback < 10,
        "callback stop must preempt the conflict budget, spent {spent_under_callback}"
    );

    // Disarming the callback proves budgets were untouched: the next call
    // runs to its *full* fresh per-call allowance of 10 conflicts.
    armed.store(false, SeqCst);
    match s.solve() {
        SolveStatus::Unknown(StopReason::ConflictBudget) => {}
        other => panic!("expected budget abort, got {other:?}"),
    }
    assert_eq!(
        s.stats().conflicts - spent_under_callback,
        10,
        "callback stop leaked into the next call's budget"
    );
}

#[test]
fn terminate_callback_fires_without_any_restart() {
    // Regression: the callback used to be polled only at solve entry and
    // restart boundaries, so RestartPolicy::Never (or a huge fixed
    // interval) starved it for the whole search. It must now also fire on
    // the fixed 1024-conflict cadence. PHP(7) needs ~2600 conflicts under
    // this config, so the solve cannot finish before the poll.
    let mut cfg = SolverConfig::berkmin();
    cfg.restart = RestartPolicy::Never;
    let polls = Arc::new(AtomicU32::new(0));
    let tap = Arc::clone(&polls);
    let mut s = SolverBuilder::with_config(cfg)
        .on_terminate(move || {
            tap.fetch_add(1, SeqCst) + 1 >= 2 // first poll is solve entry; stop on the next
        })
        .build();
    add_pigeonhole(&mut s, 7);

    match s.solve() {
        SolveStatus::Unknown(StopReason::Callback) => {}
        other => panic!("expected callback stop, got {other:?}"),
    }
    assert_eq!(s.stats().restarts, 0, "no restart may fire in this test");
    assert_eq!(
        s.stats().conflicts,
        1024,
        "the in-search poll happens on the 1024-conflict cadence"
    );
    assert_eq!(polls.load(SeqCst), 2, "entry poll + one cadence poll");
}

#[test]
fn terminate_callback_polled_at_solve_entry() {
    let mut s = SolverBuilder::new()
        .on_terminate(|| true)
        .clause([lit(1)])
        .build();
    match s.solve() {
        SolveStatus::Unknown(StopReason::Callback) => {}
        other => panic!("expected immediate callback stop, got {other:?}"),
    }
    assert_eq!(s.stats().conflicts, 0);
    assert_eq!(s.stats().decisions, 0);
}

#[test]
fn learnt_callback_clauses_are_implied_by_the_formula() {
    // Record every learnt clause, then certify each one by
    // re-solving the same formula with the clause's negation assumed: if
    // F ⊨ C then F ∧ ¬C must be UNSAT.
    let learnt: Arc<Mutex<Vec<Vec<Lit>>>> = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&learnt);
    let mut s = SolverBuilder::new()
        .on_learnt(move |clause, _| tap.lock().unwrap().push(clause.to_vec()))
        .build();
    add_pigeonhole(&mut s, 4);
    assert!(s.solve().is_unsat());
    let learnt = learnt.lock().unwrap();
    assert!(!learnt.is_empty(), "PHP(4) must force learning");
    assert!(learnt.iter().all(|c| !c.is_empty()));

    for clause in learnt.iter() {
        let mut checker = Solver::with_config(SolverConfig::berkmin());
        add_pigeonhole(&mut checker, 4);
        for &l in clause {
            checker.assume(!l);
        }
        assert!(
            checker.solve().is_unsat(),
            "emitted clause {clause:?} is not implied by the formula"
        );
    }
}

#[test]
fn learnt_callback_honors_the_length_cap() {
    // The tap is unfiltered; a caller that wants only short clauses keeps
    // its cap in the closure.
    let lengths: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&lengths);
    let mut s = SolverBuilder::new()
        .on_learnt(move |clause, _| {
            if clause.len() <= 2 {
                tap.lock().unwrap().push(clause.len());
            }
        })
        .build();
    add_pigeonhole(&mut s, 5);
    assert!(s.solve().is_unsat());
    let lengths = lengths.lock().unwrap();
    assert!(
        lengths.iter().all(|&n| n <= 2),
        "callback fired for a clause longer than the cap: {lengths:?}"
    );
}

#[test]
fn learnt_callback_never_sees_assumption_dependent_clauses() {
    // Learnt clauses under assumptions are consequences of the formula
    // alone; each must still be implied after the assumptions are gone.
    let learnt: Arc<Mutex<Vec<Vec<Lit>>>> = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&learnt);
    let mut s = SolverBuilder::new()
        .on_learnt(move |clause, _| tap.lock().unwrap().push(clause.to_vec()))
        .build();
    add_pigeonhole(&mut s, 4);
    s.assume(lit(1));
    assert!(s.solve().is_unsat());

    for clause in learnt.lock().unwrap().iter() {
        let mut checker = Solver::with_config(SolverConfig::berkmin());
        add_pigeonhole(&mut checker, 4);
        for &l in clause {
            checker.assume(!l);
        }
        assert!(
            checker.solve().is_unsat(),
            "assumption-era clause {clause:?} is not formula-implied"
        );
    }
}

#[test]
fn engine_trait_object_matches_concrete_solver() {
    // The same formula through `Box<dyn SatEngine>` and through the
    // concrete `Solver` must behave identically (same verdict, same
    // conflict count — the trait adds indirection, not behavior).
    let mut concrete = Solver::with_config(SolverConfig::berkmin());
    add_pigeonhole(&mut concrete, 5);
    assert!(concrete.solve().is_unsat());

    // Feed the identical clause set through the trait surface.
    let mut engine: Box<dyn SatEngine> =
        SolverBuilder::with_config(SolverConfig::berkmin()).build_engine();
    let holes = 5usize;
    let l = |p: usize, h: usize| lit((p * holes + h + 1) as i32);
    for p in 0..=holes {
        let clause: Vec<Lit> = (0..holes).map(|h| l(p, h)).collect();
        engine.add_clause(&clause);
    }
    for h in 0..holes {
        for p1 in 0..=holes {
            for p2 in (p1 + 1)..=holes {
                engine.add_clause(&[!l(p1, h), !l(p2, h)]);
            }
        }
    }
    assert!(engine.solve().is_unsat());
    assert_eq!(
        engine.stats().conflicts,
        concrete.stats().conflicts,
        "trait indirection changed the search"
    );
}
