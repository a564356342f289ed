//! The portfolio from outside the crate.
//!
//! Clause-sharing soundness: every clause a solver exports — and every
//! clause another solver imports — must be a consequence of the formula
//! alone. Each captured clause C is re-certified by solving F ∧ ¬C: if
//! F ⊨ C that conjunction is UNSAT.
//!
//! Persistent workers across incremental calls: per-call accounting adds
//! up with nothing counted twice, models reconstruct on calls that rebuild
//! the workers, the proof spliced from several winners checks, and a
//! threaded session agrees with a warm single solver and shuts down
//! cleanly.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use berkmin::{
    Budget, PortfolioConfig, PortfolioEngine, SatEngine, SimplifyConfig, SolveEvent, SolveStatus,
    Solver, SolverBuilder, SolverConfig,
};
use berkmin_circuit::arith::enabled_counter;
use berkmin_circuit::bmc::BmcDriver;
use berkmin_cnf::{Cnf, Lit};
use berkmin_drat::{check_refutation, DratProof};
use berkmin_gens::ksat::random_ksat;

fn lit(n: i32) -> Lit {
    Lit::from_dimacs(n)
}

/// The pigeonhole clauses PHP(holes+1 → holes) as plain literal vectors.
fn pigeonhole(holes: usize) -> Vec<Vec<Lit>> {
    let l = |p: usize, h: usize| lit((p * holes + h + 1) as i32);
    let mut clauses = Vec::new();
    for p in 0..=holes {
        clauses.push((0..holes).map(|h| l(p, h)).collect());
    }
    for h in 0..holes {
        for p1 in 0..=holes {
            for p2 in (p1 + 1)..=holes {
                clauses.push(vec![!l(p1, h), !l(p2, h)]);
            }
        }
    }
    clauses
}

/// Certifies that each clause in `clauses` is implied by `formula`: a fresh
/// checker solves the formula with the clause's negation assumed and must
/// come back UNSAT.
fn certify_implied(clauses: &[Vec<Lit>], formula: &[Vec<Lit>], what: &str) {
    for clause in clauses {
        let mut checker = Solver::with_config(SolverConfig::berkmin());
        for c in formula {
            checker.add_clause(c.iter().copied());
        }
        for &l in clause {
            checker.assume(!l);
        }
        assert!(
            checker.solve().is_unsat(),
            "{what} clause {clause:?} is not implied by the formula"
        );
    }
}

#[test]
fn exported_clauses_pass_the_filter_and_are_formula_implied() {
    let formula = pigeonhole(5);
    let cap = 3u32;
    type ExportLog = Rc<RefCell<Vec<(Vec<Lit>, u32)>>>;
    let exported: ExportLog = Rc::new(RefCell::new(Vec::new()));
    let tap = Rc::clone(&exported);
    let mut builder =
        SolverBuilder::with_config(SolverConfig::berkmin()).share_export(cap, move |lits, lbd| {
            tap.borrow_mut().push((lits.to_vec(), lbd));
        });
    for c in &formula {
        builder = builder.clause(c.iter().copied());
    }
    let mut solver = builder.build();
    assert!(solver.solve().is_unsat());

    let exported = exported.borrow();
    assert!(
        !exported.is_empty(),
        "PHP(5) must export some learnt clauses"
    );
    for (clause, lbd) in exported.iter() {
        assert!(
            clause.len() <= 2 || *lbd <= cap,
            "exported clause {clause:?} (lbd {lbd}) violates the filter"
        );
    }
    let clauses: Vec<Vec<Lit>> = exported.iter().map(|(c, _)| c.clone()).collect();
    certify_implied(&clauses, &formula, "exported");
}

#[test]
fn imported_clauses_are_formula_implied_and_preserve_the_verdict() {
    // Sequential two-solver sharing: solver A solves PHP(5) and exports its
    // good learnt clauses; solver B then solves the same formula with those
    // clauses fed through its import source. B's import must not change the
    // verdict, and every clause B actually ingested must be a consequence
    // of the formula alone — checked by negation-assumption re-solving.
    let formula = pigeonhole(5);

    let pool: Rc<RefCell<Vec<Vec<Lit>>>> = Rc::new(RefCell::new(Vec::new()));
    let tap = Rc::clone(&pool);
    let mut builder = SolverBuilder::with_config(SolverConfig::berkmin())
        .share_export(3, move |lits, _| tap.borrow_mut().push(lits.to_vec()));
    for c in &formula {
        builder = builder.clause(c.iter().copied());
    }
    let mut exporter = builder.build();
    assert!(exporter.solve().is_unsat());
    assert!(!pool.borrow().is_empty(), "exporter published nothing");

    let imported: Rc<RefCell<Vec<Vec<Lit>>>> = Rc::new(RefCell::new(Vec::new()));
    let log = Rc::clone(&imported);
    let source = Rc::clone(&pool);
    let mut cursor = 0usize;
    let mut builder =
        SolverBuilder::with_config(SolverConfig::chaff_like()).share_import(move |buf| {
            let pool = source.borrow();
            for clause in &pool[cursor..] {
                buf.push(clause.clone());
                log.borrow_mut().push(clause.clone());
            }
            cursor = pool.len();
        });
    for c in &formula {
        builder = builder.clause(c.iter().copied());
    }
    let mut importer = builder.build();
    assert!(
        importer.solve().is_unsat(),
        "importing sound clauses must not change the verdict"
    );
    assert!(
        importer.stats().clauses_imported > 0,
        "the import source was never drained"
    );
    certify_implied(&imported.borrow(), &formula, "imported");
}

#[test]
fn sharing_portfolio_agrees_with_a_lone_reference_solver() {
    // End-to-end: the deterministic sharing portfolio and a lone BerkMin
    // must agree on PHP (UNSAT) and on PHP with one pigeon removed (SAT).
    let unsat = pigeonhole(5);
    let sat: Vec<Vec<Lit>> = pigeonhole(5)
        .into_iter()
        .filter(|c| !c.contains(&lit(1)) || c.len() == 2)
        .collect();
    for (formula, expect_sat) in [(&unsat, false), (&sat, true)] {
        let mut reference = Solver::with_config(SolverConfig::berkmin());
        for c in formula.iter() {
            reference.add_clause(c.iter().copied());
        }
        assert_eq!(reference.solve().is_sat(), expect_sat);

        let config = PortfolioConfig::new(2)
            .with_share_lbd(Some(4))
            .with_deterministic(true);
        let mut portfolio = PortfolioEngine::new(config);
        for c in formula.iter() {
            portfolio.add_clause(c);
        }
        assert_eq!(
            portfolio.solve().is_sat(),
            expect_sat,
            "portfolio disagrees with the reference solver"
        );
    }
}

/// What the per-call accounting test reads off the event stream.
#[derive(Debug, Default)]
struct CallLog {
    /// `(conflicts, decisions)` of each portfolio-level `SolveDone`.
    done: Vec<(u64, u64)>,
    /// The `PoolEvicted` totals, one per call that evicted.
    evicted: Vec<u64>,
    /// Portfolio-level `Simplify` events (one per pre-simplification run).
    simplifies: usize,
}

/// A portfolio whose untagged events land in the returned log.
fn logged(config: PortfolioConfig) -> (PortfolioEngine, Arc<Mutex<CallLog>>) {
    let log = Arc::new(Mutex::new(CallLog::default()));
    let tap = Arc::clone(&log);
    let mut engine = PortfolioEngine::new(config);
    engine.set_observer(Some(Box::new(move |e: &SolveEvent| {
        let mut log = tap.lock().unwrap();
        match e {
            SolveEvent::SolveDone {
                conflicts,
                decisions,
                ..
            } => log.done.push((*conflicts, *decisions)),
            SolveEvent::PoolEvicted { evicted } => log.evicted.push(*evicted),
            SolveEvent::Simplify { .. } => log.simplifies += 1,
            _ => {}
        }
    })));
    (engine, log)
}

/// Checks one finished call: the `SolveDone` delta is the sum of the
/// call's worker reports. Returns the call's pool misses.
fn check_call(engine: &PortfolioEngine, log: &Mutex<CallLog>, call: usize) -> u64 {
    let (conflicts, decisions) = log.lock().unwrap().done[call];
    let reports = engine.reports();
    assert_eq!(reports.len(), 2);
    assert_eq!(
        conflicts,
        reports.iter().map(|r| r.conflicts).sum::<u64>(),
        "call {call}: SolveDone conflicts vs the workers' reports"
    );
    assert_eq!(
        decisions,
        reports.iter().map(|r| r.decisions).sum::<u64>(),
        "call {call}: SolveDone decisions vs the workers' reports"
    );
    reports.iter().map(|r| r.missed).sum()
}

#[test]
fn per_call_accounting_adds_up_across_an_incremental_session() {
    // Every learnt clause is shared (binary or glue within the cap), so a
    // few thousand conflicts per call overflow the 4096-entry pool and
    // the eviction accounting is exercised.
    let (mut engine, log) = logged(
        PortfolioConfig::new(2)
            .with_deterministic(true)
            .with_share_lbd(Some(u32::MAX))
            .with_budget(Budget::conflicts(700)),
    );
    for c in pigeonhole(8) {
        engine.add_clause(&c);
    }
    let mut missed = 0;
    let mut imported = 0;
    let mut budgeted_out = 0;
    let calls = 6;
    for call in 0..calls {
        if call == 2 {
            // Two pigeons in hole 0: refuted under the assumptions.
            engine.assume(lit(1));
            engine.assume(lit(9));
        }
        if call == 4 {
            // A new clause between calls: pigeon 0 avoids hole 0.
            engine.add_clause(&[lit(-1)]);
        }
        let status = engine.solve();
        if call == 2 {
            assert!(status.is_unsat());
            assert!(!engine.failed_assumptions().is_empty());
        } else {
            assert!(!status.is_sat(), "call {call}: hole(8) is UNSAT");
        }
        let reports = engine.reports();
        if status.is_unknown() {
            budgeted_out += 1;
            // The cap counts this call's conflicts, not the workers'
            // lifetime: every worker spends exactly its 700 again.
            assert!(
                reports.iter().all(|r| r.conflicts == 700),
                "call {call}: {reports:?}"
            );
        }
        missed += check_call(&engine, &log, call);
        imported += reports.iter().map(|r| r.imported).sum::<u64>();
    }

    assert!(budgeted_out >= 3, "only {budgeted_out} calls hit the cap");
    let log = log.lock().unwrap();
    let stats = engine.stats();
    assert_eq!(log.done.len(), calls);
    assert_eq!(stats.conflicts, log.done.iter().map(|d| d.0).sum::<u64>());
    assert_eq!(stats.decisions, log.done.iter().map(|d| d.1).sum::<u64>());
    assert_eq!(stats.clauses_imported, imported);
    assert_eq!(stats.solve_calls, calls as u64);
    assert!(stats.pool_evicted > 0, "the session must overflow the pool");
    assert_eq!(
        stats.pool_evicted,
        log.evicted.iter().sum::<u64>(),
        "each call reports only its own evictions"
    );
    assert_eq!(stats.pool_missed, missed, "misses are counted once");
}

/// A model satisfies every clause in `formula` and every assumption.
fn check_model(model: &berkmin_cnf::Assignment, formula: &[Vec<Lit>], assumed: &[Lit]) {
    for c in formula {
        assert!(
            c.iter().any(|&l| model.satisfies(l)),
            "model falsifies {c:?}"
        );
    }
    for &a in assumed {
        assert!(model.satisfies(a), "model falsifies assumption {a:?}");
    }
}

#[test]
fn models_reconstruct_on_calls_that_rebuild_the_workers() {
    // Elimination plus inprocessing rewrites the shared formula on every
    // call, so every call rebuilds the workers; the assumption variables
    // (1..=8) are frozen up front, and later clauses only use them.
    let (mut engine, log) = logged(
        PortfolioConfig::new(2)
            .with_deterministic(true)
            .with_share_lbd(Some(4))
            .with_simplify(SimplifyConfig {
                var_elim: true,
                inprocess: true,
                ..SimplifyConfig::default()
            }),
    );
    let frozen: Vec<Lit> = (1..=8).map(lit).collect();
    for l in &frozen {
        engine.freeze(l.var());
    }
    let mut formula: Vec<Vec<Lit>> = random_ksat(40, 120, 3, 7)
        .cnf
        .iter()
        .map(|c| c.lits().to_vec())
        .collect();
    for c in &formula {
        engine.add_clause(c);
    }
    let mut sat_calls = 0;
    let calls = 6;
    for call in 0..calls {
        if call > 0 {
            let extra = vec![!frozen[call], frozen[(call + 3) % 8]];
            engine.add_clause(&extra);
            formula.push(extra);
        }
        let assumed = vec![frozen[call % 8], !frozen[(call + 5) % 8]];
        for &a in &assumed {
            engine.assume(a);
        }
        match engine.solve() {
            SolveStatus::Sat(model) => {
                sat_calls += 1;
                check_model(&model, &formula, &assumed);
            }
            SolveStatus::Unsat => assert!(engine
                .failed_assumptions()
                .iter()
                .all(|l| assumed.contains(l))),
            SolveStatus::Unknown(r) => panic!("call {call}: unbudgeted portfolio stopped: {r}"),
        }
        check_call(&engine, &log, call);
    }
    assert!(engine.stats().vars_eliminated > 0, "elimination must run");
    assert!(
        sat_calls >= 3,
        "too few SAT calls to check models: {sat_calls}"
    );
    let log = log.lock().unwrap();
    assert_eq!(
        log.simplifies, calls,
        "every call re-simplified and rebuilt"
    );
    assert_eq!(
        engine.stats().conflicts,
        log.done.iter().map(|d| d.0).sum::<u64>()
    );
}

#[test]
fn proof_spliced_from_several_winners_checks() {
    // No sharing, a DRAT sink and one-conflict slices, so the two workers
    // trade wins over an incremental session that grows a random 3-SAT
    // formula past the threshold until it is refuted outright. On this
    // session a worker that wins after losing needs lemmas it logged while
    // losing: the proof checks only because the splice publishes them.
    let proof = Rc::new(RefCell::new(DratProof::new()));
    let mut config = PortfolioConfig::new(2)
        .with_deterministic(true)
        .with_share_lbd(None);
    config.slice_conflicts = 1;
    let mut engine = PortfolioEngine::new(config);
    engine.set_proof(Box::new(Rc::clone(&proof)));

    let pool = random_ksat(50, 400, 3, 5).cnf;
    let mut cnf = Cnf::new();
    let mut winners = Vec::new();
    let mut refuted = false;
    for (call, batch) in pool.clauses().chunks(25).enumerate() {
        for c in batch {
            cnf.add_clause(c.lits().iter().copied());
            engine.add_clause(c.lits());
        }
        engine.assume(lit((call * 7 % 50 + 1) as i32));
        engine.assume(lit(-((call * 13 % 50 + 1) as i32)));
        let status = engine.solve();
        winners.push(engine.winner().expect("unbudgeted calls are decided"));
        if status.is_unsat() && engine.failed_assumptions().is_empty() {
            refuted = true;
            break;
        }
    }
    assert!(refuted, "the session must end in an absolute refutation");
    let distinct: std::collections::BTreeSet<usize> = winners.iter().copied().collect();
    assert!(distinct.len() > 1, "one worker won every call: {winners:?}");
    check_refutation(&cnf, &proof.borrow()).expect("the spliced proof checks");
}

#[test]
fn threaded_warm_session_agrees_with_a_single_solver_and_shuts_down() {
    let bits = 4;
    let pattern: Vec<(usize, bool)> = (0..bits).map(|o| (o, true)).collect();
    let mut single = BmcDriver::new(enabled_counter(bits), SolverConfig::berkmin());
    let engine = PortfolioEngine::new(PortfolioConfig::new(2).with_share_lbd(Some(4)));
    let mut threaded = BmcDriver::with_engine(enabled_counter(bits), engine);
    for t in 0..(1usize << bits) {
        let want = single.check_outputs_at(t, &pattern);
        let got = threaded.check_outputs_at(t, &pattern);
        assert_eq!(got.is_sat(), want.is_sat(), "depth {t}");
        assert_eq!(got.is_unsat(), want.is_unsat(), "depth {t}");
        assert_eq!(threaded.engine().reports().len(), 2);
        assert_eq!(threaded.engine().stats().solve_calls, t as u64 + 1);
    }

    // Dropping an engine mid-session closes its workers' channels and
    // joins their threads. The engine is not `Send`, so it lives and dies
    // on a helper thread that reports back once the drop returned.
    let (done, dropped) = mpsc::channel();
    std::thread::spawn(move || {
        let engine = PortfolioEngine::new(PortfolioConfig::new(2).with_share_lbd(Some(4)));
        let mut driver = BmcDriver::with_engine(enabled_counter(bits), engine);
        for t in 0..3 {
            assert!(driver.check_outputs_at(t, &pattern).is_unsat());
        }
        drop(driver);
        done.send(()).unwrap();
    });
    dropped
        .recv_timeout(Duration::from_secs(60))
        .expect("dropping a threaded portfolio mid-session must not hang");
}
