//! The portfolio from outside the crate.
//!
//! Learnt-clause soundness: every clause a solver's learnt-clause tap
//! delivers must be a consequence of the formula alone. Each captured
//! clause C is re-certified by solving F ∧ ¬C: if F ⊨ C that conjunction
//! is UNSAT. (The import side is tested inside the crate, on the share
//! pool's worker link.)
//!
//! Persistent workers across incremental calls: per-call accounting adds
//! up with nothing counted twice, models reconstruct after a worker panic
//! rebuilds the workers, the proof spliced from several winners checks, and a
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

/// The portfolio's sharing rule, applied in the tests' own tap closures
/// the way the share pool applies it to every offered clause.
fn shared(lits: &[Lit], lbd: u32, cap: u32) -> bool {
    lits.len() <= 2 || lbd <= cap
}

#[test]
fn tapped_clauses_carry_their_lbd_and_are_formula_implied() {
    let formula = pigeonhole(5);
    let cap = 3u32;
    type TapLog = Arc<Mutex<Vec<(Vec<Lit>, u32)>>>;
    let tapped: TapLog = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&tapped);
    let mut builder =
        SolverBuilder::with_config(SolverConfig::berkmin()).on_learnt(move |lits, lbd| {
            tap.lock().unwrap().push((lits.to_vec(), lbd));
        });
    for c in &formula {
        builder = builder.clause(c.iter().copied());
    }
    let mut solver = builder.build();
    assert!(solver.solve().is_unsat());

    let tapped = tapped.lock().unwrap();
    // The tap is unfiltered: one delivery per conflict-derived learnt
    // clause. (The final level-0 conflict derives the empty clause, which
    // is not delivered.)
    assert!(tapped.len() as u64 >= solver.stats().conflicts - 1);
    for (clause, lbd) in tapped.iter() {
        assert!(
            (1..=clause.len() as u32).contains(lbd),
            "clause {clause:?} reports lbd {lbd}, outside 1..=len"
        );
    }
    let kept: Vec<Vec<Lit>> = tapped
        .iter()
        .filter(|(c, lbd)| shared(c, *lbd, cap))
        .map(|(c, _)| c.clone())
        .collect();
    assert!(!kept.is_empty(), "PHP(5) must learn some shareable clauses");
    assert!(
        kept.len() < tapped.len(),
        "the cap must reject some clauses"
    );
    certify_implied(&kept, &formula, "shared");
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
            _ => {}
        }
    })));
    (engine, log)
}

/// Checks one finished call: the `SolveDone` delta is the sum of the
/// call's worker reports.
fn check_call(engine: &PortfolioEngine, log: &Mutex<CallLog>, call: usize) {
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
}

#[test]
fn per_call_accounting_adds_up_across_an_incremental_session() {
    // Every learnt clause is shared (binary or glue within the cap), so a
    // few thousand conflicts per call overflow the 4096-entry pool and
    // the eviction accounting is exercised. hole(9) keeps the budgeted
    // calls from reaching the refutation.
    let (mut engine, log) = logged(
        PortfolioConfig::new(2)
            .with_deterministic(true)
            .with_share_lbd(Some(u32::MAX))
            .with_budget(Budget::conflicts(700)),
    );
    for c in pigeonhole(9) {
        engine.add_clause(&c);
    }
    let mut imported = 0;
    let mut budgeted_out = 0;
    let calls = 6;
    for call in 0..calls {
        if call == 2 {
            // Two pigeons in hole 0: refuted under the assumptions.
            engine.assume(lit(1));
            engine.assume(lit(10));
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
            assert!(!status.is_sat(), "call {call}: hole(9) is UNSAT");
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
        check_call(&engine, &log, call);
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
fn models_reconstruct_after_a_worker_panic_rebuilds_the_crew() {
    for deterministic in [true, false] {
        models_reconstruct_after_a_crew_rebuild(deterministic);
    }
}

fn models_reconstruct_after_a_crew_rebuild(deterministic: bool) {
    // Elimination runs at the first call only; the assumption variables
    // (1..=8) are frozen up front, and later clauses only use them and
    // fresh variables. Call 2's observer panics at the first worker event,
    // which drops the crew mid-call, so call 3 builds a new crew without
    // simplifying again: each of its workers restages from log position 0
    // (on its own thread when threaded). The paranoid workers audit the
    // log they are staged from.
    let mut engine = PortfolioEngine::new(
        PortfolioConfig::new(2)
            .with_deterministic(deterministic)
            .with_share_lbd(Some(4))
            .with_paranoid(true)
            .with_simplify(SimplifyConfig {
                var_elim: true,
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
        .map(<[Lit]>::to_vec)
        .collect();
    for c in &formula {
        engine.add_clause(c);
    }
    let mut eliminated = 0;
    let mut sat_calls = 0;
    for call in 0..7 {
        if call > 0 {
            // A fresh variable chains two frozen ones: simplifying again
            // would eliminate it.
            let fresh = lit(40 + call as i32);
            for extra in [
                vec![!frozen[call % 8], fresh],
                vec![!fresh, frozen[(call + 3) % 8]],
            ] {
                engine.add_clause(&extra);
                formula.push(extra);
            }
        }
        let assumed = vec![frozen[call % 8], !frozen[(call + 5) % 8]];
        for &a in &assumed {
            engine.assume(a);
        }
        if call == 2 {
            engine.set_observer(Some(Box::new(|e: &SolveEvent| {
                if matches!(e, SolveEvent::Worker { .. }) {
                    panic!("observer refuses worker events");
                }
            })));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.solve()));
            assert!(
                caught.is_err(),
                "the observer's panic must reach the caller"
            );
            engine.set_observer(None);
            continue;
        }
        // Call 3 runs on a new crew: worker 0's first solve call is its
        // solver's first.
        let first_call = Arc::new(Mutex::new(None));
        if call == 3 {
            let seen = Arc::clone(&first_call);
            engine.set_observer(Some(Box::new(move |e: &SolveEvent| {
                if let SolveEvent::Worker { worker: 0, event } = e {
                    if let SolveEvent::SolveStart { call, .. } = **event {
                        seen.lock().unwrap().get_or_insert(call);
                    }
                }
            })));
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
        if call == 3 {
            engine.set_observer(None);
            assert_eq!(*first_call.lock().unwrap(), Some(1), "the crew was rebuilt");
        }
        if call == 0 {
            eliminated = engine.stats().vars_eliminated;
            assert!(eliminated > 0, "elimination must run");
        }
        assert_eq!(
            engine.stats().vars_eliminated,
            eliminated,
            "call {call}: the front simplifies only the first call"
        );
    }
    assert!(
        sat_calls >= 3,
        "too few SAT calls to check models: {sat_calls}"
    );
}

#[test]
fn the_front_answers_like_a_single_solver() {
    // The `--elim` path: elimination on. After the first
    // solve over the same clauses, freezes and assumptions, a portfolio's
    // front and a lone solver with the same `SimplifyConfig` must agree on
    // every variable's elimination state (which the freezes protect) and
    // on the simplification counters.
    let simplify = SimplifyConfig {
        var_elim: true,
        ..SimplifyConfig::default()
    };
    let mut totals = (0, 0, 0);
    for seed in 0..6 {
        let mut formula: Vec<Vec<Lit>> = random_ksat(40, 110, 3, seed)
            .cnf
            .iter()
            .map(<[Lit]>::to_vec)
            .collect();
        // A subsumed clause and a strengthenable one, so every counter moves.
        formula.push(vec![lit(1), lit(2)]);
        formula.push(vec![lit(1), lit(2), lit(3)]);
        formula.push(vec![lit(-1), lit(2), lit(4)]);

        let mut engine = PortfolioEngine::new(
            PortfolioConfig::new(2)
                .with_deterministic(true)
                .with_share_lbd(None)
                .with_simplify(simplify),
        );
        let mut solver = Solver::with_config(SolverConfig::berkmin().with_simplify(simplify));
        for v in [5, 9, 13] {
            engine.freeze(lit(v).var());
            solver.freeze(lit(v).var());
        }
        for c in &formula {
            engine.add_clause(c);
            solver.add_clause(c.iter().copied());
        }
        engine.assume(lit(-7));
        solver.assume(lit(-7));
        assert_eq!(
            engine.solve().is_sat(),
            solver.solve().is_sat(),
            "seed {seed}"
        );
        for v in (1..=40).map(|n| lit(n).var()) {
            assert_eq!(
                engine.is_eliminated(v),
                solver.is_eliminated(v),
                "seed {seed}: {v:?} eliminated"
            );
        }
        let (e, s) = (engine.stats(), solver.stats());
        let counters = |st: &berkmin::Stats| {
            (
                st.vars_eliminated,
                st.clauses_subsumed,
                st.clauses_strengthened,
            )
        };
        assert_eq!(counters(e), counters(s), "seed {seed}");
        totals.0 += s.vars_eliminated;
        totals.1 += s.clauses_subsumed;
        totals.2 += s.clauses_strengthened;
    }
    assert!(
        totals.0 > 0 && totals.1 > 0 && totals.2 > 0,
        "every counter must move somewhere: {totals:?}"
    );
}

#[test]
fn proof_spliced_from_several_winners_checks() {
    // No sharing, a DRAT sink and one-conflict slices, so the two workers
    // trade wins over an incremental session that grows a random 3-SAT
    // formula past the threshold until it is refuted outright. On this
    // session a worker that wins after losing needs lemmas it logged while
    // losing: the proof checks only because the splice publishes them.
    // Worker clause IDs are private to each worker, so the splice carries
    // no hints: the whole proof is checked by full RUP.
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
    let pool: Vec<&[Lit]> = pool.iter().collect();
    for (call, batch) in pool.chunks(25).enumerate() {
        for &c in batch {
            cnf.add_clause(c.iter().copied());
            engine.add_clause(c);
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
    let report = check_refutation(&cnf, &proof.borrow()).expect("the spliced proof checks");
    assert!(report.additions_checked > 0);
    assert_eq!(
        (report.additions_hinted, report.chain_failures),
        (0, 0),
        "the spliced proof must be unhinted"
    );
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

    // Dropping an engine mid-session must return at once: no worker
    // thread outlives the call that lent it a worker. The engine is not
    // `Send` (its proof sink need not be), so it lives and dies on a helper
    // thread that reports back once the drop returned.
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

#[test]
fn idle_workers_stay_unstaged_until_a_call_needs_them() {
    // Worker 0 answers the easy calls inside its first slice, so worker 1
    // is never staged and nothing is published: no worker but the source
    // could import it. The last call is hard enough to reach worker 1,
    // which is staged then and shares from its first slice on.
    let mut config = PortfolioConfig::new(2)
        .with_deterministic(true)
        .with_share_lbd(Some(8));
    config.slice_conflicts = 16;
    let mut engine = PortfolioEngine::new(config);
    let formula: Vec<Vec<Lit>> = random_ksat(150, 639, 3, 3)
        .cnf
        .iter()
        .map(<[Lit]>::to_vec)
        .collect();
    let mut lone = Solver::with_config(SolverConfig::berkmin());
    let mut added = 0;
    for (call, upto) in [60, 120, 180, formula.len()].into_iter().enumerate() {
        for c in &formula[added..upto] {
            engine.add_clause(c);
            lone.add_clause(c.iter().copied());
        }
        added = upto;
        let status = engine.solve();
        let reports = engine.reports();
        assert_eq!(status.is_sat(), lone.solve().is_sat(), "call {call}");
        let model = status.model().expect("every prefix is satisfiable");
        check_model(model, &formula[..added], &[]);
        if added < formula.len() {
            assert_eq!(engine.winner(), Some(0), "call {call}: {reports:?}");
            assert_eq!(reports[1].conflicts, 0, "call {call}: {reports:?}");
            assert!(
                reports.iter().all(|r| r.exported == 0),
                "call {call}: {reports:?}"
            );
            assert_eq!(engine.stats().clauses_exported, 0, "call {call}");
        } else {
            assert!(reports[1].conflicts > 0, "worker 1 must run: {reports:?}");
            assert!(
                reports.iter().map(|r| r.exported).sum::<u64>() > 0,
                "the hard call must share: {reports:?}"
            );
        }
    }
}

#[test]
fn threaded_workers_share_from_the_start() {
    // Threaded workers count as staged from spawn, so the gate that keeps
    // an idle deterministic worker's peers from publishing never closes
    // here: on hole(7) both directions of the exchange carry clauses.
    let mut engine = PortfolioEngine::new(PortfolioConfig::new(2).with_share_lbd(Some(4)));
    for c in pigeonhole(7) {
        engine.add_clause(&c);
    }
    assert!(engine.solve().is_unsat());
    let reports = engine.reports();
    assert!(
        reports.iter().map(|r| r.exported).sum::<u64>() > 0,
        "{reports:?}"
    );
    assert!(
        reports.iter().map(|r| r.imported).sum::<u64>() > 0,
        "{reports:?}"
    );
}
