//! Cross-configuration agreement: every named configuration of the paper
//! must reach the same verdict on the same formula — they differ only in
//! heuristics, never in soundness.
//!
//! Every solver here is assembled by `SolverBuilder` and driven through
//! `dyn SatEngine`, so this suite doubles as the proof that the whole
//! comparison harness needs nothing beyond the object-safe session API.

use berkmin::{RestartPolicy, SolverConfig, TopClausePolarity};
use berkmin_gens::*;
use berkmin_suite::prelude::*;

/// Builds the configured engine pre-loaded with `cnf`, as a trait object.
fn engine_for(cnf: &Cnf, cfg: SolverConfig) -> Box<dyn SatEngine> {
    SolverBuilder::with_config(cfg).cnf(cnf).build_engine()
}

/// Stages `assumptions` and runs one solve call on any engine.
fn solve_under(engine: &mut dyn SatEngine, assumptions: &[Lit]) -> SolveStatus {
    for &a in assumptions {
        engine.assume(a);
    }
    engine.solve()
}

fn paper_configs() -> Vec<(&'static str, SolverConfig)> {
    vec![
        ("berkmin", SolverConfig::berkmin()),
        ("less_sensitivity", SolverConfig::less_sensitivity()),
        ("less_mobility", SolverConfig::less_mobility()),
        (
            "sat_top",
            SolverConfig::with_top_polarity(TopClausePolarity::SatTop),
        ),
        (
            "unsat_top",
            SolverConfig::with_top_polarity(TopClausePolarity::UnsatTop),
        ),
        (
            "take_0",
            SolverConfig::with_top_polarity(TopClausePolarity::Take0),
        ),
        (
            "take_1",
            SolverConfig::with_top_polarity(TopClausePolarity::Take1),
        ),
        (
            "take_rand",
            SolverConfig::with_top_polarity(TopClausePolarity::TakeRand),
        ),
        ("limited_keeping", SolverConfig::limited_keeping()),
        ("chaff_like", SolverConfig::chaff_like()),
        ("limmat_like", SolverConfig::limmat_like()),
    ]
}

fn check_pool(pool: &[BenchInstance]) {
    for inst in pool {
        let mut verdicts: Vec<(String, bool)> = Vec::new();
        for (name, cfg) in paper_configs() {
            // Each configuration runs the sweep twice: preprocessing fully
            // off and fully on (subsumption, strengthening, elimination) —
            // the simplifier must never move any arm's verdict.
            for (tag, simplify) in [
                ("simplify-off", SimplifyConfig::off()),
                ("simplify-full", SimplifyConfig::full()),
            ] {
                let arm = format!("{name}/{tag}");
                let mut solver = engine_for(&inst.cnf, cfg.clone().with_simplify(simplify));
                match solver.solve() {
                    SolveStatus::Sat(m) => {
                        assert!(inst.cnf.is_satisfied_by(&m), "{arm} on {}", inst.name);
                        verdicts.push((arm, true));
                    }
                    SolveStatus::Unsat => verdicts.push((arm, false)),
                    SolveStatus::Unknown(r) => {
                        panic!("{arm} on {}: aborted without budget: {r}", inst.name)
                    }
                }
            }
        }
        let first = verdicts[0].1;
        for (name, v) in &verdicts {
            assert_eq!(*v, first, "{name} disagrees on {}", inst.name);
        }
        if let Some(expected) = inst.expected {
            assert_eq!(first, expected, "all solvers wrong on {}?!", inst.name);
        }
    }
}

#[test]
fn all_configs_agree_on_circuit_instances() {
    check_pool(&[
        miters::equivalent_miter(60, 20, 3),
        miters::buggy_miter(60, 20, 3),
        miters::multiplier_miter(4, 2),
        pipeline::sss_check(3, false, 5),
        pipeline::sss_check(3, true, 5),
    ]);
}

#[test]
fn all_configs_agree_on_combinatorial_instances() {
    check_pool(&[
        hole::pigeonhole(5),
        parity::parity_learning(10, 14, 2),
        parity::parity_unsat(9, 2),
        ksat::planted_ksat(30, 126, 3, 2),
        ksat::xor_unsat(12, 14, 2),
    ]);
}

#[test]
fn all_configs_agree_on_planning_and_bmc_instances() {
    check_pool(&[
        hanoi::hanoi(3),
        hanoi::hanoi_unsat(3),
        blocksworld::blocksworld(4, 4, 9),
        bmc_gen::bmc_counter_enable(3),
        bmc_gen::bmc_counter_enable_unsat(3),
    ]);
}

#[test]
fn berkmin_and_chaff_agree_on_fifty_random_3sat_instances() {
    // Smoke sweep: 50 uniform-random 3-SAT instances straddling the phase
    // transition (m/n from ~3.5 to ~5.0, so both verdicts occur). The
    // BerkMin and Chaff-like configurations must agree on every one, and
    // every SAT model must actually satisfy its formula.
    let (mut sat_seen, mut unsat_seen) = (0u32, 0u32);
    for seed in 0..50u64 {
        let n = 24;
        let m = 84 + (seed as usize % 5) * 9; // 84..=120 clauses
        let inst = ksat::random_ksat(n, m, 3, seed);
        let verdicts: Vec<bool> = [SolverConfig::berkmin(), SolverConfig::chaff_like()]
            .into_iter()
            .map(|cfg| {
                let mut solver = engine_for(&inst.cnf, cfg);
                match solver.solve() {
                    SolveStatus::Sat(model) => {
                        assert!(
                            inst.cnf.is_satisfied_by(&model),
                            "bad model on {} (seed {seed})",
                            inst.name
                        );
                        true
                    }
                    SolveStatus::Unsat => false,
                    SolveStatus::Unknown(r) => {
                        panic!("{}: aborted without budget: {r}", inst.name)
                    }
                }
            })
            .collect();
        assert_eq!(
            verdicts[0], verdicts[1],
            "BerkMin and Chaff-like disagree on {} (seed {seed})",
            inst.name
        );
        if verdicts[0] {
            sat_seen += 1;
        } else {
            unsat_seen += 1;
        }
    }
    // The sweep only exercises agreement if both verdicts actually occur.
    assert!(sat_seen > 0, "sweep never produced a SAT instance");
    assert!(unsat_seen > 0, "sweep never produced an UNSAT instance");
}

#[test]
fn berkmin_and_chaff_agree_under_random_assumption_sets() {
    // Assumption sweep: for random 3-SAT instances near the phase
    // transition, the BerkMin and Chaff-like configurations must agree on
    // SAT/UNSAT under every random assumption set, each warm solver
    // carrying its learnt clauses across the per-instance queries. SAT
    // models must honor the assumptions; UNSAT cores must be subsets of
    // the assumptions that are themselves UNSAT-forcing.
    let (mut sat_seen, mut unsat_seen) = (0u32, 0u32);
    for seed in 0..12u64 {
        let n = 20;
        let m = 70 + (seed as usize % 5) * 7; // straddle the transition
        let inst = ksat::random_ksat(n, m, 3, seed);
        let mut berkmin_solver = engine_for(&inst.cnf, SolverConfig::berkmin());
        let mut chaff_solver = engine_for(&inst.cnf, SolverConfig::chaff_like());
        for round in 0..4u64 {
            // Deterministic pseudo-random assumption set, 1..=3 literals.
            let mut x = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(round + 1);
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let count = 1 + (next() % 3) as usize;
            let assumptions: Vec<Lit> = (0..count)
                .map(|_| {
                    let v = (next() % n as u64) as u32;
                    Lit::new(Var::new(v), next() & 1 == 0)
                })
                .collect();
            let verdicts: Vec<bool> = [
                (&mut berkmin_solver, "berkmin"),
                (&mut chaff_solver, "chaff"),
            ]
            .into_iter()
            .map(
                |(solver, name)| match solve_under(solver.as_mut(), &assumptions) {
                    SolveStatus::Sat(model) => {
                        assert!(inst.cnf.is_satisfied_by(&model), "{name} bad model");
                        for &a in &assumptions {
                            assert!(model.satisfies(a), "{name} ignored assumption {a:?}");
                        }
                        true
                    }
                    SolveStatus::Unsat => {
                        for &c in solver.failed_assumptions() {
                            assert!(
                                assumptions.contains(&c),
                                "{name} core literal {c:?} not among assumptions"
                            );
                        }
                        let core = solver.failed_assumptions().to_vec();
                        assert!(
                            solve_under(solver.as_mut(), &core).is_unsat(),
                            "{name} core is not UNSAT-forcing"
                        );
                        false
                    }
                    SolveStatus::Unknown(r) => {
                        panic!("{name} on {} aborted without budget: {r}", inst.name)
                    }
                },
            )
            .collect();
            assert_eq!(
                verdicts[0], verdicts[1],
                "configs disagree on {} (seed {seed}, round {round}, {assumptions:?})",
                inst.name
            );
            if verdicts[0] {
                sat_seen += 1;
            } else {
                unsat_seen += 1;
            }
        }
    }
    assert!(sat_seen > 0, "sweep never produced a SAT query");
    assert!(unsat_seen > 0, "sweep never produced an UNSAT query");
}

/// Builds a deterministic two-worker portfolio engine pre-loaded with `cnf`.
///
/// Deterministic mode runs the workers as round-robin conflict slices on the
/// calling thread, so the sweep is reproducible and cheap enough to run over
/// the whole instance pool — with sharing on and off.
fn portfolio_for(cnf: &Cnf, share_lbd: Option<u32>) -> PortfolioEngine {
    let config = PortfolioConfig::new(2)
        .with_share_lbd(share_lbd)
        .with_deterministic(true);
    let mut engine = PortfolioEngine::new(config);
    engine.reserve_vars(cnf.num_vars());
    for clause in cnf.iter() {
        engine.add_clause(clause);
    }
    engine
}

#[test]
fn portfolio_agrees_with_single_threaded_berkmin_on_the_instance_pool() {
    // The portfolio must reach exactly the verdict single-threaded BerkMin
    // reaches, on every pooled instance, whether clause sharing is on or
    // off — sharing may only move work around, never change answers.
    let pool = [
        miters::equivalent_miter(60, 20, 3),
        miters::buggy_miter(60, 20, 3),
        hole::pigeonhole(5),
        parity::parity_unsat(9, 2),
        ksat::planted_ksat(30, 126, 3, 2),
        ksat::xor_unsat(12, 14, 2),
        hanoi::hanoi(3),
        blocksworld::blocksworld(4, 4, 9),
        bmc_gen::bmc_counter_enable(3),
        bmc_gen::bmc_counter_enable_unsat(3),
    ];
    for inst in &pool {
        let reference = engine_for(&inst.cnf, SolverConfig::berkmin())
            .solve()
            .is_sat();
        for share in [Some(4u32), None] {
            let mut portfolio = portfolio_for(&inst.cnf, share);
            match portfolio.solve() {
                SolveStatus::Sat(model) => {
                    assert!(
                        inst.cnf.is_satisfied_by(&model),
                        "portfolio model wrong on {} (share {share:?})",
                        inst.name
                    );
                    assert!(
                        reference,
                        "portfolio SAT but berkmin UNSAT on {} (share {share:?})",
                        inst.name
                    );
                }
                SolveStatus::Unsat => assert!(
                    !reference,
                    "portfolio UNSAT but berkmin SAT on {} (share {share:?})",
                    inst.name
                ),
                SolveStatus::Unknown(r) => {
                    panic!("portfolio aborted without budget on {}: {r}", inst.name)
                }
            }
            if let Some(expected) = inst.expected {
                assert_eq!(reference, expected, "reference wrong on {}?!", inst.name);
            }
        }
    }
}

#[test]
fn portfolio_agrees_on_random_3sat_with_and_without_sharing() {
    // Random 3-SAT across the phase transition: single-threaded BerkMin vs
    // the deterministic two-worker portfolio, sharing on and off. Both
    // verdicts must occur over the sweep for it to mean anything.
    let (mut sat_seen, mut unsat_seen) = (0u32, 0u32);
    for seed in 0..20u64 {
        let n = 22;
        let m = 77 + (seed as usize % 5) * 8; // straddle the transition
        let inst = ksat::random_ksat(n, m, 3, seed);
        let reference = engine_for(&inst.cnf, SolverConfig::berkmin())
            .solve()
            .is_sat();
        for share in [Some(4u32), None] {
            let mut portfolio = portfolio_for(&inst.cnf, share);
            let verdict = match portfolio.solve() {
                SolveStatus::Sat(model) => {
                    assert!(
                        inst.cnf.is_satisfied_by(&model),
                        "bad portfolio model on {} (seed {seed})",
                        inst.name
                    );
                    true
                }
                SolveStatus::Unsat => false,
                SolveStatus::Unknown(r) => {
                    panic!("{} (seed {seed}): aborted without budget: {r}", inst.name)
                }
            };
            assert_eq!(
                verdict, reference,
                "portfolio disagrees on {} (seed {seed}, share {share:?})",
                inst.name
            );
        }
        if reference {
            sat_seen += 1;
        } else {
            unsat_seen += 1;
        }
    }
    assert!(sat_seen > 0, "sweep never produced a SAT instance");
    assert!(unsat_seen > 0, "sweep never produced an UNSAT instance");
}

#[test]
fn portfolio_threaded_with_sharing_agrees_with_berkmin() {
    // The threaded race (two workers on their own threads, sharing on):
    // its winner is scheduling-dependent, its verdict must not be.
    let pool = [
        hole::pigeonhole(6),
        parity::parity_unsat(9, 2),
        ksat::random_ksat(26, 110, 3, 1),
        ksat::xor_unsat(12, 14, 2),
    ];
    for inst in &pool {
        let reference = engine_for(&inst.cnf, SolverConfig::berkmin())
            .solve()
            .is_sat();
        let mut portfolio = PortfolioEngine::new(PortfolioConfig::new(2).with_share_lbd(Some(4)));
        portfolio.reserve_vars(inst.cnf.num_vars());
        for clause in inst.cnf.iter() {
            portfolio.add_clause(clause);
        }
        match portfolio.solve() {
            SolveStatus::Sat(model) => {
                assert!(
                    inst.cnf.is_satisfied_by(&model),
                    "model wrong on {}",
                    inst.name
                );
                assert!(
                    reference,
                    "portfolio SAT but berkmin UNSAT on {}",
                    inst.name
                );
            }
            SolveStatus::Unsat => {
                assert!(
                    !reference,
                    "portfolio UNSAT but berkmin SAT on {}",
                    inst.name
                )
            }
            SolveStatus::Unknown(r) => panic!("portfolio aborted on {}: {r}", inst.name),
        }
    }
}

#[test]
fn simplification_keeps_verdicts_never_grows_and_shrinks_some_instance() {
    // Full simplification (subsumption, strengthening, elimination) against
    // none: the same verdict, never more original clauses after the pass
    // than before it, and at least one instance actually reduced.
    let pool = [
        hole::pigeonhole(6),
        ksat::random_ksat(26, 110, 3, 1),
        bmc_gen::bmc_counter_unsat(3),
    ];
    let mut shrunk = 0;
    for inst in &pool {
        let off = engine_for(
            &inst.cnf,
            SolverConfig::berkmin().with_simplify(SimplifyConfig::off()),
        )
        .solve()
        .is_sat();
        let passes = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let tap = std::sync::Arc::clone(&passes);
        let mut on = SolverBuilder::with_config(
            SolverConfig::berkmin().with_simplify(SimplifyConfig::full()),
        )
        .cnf(&inst.cnf)
        .on_event(move |e: &SolveEvent| {
            if let SolveEvent::Simplify {
                clauses_before,
                clauses_after,
                eliminated,
                ..
            } = *e
            {
                tap.lock()
                    .unwrap()
                    .push((clauses_before, clauses_after, eliminated));
            }
        })
        .build();
        assert_eq!(
            on.solve().is_sat(),
            off,
            "simplification changed {}",
            inst.name
        );
        // (A formula refuted by level-0 propagation alone never reaches
        // the pass.)
        let passes = passes.lock().unwrap();
        for &(before, after, _) in passes.iter() {
            assert!(after <= before, "simplification grew {}", inst.name);
        }
        if passes.iter().any(|&(b, a, e)| a < b || e > 0) {
            shrunk += 1;
        }
    }
    assert!(shrunk > 0, "the simplifier shrank no instance of the pool");
}

#[test]
fn restart_policies_never_change_verdicts() {
    let instances = [hole::pigeonhole(5), parity::parity_learning(10, 14, 7)];
    for inst in &instances {
        let mut verdicts = Vec::new();
        for restart in [
            RestartPolicy::Never,
            RestartPolicy::FixedInterval(3),
            RestartPolicy::FixedInterval(550),
            RestartPolicy::Luby(2),
        ] {
            let mut cfg = SolverConfig::berkmin();
            cfg.restart = restart;
            let mut solver = engine_for(&inst.cnf, cfg);
            verdicts.push(solver.solve().is_sat());
        }
        assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{}", inst.name);
    }
}

#[test]
fn minimization_extension_preserves_verdicts_and_shortens_clauses() {
    let inst = hole::pigeonhole(6);
    let mut plain_cfg = SolverConfig::berkmin();
    plain_cfg.restart = RestartPolicy::Never; // isolate the learning effect
    let mut min_cfg = plain_cfg.clone();
    min_cfg.minimize_learnt = true;

    let mut plain = engine_for(&inst.cnf, plain_cfg);
    let mut minimized = engine_for(&inst.cnf, min_cfg);
    assert!(plain.solve().is_unsat());
    assert!(minimized.solve().is_unsat());
    // Minimization must not lengthen the average learnt clause.
    let avg_len = |s: &Stats| s.learnt_lits_total as f64 / s.learnt_total as f64;
    let (min_len, plain_len) = (avg_len(minimized.stats()), avg_len(plain.stats()));
    assert!(
        min_len <= plain_len + 1e-9,
        "minimized {min_len:.2} vs plain {plain_len:.2}"
    );
}
