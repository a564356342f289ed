//! BCP throughput micro-benchmarks: solving propagation-dominated
//! formulas measures the two-watched-literal engine (SATO/Chaff-style fast
//! BCP, paper §2) with almost no search on top.
//!
//! `chain_*` times the binary pass alone. Its implication chain is refuted
//! by a unit at the chain's far end, so the solve stops at the level-0
//! conflict: no decision is made, the decision heap is never drained and
//! no model is extracted. The solved solver is parked until the next
//! sample's set-up drops it, outside the timer, because dropping its 2n
//! watch lists costs more than the solve: for 10,000 variables, solve plus
//! drop took 600–900 µs and the solve alone 130–200 µs (13–20 ns per
//! propagation).
//! `fanout_*` still solves to a model and drops the solver inside the
//! timer, so it times the long-clause pass plus that end-of-search work.
//!
//! The `chain_*` and `fanout_*` benches run with solve-entry
//! simplification off: its subsumption pass would otherwise take most of
//! what they time, and they are meant to time BCP. The `bcp_search`
//! group keeps the default configuration, since it times a whole search.

use std::cell::Cell;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use berkmin::{Budget, SimplifyConfig, Solver, SolverConfig};
use berkmin_cnf::{Cnf, Lit, Var};
use berkmin_gens::{hole, ksat};

/// A long implication chain x0 → x1 → … → x(n-1) with x0 forced and
/// x(n-1) refuted, so it is unsatisfiable by unit propagation alone: BCP
/// runs along the binary clauses from both ends until the two fronts meet
/// in a level-0 conflict. The units come *last* so the chain is still
/// intact when the solver's BCP runs (adding them first would let the
/// level-0 clause simplification in `add_clause` resolve everything).
fn refuted_chain(n: usize) -> Cnf {
    let mut cnf = Cnf::with_vars(n);
    for i in 0..n - 1 {
        cnf.add_clause([
            Lit::neg(Var::new(i as u32)),
            Lit::pos(Var::new(i as u32 + 1)),
        ]);
    }
    cnf.add_clause([Lit::pos(Var::new(0))]);
    cnf.add_clause([Lit::neg(Var::new(n as u32 - 1))]);
    cnf
}

/// A wide fan-out: x0 implies n variables directly through ternary clauses
/// watched at various positions — exercises watcher-list traversal.
fn fanout(n: usize) -> Cnf {
    let mut cnf = Cnf::with_vars(n + 2);
    let root = Var::new(0);
    for i in 1..=n {
        cnf.add_clause([Lit::neg(root), Lit::pos(Var::new(i as u32))]);
        cnf.add_clause([
            Lit::neg(Var::new(i as u32)),
            Lit::pos(Var::new((i % n + 1) as u32)),
            Lit::pos(Var::new(((i + 1) % n + 1) as u32)),
        ]);
    }
    cnf.add_clause([Lit::pos(root)]); // unit last: see refuted_chain
    cnf
}

/// The default configuration minus solve-entry simplification, so the
/// chain and fan-out benches time propagation alone.
fn bcp_only() -> SolverConfig {
    SolverConfig::berkmin().with_simplify(SimplifyConfig::off())
}

fn bench_bcp(c: &mut Criterion) {
    let mut group = c.benchmark_group("bcp");
    group.sample_size(20);
    for n in [1_000usize, 10_000] {
        let chain = refuted_chain(n);
        // The last sample's solver, dropped by the next set-up (untimed).
        let parked = Cell::new(None);
        group.bench_function(format!("chain_{n}"), |b| {
            b.iter_batched(
                || {
                    drop(parked.take());
                    Solver::new(&chain, bcp_only())
                },
                |mut s| {
                    assert!(s.solve().is_unsat());
                    assert!(s.stats().propagations >= n as u64 - 2);
                    parked.set(Some(s));
                },
                BatchSize::SmallInput,
            )
        });
        let fan = fanout(n);
        group.bench_function(format!("fanout_{n}"), |b| {
            b.iter_batched(
                || Solver::new(&fan, bcp_only()),
                |mut s| {
                    assert!(s.solve().is_sat());
                    assert!(s.stats().propagations >= n as u64);
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Full search on propagation-heavy paper workloads: unlike the synthetic
/// chains above these run real conflicts, learning and §8 reductions, so
/// the clause-arena layout, the inline binary watchers *and* the compacting
/// GC are all on the clock.
fn bench_search_bcp(c: &mut Criterion) {
    let mut group = c.benchmark_group("bcp_search");
    group.sample_size(10);

    let php = hole::pigeonhole(6); // PHP(7,6): UNSAT, BCP-dominated
    group.bench_function("hole_6", |b| {
        b.iter_batched(
            || Solver::new(&php.cnf, SolverConfig::berkmin()),
            |mut s| {
                assert!(s.solve().is_unsat());
            },
            BatchSize::SmallInput,
        )
    });

    // Random 3-SAT near the phase transition; the conflict budget makes the
    // workload deterministic and machine-independent.
    let r3 = ksat::random_ksat(250, 1050, 3, 0xB16B_0055);
    group.bench_function("random3sat_250", |b| {
        b.iter_batched(
            || {
                Solver::new(
                    &r3.cnf,
                    SolverConfig::berkmin().with_budget(Budget::conflicts(20_000)),
                )
            },
            |mut s| {
                let _ = s.solve();
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_bcp, bench_search_bcp);
criterion_main!(benches);
