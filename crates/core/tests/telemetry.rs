//! Event-stream consistency: the structured telemetry layer must agree
//! with the counters in [`Stats`] — every restart and reduction the stats
//! claim happened must have produced exactly one event, `SolveDone` deltas
//! must match the per-call spend, and a solver without an observer must
//! emit nothing at all (there is no side channel to check that last one
//! through, so it is pinned structurally: the observer slot is the only
//! path events can travel).

use std::sync::{Arc, Mutex};

use berkmin::telemetry::{json, stats_to_json};
use berkmin::{
    Budget, PortfolioConfig, PortfolioEngine, SatEngine, SolveEvent, SolveVerdict, Solver,
    SolverBuilder, SolverConfig, StatsSnapshot,
};
use berkmin_cnf::Lit;

/// hole(n): n+1 pigeons in n holes — UNSAT with plenty of conflicts,
/// restarts and reductions to exercise every emission site.
fn pigeonhole(n: usize) -> Vec<Vec<Lit>> {
    let lit = |p: usize, h: usize| Lit::from_dimacs((p * n + h + 1) as i32);
    let mut clauses = Vec::new();
    for p in 0..=n {
        clauses.push((0..n).map(|h| lit(p, h)).collect());
    }
    for h in 0..n {
        for p1 in 0..=n {
            for p2 in (p1 + 1)..=n {
                clauses.push(vec![!lit(p1, h), !lit(p2, h)]);
            }
        }
    }
    clauses
}

/// Running tallies of every event kind, kept by the test observers.
#[derive(Debug, Default, Clone, PartialEq)]
struct Tally {
    solve_starts: u64,
    solve_dones: Vec<(SolveVerdict, u64, u64, u64, u64)>,
    restarts: u64,
    reduces: u64,
    simplifies: u64,
    progress: u64,
    worker_starts: Vec<usize>,
    worker_dones: Vec<usize>,
    tagged: u64,
    untagged_inner: u64,
}

impl Tally {
    fn record(&mut self, event: &SolveEvent) {
        match event {
            SolveEvent::SolveStart { .. } => self.solve_starts += 1,
            SolveEvent::SolveDone {
                verdict,
                conflicts,
                decisions,
                propagations,
                restarts,
            } => {
                self.solve_dones
                    .push((*verdict, *conflicts, *decisions, *propagations, *restarts))
            }
            SolveEvent::Restart { .. } => self.restarts += 1,
            SolveEvent::Simplify {
                clauses_before,
                clauses_after,
                ..
            } => {
                assert!(
                    clauses_after <= clauses_before,
                    "simplification must not grow the original formula"
                );
                self.simplifies += 1;
            }
            SolveEvent::Reduce {
                live_before,
                live_after,
                ..
            } => {
                assert!(live_after <= live_before, "reduction must not grow the DB");
                self.reduces += 1;
            }
            SolveEvent::Progress { .. } => self.progress += 1,
            SolveEvent::WorkerStart { worker } => self.worker_starts.push(*worker),
            SolveEvent::WorkerDone { worker, .. } => self.worker_dones.push(*worker),
            SolveEvent::Worker { event, .. } => {
                self.tagged += 1;
                assert!(
                    !matches!(
                        **event,
                        SolveEvent::Worker { .. }
                            | SolveEvent::WorkerStart { .. }
                            | SolveEvent::WorkerDone { .. }
                    ),
                    "worker tags never nest"
                );
            }
            SolveEvent::ShareImport { .. } | SolveEvent::PoolEvicted { .. } => {
                self.untagged_inner += 1
            }
        }
    }
}

/// Solves hole(6) on `engine`, renders the run as the `--stats-json`
/// document and requires its parse to hold the verdict's name and exactly
/// the engine's `Stats` as JSON (`json::Value::Int` never passes through
/// `f64`).
fn assert_stats_json_round_trips(engine: &mut dyn SatEngine) {
    for c in pigeonhole(6) {
        engine.add_clause(&c);
    }
    let verdict = SolveVerdict::from(&engine.solve());
    assert_eq!(verdict, SolveVerdict::Unsat);
    let stats = engine.stats();
    assert!(stats.conflicts > 0);
    let text = StatsSnapshot::new(verdict, 0.5, stats).render();
    let parsed = json::parse(&text).expect("stats JSON parses back");
    assert_eq!(
        parsed.get("verdict").and_then(json::Value::as_str),
        Some(verdict.as_str())
    );
    assert_eq!(
        parsed.get("stats"),
        Some(&stats_to_json(stats)),
        "stats JSON is lossy"
    );
}

#[test]
fn stats_json_round_trips_for_the_solver_and_the_sharing_portfolio() {
    assert_stats_json_round_trips(&mut SolverBuilder::new().build());
    // Short slices let both workers run, and share, before hole(6) falls.
    let mut portfolio = PortfolioEngine::new(PortfolioConfig {
        slice_conflicts: 64,
        ..PortfolioConfig::new(2)
            .with_deterministic(true)
            .with_share_lbd(Some(4))
    });
    assert_stats_json_round_trips(&mut portfolio);
    let stats = portfolio.stats();
    assert!(stats.clauses_exported > 0 && stats.clauses_imported > 0);
}

#[test]
fn restart_and_reduce_events_match_stats() {
    let tally = Arc::new(Mutex::new(Tally::default()));
    let tap = Arc::clone(&tally);
    let mut solver = SolverBuilder::with_config(SolverConfig::berkmin())
        .on_event(move |e: &SolveEvent| tap.lock().unwrap().record(e))
        .build();
    for c in pigeonhole(6) {
        solver.add_clause(c);
    }
    assert!(solver.solve().is_unsat());

    let t = tally.lock().unwrap();
    let stats = solver.stats();
    assert!(stats.restarts > 0, "hole(6) must restart at least once");
    assert_eq!(t.restarts, stats.restarts, "one Restart event per restart");
    assert_eq!(
        t.reduces, stats.reductions,
        "one Reduce event per reduction"
    );
    assert_eq!(t.solve_starts, 1);
    assert_eq!(t.solve_dones.len(), 1);
}

#[test]
fn solve_done_deltas_match_per_call_spend() {
    let tally = Arc::new(Mutex::new(Tally::default()));
    let tap = Arc::clone(&tally);
    let mut solver = SolverBuilder::with_config(SolverConfig::berkmin())
        .on_event(move |e: &SolveEvent| tap.lock().unwrap().record(e))
        .build();
    for c in pigeonhole(5) {
        solver.add_clause(c);
    }
    assert!(solver.solve().is_unsat());
    let after_first = solver.stats().clone();
    // A second call on the now-refuted formula is short-circuited; its
    // deltas must be zero, not the lifetime totals.
    assert!(solver.solve().is_unsat());

    let t = tally.lock().unwrap();
    assert_eq!(t.solve_dones.len(), 2);
    let (v1, c1, d1, p1, r1) = t.solve_dones[0];
    assert_eq!(v1, SolveVerdict::Unsat);
    assert_eq!(c1, after_first.conflicts);
    assert_eq!(d1, after_first.decisions);
    assert_eq!(p1, after_first.propagations);
    assert_eq!(r1, after_first.restarts);
    let (v2, c2, d2, p2, r2) = t.solve_dones[1];
    assert_eq!(v2, SolveVerdict::Unsat);
    assert_eq!((c2, d2, p2, r2), (0, 0, 0, 0));
}

#[test]
fn progress_ticks_follow_the_configured_period() {
    // The period `SolveEvent::Progress` documents.
    const PERIOD: u64 = 1024;
    let tally = Arc::new(Mutex::new(Tally::default()));
    let tap = Arc::clone(&tally);
    let mut solver = SolverBuilder::with_config(SolverConfig::berkmin())
        .on_event(move |e: &SolveEvent| tap.lock().unwrap().record(e))
        .build();
    for c in pigeonhole(7) {
        solver.add_clause(c);
    }
    assert!(solver.solve().is_unsat());
    let conflicts = solver.stats().conflicts;
    let ticks = tally.lock().unwrap().progress;
    assert!(
        ticks >= 3,
        "hole(7) spends several periods, got {ticks} ticks"
    );
    assert_eq!(ticks, conflicts / PERIOD, "one tick per {PERIOD} conflicts");
}

#[test]
fn observerless_solver_reports_no_observer() {
    // The observer slot is the only channel events travel through; an
    // unset slot (the default) means no event is ever constructed. Pin
    // that the builder leaves it unset and that solving works without it.
    let mut solver = SolverBuilder::with_config(SolverConfig::berkmin()).build();
    for c in pigeonhole(5) {
        solver.add_clause(c);
    }
    assert!(format!("{solver:?}").contains("observer: false"));
    assert!(solver.solve().is_unsat());
}

#[test]
fn clearing_the_observer_stops_the_stream() {
    let tally = Arc::new(Mutex::new(Tally::default()));
    let tap = Arc::clone(&tally);
    let mut solver = SolverBuilder::with_config(SolverConfig::berkmin())
        .on_event(move |e: &SolveEvent| tap.lock().unwrap().record(e))
        .build();
    for c in pigeonhole(4) {
        solver.add_clause(c);
    }
    assert!(solver.solve().is_unsat());
    let seen = tally.lock().unwrap().clone();
    assert!(seen.solve_starts == 1 && seen.solve_dones.len() == 1);

    Solver::set_observer(&mut solver, None);
    assert!(solver.solve().is_unsat());
    assert_eq!(*tally.lock().unwrap(), seen, "no events after clearing");
}

/// Shared tally for portfolio observers.
type SharedTally = Arc<Mutex<Tally>>;

fn observed_portfolio(config: PortfolioConfig) -> (PortfolioEngine, SharedTally) {
    let tally: SharedTally = Arc::new(Mutex::new(Tally::default()));
    let tap = Arc::clone(&tally);
    let mut engine = PortfolioEngine::new(config);
    engine.set_observer(Some(Box::new(move |e: &SolveEvent| {
        tap.lock().unwrap().record(e)
    })));
    (engine, tally)
}

#[test]
fn deterministic_portfolio_tags_worker_events() {
    let (mut engine, tally) = observed_portfolio(
        PortfolioConfig::new(2)
            .with_deterministic(true)
            .with_share_lbd(Some(8)),
    );
    for c in pigeonhole(6) {
        engine.add_clause(&c);
    }
    assert!(engine.solve().is_unsat());

    let t = tally.lock().unwrap();
    assert_eq!(t.solve_starts, 1, "one portfolio-level SolveStart");
    assert_eq!(t.solve_dones.len(), 1);
    assert_eq!(t.solve_dones[0].0, SolveVerdict::Unsat);
    assert_eq!(t.worker_starts, vec![0, 1], "WorkerStart in worker order");
    assert_eq!(t.worker_dones, vec![0, 1], "WorkerDone in worker order");
    assert!(t.tagged > 0, "worker solver events arrive tagged");
    assert_eq!(
        t.restarts, 0,
        "untagged Restart events are portfolio-level only; workers' are wrapped"
    );
    // SolveDone deltas cover the whole race (sum of the workers' spend).
    assert_eq!(t.solve_dones[0].1, engine.stats().conflicts);
}

#[test]
fn deterministic_portfolio_event_stream_is_reproducible() {
    let run = || {
        let (mut engine, tally) = observed_portfolio(
            PortfolioConfig::new(2)
                .with_deterministic(true)
                .with_share_lbd(Some(4)),
        );
        for c in pigeonhole(5) {
            engine.add_clause(&c);
        }
        assert!(engine.solve().is_unsat());
        let t = tally.lock().unwrap().clone();
        t
    };
    assert_eq!(run(), run());
}

#[test]
fn threaded_portfolio_tags_worker_events() {
    let (mut engine, tally) = observed_portfolio(PortfolioConfig::new(2).with_share_lbd(Some(8)));
    for c in pigeonhole(5) {
        engine.add_clause(&c);
    }
    assert!(engine.solve().is_unsat());

    let t = tally.lock().unwrap();
    assert_eq!(t.solve_starts, 1);
    assert_eq!(t.solve_dones.len(), 1);
    // Scheduling decides the interleaving, but every worker starts and
    // finishes exactly once.
    let mut starts = t.worker_starts.clone();
    let mut dones = t.worker_dones.clone();
    starts.sort_unstable();
    dones.sort_unstable();
    assert_eq!(starts, vec![0, 1]);
    assert_eq!(dones, vec![0, 1]);
    assert!(t.tagged > 0);
}

#[test]
fn portfolio_pre_simplification_emits_one_event() {
    let (mut engine, tally) = observed_portfolio(
        PortfolioConfig::new(2)
            .with_deterministic(true)
            .with_share_lbd(None),
    );
    engine.add_clause(&[Lit::from_dimacs(1), Lit::from_dimacs(2)]);
    engine.add_clause(&[
        Lit::from_dimacs(1),
        Lit::from_dimacs(2),
        Lit::from_dimacs(3),
    ]);
    assert!(engine.solve().is_sat());
    assert!(engine.solve().is_sat());
    let t = tally.lock().unwrap();
    assert_eq!(
        t.simplifies, 1,
        "the default preset pre-simplifies the first call only"
    );
}

#[test]
fn portfolio_observer_survives_across_calls() {
    let (mut engine, tally) = observed_portfolio(
        PortfolioConfig::new(2)
            .with_deterministic(true)
            .with_share_lbd(None)
            .with_budget(Budget::conflicts(3)),
    );
    for c in pigeonhole(6) {
        engine.add_clause(&c);
    }
    assert!(engine.solve().is_unknown());
    assert!(engine.solve().is_unknown());
    let t = tally.lock().unwrap();
    assert_eq!(t.solve_starts, 2, "observer reclaimed between calls");
    assert_eq!(t.solve_dones.len(), 2);
    assert!(t
        .solve_dones
        .iter()
        .all(|(v, ..)| *v == SolveVerdict::Unknown));
}
