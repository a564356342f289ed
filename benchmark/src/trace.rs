//! Instrumentation for the traced run. Every layer is timed from outside,
//! at the public calls the benchmark makes into it: a timing clause sink
//! around DIMACS ingestion, a timing proof sink, a timing engine wrapper
//! around `add_clause`, and an observer that timestamps solve events. None
//! of it is attached in an untraced run.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use berkmin::cnf::{Cnf, LBool, Lit, Var};
use berkmin::{
    ClauseSink, ProofSink, SatEngine, SolveEvent, SolveObserver, SolveStatus, Solver, Stats,
};

use crate::metrics::ratio;

/// Timings and counts taken from the solve-event stream of one pass.
#[derive(Debug, Default)]
pub struct EventTally {
    call_start: Option<Instant>,
    simplified_at: Option<Instant>,
    last_worker_start: Option<Instant>,
    /// `SolveStart` to `Simplify`, summed over solve calls.
    pub simplify: Duration,
    /// The latest of `SolveStart`, `Simplify` and the last `WorkerStart`,
    /// to `SolveDone`, summed over solve calls.
    pub search: Duration,
    /// `SolveStart` to the last `WorkerStart`, summed over portfolio calls.
    pub spinup: Duration,
    /// Live original clauses before / after each simplification.
    pub simplify_before: u64,
    pub simplify_after: u64,
    /// Live clauses before / after each reduction, workers included.
    pub live_before: u64,
    pub live_after: u64,
    /// Share-pool evictions.
    pub evicted: u64,
}

impl EventTally {
    fn record(&mut self, event: &SolveEvent, now: Instant) {
        match event {
            SolveEvent::SolveStart { .. } => {
                self.call_start = Some(now);
                self.simplified_at = None;
                self.last_worker_start = None;
            }
            SolveEvent::Simplify {
                clauses_before,
                clauses_after,
                ..
            } => {
                if let Some(start) = self.call_start {
                    self.simplify += now - start;
                }
                self.simplified_at = Some(now);
                self.simplify_before += clauses_before;
                self.simplify_after += clauses_after;
            }
            SolveEvent::WorkerStart { .. } => self.last_worker_start = Some(now),
            SolveEvent::SolveDone { .. } => {
                let Some(start) = self.call_start.take() else {
                    return;
                };
                let from = [self.simplified_at, self.last_worker_start]
                    .into_iter()
                    .flatten()
                    .fold(start, Instant::max);
                self.search += now - from;
                if let Some(spun_up) = self.last_worker_start {
                    self.spinup += spun_up - start;
                }
            }
            SolveEvent::Reduce {
                live_before,
                live_after,
                ..
            } => {
                self.live_before += live_before;
                self.live_after += live_after;
            }
            SolveEvent::PoolEvicted { evicted } => self.evicted += evicted,
            // A worker's own solve brackets nest inside the portfolio's;
            // only its reductions count here.
            SolveEvent::Worker { event, .. } => {
                if matches!(**event, SolveEvent::Reduce { .. }) {
                    self.record(event, now);
                }
            }
            _ => {}
        }
    }
}

/// The observer of a traced run: timestamps every event into a shared
/// tally. It is `Send`, so the portfolio can forward worker events to it.
#[derive(Debug, Clone, Default)]
pub struct EventClock(Arc<Mutex<EventTally>>);

impl EventClock {
    /// Runs `f` on the tally.
    pub fn with<T>(&self, f: impl FnOnce(&EventTally) -> T) -> T {
        f(&self.0.lock().expect("event tally lock poisoned"))
    }
}

impl SolveObserver for EventClock {
    fn on_event(&mut self, event: &SolveEvent) {
        let now = Instant::now();
        self.0
            .lock()
            .expect("event tally lock poisoned")
            .record(event, now);
    }
}

/// A proof sink that times every call into the sink it wraps.
pub struct TimedProof<P> {
    pub inner: P,
    pub spent: Rc<Cell<Duration>>,
}

impl<P: ProofSink> ProofSink for TimedProof<P> {
    fn add_clause(&mut self, lits: &[Lit]) {
        let start = Instant::now();
        self.inner.add_clause(lits);
        self.spent.set(self.spent.get() + start.elapsed());
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        let start = Instant::now();
        self.inner.delete_clause(lits);
        self.spent.set(self.spent.get() + start.elapsed());
    }
}

/// An engine wrapper that times `add_clause` and forwards everything else.
pub struct TimedEngine<E> {
    pub inner: E,
    pub add_clause: Duration,
    pub clauses: u64,
}

impl<E> TimedEngine<E> {
    pub fn new(inner: E) -> Self {
        TimedEngine {
            inner,
            add_clause: Duration::ZERO,
            clauses: 0,
        }
    }
}

impl<E: SatEngine> SatEngine for TimedEngine<E> {
    fn reserve_vars(&mut self, n: usize) {
        self.inner.reserve_vars(n);
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        let start = Instant::now();
        let ok = self.inner.add_clause(lits);
        self.add_clause += start.elapsed();
        self.clauses += 1;
        ok
    }

    fn assume(&mut self, lit: Lit) {
        self.inner.assume(lit);
    }

    fn solve(&mut self) -> SolveStatus {
        self.inner.solve()
    }

    fn value(&self, var: Var) -> LBool {
        self.inner.value(var)
    }

    fn failed_assumptions(&self) -> &[Lit] {
        self.inner.failed_assumptions()
    }

    fn stats(&self) -> &Stats {
        self.inner.stats()
    }

    fn set_observer(&mut self, observer: Option<Box<dyn SolveObserver + Send>>) {
        self.inner.set_observer(observer);
    }
}

/// DIMACS ingestion into a solver, plus a mirror formula when the proof
/// checker needs one (as the CLI's `--check-proof` path keeps). With
/// `timed`, the time inside `Solver::add_clause` is summed.
pub struct Ingest<'a> {
    pub solver: &'a mut Solver,
    pub mirror: Option<&'a mut Cnf>,
    pub timed: bool,
    pub add_clause: Duration,
    pub clauses: u64,
}

impl<'a> Ingest<'a> {
    pub fn new(solver: &'a mut Solver, mirror: Option<&'a mut Cnf>, timed: bool) -> Self {
        Ingest {
            solver,
            mirror,
            timed,
            add_clause: Duration::ZERO,
            clauses: 0,
        }
    }
}

impl ClauseSink for Ingest<'_> {
    fn header(&mut self, num_vars: usize, _num_clauses: usize) {
        self.solver.reserve_vars(num_vars);
        if let Some(mirror) = self.mirror.as_deref_mut() {
            mirror.ensure_vars(num_vars);
        }
    }

    fn clause(&mut self, lits: &[Lit]) {
        if self.timed {
            let start = Instant::now();
            self.solver.add_clause(lits.iter().copied());
            self.add_clause += start.elapsed();
            self.clauses += 1;
        } else {
            self.solver.add_clause(lits.iter().copied());
        }
        if let Some(mirror) = self.mirror.as_deref_mut() {
            mirror.add_clause(lits.iter().copied());
        }
    }
}

/// Everything one traced pass measures, layer by layer.
#[derive(Debug, Default)]
pub struct Layers {
    /// Wall time of `dimacs::stream_into` calls.
    pub ingest: Duration,
    pub dimacs_bytes: u64,
    /// Time inside `add_clause`: the sink's during ingestion, or the
    /// engine wrapper's during BMC encoding (no workload does both).
    pub add_clause: Duration,
    pub clauses_added: u64,
    pub events: EventClock,
    /// Counters of every engine the pass ran, merged.
    pub stats: Stats,
    /// Largest live-clause count over initial clauses (Table 9).
    pub max_live_ratio: f64,
    pub proof_write: Duration,
    pub proof_steps: u64,
    pub render: Duration,
    pub text_bytes: u64,
    pub check: Duration,
    pub check_adds: u64,
    pub winner_conflicts: u64,
    pub worker_conflicts: u64,
    pub exported: u64,
    pub imported: u64,
    /// Clauses offered to importers: each export, once per other worker.
    pub import_offers: u64,
    /// Time inside `BmcDriver::extend_to`.
    pub encode: Duration,
    pub queries: u64,
}

impl Layers {
    /// Folds one finished ingestion into the tally.
    pub fn add_ingest(&mut self, wall: Duration, sink: &Ingest<'_>, bytes: usize) {
        self.ingest += wall;
        self.add_clause += sink.add_clause;
        self.clauses_added += sink.clauses;
        self.dimacs_bytes += bytes as u64;
    }

    /// Folds a finished engine's counters into the tally.
    pub fn add_stats(&mut self, stats: &Stats) {
        self.stats.merge(stats);
        self.max_live_ratio = self.max_live_ratio.max(stats.peak_memory_ratio());
    }

    /// The per-layer metrics of this pass, keyed by name (everything in
    /// [`crate::metrics::PER_LAYER`] except the tracing overhead, which
    /// compares whole runs).
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let secs = |d: Duration| d.as_secs_f64();
        let nanos = |d: Duration| d.as_secs_f64() * 1e9;
        let s = &self.stats;
        let parse = self.ingest.saturating_sub(self.add_clause);
        let (simplify, search, spinup, removed, simplified, kept, live, evicted) =
            self.events.with(|e| {
                (
                    e.simplify,
                    e.search,
                    e.spinup,
                    e.simplify_before.saturating_sub(e.simplify_after),
                    e.simplify_before,
                    e.live_after,
                    e.live_before,
                    e.evicted,
                )
            });
        vec![
            ("dimacs.parse_s", secs(parse)),
            (
                "dimacs.mb_per_s",
                ratio(self.dimacs_bytes as f64 / 1e6, secs(parse)),
            ),
            ("solver.construct_s", secs(self.add_clause)),
            (
                "solver.ns_per_clause",
                ratio(nanos(self.add_clause), self.clauses_added as f64),
            ),
            ("preprocess.simplify_s", secs(simplify)),
            (
                "preprocess.removed_frac",
                ratio(removed as f64, simplified as f64),
            ),
            ("search.solve_s", secs(search)),
            ("search.conflicts", s.conflicts as f64),
            ("search.propagations", s.propagations as f64),
            ("search.decisions", s.decisions as f64),
            ("search.restarts", s.restarts as f64),
            (
                "search.ns_per_prop",
                ratio(nanos(search), s.propagations as f64),
            ),
            (
                "search.ns_per_conflict",
                ratio(nanos(search), s.conflicts as f64),
            ),
            (
                "search.props_per_conflict",
                ratio(s.propagations as f64, s.conflicts as f64),
            ),
            (
                "analyze.learnt_len_avg",
                ratio(s.learnt_lits_total as f64, s.learnt_total as f64),
            ),
            (
                "analyze.lbd_avg",
                ratio(s.lbd_sum as f64, s.learnt_total as f64),
            ),
            ("reduce.reductions", s.reductions as f64),
            ("reduce.kept_frac", ratio(kept as f64, live as f64)),
            ("reduce.max_live_ratio", self.max_live_ratio),
            ("reduce.gc_words_reclaimed", s.gc_words_reclaimed as f64),
            ("drat.write_s", secs(self.proof_write)),
            ("drat.steps", self.proof_steps as f64),
            ("drat.render_s", secs(self.render)),
            ("drat.text_mb", self.text_bytes as f64 / 1e6),
            ("drat.check_s", secs(self.check)),
            (
                "drat.check_us_per_add",
                ratio(secs(self.check) * 1e6, self.check_adds as f64),
            ),
            ("portfolio.spinup_s", secs(spinup)),
            (
                "portfolio.winner_conflict_frac",
                ratio(self.winner_conflicts as f64, self.worker_conflicts as f64),
            ),
            ("portfolio.exported", self.exported as f64),
            (
                "portfolio.import_frac",
                ratio(self.imported as f64, self.import_offers as f64),
            ),
            ("portfolio.evicted", evicted as f64),
            ("bmc.encode_s", secs(self.encode)),
            (
                "bmc.conflicts_per_query",
                ratio(s.conflicts as f64, self.queries as f64),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn layers_print_every_per_layer_metric_but_the_overhead() {
        let names: Vec<&str> = Layers::default().metrics().iter().map(|m| m.0).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, declared[..declared.len() - 1]);
        assert_eq!(declared.last(), Some(&"telemetry.trace_overhead_frac"));
    }

    #[test]
    fn empty_layers_report_zero_not_nan() {
        assert!(Layers::default().metrics().iter().all(|(_, v)| *v == 0.0));
    }

    #[test]
    fn event_clock_splits_simplify_search_and_spinup() {
        let mut clock = EventClock::default();
        clock.on_event(&SolveEvent::SolveStart {
            call: 1,
            num_vars: 3,
            num_clauses: 4,
            assumptions: 0,
        });
        clock.on_event(&SolveEvent::Simplify {
            rounds: 1,
            subsumed: 1,
            strengthened: 0,
            eliminated: 0,
            resolvents: 0,
            clauses_before: 4,
            clauses_after: 3,
        });
        clock.on_event(&SolveEvent::WorkerStart { worker: 0 });
        clock.on_event(&SolveEvent::Worker {
            worker: 0,
            event: Box::new(SolveEvent::Reduce {
                live_before: 10,
                live_after: 6,
                words_reclaimed: 40,
            }),
        });
        clock.on_event(&SolveEvent::SolveDone {
            verdict: berkmin::SolveVerdict::Unsat,
            conflicts: 1,
            decisions: 1,
            propagations: 1,
            restarts: 0,
        });
        clock.with(|t| {
            assert_eq!((t.simplify_before, t.simplify_after), (4, 3));
            assert_eq!((t.live_before, t.live_after), (10, 6));
            assert!(t.spinup >= t.simplify);
        });
    }
}
