//! One persistent portfolio worker.
//!
//! A [`Worker`] owns a CDCL core ([`Cdcl`]) with a diversified configuration
//! ([`SolverConfig::portfolio_worker`]), an optional cancellation flag wired
//! through the `on_terminate` hook, a [`ShareLink`] to the shared
//! [`ClausePool`] when sharing is on (the core counts its own exports and
//! imports), a private proof buffer and its cursor into the engine's
//! clause log. It is built empty once per crew and then, call after call,
//! [staged](Worker::stage) — handed the log's clauses past its cursor (the
//! first time, the whole log from position 0) — and run again: its learnt
//! clauses, activities and saved phases stay warm across incremental
//! calls. Log clause `k` is the worker's original clause `k`.
//!
//! Everything a worker holds is `Send`, so the threaded scheduler lends
//! each worker to a scoped thread for the length of one call (see
//! [`race_threads`](super::race_threads)).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use berkmin_cnf::{Cnf, Lit};

use crate::builder::SolverBuilder;
use crate::cdcl::Cdcl;
use crate::config::{Budget, SolverConfig};
use crate::proof::{NoProof, ProofSink};
use crate::search::SolveStatus;
use crate::stats::Stats;
use crate::telemetry::{SolveEvent, SolveObserver};

use super::share::{ClausePool, ShareLink};
use super::{WorkerOutcome, WorkerReport};

/// The portfolio's observer as shared by its workers: one mutex serializes
/// events from all threads, so the observer sees a totally ordered stream.
pub(crate) type SharedObserver = Arc<Mutex<Box<dyn SolveObserver + Send>>>;

/// Per-worker adapter installed as the worker solver's observer for the
/// length of one call: wraps each event in [`SolveEvent::Worker`] with the
/// worker's id and forwards it to the portfolio's shared observer under the
/// mutex.
struct Forward {
    worker: usize,
    shared: SharedObserver,
}

impl SolveObserver for Forward {
    fn on_event(&mut self, event: &SolveEvent) {
        let tagged = SolveEvent::Worker {
            worker: self.worker,
            event: Box::new(event.clone()),
        };
        lock(&self.shared).on_event(&tagged);
    }
}

/// Emits a portfolio-level (untagged) event into the shared observer.
pub(crate) fn emit_shared(observer: &SharedObserver, event: &SolveEvent) {
    lock(observer).on_event(event);
}

/// Locks the shared observer even after an observer panic poisoned it, so
/// every worker that panics in the observer does so with the observer's own
/// payload, which the engine re-raises. A poisoned observer only sees the
/// rest of the failing call: the engine drops it when the panic reaches the
/// caller.
fn lock(observer: &SharedObserver) -> MutexGuard<'_, Box<dyn SolveObserver + Send>> {
    observer.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One buffered proof operation — the `Send`-able form of a worker's DRAT
/// stream, replayed into the portfolio's real sink when that worker wins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ProofOp {
    /// A deduced clause (empty on refutation).
    Add(Vec<Lit>),
    /// A database deletion.
    Delete(Vec<Lit>),
}

/// A [`ProofSink`] that records operations instead of writing them — each
/// worker logs privately; a call's winner publishes what it has logged.
/// Hint chains are dropped (the provided
/// [`ProofSink::add_clause_hinted`] forwards to `add_clause`): their
/// clause IDs are private to the worker, and the splice renumbers them.
#[derive(Debug, Default)]
pub(crate) struct ProofBuffer {
    pub(crate) ops: Vec<ProofOp>,
}

impl ProofSink for ProofBuffer {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.ops.push(ProofOp::Add(lits.to_vec()));
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.ops.push(ProofOp::Delete(lits.to_vec()));
    }
}

/// What one worker hands back at the end of a call — plain `Send` data.
#[derive(Debug)]
pub(crate) struct CallResult {
    pub(crate) status: SolveStatus,
    pub(crate) failed: Vec<Lit>,
    /// The call's report.
    pub(crate) report: WorkerReport,
    /// The worker's counters over its whole life, which the engine folds
    /// into its own totals.
    pub(crate) lifetime: Stats,
    /// The winner's proof operations not yet published (empty for losers,
    /// whose operations wait until they win a call).
    pub(crate) proof_ops: Vec<ProofOp>,
}

/// A worker, and with it the core, can be lent to a thread: a `!Send`
/// field fails the build here rather than bringing back a thread that
/// must build and own its solver.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<Worker>();
    send::<Cdcl>();
};

/// A persistent worker solver (see the module docs).
pub(crate) struct Worker {
    id: usize,
    core: Cdcl,
    /// Proof operations logged but not yet published (`None` when the
    /// engine has no proof sink).
    proof: Option<ProofBuffer>,
    /// The core's counters when the current call began.
    base: Stats,
    /// How many of the log's clauses the core holds — `None` until the
    /// worker is first staged.
    cursor: Option<usize>,
}

impl Worker {
    /// Builds an empty worker core.
    ///
    /// `config` is the fully diversified per-worker configuration; `pool`
    /// (when sharing) is linked to the core under index `id`; `cancel`
    /// (when given) is polled through the core's `on_terminate` hook, so a
    /// raised flag stops the worker within one terminate-poll interval
    /// (~1024 conflicts); `record_proof` attaches the private
    /// [`ProofBuffer`].
    pub(crate) fn new(
        id: usize,
        config: SolverConfig,
        pool: Option<Arc<ClausePool>>,
        cancel: Option<Arc<AtomicBool>>,
        record_proof: bool,
    ) -> Worker {
        debug_assert!(
            !(record_proof && pool.is_some()),
            "proof recording with sharing on would be unsound"
        );
        let mut builder = SolverBuilder::with_config(config);
        if let Some(flag) = cancel {
            builder = builder.on_terminate(move || flag.load(Ordering::Relaxed));
        }
        // A recording worker stores clause IDs, as a single solver with a
        // proof sink does, so both lay out their arenas alike.
        let mut core = builder.build_core(record_proof);
        core.share = pool.map(|pool| ShareLink { pool, id });
        Worker {
            id,
            core,
            proof: record_proof.then(ProofBuffer::default),
            base: Stats::new(),
            cursor: None,
        }
    }

    /// Brings the worker up to date with the engine's clause `log`: grows
    /// the variable space to `num_vars` and adds the clauses past the
    /// cursor, which moves to the log's end. The first time, the worker
    /// also joins the share pool, whose clauses are kept for it from then
    /// on.
    pub(crate) fn stage(&mut self, num_vars: usize, log: &Cnf) {
        if let (None, Some(link)) = (self.cursor, &self.core.share) {
            link.pool.stage(link.id);
        }
        let from = self.cursor.replace(log.num_clauses()).unwrap_or(0);
        self.core.ensure_vars(num_vars);
        for clause in log.iter().skip(from) {
            self.core.add_clause(clause.iter().copied());
        }
    }

    /// Opens a call: snapshots the counters the call's report is measured
    /// from and, when observing, installs the [`Forward`] adapter.
    pub(crate) fn begin(&mut self, observer: Option<SharedObserver>) {
        self.base = self.core.stats.clone();
        if let Some(shared) = observer {
            let forward = Forward {
                worker: self.id,
                shared,
            };
            self.core.events.observer = Some(Box::new(forward));
        }
    }

    /// Runs the call, or one slice of it, under `budget` with `assumptions`
    /// staged.
    pub(crate) fn run(&mut self, assumptions: &[Lit], budget: Budget) -> SolveStatus {
        self.core.config.budget = budget;
        for &a in assumptions {
            self.core.assume(a);
        }
        match &mut self.proof {
            Some(buffer) => self.core.solve_session(buffer),
            None => self.core.solve_session(&mut NoProof),
        }
    }

    /// Conflicts spent since [`Worker::begin`].
    pub(crate) fn call_conflicts(&self) -> u64 {
        self.core.stats.conflicts - self.base.conflicts
    }

    /// Closes the call that ended in `status`: removes the observer
    /// adapter (releasing its handle on the shared observer), reports the
    /// call's deltas and, if `won`, hands over the unpublished proof.
    pub(crate) fn finish(&mut self, status: SolveStatus, won: bool) -> CallResult {
        self.core.events.observer = None;
        let stats = &self.core.stats;
        let report = WorkerReport {
            id: self.id,
            outcome: match &status {
                SolveStatus::Sat(_) => WorkerOutcome::Sat,
                SolveStatus::Unsat => WorkerOutcome::Unsat,
                SolveStatus::Unknown(reason) => WorkerOutcome::Stopped(*reason),
            },
            winner: won,
            conflicts: stats.conflicts - self.base.conflicts,
            decisions: stats.decisions - self.base.decisions,
            exported: stats.clauses_exported - self.base.clauses_exported,
            imported: stats.clauses_imported - self.base.clauses_imported,
        };
        let proof_ops = match &mut self.proof {
            Some(buffer) if won => std::mem::take(&mut buffer.ops),
            _ => Vec::new(),
        };
        CallResult {
            failed: self.core.failed.clone(),
            status,
            report,
            lifetime: stats.clone(),
            proof_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::StopReason;

    /// hole(n): n+1 pigeons in n holes — small but exponentially hard, so a
    /// worker is reliably mid-search when the flag rises.
    fn pigeonhole(n: usize) -> Vec<Vec<Lit>> {
        let lit = |pigeon: usize, hole: usize| Lit::from_dimacs((pigeon * n + hole + 1) as i32);
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

    /// One whole call on a fresh worker over hole(`n`), cancelled through
    /// `cancel`.
    fn run_cancellable(n: usize, cancel: Arc<AtomicBool>) -> CallResult {
        let mut worker = Worker::new(
            0,
            SolverConfig::portfolio_worker(0),
            None,
            Some(cancel),
            false,
        );
        let log: Cnf = pigeonhole(n).into_iter().collect();
        worker.stage((n + 1) * n, &log);
        worker.begin(None);
        let status = worker.run(&[], Budget::unlimited());
        worker.finish(status, false)
    }

    #[test]
    fn pre_raised_cancel_flag_stops_at_solve_entry() {
        let result = run_cancellable(8, Arc::new(AtomicBool::new(true)));
        assert_eq!(
            result.status,
            SolveStatus::Unknown(StopReason::Callback),
            "the entry poll must observe an already-raised flag"
        );
        assert_eq!(result.report.conflicts, 0);
    }

    #[test]
    fn raising_the_flag_mid_search_cancels_the_worker() {
        // hole(10) takes far longer than the flag-raising thread's delay;
        // the terminate poll fires at restart boundaries and every 1024
        // conflicts, so the worker stops soon after the flag rises.
        let cancel = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&cancel);
        let raiser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            flag.store(true, Ordering::SeqCst);
        });
        let result = run_cancellable(10, cancel);
        raiser.join().unwrap();
        assert_eq!(
            result.status,
            SolveStatus::Unknown(StopReason::Callback),
            "a loser must observe termination instead of searching on"
        );
    }
}
